#include "library/subcircuit_library.hpp"

#include "fault/failpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qda::library
{

namespace
{

constexpr char file_magic[8] = { 'Q', 'D', 'A', 'L', 'I', 'B', '1', '\n' };
/* 2: 16-bit circuit spellings, word-wise keys; 3: no MCT-ladder records;
 * 4: no region records, exact tpar keys, no cost fields */
constexpr uint32_t file_version = 4u;
constexpr uint32_t record_magic = 0x4c524543u;
constexpr uint64_t max_payload_size = uint64_t{ 1 } << 30u;

structural_key to_structural( const std::array<uint64_t, 2>& key ) noexcept
{
  return structural_key{ key[0], key[1] };
}

/* ---- record serialization ---- */

void put_u32( std::string& out, uint32_t value )
{
  char buffer[sizeof( value )];
  std::memcpy( buffer, &value, sizeof( value ) );
  out.append( buffer, sizeof( value ) );
}

void put_u64( std::string& out, uint64_t value )
{
  char buffer[sizeof( value )];
  std::memcpy( buffer, &value, sizeof( value ) );
  out.append( buffer, sizeof( value ) );
}

void put_f64( std::string& out, double value )
{
  uint64_t bits;
  std::memcpy( &bits, &value, sizeof( bits ) );
  put_u64( out, bits );
}

struct byte_reader
{
  const char* data = nullptr;
  size_t size = 0u;
  size_t at = 0u;
  bool ok = true;

  bool take( void* out, size_t count )
  {
    if ( !ok || size - at < count )
    {
      ok = false;
      return false;
    }
    std::memcpy( out, data + at, count );
    at += count;
    return true;
  }
  uint32_t u32()
  {
    uint32_t value = 0u;
    take( &value, sizeof( value ) );
    return value;
  }
  uint64_t u64()
  {
    uint64_t value = 0u;
    take( &value, sizeof( value ) );
    return value;
  }
  double f64()
  {
    uint64_t bits = u64();
    double value = 0.0;
    std::memcpy( &value, &bits, sizeof( value ) );
    return value;
  }
  bool str( std::string& out, uint64_t count )
  {
    if ( !ok || size - at < count )
    {
      ok = false;
      return false;
    }
    out.assign( data + at, count );
    at += count;
    return true;
  }
};

std::string serialize_entry( const std::array<uint64_t, 2>& key, const library_entry& entry )
{
  std::string payload;
  put_u64( payload, key[0] );
  put_u64( payload, key[1] );
  put_u32( payload, static_cast<uint32_t>( entry.kind ) );
  put_u32( payload, entry.num_wires );
  put_u32( payload, entry.aux );
  put_u64( payload, entry.costs.gates_before );
  put_u64( payload, entry.costs.gates_after );
  put_u64( payload, entry.costs.t_after );
  put_u64( payload, entry.costs.cnot_after );
  put_u64( payload, entry.costs.depth_after );
  put_u64( payload, entry.verify.size() );
  payload.append( entry.verify );
  put_u64( payload, entry.gates.size() );
  for ( const auto& gate : entry.gates )
  {
    payload.push_back( static_cast<char>( gate.kind ) );
    payload.push_back( static_cast<char>( gate.controls.size() ) );
    for ( const uint32_t control : gate.controls )
    {
      put_u32( payload, control );
    }
    put_u32( payload, gate.target );
    put_u32( payload, gate.target2 );
    put_f64( payload, gate.angle );
  }
  return payload;
}

bool parse_entry( byte_reader& reader, std::array<uint64_t, 2>& key, library_entry& entry )
{
  key[0] = reader.u64();
  key[1] = reader.u64();
  const uint32_t kind = reader.u32();
  if ( kind != static_cast<uint32_t>( entry_kind::tpar_circuit ) &&
       kind != static_cast<uint32_t>( entry_kind::rptm_circuit ) )
  {
    return false;
  }
  entry.kind = static_cast<entry_kind>( kind );
  entry.num_wires = reader.u32();
  entry.aux = reader.u32();
  entry.costs.gates_before = reader.u64();
  entry.costs.gates_after = reader.u64();
  entry.costs.t_after = reader.u64();
  entry.costs.cnot_after = reader.u64();
  entry.costs.depth_after = reader.u64();
  const uint64_t verify_size = reader.u64();
  if ( !reader.ok || verify_size > max_payload_size ||
       !reader.str( entry.verify, verify_size ) )
  {
    return false;
  }
  const uint64_t gate_count = reader.u64();
  if ( !reader.ok || gate_count > max_payload_size / 16u )
  {
    return false;
  }
  entry.gates.clear();
  entry.gates.reserve( gate_count );
  for ( uint64_t i = 0u; i < gate_count; ++i )
  {
    qgate gate;
    uint8_t raw_kind = 0u;
    uint8_t num_controls = 0u;
    reader.take( &raw_kind, 1u );
    reader.take( &num_controls, 1u );
    if ( !reader.ok || raw_kind > static_cast<uint8_t>( gate_kind::global_phase ) )
    {
      return false;
    }
    gate.kind = static_cast<gate_kind>( raw_kind );
    gate.controls.resize( num_controls );
    for ( auto& control : gate.controls )
    {
      control = reader.u32();
    }
    gate.target = reader.u32();
    gate.target2 = reader.u32();
    gate.angle = reader.f64();
    if ( !reader.ok )
    {
      return false;
    }
    entry.gates.push_back( std::move( gate ) );
  }
  return reader.ok;
}

/*! True when every wire of a stored gate is below `num_wires`.  The
 *  key is the exact input, so stored wires are the output's; entries
 *  may come from the store file, so their range is still checked. */
bool wires_in_range( const qgate& gate, uint32_t num_wires )
{
  if ( gate.kind == gate_kind::global_phase || gate.kind == gate_kind::barrier )
  {
    return true;
  }
  for ( const uint32_t control : gate.controls )
  {
    if ( control >= num_wires )
    {
      return false;
    }
  }
  return gate.target < num_wires &&
         ( gate.kind != gate_kind::swap || gate.target2 < num_wires );
}

void count_after_costs( const std::vector<qgate>& gates, entry_costs& costs )
{
  costs.gates_after = gates.size();
  for ( const auto& gate : gates )
  {
    costs.t_after += gate.is_t_gate() ? 1u : 0u;
    costs.cnot_after += gate.kind == gate_kind::cx ? 1u : 0u;
  }
}

/*! Copies an optimized circuit into a new entry keyed by `probe`. */
library_entry make_entry( entry_kind kind, const phasepoly::splice_probe& probe,
                          const qcircuit& out )
{
  library_entry entry;
  entry.kind = kind;
  entry.num_wires = out.num_qubits();
  entry.verify = probe.bytes;
  entry.costs.gates_before = probe.before[0];
  entry.gates.reserve( out.num_gates() );
  for ( const auto& view : out.gates() )
  {
    entry.gates.push_back( view.materialize() );
  }
  count_after_costs( entry.gates, entry.costs );
  entry.costs.depth_after = compute_statistics( out ).depth;
  return entry;
}

} // namespace

subcircuit_library::subcircuit_library( library_options options )
    : options_( std::move( options ) ),
      entries_( options_.shards, options_.capacity )
{
  if ( !options_.path.empty() )
  {
    load_from_disk();
  }
}

subcircuit_library& subcircuit_library::instance()
{
  static subcircuit_library* library = [] {
    library_options options;
    if ( const char* path = std::getenv( "QDA_LIBRARY_PATH" ) )
    {
      options.path = path;
    }
    if ( const char* capacity = std::getenv( "QDA_LIBRARY_CAPACITY" ) )
    {
      options.capacity = std::strtoull( capacity, nullptr, 10 );
    }
    return new subcircuit_library( std::move( options ) );
  }();
  return *library;
}

std::shared_ptr<const library_entry>
subcircuit_library::find_verified( const std::array<uint64_t, 2>& key, entry_kind kind,
                                   std::string_view verify )
{
  auto entry = entries_.find( to_structural( key ) );
  if ( !entry )
  {
    return nullptr;
  }
  if ( entry->kind != kind || entry->verify != verify )
  {
    verify_mismatches_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.verify_mismatch" );
    return nullptr;
  }
  return entry;
}

std::shared_ptr<const library_entry>
subcircuit_library::lookup( const std::array<uint64_t, 2>& key, entry_kind kind,
                            std::string_view verify )
{
  auto entry = find_verified( key, kind, verify );
  if ( entry )
  {
    hits_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.hit" );
  }
  else
  {
    misses_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.miss" );
  }
  return entry;
}

void subcircuit_library::admit( const std::array<uint64_t, 2>& key, library_entry entry )
{
  if ( options_.capacity == 0u )
  {
    return;
  }
  admits_.fetch_add( 1u, std::memory_order_relaxed );
  QDA_COUNT( "library.admit" );
  if ( !options_.path.empty() )
  {
    append_to_disk( key, entry );
  }
  entries_.insert( to_structural( key ),
                   std::make_shared<const library_entry>( std::move( entry ) ) );
}

bool subcircuit_library::note_miss( const std::array<uint64_t, 2>& key )
{
  if ( profile_.observe( key[0] ) >= sighting_profile::admit_sighting )
  {
    return true;
  }
  rejected_cold_.fetch_add( 1u, std::memory_order_relaxed );
  QDA_COUNT( "library.reject_cold" );
  return false;
}

/*! Rebuilds a stored entry as a circuit over `entry.num_wires`
 *  qubits; false (counted) when a stored wire is out of range. */
bool subcircuit_library::rebuild( const library_entry& entry, qcircuit& out )
{
  out = qcircuit( entry.num_wires );
  out.core().reserve( entry.gates.size() );
  for ( const auto& gate : entry.gates )
  {
    if ( !wires_in_range( gate, entry.num_wires ) )
    {
      unsplicable_.fetch_add( 1u, std::memory_order_relaxed );
      QDA_COUNT( "library.unsplicable" );
      return false;
    }
    out.add_gate( gate );
  }
  return true;
}

/* ---- tpar tier ---- */

bool subcircuit_library::splice_circuit( const qcircuit& in, std::string_view tag,
                                         phasepoly::splice_probe& probe, qcircuit& out )
{
  fingerprint_circuit( in, tag, probe );
  auto entry = lookup( probe.key, entry_kind::tpar_circuit, probe.bytes );
  if ( !entry || entry->num_wires != in.num_qubits() )
  {
    return false;
  }
  QDA_TRACE_SPAN_NAMED( splice_span, "library.splice" );
  splice_span.attr( "level", "tpar-circuit" );
  splice_span.attr( "gates", static_cast<int64_t>( entry->gates.size() ) );
  return rebuild( *entry, out );
}

void subcircuit_library::offer_circuit( const phasepoly::splice_probe& probe,
                                        const qcircuit& out )
{
  if ( probe.valid && note_miss( probe.key ) )
  {
    admit( probe.key, make_entry( entry_kind::tpar_circuit, probe, out ) );
  }
}

/* ---- rptm tier ---- */

bool subcircuit_library::splice_rev_mapping( const rev_circuit& in, std::string_view tag,
                                             phasepoly::splice_probe& probe, qcircuit& out,
                                             uint32_t& num_helpers )
{
  fingerprint_rev_circuit( in, tag, probe );
  auto entry = lookup( probe.key, entry_kind::rptm_circuit, probe.bytes );
  if ( !entry || entry->aux > entry->num_wires ||
       entry->num_wires - entry->aux != in.num_lines() )
  {
    return false;
  }
  QDA_TRACE_SPAN_NAMED( splice_span, "library.splice" );
  splice_span.attr( "level", "rptm-circuit" );
  splice_span.attr( "gates", static_cast<int64_t>( entry->gates.size() ) );
  if ( !rebuild( *entry, out ) )
  {
    return false;
  }
  num_helpers = entry->aux;
  return true;
}

void subcircuit_library::offer_rev_mapping( const phasepoly::splice_probe& probe,
                                            const qcircuit& mapped, uint32_t num_helpers )
{
  if ( !probe.valid || !note_miss( probe.key ) )
  {
    return;
  }
  auto entry = make_entry( entry_kind::rptm_circuit, probe, mapped );
  entry.aux = num_helpers;
  admit( probe.key, std::move( entry ) );
}

/* ---- persistence ---- */

size_t subcircuit_library::set_path( std::string path )
{
  {
    std::lock_guard<std::mutex> guard( file_mutex_ );
    options_.path = std::move( path );
  }
  return load_from_disk();
}

size_t subcircuit_library::load_from_disk()
{
  std::lock_guard<std::mutex> guard( file_mutex_ );
  if ( options_.path.empty() )
  {
    return 0u;
  }
  try
  {
    QDA_FAILPOINT( "library.load" );
  }
  catch ( ... )
  {
    load_failures_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.load_failed" );
    return 0u;
  }

  std::FILE* file = std::fopen( options_.path.c_str(), "rb" );
  if ( !file )
  {
    /* a missing store is a normal cold start, not damage */
    return 0u;
  }

  char magic[sizeof( file_magic )];
  uint32_t version = 0u;
  if ( std::fread( magic, 1u, sizeof( magic ), file ) != sizeof( magic ) ||
       std::memcmp( magic, file_magic, sizeof( magic ) ) != 0 )
  {
    load_failures_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.load_failed" );
    std::fclose( file );
    return 0u;
  }
  if ( std::fread( &version, 1u, sizeof( version ), file ) != sizeof( version ) ||
       version != file_version )
  {
    version_mismatches_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.version_mismatch" );
    std::fclose( file );
    return 0u;
  }

  size_t loaded = 0u;
  std::string payload;
  while ( true )
  {
    uint32_t magic_word = 0u;
    const size_t got = std::fread( &magic_word, 1u, sizeof( magic_word ), file );
    if ( got == 0u )
    {
      break; /* clean end of store */
    }
    uint64_t payload_size = 0u;
    uint64_t checksum = 0u;
    if ( got != sizeof( magic_word ) || magic_word != record_magic ||
         std::fread( &payload_size, 1u, sizeof( payload_size ), file ) !=
             sizeof( payload_size ) ||
         payload_size > max_payload_size )
    {
      load_truncated_.fetch_add( 1u, std::memory_order_relaxed );
      QDA_COUNT( "library.load_truncated" );
      break;
    }
    payload.resize( payload_size );
    if ( std::fread( payload.data(), 1u, payload_size, file ) != payload_size ||
         std::fread( &checksum, 1u, sizeof( checksum ), file ) != sizeof( checksum ) ||
         fingerprint_bytes( payload )[0] != checksum )
    {
      load_truncated_.fetch_add( 1u, std::memory_order_relaxed );
      QDA_COUNT( "library.load_truncated" );
      break;
    }
    byte_reader reader{ payload.data(), payload.size() };
    std::array<uint64_t, 2> key{};
    library_entry entry;
    if ( !parse_entry( reader, key, entry ) )
    {
      load_truncated_.fetch_add( 1u, std::memory_order_relaxed );
      QDA_COUNT( "library.load_truncated" );
      break;
    }
    entries_.insert( to_structural( key ),
                     std::make_shared<const library_entry>( std::move( entry ) ) );
    ++loaded;
  }
  std::fclose( file );
  loaded_entries_.fetch_add( loaded, std::memory_order_relaxed );
  QDA_COUNT_N( "library.entries_loaded", loaded );
  return loaded;
}

void subcircuit_library::append_to_disk( const std::array<uint64_t, 2>& key,
                                         const library_entry& entry )
{
  std::lock_guard<std::mutex> guard( file_mutex_ );
  try
  {
    QDA_FAILPOINT( "library.store" );
  }
  catch ( ... )
  {
    store_failures_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.store_failed" );
    return;
  }

  std::FILE* file = std::fopen( options_.path.c_str(), "ab" );
  if ( !file )
  {
    store_failures_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.store_failed" );
    return;
  }
  bool wrote = true;
  std::fseek( file, 0, SEEK_END );
  const long position = std::ftell( file );
  if ( position == 0 )
  {
    wrote = std::fwrite( file_magic, 1u, sizeof( file_magic ), file ) ==
                sizeof( file_magic ) &&
            std::fwrite( &file_version, 1u, sizeof( file_version ), file ) ==
                sizeof( file_version );
  }
  const auto payload = serialize_entry( key, entry );
  const uint64_t payload_size = payload.size();
  const uint64_t checksum = fingerprint_bytes( payload )[0];
  wrote = wrote &&
          std::fwrite( &record_magic, 1u, sizeof( record_magic ), file ) ==
              sizeof( record_magic ) &&
          std::fwrite( &payload_size, 1u, sizeof( payload_size ), file ) ==
              sizeof( payload_size ) &&
          std::fwrite( payload.data(), 1u, payload.size(), file ) == payload.size() &&
          std::fwrite( &checksum, 1u, sizeof( checksum ), file ) == sizeof( checksum );
  if ( std::fclose( file ) != 0 || !wrote )
  {
    store_failures_.fetch_add( 1u, std::memory_order_relaxed );
    QDA_COUNT( "library.store_failed" );
  }
}

/* ---- introspection ---- */

library_statistics subcircuit_library::statistics() const
{
  library_statistics stats;
  stats.hits = hits_.load( std::memory_order_relaxed );
  stats.misses = misses_.load( std::memory_order_relaxed );
  stats.verify_mismatches = verify_mismatches_.load( std::memory_order_relaxed );
  stats.admits = admits_.load( std::memory_order_relaxed );
  stats.rejected_cold = rejected_cold_.load( std::memory_order_relaxed );
  stats.unsplicable = unsplicable_.load( std::memory_order_relaxed );
  stats.loaded_entries = loaded_entries_.load( std::memory_order_relaxed );
  stats.load_failures = load_failures_.load( std::memory_order_relaxed );
  stats.load_truncated = load_truncated_.load( std::memory_order_relaxed );
  stats.version_mismatches = version_mismatches_.load( std::memory_order_relaxed );
  stats.store_failures = store_failures_.load( std::memory_order_relaxed );
  const auto memory = entries_.statistics();
  stats.entries = memory.entries;
  stats.evictions = memory.evictions;
  return stats;
}

void subcircuit_library::clear()
{
  entries_.clear();
  profile_.clear();
  hits_.store( 0u, std::memory_order_relaxed );
  misses_.store( 0u, std::memory_order_relaxed );
  verify_mismatches_.store( 0u, std::memory_order_relaxed );
  admits_.store( 0u, std::memory_order_relaxed );
  rejected_cold_.store( 0u, std::memory_order_relaxed );
  unsplicable_.store( 0u, std::memory_order_relaxed );
  loaded_entries_.store( 0u, std::memory_order_relaxed );
  load_failures_.store( 0u, std::memory_order_relaxed );
  load_truncated_.store( 0u, std::memory_order_relaxed );
  version_mismatches_.store( 0u, std::memory_order_relaxed );
  store_failures_.store( 0u, std::memory_order_relaxed );
}

std::string format_library_report( const library_statistics& stats )
{
  char line[256];
  std::snprintf( line, sizeof( line ),
                 "library: %llu hits / %llu misses (%llu admits, %llu entries, "
                 "%llu loaded, %llu load faults)",
                 static_cast<unsigned long long>( stats.hits ),
                 static_cast<unsigned long long>( stats.misses ),
                 static_cast<unsigned long long>( stats.admits ),
                 static_cast<unsigned long long>( stats.entries ),
                 static_cast<unsigned long long>( stats.loaded_entries ),
                 static_cast<unsigned long long>( stats.load_failures +
                                                  stats.load_truncated +
                                                  stats.version_mismatches ) );
  return line;
}

} // namespace qda::library
