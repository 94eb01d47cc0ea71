#include "library/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

namespace qda::library
{

namespace
{

constexpr uint64_t fnv_offset = 0xcbf29ce484222325ull;
constexpr uint64_t fnv_check_seed = 0x9e3779b97f4a7c15ull;
constexpr uint64_t fnv_prime = 0x100000001b3ull;

uint64_t fnv_accumulate( uint64_t state, const void* data, size_t size ) noexcept
{
  const auto* bytes = static_cast<const unsigned char*>( data );
  for ( size_t i = 0u; i < size; ++i )
  {
    state ^= bytes[i];
    state *= fnv_prime;
  }
  return state;
}

/*! splitmix64 finalizer: decorrelates WL colors between rounds. */
uint64_t mix( uint64_t value ) noexcept
{
  value += 0x9e3779b97f4a7c15ull;
  value = ( value ^ ( value >> 30u ) ) * 0xbf58476d1ce4e5b9ull;
  value = ( value ^ ( value >> 27u ) ) * 0x94d049bb133111ebull;
  return value ^ ( value >> 31u );
}

void append_u8( std::string& bytes, uint8_t value )
{
  bytes.push_back( static_cast<char>( value ) );
}

void append_u32( std::string& bytes, uint32_t value )
{
  char buffer[sizeof( value )];
  std::memcpy( buffer, &value, sizeof( value ) );
  bytes.append( buffer, sizeof( value ) );
}

void append_u64( std::string& bytes, uint64_t value )
{
  char buffer[sizeof( value )];
  std::memcpy( buffer, &value, sizeof( value ) );
  bytes.append( buffer, sizeof( value ) );
}

void append_angle( std::string& bytes, double angle )
{
  /* exact bit pattern: the verified spelling never tolerates angle
   * drift, so a splice reproduces the stored form bit-for-bit */
  uint64_t value;
  std::memcpy( &value, &angle, sizeof( value ) );
  append_u64( bytes, value );
}

/*! Spells every alive gate of `circuit` with first-touch local wire
 *  ids of type `Id`, straight from the IR columns: kind, then (except
 *  for barrier and global_phase) control count, controls, target,
 *  swap's second target, and the exact angle bits of rotations and
 *  global phases.  Fills `probe.wires` and `probe.before`. */
template<typename Id>
void spell_circuit( const qcircuit& circuit, phasepoly::splice_probe& probe )
{
  constexpr uint32_t unseen = 0xffffffffu;
  const auto& core = circuit.core();
  const auto& cols = core.columns();
  std::vector<uint32_t> local_of( circuit.num_qubits(), unseen );
  std::string& bytes = probe.bytes;
  size_t at = bytes.size();
  bytes.resize( at + core.num_slots() * ( 1u + 3u * sizeof( Id ) ) );

  const auto put_wire = [&]( char* out, uint32_t qubit ) {
    uint32_t& local = local_of[qubit];
    if ( local == unseen )
    {
      local = static_cast<uint32_t>( probe.wires.size() );
      probe.wires.push_back( qubit );
    }
    const auto id = static_cast<Id>( local );
    std::memcpy( out, &id, sizeof( id ) );
    return out + sizeof( id );
  };
  const auto put_angle = [&]( char* out, uint32_t slot ) {
    const double angle = cols.angle_of( slot );
    std::memcpy( out, &angle, sizeof( angle ) );
    return out + sizeof( angle );
  };

  probe.before = { 0u, 0u, 0u };
  for ( uint32_t slot = 0u; slot < core.num_slots(); ++slot )
  {
    if ( !core.slot_alive( slot ) )
    {
      continue;
    }
    const auto kind = cols.kind[slot];
    const auto controls = cols.controls_of( slot );
    ++probe.before[0];
    probe.before[1] += kind == gate_kind::t || kind == gate_kind::tdg ? 1u : 0u;
    probe.before[2] += kind == gate_kind::cx ? 1u : 0u;

    const size_t most = 1u + sizeof( Id ) * ( 3u + controls.size() ) + sizeof( double );
    if ( at + most > bytes.size() )
    {
      bytes.resize( 2u * bytes.size() + most );
    }
    char* out = bytes.data() + at;
    *out++ = static_cast<char>( kind );
    if ( kind == gate_kind::global_phase )
    {
      out = put_angle( out, slot );
    }
    else if ( kind != gate_kind::barrier )
    {
      const auto count = static_cast<Id>( controls.size() );
      std::memcpy( out, &count, sizeof( count ) );
      out += sizeof( count );
      for ( const uint32_t control : controls )
      {
        out = put_wire( out, control );
      }
      out = put_wire( out, cols.target[slot] );
      if ( kind == gate_kind::swap )
      {
        out = put_wire( out, cols.target2[slot] );
      }
      if ( kind == gate_kind::rx || kind == gate_kind::ry || kind == gate_kind::rz )
      {
        out = put_angle( out, slot );
      }
    }
    at = static_cast<size_t>( out - bytes.data() );
  }
  bytes.resize( at );
}

void finish_probe( phasepoly::splice_probe& probe )
{
  probe.key = fingerprint_bytes( probe.bytes );
  probe.valid = true;
}

/* ---- WL-style canonicalization of a phase polynomial ---- */

/*! One hyperedge of the region graph: a phase term (colored by its
 *  quantized angle) or an output row (colored by its anchor wire). */
struct poly_edge
{
  std::vector<uint32_t> vars;
  uint64_t color = 0u;
  uint32_t anchor = 0u;     /* rows only: the output wire */
  bool is_row = false;
};

struct poly_graph
{
  uint32_t num_vars = 0u;
  std::vector<poly_edge> edges;
  std::vector<std::vector<uint32_t>> incident; /* var -> edge indices */
  std::vector<uint8_t> constant_bit;
};

poly_graph build_graph( const phasepoly::phase_polynomial& poly )
{
  poly_graph graph;
  graph.num_vars = poly.num_vars;
  graph.incident.resize( poly.num_vars );
  graph.constant_bit.resize( poly.num_vars, 0u );
  poly.output_constants.for_each_set_bit( [&]( uint32_t var ) {
    if ( var < poly.num_vars )
    {
      graph.constant_bit[var] = 1u;
    }
  } );

  for ( const auto& term : poly.terms )
  {
    poly_edge edge;
    edge.color = mix( 0x7465726du ^ static_cast<uint64_t>( quantize_angle( term.angle ) ) );
    term.parity.for_each_set_bit( [&]( uint32_t var ) { edge.vars.push_back( var ); } );
    const auto index = static_cast<uint32_t>( graph.edges.size() );
    for ( const uint32_t var : edge.vars )
    {
      graph.incident[var].push_back( index );
    }
    graph.edges.push_back( std::move( edge ) );
  }
  for ( uint32_t row = 0u; row < poly.num_vars; ++row )
  {
    poly_edge edge;
    edge.is_row = true;
    edge.anchor = row;
    edge.color = mix( 0x726f77u );
    poly.output_linear[row].for_each_set_bit(
        [&]( uint32_t var ) { edge.vars.push_back( var ); } );
    const auto index = static_cast<uint32_t>( graph.edges.size() );
    for ( const uint32_t var : edge.vars )
    {
      graph.incident[var].push_back( index );
    }
    graph.edges.push_back( std::move( edge ) );
  }
  return graph;
}

size_t count_classes( const std::vector<uint64_t>& colors )
{
  auto sorted = colors;
  std::sort( sorted.begin(), sorted.end() );
  return static_cast<size_t>( std::unique( sorted.begin(), sorted.end() ) - sorted.begin() );
}

/*! One-round WL refinement; returns the number of color classes. */
size_t refine_to_stable( const poly_graph& graph, std::vector<uint64_t>& colors )
{
  const uint32_t m = graph.num_vars;
  size_t classes = count_classes( colors );
  std::vector<uint64_t> next( m );
  std::vector<uint64_t> signature;
  for ( uint32_t round = 0u; round < m + 2u; ++round )
  {
    /* commutative member digest per edge (order-free multiset hash) */
    std::vector<uint64_t> edge_sum( graph.edges.size(), 0u );
    std::vector<uint64_t> edge_xor( graph.edges.size(), 0u );
    for ( size_t e = 0u; e < graph.edges.size(); ++e )
    {
      for ( const uint32_t var : graph.edges[e].vars )
      {
        const uint64_t mixed = mix( colors[var] );
        edge_sum[e] += mixed;
        edge_xor[e] ^= mixed;
      }
    }
    for ( uint32_t var = 0u; var < m; ++var )
    {
      signature.clear();
      for ( const uint32_t e : graph.incident[var] )
      {
        const auto& edge = graph.edges[e];
        const uint64_t anchor_color = edge.is_row ? mix( colors[edge.anchor] ) : 0u;
        signature.push_back( mix( edge.color ^ mix( edge_sum[e] ) ^
                                  mix( edge_xor[e] + anchor_color ) ) );
      }
      /* the row anchored here sees its member digest even when the var
       * is not a member (identity rows distinguish wires) */
      const auto& row = graph.edges[graph.edges.size() - m + var];
      signature.push_back( mix( 0x616e63u ^ mix( edge_sum[graph.edges.size() - m + var] ) ^
                                row.color ) );
      std::sort( signature.begin(), signature.end() );
      uint64_t state = colors[var];
      for ( const uint64_t item : signature )
      {
        state = fnv_accumulate( state, &item, sizeof( item ) );
      }
      next[var] = state;
    }
    colors = next;
    const size_t refined = count_classes( colors );
    if ( refined == classes )
    {
      return refined;
    }
    classes = refined;
    if ( classes == m )
    {
      return classes;
    }
  }
  return classes;
}

std::vector<uint32_t> order_of( const std::vector<uint64_t>& colors )
{
  std::vector<uint32_t> order( colors.size() );
  for ( uint32_t var = 0u; var < colors.size(); ++var )
  {
    order[var] = var;
  }
  std::stable_sort( order.begin(), order.end(), [&]( uint32_t a, uint32_t b ) {
    return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
  } );
  return order;
}

/*! Serializes the polynomial under the labeling `order` (canonical
 *  label c = variable order[c]). */
std::string serialize_poly( const phasepoly::phase_polynomial& poly, std::string_view tag,
                            const std::vector<uint32_t>& order )
{
  const uint32_t m = poly.num_vars;
  std::vector<uint32_t> to_canonical( m );
  for ( uint32_t c = 0u; c < m; ++c )
  {
    to_canonical[order[c]] = c;
  }

  std::string bytes;
  bytes.append( "poly1|" );
  bytes.append( tag );
  bytes.push_back( '|' );
  append_u32( bytes, m );

  for ( uint32_t c = 0u; c < m; ++c )
  {
    append_u8( bytes, poly.output_constants.test( order[c] ) ? 1u : 0u );
  }
  std::vector<uint32_t> members;
  for ( uint32_t c = 0u; c < m; ++c )
  {
    members.clear();
    poly.output_linear[order[c]].for_each_set_bit(
        [&]( uint32_t var ) { members.push_back( to_canonical[var] ); } );
    std::sort( members.begin(), members.end() );
    append_u32( bytes, static_cast<uint32_t>( members.size() ) );
    for ( const uint32_t member : members )
    {
      append_u32( bytes, member );
    }
  }

  std::vector<std::string> terms;
  terms.reserve( poly.terms.size() );
  for ( const auto& term : poly.terms )
  {
    members.clear();
    term.parity.for_each_set_bit(
        [&]( uint32_t var ) { members.push_back( to_canonical[var] ); } );
    std::sort( members.begin(), members.end() );
    std::string spelled;
    append_u32( spelled, static_cast<uint32_t>( members.size() ) );
    for ( const uint32_t member : members )
    {
      append_u32( spelled, member );
    }
    append_angle( spelled, term.angle );
    terms.push_back( std::move( spelled ) );
  }
  std::sort( terms.begin(), terms.end() );
  append_u32( bytes, static_cast<uint32_t>( terms.size() ) );
  for ( const auto& term : terms )
  {
    bytes.append( term );
  }
  append_angle( bytes, poly.global_phase );
  return bytes;
}

} // namespace

std::array<uint64_t, 2> fingerprint_bytes( std::string_view bytes ) noexcept
{
  /* 8 bytes per step; each step is a bijection of the state (xor,
   * odd multiply, xor-shift), so two spellings of one length that
   * differ in a single word never collide, and the shift folds the
   * high word bits into the low bits the key buckets on */
  uint64_t primary = fnv_offset;
  uint64_t check = fnv_check_seed;
  const auto step = []( uint64_t state, uint64_t word ) {
    state = ( state ^ word ) * fnv_prime;
    return state ^ ( state >> 32u );
  };
  size_t at = 0u;
  for ( ; at + sizeof( uint64_t ) <= bytes.size(); at += sizeof( uint64_t ) )
  {
    uint64_t word;
    std::memcpy( &word, bytes.data() + at, sizeof( word ) );
    primary = step( primary, word );
    check = step( check, word );
  }
  uint64_t tail = 0u;
  if ( at < bytes.size() )
  {
    std::memcpy( &tail, bytes.data() + at, bytes.size() - at );
  }
  const uint64_t length = bytes.size();
  return { mix( step( primary, tail ) ^ length ), mix( step( check, tail ) ^ length ) };
}

int64_t quantize_angle( double angle ) noexcept
{
  constexpr double two_pi = 2.0 * std::numbers::pi;
  double folded = std::fmod( angle, two_pi );
  if ( folded < 0.0 )
  {
    folded += two_pi;
  }
  /* pi/4 grid times 2^20 sub-buckets: ulp noise never splits a bucket,
   * and a nearby-but-different angle only costs a missed hit (the
   * byte-exact verify keeps wrong splices impossible) */
  constexpr double resolution = std::numbers::pi / 4.0 / static_cast<double>( 1u << 20u );
  const auto bucket = std::llround( folded / resolution );
  constexpr int64_t wrap = int64_t{ 8 } << 20u;
  return bucket >= wrap ? 0 : bucket;
}

void fingerprint_phase_polynomial( const phasepoly::phase_polynomial& poly,
                                   std::string_view tag, phasepoly::splice_probe& probe )
{
  const uint32_t m = poly.num_vars;
  const auto graph = build_graph( poly );
  std::vector<uint64_t> colors( m );
  for ( uint32_t var = 0u; var < m; ++var )
  {
    colors[var] = mix( 0x696e6974u ^ graph.constant_bit[var] );
  }
  size_t classes = refine_to_stable( graph, colors );

  /* budgeted individualization: refinement-stable ties are broken by
   * the candidate whose fully refined serialization is smallest -- a
   * relabeling-invariant choice (the achievable set is invariant and
   * we take its minimum); past the budget ties fall back to input
   * order, which can only cost a missed hit */
  uint32_t budget = 32u;
  while ( classes < m && budget > 0u )
  {
    uint64_t tie_color = 0u;
    uint32_t tie_count = 0u;
    for ( uint32_t var = 0u; var < m; ++var )
    {
      uint32_t same = 0u;
      for ( uint32_t other = 0u; other < m; ++other )
      {
        same += colors[other] == colors[var] ? 1u : 0u;
      }
      if ( same > 1u && ( tie_count == 0u || colors[var] < tie_color ) )
      {
        tie_color = colors[var];
        tie_count = same;
      }
    }
    if ( tie_count == 0u || tie_count > 16u )
    {
      break;
    }
    int best = -1;
    std::string best_bytes;
    std::vector<uint64_t> best_colors;
    for ( uint32_t var = 0u; var < m; ++var )
    {
      if ( colors[var] != tie_color )
      {
        continue;
      }
      auto trial = colors;
      trial[var] = mix( trial[var] ^ 0x6964ull );
      refine_to_stable( graph, trial );
      auto bytes = serialize_poly( poly, tag, order_of( trial ) );
      if ( best < 0 || bytes < best_bytes )
      {
        best = static_cast<int>( var );
        best_bytes = std::move( bytes );
        best_colors = std::move( trial );
      }
    }
    colors = std::move( best_colors );
    classes = count_classes( colors );
    --budget;
  }

  const auto order = order_of( colors );
  probe.before = { poly.terms.size(), 0u, 0u };
  probe.bytes = serialize_poly( poly, tag, order );
  probe.wires = order; /* canonical label -> region-local variable */
  probe.perm.assign( m, 0u );
  for ( uint32_t c = 0u; c < m; ++c )
  {
    probe.perm[order[c]] = c; /* region-local variable -> canonical */
  }
  finish_probe( probe );
}

void fingerprint_circuit( const qcircuit& circuit, std::string_view tag,
                          phasepoly::splice_probe& probe )
{
  probe.bytes.clear();
  probe.bytes.append( "qc2|" );
  probe.bytes.append( tag );
  probe.bytes.push_back( '|' );
  probe.wires.clear();
  probe.perm.clear();
  /* every local label (and control count) is below num_qubits, so the
   * spelling's id width is fixed per circuit and named in the header */
  if ( circuit.num_qubits() <= 0x10000u )
  {
    append_u8( probe.bytes, 2u );
    spell_circuit<uint16_t>( circuit, probe );
  }
  else
  {
    append_u8( probe.bytes, 4u );
    spell_circuit<uint32_t>( circuit, probe );
  }
  finish_probe( probe );
}

void fingerprint_rev_circuit( const rev_circuit& circuit, std::string_view tag,
                              phasepoly::splice_probe& probe )
{
  probe.bytes.clear();
  probe.bytes.append( "rev2|" );
  probe.bytes.append( tag );
  probe.bytes.push_back( '|' );
  probe.wires.clear();
  probe.perm.clear();

  /* raw rows, no relabeling: rptm's output follows the line order
   * (controls ascending within a gate, pending X flips flushed in line
   * order, dirty ancillas borrowed lowest-first among all wires), so
   * two inputs share an entry only when a miss would emit the same */
  append_u32( probe.bytes, circuit.num_lines() );
  probe.bytes.reserve( probe.bytes.size() + circuit.num_gates() * 20u );
  for ( const auto& gate : circuit.gates() )
  {
    append_u64( probe.bytes, gate.controls );
    append_u64( probe.bytes, gate.polarity & gate.controls );
    append_u32( probe.bytes, gate.target );
  }
  probe.before = { circuit.num_gates(), 0u, 0u };
  finish_probe( probe );
}

} // namespace qda::library
