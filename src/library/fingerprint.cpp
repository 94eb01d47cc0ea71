#include "library/fingerprint.hpp"

#include <cstring>

namespace qda::library
{

namespace
{

constexpr uint64_t fnv_offset = 0xcbf29ce484222325ull;
constexpr uint64_t fnv_check_seed = 0x9e3779b97f4a7c15ull;
constexpr uint64_t fnv_prime = 0x100000001b3ull;

/*! splitmix64 finalizer: folds the hash state into the key words. */
uint64_t mix( uint64_t value ) noexcept
{
  value += 0x9e3779b97f4a7c15ull;
  value = ( value ^ ( value >> 30u ) ) * 0xbf58476d1ce4e5b9ull;
  value = ( value ^ ( value >> 27u ) ) * 0x94d049bb133111ebull;
  return value ^ ( value >> 31u );
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

/*! Spells every alive gate of `circuit` with its exact wire ids of
 *  type `Id`, straight from the IR columns: kind, then (except for
 *  barrier and global_phase) control count, controls, target, swap's
 *  second target, and the exact angle bits of rotations and global
 *  phases.  Fills `probe.before`. */
template<typename Id>
void spell_circuit( const qcircuit& circuit, phasepoly::splice_probe& probe )
{
  const auto& core = circuit.core();
  const auto& cols = core.columns();
  std::string& bytes = probe.bytes;
  size_t at = bytes.size();
  bytes.resize( at + core.num_slots() * ( 1u + 3u * sizeof( Id ) ) );

  const auto put_wire = [&]( char* out, uint32_t qubit ) {
    const auto id = static_cast<Id>( qubit );
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

void fingerprint_circuit( const qcircuit& circuit, std::string_view tag,
                          phasepoly::splice_probe& probe )
{
  probe.bytes.clear();
  probe.bytes.append( "qc3|" );
  probe.bytes.append( tag );
  probe.bytes.push_back( '|' );
  /* every wire id (and control count) is below num_qubits, so the
   * width in the header also fixes the spelling's id width */
  append_u32( probe.bytes, circuit.num_qubits() );
  if ( circuit.num_qubits() <= 0x10000u )
  {
    spell_circuit<uint16_t>( circuit, probe );
  }
  else
  {
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
