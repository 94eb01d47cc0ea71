/*! \file gate_sequence_hash.hpp
 *  \brief Order-sensitive fingerprint of a quantum circuit for output
 *         pins: counts catch lost or added gates, this hash also
 *         catches a reordering of equal counts.
 */
#pragma once

#include "quantum/qcircuit.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace qda
{

/*! FNV-1a over every gate's kind, controls, target, target2 and angle
 *  bits, in circuit order: any change to what a pass emits (even a
 *  reordering of equal counts) changes it. */
inline uint64_t gate_sequence_hash( const qcircuit& circuit )
{
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&]( uint64_t value ) {
    for ( uint32_t byte = 0u; byte < 8u; ++byte )
    {
      hash = ( hash ^ ( ( value >> ( 8u * byte ) ) & 0xffu ) ) * 1099511628211ull;
    }
  };
  for ( const auto& gate : circuit.gates() )
  {
    mix( static_cast<uint64_t>( gate.kind ) );
    mix( gate.controls.size() );
    for ( const auto control : gate.controls )
    {
      mix( control );
    }
    mix( gate.target );
    mix( gate.target2 );
    uint64_t angle_bits;
    std::memcpy( &angle_bits, &gate.angle, sizeof( angle_bits ) );
    mix( angle_bits );
  }
  return hash;
}

/*! A pinned circuit: gate count and sequence hash. */
struct sequence_pin
{
  std::string what;
  uint64_t gates;
  uint64_t hash;
};

/*! `gates, hash` as a pin table spells them, for failure messages. */
inline std::string sequence_fields( const qcircuit& circuit )
{
  char buffer[64];
  std::snprintf( buffer, sizeof( buffer ), "%zuu, 0x%016" PRIx64 "ull", circuit.num_gates(),
                 gate_sequence_hash( circuit ) );
  return buffer;
}

/*! The pin table row that `circuit` would need, for failure messages. */
inline std::string pin_row( const std::string& what, const qcircuit& circuit )
{
  return "{ \"" + what + "\", " + sequence_fields( circuit ) + " }";
}

} // namespace qda
