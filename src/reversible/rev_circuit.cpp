#include "reversible/rev_circuit.hpp"

#include "kernel/bits.hpp"

#include <algorithm>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>

namespace qda
{

rev_circuit::rev_circuit( uint32_t num_lines ) : core_( num_lines )
{
  if ( num_lines > 64u )
  {
    throw std::invalid_argument( "rev_circuit: at most 64 lines supported" );
  }
}

namespace
{

void check_gate_lines( const rev_gate& gate, uint32_t num_lines )
{
  const uint64_t line_mask =
      num_lines == 64u ? ~uint64_t{ 0 } : ( uint64_t{ 1 } << num_lines ) - 1u;
  if ( gate.target >= num_lines || ( gate.controls & ~line_mask ) != 0u )
  {
    throw std::invalid_argument( "rev_circuit: gate uses lines outside the circuit" );
  }
}

} // namespace

rev_gate rev_circuit::gate( size_t index ) const
{
  if ( index >= core_.num_gates() )
  {
    throw std::out_of_range( "rev_circuit::gate: index out of range" );
  }
  return core_.gate_at( index );
}

void rev_circuit::add_gate( const rev_gate& gate )
{
  check_gate_lines( gate, num_lines() );
  core_.emplace( gate.controls, gate.polarity, gate.target );
}

void rev_circuit::append( const rev_circuit& other )
{
  if ( other.num_lines() != num_lines() )
  {
    throw std::invalid_argument( "rev_circuit::append: line count mismatch" );
  }
  core_.append_from( other.core_ );
}

void rev_circuit::prepend_gate( const rev_gate& gate )
{
  check_gate_lines( gate, num_lines() );
  core_.prepend( gate );
}

rev_circuit rev_circuit::inverse() const
{
  rev_circuit result( num_lines() );
  result.core_.reserve( num_gates() );
  const auto& cols = core_.columns();
  for ( uint32_t slot = core_.num_slots(); slot-- > 0u; )
  {
    if ( core_.slot_alive( slot ) )
    {
      result.core_.emplace( cols.controls[slot], cols.polarity[slot], cols.target[slot] );
    }
  }
  return result;
}

uint64_t rev_circuit::simulate( uint64_t input ) const
{
  const auto& cols = core_.columns();
  uint64_t state = input;
  for ( uint32_t slot = 0u; slot < core_.num_slots(); ++slot )
  {
    if ( core_.slot_alive( slot ) &&
         ( ( state ^ cols.polarity[slot] ) & cols.controls[slot] ) == 0u )
    {
      state ^= uint64_t{ 1 } << cols.target[slot];
    }
  }
  return state;
}

permutation rev_circuit::to_permutation() const
{
  if ( num_lines() > 20u )
  {
    throw std::invalid_argument( "rev_circuit::to_permutation: too many lines for explicit expansion" );
  }
  permutation result( num_lines() );
  for ( uint64_t x = 0u; x < result.size(); ++x )
  {
    result.set_image( x, simulate( x ) );
  }
  return result;
}

truth_table rev_circuit::output_function( uint32_t line ) const
{
  if ( line >= num_lines() )
  {
    throw std::invalid_argument( "rev_circuit::output_function: line out of range" );
  }
  truth_table result( num_lines() );
  for ( uint64_t x = 0u; x < result.num_bits(); ++x )
  {
    result.set_bit( x, test_bit( simulate( x ), line ) );
  }
  return result;
}

uint64_t rev_circuit::control_count() const noexcept
{
  uint64_t total = 0u;
  for ( const auto& gate : gates() )
  {
    total += gate.num_controls();
  }
  return total;
}

std::vector<uint64_t> rev_circuit::control_histogram() const
{
  std::vector<uint64_t> histogram( num_lines(), 0u );
  for ( const auto& gate : gates() )
  {
    histogram[gate.num_controls()] += 1u;
  }
  return histogram;
}

uint64_t rev_circuit::quantum_cost() const noexcept
{
  uint64_t total = 0u;
  for ( const auto& gate : gates() )
  {
    const uint32_t k = gate.num_controls();
    if ( k <= 1u )
    {
      total += 1u;
    }
    else if ( k == 2u )
    {
      total += 5u;
    }
    else
    {
      total += ( uint64_t{ 1 } << ( k + 1u ) ) - 3u;
    }
  }
  return total;
}

std::string rev_circuit::to_ascii() const
{
  std::ostringstream out;
  for ( uint32_t line = 0u; line < num_lines(); ++line )
  {
    out << 'x' << line << ( line < 10u ? " " : "" ) << ": ";
    for ( const auto& gate : gates() )
    {
      if ( gate.target == line )
      {
        out << "(+)";
      }
      else if ( ( gate.controls >> line ) & 1u )
      {
        out << ( ( ( gate.polarity >> line ) & 1u ) ? " * " : " o " );
      }
      else
      {
        out << "---";
      }
    }
    out << '\n';
  }
  return out.str();
}

bool equivalent( const rev_circuit& a, const rev_circuit& b )
{
  if ( a.num_lines() != b.num_lines() )
  {
    return false;
  }
  if ( a.num_lines() <= 20u )
  {
    const uint64_t size = uint64_t{ 1 } << a.num_lines();
    for ( uint64_t x = 0u; x < size; ++x )
    {
      if ( a.simulate( x ) != b.simulate( x ) )
      {
        return false;
      }
    }
    return true;
  }
  std::mt19937_64 rng( 0xa5a5a5a5u );
  const uint64_t line_mask =
      a.num_lines() == 64u ? ~uint64_t{ 0 } : ( uint64_t{ 1 } << a.num_lines() ) - 1u;
  for ( uint32_t probe = 0u; probe < 4096u; ++probe )
  {
    const uint64_t x = rng() & line_mask;
    if ( a.simulate( x ) != b.simulate( x ) )
    {
      return false;
    }
  }
  return true;
}

std::ostream& operator<<( std::ostream& os, const rev_circuit& circuit )
{
  return os << circuit.to_ascii();
}

} // namespace qda
