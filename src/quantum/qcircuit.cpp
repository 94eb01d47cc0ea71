#include "quantum/qcircuit.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

namespace qda
{

qcircuit::qcircuit( uint32_t num_qubits ) : core_( num_qubits ) {}

qgate_view qcircuit::gate( size_t index ) const
{
  if ( index >= core_.num_gates() )
  {
    throw std::out_of_range( "qcircuit::gate: index out of range" );
  }
  return core_.gate_at( index );
}

void qcircuit::check_qubit( uint32_t qubit ) const
{
  if ( qubit >= num_qubits() )
  {
    throw std::invalid_argument( "qcircuit: qubit index out of range" );
  }
}

void qcircuit::check_operands( const qgate_view& gate ) const
{
  if ( gate.kind == gate_kind::barrier || gate.kind == gate_kind::global_phase )
  {
    return;
  }
  check_qubit( gate.target );
  if ( gate.kind == gate_kind::swap )
  {
    check_qubit( gate.target2 );
    if ( gate.target == gate.target2 )
    {
      throw std::invalid_argument( "qcircuit::add_gate: swap needs two distinct qubits" );
    }
  }
  /* controls must be distinct and differ from the target */
  for ( size_t i = 0u; i < gate.controls.size(); ++i )
  {
    check_qubit( gate.controls[i] );
    if ( gate.controls[i] == gate.target )
    {
      throw std::invalid_argument( "qcircuit::add_gate: repeated operand qubits" );
    }
    for ( size_t j = i + 1u; j < gate.controls.size(); ++j )
    {
      if ( gate.controls[i] == gate.controls[j] )
      {
        throw std::invalid_argument( "qcircuit::add_gate: repeated operand qubits" );
      }
    }
  }
}

void qcircuit::add_gate( const qgate& gate )
{
  add_gate( qgate_view( gate ) );
}

void qcircuit::add_gate( const qgate_view& gate )
{
  check_operands( gate );
  core_.emplace( gate.kind, gate.controls, gate.target, gate.target2, gate.angle );
}

void qcircuit::cx( uint32_t control, uint32_t target )
{
  check_qubit( control );
  check_qubit( target );
  if ( control == target )
  {
    throw std::invalid_argument( "qcircuit::add_gate: repeated operand qubits" );
  }
  core_.emplace( gate_kind::cx, std::span<const uint32_t>( &control, 1u ), target, 0u, 0.0 );
}

void qcircuit::cz( uint32_t control, uint32_t target )
{
  check_qubit( control );
  check_qubit( target );
  if ( control == target )
  {
    throw std::invalid_argument( "qcircuit::add_gate: repeated operand qubits" );
  }
  core_.emplace( gate_kind::cz, std::span<const uint32_t>( &control, 1u ), target, 0u, 0.0 );
}

void qcircuit::swap_( uint32_t a, uint32_t b )
{
  check_qubit( a );
  check_qubit( b );
  if ( a == b )
  {
    throw std::invalid_argument( "qcircuit::add_gate: swap needs two distinct qubits" );
  }
  core_.emplace( gate_kind::swap, std::span<const uint32_t>{}, a, b, 0.0 );
}

void qcircuit::mcx( std::vector<uint32_t> controls, uint32_t target )
{
  if ( controls.empty() )
  {
    x( target );
    return;
  }
  if ( controls.size() == 1u )
  {
    cx( controls[0], target );
    return;
  }
  check_operands(
      qgate_view( gate_kind::mcx, std::span<const uint32_t>( controls ), target, 0u, 0.0 ) );
  core_.emplace( gate_kind::mcx, std::span<const uint32_t>( controls ), target, 0u, 0.0 );
}

void qcircuit::mcz( std::vector<uint32_t> controls, uint32_t target )
{
  if ( controls.empty() )
  {
    z( target );
    return;
  }
  if ( controls.size() == 1u )
  {
    cz( controls[0], target );
    return;
  }
  check_operands(
      qgate_view( gate_kind::mcz, std::span<const uint32_t>( controls ), target, 0u, 0.0 ) );
  core_.emplace( gate_kind::mcz, std::span<const uint32_t>( controls ), target, 0u, 0.0 );
}

void qcircuit::measure( uint32_t qubit )
{
  check_qubit( qubit );
  core_.emplace( gate_kind::measure, std::span<const uint32_t>{}, qubit, 0u, 0.0 );
}

void qcircuit::measure_all()
{
  for ( uint32_t qubit = 0u; qubit < num_qubits(); ++qubit )
  {
    measure( qubit );
  }
}

void qcircuit::barrier()
{
  core_.emplace( gate_kind::barrier, std::span<const uint32_t>{}, 0u, 0u, 0.0 );
}

void qcircuit::global_phase( double angle )
{
  core_.emplace( gate_kind::global_phase, std::span<const uint32_t>{}, 0u, 0u, angle );
}

void qcircuit::append( const qcircuit& other )
{
  if ( other.num_qubits() > num_qubits() )
  {
    throw std::invalid_argument( "qcircuit::append: other circuit has more qubits" );
  }
  core_.append_from( other.core_ );
}

void qcircuit::append_mapped( const qcircuit& other, const std::vector<uint32_t>& mapping )
{
  if ( mapping.size() < other.num_qubits() )
  {
    throw std::invalid_argument( "qcircuit::append_mapped: mapping too short" );
  }
  for ( const auto& view : other.gates() )
  {
    qgate gate = view.materialize();
    for ( auto& control : gate.controls )
    {
      control = mapping[control];
    }
    if ( gate.kind != gate_kind::barrier && gate.kind != gate_kind::global_phase )
    {
      gate.target = mapping[gate.target];
      if ( gate.kind == gate_kind::swap )
      {
        gate.target2 = mapping[gate.target2];
      }
    }
    add_gate( gate );
  }
}

qcircuit qcircuit::adjoint() const
{
  qcircuit result( num_qubits() );
  result.core_.reserve( num_gates() );
  for ( uint32_t slot = core_.num_slots(); slot-- > 0u; )
  {
    if ( !core_.slot_alive( slot ) )
    {
      continue;
    }
    const auto view = core_.view_at_slot( slot );
    if ( view.kind == gate_kind::barrier )
    {
      result.barrier();
      continue;
    }
    result.add_gate( view.adjoint() );
  }
  return result;
}

bool qcircuit::has_measurements() const noexcept
{
  const auto& kinds = core_.columns().kind;
  for ( uint32_t slot = 0u; slot < core_.num_slots(); ++slot )
  {
    if ( core_.slot_alive( slot ) && kinds[slot] == gate_kind::measure )
    {
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> qcircuit::measured_qubits() const
{
  std::vector<uint32_t> result;
  const auto& cols = core_.columns();
  for ( uint32_t slot = 0u; slot < core_.num_slots(); ++slot )
  {
    if ( core_.slot_alive( slot ) && cols.kind[slot] == gate_kind::measure )
    {
      result.push_back( cols.target[slot] );
    }
  }
  return result;
}

std::string qcircuit::to_string() const
{
  std::ostringstream out;
  for ( const auto& gate : gates() )
  {
    out << gate.to_string() << '\n';
  }
  return out.str();
}

std::string qcircuit::to_ascii() const
{
  std::vector<std::string> rows( num_qubits() );
  for ( uint32_t q = 0u; q < num_qubits(); ++q )
  {
    rows[q] = "q" + std::to_string( q ) + ( q < 10u ? " " : "" ) + ": ";
  }
  const auto pad_to = [&]( size_t width ) {
    for ( auto& row : rows )
    {
      row.resize( std::max( row.size(), width ), '-' );
    }
  };
  for ( const auto& gate : gates() )
  {
    if ( gate.kind == gate_kind::barrier || gate.kind == gate_kind::global_phase )
    {
      continue;
    }
    size_t width = 0u;
    for ( const auto& row : rows )
    {
      width = std::max( width, row.size() );
    }
    pad_to( width );
    std::string label;
    switch ( gate.kind )
    {
    case gate_kind::measure:
      label = "M";
      break;
    case gate_kind::cx:
    case gate_kind::mcx:
      label = "X";
      break;
    case gate_kind::cz:
    case gate_kind::mcz:
      label = "Z";
      break;
    case gate_kind::swap:
      label = "x";
      break;
    default:
      label = gate_name( gate.kind );
      break;
    }
    for ( const auto control : gate.controls )
    {
      rows[control] += "*";
      rows[control].resize( width + std::max<size_t>( label.size(), 1u ), '-' );
    }
    rows[gate.target] += label;
    if ( gate.kind == gate_kind::swap )
    {
      rows[gate.target2] += "x";
    }
    pad_to( width + std::max<size_t>( label.size(), 1u ) + 1u );
  }
  std::string result;
  for ( auto& row : rows )
  {
    result += row;
    result += '\n';
  }
  return result;
}

void qcircuit::add_simple( gate_kind kind, uint32_t qubit )
{
  check_qubit( qubit );
  core_.emplace( kind, std::span<const uint32_t>{}, qubit, 0u, 0.0 );
}

void qcircuit::add_rotation( gate_kind kind, uint32_t qubit, double angle )
{
  check_qubit( qubit );
  core_.emplace( kind, std::span<const uint32_t>{}, qubit, 0u, angle );
}

circuit_statistics compute_statistics( const qcircuit& circuit )
{
  /* reads the IR columns directly: this runs after every quantum pass
   * and in `ps`, so it must not build a view or allocate per gate */
  const auto& core = circuit.core();
  const auto& cols = core.columns();
  constexpr size_t num_kinds = static_cast<size_t>( gate_kind::global_phase ) + 1u;
  std::array<uint64_t, num_kinds> per_kind{};
  std::vector<uint64_t> qubit_depth( circuit.num_qubits(), 0u );
  std::vector<uint64_t> qubit_t_depth( circuit.num_qubits(), 0u );

  const uint32_t num_slots = core.num_slots();
  for ( uint32_t slot = 0u; slot < num_slots; ++slot )
  {
    const gate_kind kind = cols.kind[slot];
    if ( !core.slot_alive( slot ) || kind == gate_kind::barrier ||
         kind == gate_kind::global_phase )
    {
      continue;
    }
    ++per_kind[static_cast<size_t>( kind )];

    const uint32_t target = cols.target[slot];
    const uint32_t target2 = cols.target2[slot];
    const bool has_target2 = kind == gate_kind::swap;
    const auto controls = cols.controls_of( slot );
    uint64_t level = std::max( qubit_depth[target], has_target2 ? qubit_depth[target2] : 0u );
    uint64_t t_level =
        std::max( qubit_t_depth[target], has_target2 ? qubit_t_depth[target2] : 0u );
    for ( const auto qubit : controls )
    {
      level = std::max( level, qubit_depth[qubit] );
      t_level = std::max( t_level, qubit_t_depth[qubit] );
    }
    ++level;
    if ( kind == gate_kind::t || kind == gate_kind::tdg )
    {
      ++t_level;
    }
    qubit_depth[target] = level;
    qubit_t_depth[target] = t_level;
    if ( has_target2 )
    {
      qubit_depth[target2] = level;
      qubit_t_depth[target2] = t_level;
    }
    for ( const auto qubit : controls )
    {
      qubit_depth[qubit] = level;
      qubit_t_depth[qubit] = t_level;
    }
  }

  circuit_statistics stats;
  stats.num_qubits = circuit.num_qubits();
  const auto count = [&]( gate_kind kind ) { return per_kind[static_cast<size_t>( kind )]; };
  for ( size_t kind = 0u; kind < num_kinds; ++kind )
  {
    stats.num_gates += per_kind[kind];
    if ( qgate_view( static_cast<gate_kind>( kind ), {}, 0u, 0u, 0.0 ).is_clifford() )
    {
      stats.clifford_count += per_kind[kind];
    }
  }
  stats.num_measurements = count( gate_kind::measure );
  stats.t_count = count( gate_kind::t ) + count( gate_kind::tdg );
  stats.h_count = count( gate_kind::h );
  stats.cnot_count = count( gate_kind::cx );
  stats.two_qubit_count =
      count( gate_kind::cx ) + count( gate_kind::cz ) + count( gate_kind::swap );
  for ( uint32_t qubit = 0u; qubit < circuit.num_qubits(); ++qubit )
  {
    stats.depth = std::max( stats.depth, qubit_depth[qubit] );
    stats.t_depth = std::max( stats.t_depth, qubit_t_depth[qubit] );
  }
  return stats;
}

std::string format_statistics( const circuit_statistics& stats )
{
  std::ostringstream out;
  out << "qubits: " << stats.num_qubits
      << "  gates: " << stats.num_gates
      << "  T-count: " << stats.t_count
      << "  T-depth: " << stats.t_depth
      << "  H: " << stats.h_count
      << "  CNOT: " << stats.cnot_count
      << "  2q: " << stats.two_qubit_count
      << "  depth: " << stats.depth;
  return out.str();
}

} // namespace qda
