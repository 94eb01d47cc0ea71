#include "quantum/qasm.hpp"
#include "quantum/qcircuit.hpp"
#include "quantum/qsharp.hpp"
#include "simulator/unitary.hpp"

#include <gtest/gtest.h>

namespace qda
{
namespace
{

TEST( qgate_test, qubits_enumeration )
{
  qgate gate;
  gate.kind = gate_kind::mcx;
  gate.controls = { 0u, 2u };
  gate.target = 4u;
  EXPECT_EQ( gate.qubits(), ( std::vector<uint32_t>{ 0u, 2u, 4u } ) );

  qgate barrier;
  barrier.kind = gate_kind::barrier;
  EXPECT_TRUE( barrier.qubits().empty() );
}

TEST( qgate_test, adjoint_pairs )
{
  qgate t;
  t.kind = gate_kind::t;
  EXPECT_EQ( t.adjoint().kind, gate_kind::tdg );
  EXPECT_EQ( t.adjoint().adjoint().kind, gate_kind::t );

  qgate rz;
  rz.kind = gate_kind::rz;
  rz.angle = 0.5;
  EXPECT_DOUBLE_EQ( rz.adjoint().angle, -0.5 );

  qgate h;
  h.kind = gate_kind::h;
  EXPECT_EQ( h.adjoint().kind, gate_kind::h );

  qgate m;
  m.kind = gate_kind::measure;
  EXPECT_THROW( m.adjoint(), std::logic_error );
}

TEST( qgate_test, clifford_and_t_classification )
{
  qgate g;
  g.kind = gate_kind::h;
  EXPECT_TRUE( g.is_clifford() );
  g.kind = gate_kind::t;
  EXPECT_FALSE( g.is_clifford() );
  EXPECT_TRUE( g.is_t_gate() );
  g.kind = gate_kind::cx;
  EXPECT_TRUE( g.is_clifford() );
  g.kind = gate_kind::rz;
  EXPECT_FALSE( g.is_clifford() );
}

TEST( qcircuit_test, builders_and_validation )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  circuit.ccx( 0u, 1u, 2u );
  EXPECT_EQ( circuit.num_gates(), 3u );
  EXPECT_THROW( circuit.h( 3u ), std::invalid_argument );
  EXPECT_THROW( circuit.cx( 1u, 1u ), std::invalid_argument );
  EXPECT_THROW( circuit.swap_( 2u, 2u ), std::invalid_argument );
  EXPECT_THROW( circuit.mcx( { 0u, 0u }, 1u ), std::invalid_argument );
}

TEST( qcircuit_test, mcx_degenerate_arities )
{
  qcircuit circuit( 3u );
  circuit.mcx( {}, 0u );
  EXPECT_EQ( circuit.gate( 0u ).kind, gate_kind::x );
  circuit.mcx( { 1u }, 0u );
  EXPECT_EQ( circuit.gate( 1u ).kind, gate_kind::cx );
  circuit.mcz( { 1u }, 0u );
  EXPECT_EQ( circuit.gate( 2u ).kind, gate_kind::cz );
}

TEST( qcircuit_test, adjoint_inverts )
{
  qcircuit circuit( 2u );
  circuit.h( 0u );
  circuit.t( 0u );
  circuit.cx( 0u, 1u );
  circuit.s( 1u );

  qcircuit composed( 2u );
  composed.append( circuit );
  composed.append( circuit.adjoint() );

  qcircuit identity( 2u );
  EXPECT_TRUE( circuits_equivalent( composed, identity ) );
}

TEST( qcircuit_test, adjoint_rejects_measurements )
{
  qcircuit circuit( 1u );
  circuit.measure( 0u );
  EXPECT_THROW( circuit.adjoint(), std::logic_error );
}

TEST( qcircuit_test, append_mapped_remaps_operands )
{
  qcircuit small( 2u );
  small.cx( 0u, 1u );
  qcircuit big( 4u );
  big.append_mapped( small, { 3u, 1u } );
  EXPECT_EQ( big.gate( 0u ).controls[0], 3u );
  EXPECT_EQ( big.gate( 0u ).target, 1u );
  EXPECT_THROW( big.append_mapped( small, { 0u } ), std::invalid_argument );
}

TEST( qcircuit_test, statistics_counts )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.t( 0u );
  circuit.tdg( 1u );
  circuit.cx( 0u, 1u );
  circuit.cz( 1u, 2u );
  circuit.measure_all();
  const auto stats = compute_statistics( circuit );
  EXPECT_EQ( stats.num_qubits, 3u );
  EXPECT_EQ( stats.t_count, 2u );
  EXPECT_EQ( stats.h_count, 1u );
  EXPECT_EQ( stats.cnot_count, 1u );
  EXPECT_EQ( stats.two_qubit_count, 2u );
  EXPECT_EQ( stats.num_measurements, 3u );
  EXPECT_GT( stats.depth, 0u );
}

TEST( qcircuit_test, statistics_walk_every_operand_kind )
{
  /* pins depth/T-depth bookkeeping across swap's second target, a
   * 3-control mcx and the skipped pseudo-gates */
  qcircuit circuit( 5u );
  circuit.t( 0u );                   /* q0: depth 1, T 1 */
  circuit.swap_( 0u, 1u );           /* q0,q1: depth 2, T 1 */
  circuit.t( 1u );                   /* q1: depth 3, T 2 */
  circuit.mcx( { 1u, 2u, 3u }, 4u ); /* q1..q4: depth 4, T 2 */
  circuit.barrier();                 /* not counted */
  circuit.global_phase( 0.5 );       /* not counted */
  circuit.h( 4u );                   /* q4: depth 5 */
  circuit.t( 4u );                   /* q4: depth 6, T 3 */
  circuit.cx( 0u, 2u );              /* q0,q2: depth 5, T 2 */
  circuit.measure( 4u );             /* q4: depth 7, T 3 */

  const auto stats = compute_statistics( circuit );
  EXPECT_EQ( stats.num_qubits, 5u );
  EXPECT_EQ( stats.num_gates, 8u );
  EXPECT_EQ( stats.depth, 7u );
  EXPECT_EQ( stats.t_count, 3u );
  EXPECT_EQ( stats.t_depth, 3u );
  EXPECT_EQ( stats.h_count, 1u );
  EXPECT_EQ( stats.cnot_count, 1u );
  EXPECT_EQ( stats.two_qubit_count, 2u ); /* swap + cx */
  EXPECT_EQ( stats.clifford_count, 3u );  /* swap, h, cx */
  EXPECT_EQ( stats.num_measurements, 1u );
}

TEST( qcircuit_test, statistics_skip_erased_slots_before_compaction )
{
  /* tombstoned rows stay in the columns until the rewriter commits;
   * statistics taken in between must see only the alive gates */
  qcircuit circuit( 4u );
  circuit.t( 0u );
  circuit.cx( 0u, 1u );
  circuit.swap_( 1u, 2u );
  circuit.h( 2u );
  circuit.mcx( { 0u, 1u, 2u }, 3u );
  circuit.tdg( 3u );
  circuit.measure( 3u );

  qcircuit alive( 4u );
  alive.t( 0u );
  alive.h( 2u );
  alive.mcx( { 0u, 1u, 2u }, 3u );
  alive.measure( 3u );

  auto rewriter = circuit.rewrite();
  rewriter.erase_slot( 1u ); /* cx */
  rewriter.erase_slot( 2u ); /* swap */
  rewriter.erase_slot( 5u ); /* tdg */
  ASSERT_EQ( circuit.core().num_tombstones(), 3u );

  const auto stats = compute_statistics( circuit );
  const auto expected = compute_statistics( alive );
  EXPECT_EQ( stats.num_gates, 4u );
  EXPECT_EQ( stats.num_gates, expected.num_gates );
  EXPECT_EQ( stats.t_count, expected.t_count );
  EXPECT_EQ( stats.t_depth, expected.t_depth );
  EXPECT_EQ( stats.h_count, expected.h_count );
  EXPECT_EQ( stats.cnot_count, expected.cnot_count );
  EXPECT_EQ( stats.two_qubit_count, expected.two_qubit_count );
  EXPECT_EQ( stats.clifford_count, expected.clifford_count );
  EXPECT_EQ( stats.depth, expected.depth );
  EXPECT_EQ( stats.num_measurements, expected.num_measurements );
}

TEST( qcircuit_test, t_depth_parallel_ts_count_once )
{
  qcircuit circuit( 2u );
  circuit.t( 0u );
  circuit.t( 1u ); /* parallel T's: one T stage */
  const auto stats = compute_statistics( circuit );
  EXPECT_EQ( stats.t_count, 2u );
  EXPECT_EQ( stats.t_depth, 1u );

  qcircuit serial( 1u );
  serial.t( 0u );
  serial.t( 0u );
  EXPECT_EQ( compute_statistics( serial ).t_depth, 2u );
}

TEST( qasm_test, roundtrip_preserves_semantics )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.t( 1u );
  circuit.sdg( 2u );
  circuit.cx( 0u, 1u );
  circuit.cz( 1u, 2u );
  circuit.swap_( 0u, 2u );
  circuit.ccx( 0u, 1u, 2u );
  circuit.rz( 0u, 0.75 );

  const auto text = write_qasm( circuit );
  const auto parsed = read_qasm( text );
  EXPECT_EQ( parsed.num_qubits(), 3u );
  EXPECT_TRUE( circuits_equivalent( circuit, parsed ) );
}

TEST( qasm_test, measure_and_barrier_roundtrip )
{
  qcircuit circuit( 2u );
  circuit.h( 0u );
  circuit.barrier();
  circuit.measure( 0u );
  circuit.measure( 1u );
  const auto parsed = read_qasm( write_qasm( circuit ) );
  EXPECT_EQ( parsed.measured_qubits(), ( std::vector<uint32_t>{ 0u, 1u } ) );
}

TEST( qasm_test, rejects_unmapped_gates )
{
  qcircuit circuit( 4u );
  circuit.mcx( { 0u, 1u, 2u }, 3u );
  EXPECT_THROW( write_qasm( circuit ), std::invalid_argument );
}

TEST( qasm_test, parse_errors )
{
  EXPECT_THROW( read_qasm( "h q[0];" ), std::invalid_argument );
  EXPECT_THROW( read_qasm( "qreg q[2]; frobnicate q[0];" ), std::invalid_argument );
}

TEST( qsharp_test, emits_fig10_style_operations )
{
  qcircuit circuit( 3u );
  circuit.cx( 2u, 1u );
  circuit.h( 0u );
  circuit.t( 2u );
  circuit.tdg( 1u );
  const auto code = write_qsharp_operation( circuit, "PermutationOracle" );
  EXPECT_NE( code.find( "operation PermutationOracle" ), std::string::npos );
  EXPECT_NE( code.find( "CNOT(qubits[2], qubits[1]);" ), std::string::npos );
  EXPECT_NE( code.find( "H(qubits[0]);" ), std::string::npos );
  EXPECT_NE( code.find( "(Adjoint T)(qubits[1]);" ), std::string::npos );
  EXPECT_NE( code.find( "adjoint auto" ), std::string::npos );
  EXPECT_NE( code.find( "controlled auto" ), std::string::npos );
}

TEST( qsharp_test, namespace_includes_bent_function_helpers )
{
  qcircuit oracle( 3u );
  oracle.cx( 0u, 1u );
  const auto code = write_qsharp_perm_oracle_namespace( oracle, 3u );
  EXPECT_NE( code.find( "namespace Microsoft.Quantum.PermOracle" ), std::string::npos );
  EXPECT_NE( code.find( "BentFunctionImpl" ), std::string::npos );
  EXPECT_NE( code.find( "(Adjoint PermutationOracle)(ys);" ), std::string::npos );
  EXPECT_NE( code.find( "(Controlled Z)([xs[idx]], ys[idx]);" ), std::string::npos );
  EXPECT_NE( code.find( "BentFunctionImpl(3, _);" ), std::string::npos );
}

TEST( qsharp_test, rejects_measurements_in_oracles )
{
  qcircuit circuit( 1u );
  circuit.measure( 0u );
  EXPECT_THROW( write_qsharp_operation( circuit, "Bad" ), std::invalid_argument );
}

} // namespace
} // namespace qda
