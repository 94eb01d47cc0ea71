#include "mapping/clifford_t.hpp"
#include "mapping/coupling_map.hpp"
#include "mapping/router.hpp"
#include "simulator/statevector.hpp"
#include "simulator/unitary.hpp"
#include "synthesis/revgen.hpp"
#include "synthesis/transformation_based.hpp"

#include <gtest/gtest.h>

namespace qda
{
namespace
{

TEST( clifford_t_test, toffoli_7t_is_exact )
{
  qcircuit decomposed( 3u );
  append_toffoli_clifford_t( decomposed, 0u, 1u, 2u );
  qcircuit reference( 3u );
  reference.ccx( 0u, 1u, 2u );
  EXPECT_TRUE( circuits_equivalent( decomposed, reference ) );
  EXPECT_EQ( compute_statistics( decomposed ).t_count, 7u );
}

TEST( clifford_t_test, rccx_matches_toffoli_on_computational_values )
{
  /* RCCX equals CCX up to relative phases: the permutation part agrees */
  qcircuit rccx( 3u );
  append_relative_phase_toffoli( rccx, 0u, 1u, 2u );
  EXPECT_EQ( compute_statistics( rccx ).t_count, 4u );
  const auto matrix = build_unitary( rccx );
  for ( uint64_t column = 0u; column < 8u; ++column )
  {
    const uint64_t expected =
        ( ( column & 0b011u ) == 0b011u ) ? column ^ 0b100u : column;
    EXPECT_NEAR( std::abs( matrix[column][expected] ), 1.0, 1e-9 ) << column;
  }
}

TEST( clifford_t_test, rccx_is_involution )
{
  qcircuit twice( 3u );
  append_relative_phase_toffoli( twice, 0u, 1u, 2u );
  append_relative_phase_toffoli( twice, 0u, 1u, 2u, /*adjoint=*/true );
  EXPECT_TRUE( circuits_equivalent( twice, qcircuit( 3u ) ) );
}

TEST( clifford_t_test, toffoli_appenders_reject_bad_operands_before_appending )
{
  qcircuit circuit( 3u );
  EXPECT_THROW( append_toffoli_clifford_t( circuit, 0u, 1u, 3u ), std::invalid_argument );
  EXPECT_THROW( append_toffoli_clifford_t( circuit, 0u, 0u, 2u ), std::invalid_argument );
  EXPECT_THROW( append_relative_phase_toffoli( circuit, 0u, 2u, 2u ), std::invalid_argument );
  EXPECT_THROW( append_relative_phase_toffoli( circuit, 5u, 1u, 2u ), std::invalid_argument );
  EXPECT_EQ( circuit.num_gates(), 0u );
}

TEST( clifford_t_test, simple_gates_map_directly )
{
  rev_circuit circuit( 2u );
  circuit.add_not( 0u );
  circuit.add_cnot( 0u, 1u );
  const auto mapped = map_to_clifford_t( circuit );
  EXPECT_EQ( mapped.num_helper_qubits, 0u );
  EXPECT_TRUE( circuit_implements_permutation( mapped.circuit,
                                               circuit.to_permutation().images() ) );
}

TEST( clifford_t_test, negative_controls_are_conjugated )
{
  rev_circuit circuit( 2u );
  circuit.add_gate( rev_gate::mct( {}, { 0u }, 1u ) ); /* CNOT with negative control */
  const auto mapped = map_to_clifford_t( circuit );
  EXPECT_TRUE( circuit_implements_permutation( mapped.circuit,
                                               circuit.to_permutation().images() ) );
}

TEST( clifford_t_test, toffoli_circuit_exact )
{
  rev_circuit circuit( 3u );
  circuit.add_toffoli( 0u, 1u, 2u );
  const auto mapped = map_to_clifford_t( circuit );
  EXPECT_EQ( mapped.num_helper_qubits, 0u );
  EXPECT_TRUE( circuit_implements_permutation( mapped.circuit,
                                               circuit.to_permutation().images() ) );
}

class mct_mapping_test : public ::testing::TestWithParam<std::tuple<uint32_t, bool>>
{
};

TEST_P( mct_mapping_test, large_mct_gates_with_helpers )
{
  const auto [num_controls, use_relative_phase] = GetParam();
  rev_circuit circuit( num_controls + 1u );
  std::vector<uint32_t> controls( num_controls );
  for ( uint32_t i = 0u; i < num_controls; ++i )
  {
    controls[i] = i;
  }
  circuit.add_gate( rev_gate::mct( controls, {}, num_controls ) );

  clifford_t_options options;
  options.use_relative_phase = use_relative_phase;
  const auto mapped = map_to_clifford_t( circuit, options );
  EXPECT_EQ( mapped.num_helper_qubits, num_controls > 2u ? num_controls - 2u : 0u );
  EXPECT_TRUE( circuit_implements_permutation_with_helpers(
      mapped.circuit, circuit.num_lines(), circuit.to_permutation().images(),
      /*up_to_phase=*/false ) )
      << "k=" << num_controls << " rp=" << use_relative_phase;
  EXPECT_EQ( compute_statistics( mapped.circuit ).t_count,
             mct_t_count( num_controls, use_relative_phase ) );
}

INSTANTIATE_TEST_SUITE_P(
    arities, mct_mapping_test,
    ::testing::Combine( ::testing::Values( 3u, 4u, 5u, 6u ), ::testing::Bool() ) );

TEST( clifford_t_test, relative_phase_reduces_t_count )
{
  EXPECT_LT( mct_t_count( 5u, true ), mct_t_count( 5u, false ) );
  EXPECT_EQ( mct_t_count( 2u, true ), 7u );
  EXPECT_EQ( mct_t_count( 1u, true ), 0u );
}

TEST( clifford_t_test, synthesized_circuit_end_to_end )
{
  const auto pi = hwb_permutation( 4u );
  const auto reversible = transformation_based_synthesis( pi );
  const auto mapped = map_to_clifford_t( reversible );
  EXPECT_TRUE( circuit_implements_permutation_with_helpers( mapped.circuit, 4u, pi.images() ) );
}

TEST( clifford_t_test, keep_toffoli_option )
{
  rev_circuit circuit( 3u );
  circuit.add_toffoli( 0u, 1u, 2u );
  clifford_t_options options;
  options.keep_toffoli = true;
  const auto mapped = map_to_clifford_t( circuit, options );
  ASSERT_EQ( mapped.circuit.num_gates(), 1u );
  EXPECT_EQ( mapped.circuit.gate( 0u ).kind, gate_kind::mcx );
}

TEST( coupling_map_test, device_definitions )
{
  const auto qx4 = coupling_map::ibm_qx4();
  EXPECT_EQ( qx4.num_qubits(), 5u );
  EXPECT_TRUE( qx4.has_directed_edge( 1u, 0u ) );
  EXPECT_FALSE( qx4.has_directed_edge( 0u, 1u ) );
  EXPECT_TRUE( qx4.are_adjacent( 0u, 1u ) );
  EXPECT_FALSE( qx4.are_adjacent( 0u, 3u ) );

  const auto qx5 = coupling_map::ibm_qx5();
  EXPECT_EQ( qx5.num_qubits(), 16u );

  EXPECT_THROW( coupling_map( 2u, { { 0u, 2u } } ), std::invalid_argument );
}

TEST( coupling_map_test, shortest_paths )
{
  const auto line = coupling_map::linear( 5u );
  const auto path = line.shortest_path( 0u, 4u );
  EXPECT_EQ( path, ( std::vector<uint32_t>{ 0u, 1u, 2u, 3u, 4u } ) );
  EXPECT_EQ( line.distance( 0u, 4u ), 4u );
  EXPECT_EQ( line.distance( 2u, 2u ), 0u );

  const auto ring = coupling_map::ring( 6u );
  EXPECT_EQ( ring.distance( 0u, 5u ), 1u );
  EXPECT_EQ( ring.distance( 0u, 3u ), 3u );
}

TEST( router_test, adjacent_cnot_passes_through )
{
  const auto device = coupling_map::linear( 3u );
  qcircuit circuit( 3u );
  circuit.cx( 0u, 1u );
  const auto routed = route_circuit( circuit, device );
  EXPECT_EQ( routed.added_swaps, 0u );
  EXPECT_TRUE( circuits_equivalent( routed.circuit, circuit ) );
}

TEST( router_test, direction_fix_preserves_semantics )
{
  const auto qx4 = coupling_map::ibm_qx4();
  qcircuit circuit( 5u );
  circuit.cx( 0u, 1u ); /* only 1->0 native */
  const auto routed = route_circuit( circuit, qx4 );
  EXPECT_EQ( routed.added_direction_fixes, 1u );
  EXPECT_TRUE( circuits_equivalent( routed.circuit, circuit ) );
}

TEST( router_test, distant_cnot_inserts_swaps )
{
  const auto device = coupling_map::linear( 4u );
  qcircuit circuit( 4u );
  circuit.cx( 0u, 3u );
  const auto routed = route_circuit( circuit, device );
  EXPECT_GT( routed.added_swaps, 0u );
  /* functional check: track the layout permutation */
  const auto& layout = routed.final_layout;
  for ( uint64_t input = 0u; input < 16u; ++input )
  {
    qcircuit prep( 4u );
    for ( uint32_t q = 0u; q < 4u; ++q )
    {
      if ( ( input >> q ) & 1u )
      {
        prep.x( q );
      }
    }
    qcircuit logical_all( 4u );
    logical_all.append( prep );
    logical_all.append( circuit );
    statevector_simulator sim_logical( 4u );
    sim_logical.run( logical_all );

    qcircuit physical_all( 4u );
    physical_all.append( prep );
    physical_all.append( routed.circuit );
    statevector_simulator sim_physical( 4u );
    sim_physical.run( physical_all );

    /* compare: logical qubit q lives at layout[q] after routing */
    uint64_t logical_out = 0u, physical_out = 0u;
    for ( uint64_t basis = 0u; basis < 16u; ++basis )
    {
      if ( sim_logical.probability_of( basis ) > 0.5 )
      {
        logical_out = basis;
      }
      if ( sim_physical.probability_of( basis ) > 0.5 )
      {
        physical_out = basis;
      }
    }
    for ( uint32_t q = 0u; q < 4u; ++q )
    {
      ASSERT_EQ( ( logical_out >> q ) & 1u, ( physical_out >> layout[q] ) & 1u )
          << "input=" << input << " q=" << q;
    }
  }
}

TEST( router_test, measurements_follow_layout )
{
  const auto device = coupling_map::linear( 4u );
  qcircuit circuit( 4u );
  circuit.x( 3u );
  circuit.cx( 0u, 3u ); /* forces swaps */
  circuit.measure_all();
  const auto routed = route_circuit( circuit, device );
  /* outcome bit order = measure order = logical order; simulate */
  const auto counts = sample_counts( routed.circuit, 128u, 3u );
  ASSERT_EQ( counts.size(), 1u );
  /* logical state: q3=1, cx(0,3) does nothing (q0=0) -> outcome 1000 */
  EXPECT_EQ( counts.begin()->first, 0b1000u );
}

TEST( router_test, cz_and_swap_inputs )
{
  const auto device = coupling_map::linear( 3u );
  qcircuit circuit( 3u );
  circuit.cz( 0u, 2u );
  circuit.swap_( 0u, 1u );
  const auto routed = route_circuit( circuit, device );
  /* validate up to layout: compose with layout-inverting permutation */
  EXPECT_GT( routed.circuit.num_gates(), 2u );
}

TEST( router_test, greedy_logical_swap_takes_effect )
{
  /* regression: the logical SWAP must move the value, not cancel
   * against its own layout relabeling */
  const auto device = coupling_map::linear( 2u );
  qcircuit circuit( 2u );
  circuit.x( 0u );
  circuit.swap_( 0u, 1u );
  circuit.measure_all();
  const auto routed = route_circuit( circuit, device );
  EXPECT_EQ( routed.added_swaps, 0u ) << "a program swap is not a routing-inserted one";
  const auto counts = sample_counts( routed.circuit, 16u, 3u );
  ASSERT_EQ( counts.size(), 1u );
  EXPECT_EQ( counts.begin()->first, 0b10u ); /* logical q1 carries the 1 */
}

TEST( router_test, rejects_oversized_circuits_and_mcx )
{
  const auto device = coupling_map::linear( 2u );
  qcircuit too_big( 3u );
  EXPECT_THROW( route_circuit( too_big, device ), std::invalid_argument );

  qcircuit with_mcx( 4u );
  with_mcx.mcx( { 0u, 1u, 2u }, 3u );
  EXPECT_THROW( route_circuit( with_mcx, coupling_map::linear( 4u ) ), std::invalid_argument );

  router_options sabre;
  EXPECT_THROW( route_circuit( too_big, device, sabre ), std::invalid_argument );
  EXPECT_THROW( route_circuit( with_mcx, coupling_map::linear( 4u ), sabre ),
                std::invalid_argument );
}

TEST( router_test, merged_direction_fix_hadamards )
{
  /* two consecutive reversed CNOTs: the inner H pairs cancel at
   * emission, leaving 4 Hadamards instead of 8 */
  const auto qx4 = coupling_map::ibm_qx4();
  qcircuit circuit( 5u );
  circuit.cx( 0u, 1u ); /* only 1->0 is native */
  circuit.cx( 0u, 1u );
  const auto routed = route_circuit( circuit, qx4 );
  EXPECT_EQ( routed.added_direction_fixes, 2u );
  EXPECT_EQ( compute_statistics( routed.circuit ).h_count, 4u );
  EXPECT_TRUE( circuits_equivalent( routed.circuit, circuit ) );
}

TEST( router_test, native_swap_edge_is_used )
{
  const auto device = coupling_map::linear( 3u ).with_native_swaps();
  EXPECT_TRUE( device.has_swap_edge( 0u, 1u ) );
  EXPECT_FALSE( coupling_map::linear( 3u ).has_swap_edge( 0u, 1u ) );
  EXPECT_THROW( coupling_map::linear( 3u ).add_swap_edge( 0u, 2u ), std::invalid_argument );

  qcircuit circuit( 3u );
  circuit.cx( 0u, 2u ); /* forces one routing SWAP */
  const auto routed = route_circuit( circuit, device );
  EXPECT_EQ( routed.added_swaps, 1u );
  uint64_t native_swaps = 0u;
  for ( const auto& gate : routed.circuit.gates() )
  {
    native_swaps += gate.kind == gate_kind::swap ? 1u : 0u;
  }
  EXPECT_EQ( native_swaps, 1u ) << "native edge should emit one swap gate, not 3 CNOTs";

  router_options no_native;
  no_native.kind = router_kind::greedy;
  no_native.use_native_swap = false;
  const auto expanded = route_circuit( circuit, device, no_native );
  for ( const auto& gate : expanded.circuit.gates() )
  {
    EXPECT_NE( gate.kind, gate_kind::swap );
  }
}

/* ---------------------------------------------------------------- */
/* SABRE router                                                     */
/* ---------------------------------------------------------------- */

/*! Functional routing check honoring both layouts: for every basis
 *  input, logical qubit q enters on initial_layout[q] and must exit on
 *  final_layout[q] with the value the logical circuit computes.
 */
void expect_routing_equivalent( const qcircuit& logical, const routing_result& routed,
                                uint32_t num_logical )
{
  const uint32_t physical_width = routed.circuit.num_qubits();
  for ( uint64_t input = 0u; input < ( uint64_t{ 1 } << num_logical ); ++input )
  {
    qcircuit logical_program( num_logical );
    qcircuit physical_program( physical_width );
    for ( uint32_t q = 0u; q < num_logical; ++q )
    {
      if ( ( input >> q ) & 1u )
      {
        logical_program.x( q );
        physical_program.x( routed.initial_layout[q] );
      }
    }
    logical_program.append( logical );
    physical_program.append( routed.circuit );

    statevector_simulator sim_logical( num_logical );
    sim_logical.run( logical_program );
    statevector_simulator sim_physical( physical_width );
    sim_physical.run( physical_program );

    uint64_t logical_out = 0u;
    for ( uint64_t basis = 0u; basis < ( uint64_t{ 1 } << num_logical ); ++basis )
    {
      if ( sim_logical.probability_of( basis ) > 0.5 )
      {
        logical_out = basis;
      }
    }
    uint64_t physical_out = 0u;
    for ( uint64_t basis = 0u; basis < ( uint64_t{ 1 } << physical_width ); ++basis )
    {
      if ( sim_physical.probability_of( basis ) > 0.5 )
      {
        physical_out = basis;
      }
    }
    for ( uint32_t q = 0u; q < num_logical; ++q )
    {
      ASSERT_EQ( ( logical_out >> q ) & 1u,
                 ( physical_out >> routed.final_layout[q] ) & 1u )
          << "input=" << input << " q=" << q;
    }
  }
}

TEST( sabre_test, preserves_semantics_on_directed_device )
{
  const auto qx4 = coupling_map::ibm_qx4();
  qcircuit plain( 5u );
  plain.x( 0u );
  plain.cx( 0u, 4u );
  plain.cx( 1u, 3u );
  plain.cx( 0u, 2u );
  plain.cz( 3u, 4u );
  plain.swap_( 0u, 1u );
  plain.cx( 1u, 4u );
  router_options options;
  const auto routed = route_circuit( plain, qx4, options );
  expect_routing_equivalent( plain, routed, 5u );
}

TEST( sabre_test, logical_swaps_are_absorbed_into_the_layout )
{
  const auto device = coupling_map::linear( 4u );
  qcircuit circuit( 4u );
  circuit.swap_( 0u, 3u );
  router_options options;
  const auto routed = route_circuit( circuit, device, options );
  /* a logical SWAP costs no gates: it is a relabeling */
  EXPECT_EQ( routed.added_swaps, 0u );
  EXPECT_EQ( routed.circuit.num_gates(), 0u );
  expect_routing_equivalent( circuit, routed, 4u );
}

TEST( sabre_test, measurement_order_is_preserved )
{
  const auto device = coupling_map::linear( 4u );
  qcircuit circuit( 4u );
  circuit.x( 3u );
  circuit.cx( 0u, 3u ); /* forces movement */
  circuit.measure_all();
  router_options options;
  const auto routed = route_circuit( circuit, device, options );
  const auto counts = sample_counts( routed.circuit, 128u, 3u );
  ASSERT_EQ( counts.size(), 1u );
  /* outcome bit i = i-th logical measurement: q3=1 -> 0b1000 */
  EXPECT_EQ( counts.begin()->first, 0b1000u );
}

TEST( sabre_test, beats_or_matches_greedy_on_routed_workload )
{
  /* hwb4 mapped to Clifford+T, routed onto a 16-qubit line: the
   * lookahead router must not insert more SWAPs than the baseline */
  const auto reversible = transformation_based_synthesis( hwb_permutation( 4u ) );
  const auto mapped = map_to_clifford_t( reversible );
  const auto device = coupling_map::linear( 16u );
  const auto greedy = route_circuit( mapped.circuit, device );
  router_options options;
  const auto sabre = route_circuit( mapped.circuit, device, options );
  EXPECT_LE( sabre.added_swaps, greedy.added_swaps );
  EXPECT_GT( greedy.added_swaps, 0u );
}

TEST( sabre_test, explicit_initial_layout_is_respected )
{
  const auto device = coupling_map::linear( 3u );
  qcircuit circuit( 3u );
  circuit.cx( 0u, 2u );
  router_options options;
  options.initial_layout = std::vector<uint32_t>{ 0u, 2u, 1u }; /* 0 and 2 adjacent */
  const auto routed = route_circuit( circuit, device, options );
  EXPECT_EQ( routed.initial_layout, ( std::vector<uint32_t>{ 0u, 2u, 1u } ) );
  EXPECT_EQ( routed.added_swaps, 0u );
  expect_routing_equivalent( circuit, routed, 3u );

  router_options bad;
  bad.initial_layout = std::vector<uint32_t>{ 0u, 0u, 1u };
  EXPECT_THROW( route_circuit( circuit, device, bad ), std::invalid_argument );
}

TEST( sabre_test, parse_helpers )
{
  EXPECT_EQ( parse_router_kind( "sabre" ), router_kind::sabre );
  EXPECT_EQ( parse_router_kind( "greedy" ), router_kind::greedy );
  EXPECT_EQ( parse_router_kind( "qiskit" ), std::nullopt );
  EXPECT_STREQ( router_kind_name( router_kind::sabre ), "sabre" );
  EXPECT_EQ( parse_mct_strategy( "dirty" ), mct_strategy::dirty );
  EXPECT_EQ( parse_mct_strategy( "auto" ), mct_strategy::automatic );
  EXPECT_EQ( parse_mct_strategy( "bogus" ), std::nullopt );
}

TEST( coupling_map_test, all_distances_matches_pairwise )
{
  const auto qx5 = coupling_map::ibm_qx5();
  const auto matrix = qx5.all_distances();
  ASSERT_EQ( matrix.size(), 16u );
  for ( uint32_t a = 0u; a < 16u; a += 3u )
  {
    for ( uint32_t b = 0u; b < 16u; b += 5u )
    {
      EXPECT_EQ( matrix[a][b], qx5.distance( a, b ) ) << a << "," << b;
    }
  }
}

} // namespace
} // namespace qda
