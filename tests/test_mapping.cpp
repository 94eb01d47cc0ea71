#include "gate_sequence_hash.hpp"

#include "core/bent.hpp"
#include "core/hidden_shift.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/coupling_map.hpp"
#include "mapping/mct_lowering.hpp"
#include "mapping/router.hpp"
#include "pipeline/pass_manager.hpp"
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
  ASSERT_EQ( matrix.size(), 16u * 16u );
  for ( uint32_t a = 0u; a < 16u; a += 3u )
  {
    for ( uint32_t b = 0u; b < 16u; b += 5u )
    {
      EXPECT_EQ( matrix[a * 16u + b], qx5.distance( a, b ) ) << a << "," << b;
    }
  }
}

/* ---------------------------------------------------------------- */
/* routing output pins                                              */
/* ---------------------------------------------------------------- */

struct route_pin
{
  std::string what;
  uint64_t swaps, direction_fixes, gates, hash;
};

void expect_pinned( const routing_result& routed, const route_pin& pin )
{
  const auto row = "{ \"" + pin.what + "\", " + std::to_string( routed.added_swaps ) + "u, " +
                   std::to_string( routed.added_direction_fixes ) + "u, " +
                   sequence_fields( routed.circuit ) + " }";
  EXPECT_EQ( routed.added_swaps, pin.swaps ) << row;
  EXPECT_EQ( routed.added_direction_fixes, pin.direction_fixes ) << row;
  EXPECT_EQ( routed.circuit.num_gates(), pin.gates ) << row;
  EXPECT_EQ( gate_sequence_hash( routed.circuit ), pin.hash ) << row;
}

TEST( routing_pin_test, device_tail_matches_the_pinned_sequence )
{
  /* the routed shape of the compile workloads: n = 5..7 lowered for
   * and routed onto IBM QX5 by SABRE */
  const route_pin pins[] = {
      { "revgen --random 5 --seed 3; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        246u, 507u, 4225u, 0x5621e460bb8ce4d0ull },
      { "revgen --random 5 --seed 4; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        234u, 548u, 4231u, 0x0115e66b605ec929ull },
      { "revgen --random 6 --seed 3; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        697u, 1593u, 11905u, 0xba6b84d850fe596full },
      { "revgen --random 6 --seed 4; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        693u, 1360u, 11475u, 0x900725d47e1ccd29ull },
      { "revgen --random 7 --seed 3; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        2898u, 5853u, 45941u, 0xb7f8ad585072cdcdull },
      { "revgen --random 7 --seed 4; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        2490u, 5297u, 40560u, 0x767d840a5c2182c8ull },
  };
  pass_manager manager( /*enable_cache=*/false );
  for ( const auto& pin : pins )
  {
    run_plan plan;
    plan.use_library = false;
    const auto result = manager.run( parse_pipeline( pin.what ), staged_ir{}, plan );
    ASSERT_TRUE( result.ir.mapped.has_value() ) << pin.what;
    expect_pinned( *result.ir.mapped, pin );
  }
}

TEST( routing_pin_test, mapping_bench_cases_match_the_pinned_sequence )
{
  /* every routing row of bench_mapping_overhead (BENCH_map.json) */
  const route_pin pins[] = {
      { "hwb4-cliff ibmqx2 greedy", 22u, 73u, 509u, 0x6a5a380ba022037dull },
      { "hwb4-cliff ibmqx2 sabre", 16u, 61u, 441u, 0x6b0672a8c1742b1full },
      { "hwb4-cliff ibmqx4 greedy", 22u, 57u, 457u, 0x108880cbc1378bddull },
      { "hwb4-cliff ibmqx4 sabre", 16u, 61u, 441u, 0xe121d9ac95f28bdfull },
      { "hwb4-cliff ibmqx5 greedy", 59u, 86u, 702u, 0x4dd8f6c1d29809f1ull },
      { "hwb4-cliff ibmqx5 sabre", 21u, 70u, 486u, 0xe6f4b52f5baba3b3ull },
      { "hwb4-cliff linear greedy", 59u, 0u, 362u, 0xfcda5ae993ccfc31ull },
      { "hwb4-cliff linear sabre", 34u, 0u, 287u, 0x219cbbeaaa768f7full },
      { "hwb4-cliff complete greedy", 0u, 0u, 185u, 0xa396179bd46e0c5eull },
      { "hwb4-cliff complete sabre", 0u, 0u, 185u, 0xfc76eb6fa5b8e0beull },
      { "hwb6-cliff ibmqx5 greedy", 2911u, 4016u, 29869u, 0x050cd4eb3963453bull },
      { "hwb6-cliff ibmqx5 sabre", 821u, 1645u, 13663u, 0x4abef3b9b4b43bb8ull },
      { "hwb6-cliff linear greedy", 2911u, 0u, 13997u, 0xb40aefc3963dba1bull },
      { "hwb6-cliff linear sabre", 1393u, 0u, 9443u, 0x6cce8089e0832ddbull },
      { "hwb6-cliff complete greedy", 0u, 0u, 5264u, 0xe8e4bf993410401eull },
      { "hwb6-cliff complete sabre", 0u, 0u, 5264u, 0x148482bc7abda75eull },
      { "hs-fig5 ibmqx2 greedy", 0u, 2u, 30u, 0x1b425e9f7cbb46c5ull },
      { "hs-fig5 ibmqx2 sabre", 0u, 2u, 30u, 0x177a7441909d45a5ull },
      { "hs-fig5 ibmqx4 greedy", 0u, 4u, 30u, 0xde3f5b2bc41cd5e5ull },
      { "hs-fig5 ibmqx4 sabre", 0u, 4u, 30u, 0x79a0ad59b2f5ede5ull },
      { "hs-fig5 ibmqx5 greedy", 0u, 2u, 30u, 0x9430169738772405ull },
      { "hs-fig5 ibmqx5 sabre", 0u, 2u, 30u, 0x659bf857fea30ae5ull },
      { "hs-fig5 linear greedy", 0u, 0u, 30u, 0x6ba40621ab3f0085ull },
      { "hs-fig5 linear sabre", 0u, 0u, 30u, 0x23d3601e9650ff65ull },
      { "hs-fig5 complete greedy", 0u, 0u, 30u, 0x6ba40621ab3f0085ull },
      { "hs-fig5 complete sabre", 0u, 0u, 30u, 0x23d3601e9650ff65ull },
      { "hs-fig8 ibmqx5 greedy", 48u, 60u, 554u, 0x0d2f1396aa2e7f07ull },
      { "hs-fig8 ibmqx5 sabre", 14u, 53u, 390u, 0x60068ef1b3e56a68ull },
      { "hs-fig8 linear greedy", 48u, 0u, 328u, 0xfb2a256f90936627ull },
      { "hs-fig8 linear sabre", 23u, 0u, 253u, 0x622886412ff621aeull },
      { "hs-fig8 complete greedy", 0u, 0u, 184u, 0x1d32f96891913365ull },
      { "hs-fig8 complete sabre", 0u, 0u, 184u, 0xb33927021a810d05ull },
  };
  std::vector<std::pair<std::string, qcircuit>> workloads;
  for ( const uint32_t bits : { 4u, 6u } )
  {
    auto mapped = map_to_clifford_t( transformation_based_synthesis( hwb_permutation( bits ) ) );
    mapped.circuit.measure_all();
    workloads.emplace_back( "hwb" + std::to_string( bits ) + "-cliff",
                            std::move( mapped.circuit ) );
  }
  workloads.emplace_back(
      "hs-fig5", lower_multi_controlled_gates(
                     hidden_shift_circuit( { inner_product_function( 2u, true ), 1u } ) )
                     .circuit );
  workloads.emplace_back(
      "hs-fig8",
      lower_multi_controlled_gates( hidden_shift_circuit_mm( mm_bent_function::paper_fig7(), 5u ) )
          .circuit );
  const coupling_map devices[] = { coupling_map::ibm_qx2(), coupling_map::ibm_qx4(),
                                   coupling_map::ibm_qx5(), coupling_map::linear( 16u ),
                                   coupling_map::fully_connected( 16u ) };
  size_t next = 0u;
  for ( const auto& [name, circuit] : workloads )
  {
    for ( const auto& device : devices )
    {
      if ( circuit.num_qubits() > device.num_qubits() )
      {
        continue;
      }
      for ( const auto router : { router_kind::greedy, router_kind::sabre } )
      {
        router_options options;
        options.kind = router;
        const auto what = name + " " + device.name() + " " + router_kind_name( router );
        ASSERT_LT( next, std::size( pins ) ) << what;
        const auto& pin = pins[next++];
        EXPECT_EQ( pin.what, what );
        expect_pinned( route_circuit( circuit, device, options ), pin );
      }
    }
  }
  EXPECT_EQ( next, std::size( pins ) );
}

} // namespace
} // namespace qda
