/*! Statevector cross-checks of every MCT lowering strategy against the
 *  naive multi-controlled X, cost-table pinning against emitted
 *  circuits, and ancilla-manager bookkeeping.
 */
#include "gate_sequence_hash.hpp"

#include "core/bent.hpp"
#include "core/hidden_shift.hpp"
#include "mapping/ancilla.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/mct_lowering.hpp"
#include "pipeline/pass_manager.hpp"
#include "simulator/statevector.hpp"
#include "simulator/unitary.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qda
{
namespace
{

/* ---------------------------------------------------------------- */
/* ancilla manager                                                  */
/* ---------------------------------------------------------------- */

TEST( ancilla_manager_test, clean_helpers_grow_and_are_reused )
{
  ancilla_manager manager( 4u );
  EXPECT_EQ( manager.num_wires(), 4u );
  const auto first = manager.acquire_clean( 2u );
  EXPECT_EQ( first, ( std::vector<uint32_t>{ 4u, 5u } ) );
  EXPECT_EQ( manager.num_wires(), 6u );
  manager.release_clean( first );
  /* a later request reuses the released helpers instead of growing */
  const auto second = manager.acquire_clean( 2u );
  EXPECT_EQ( second, first );
  EXPECT_EQ( manager.num_wires(), 6u );
  manager.release_clean( second );
  /* partial reuse plus one fresh helper */
  const auto third = manager.acquire_clean( 3u );
  EXPECT_EQ( manager.num_wires(), 7u );
  EXPECT_EQ( third.size(), 3u );
  EXPECT_EQ( manager.num_helpers(), 3u );
}

TEST( ancilla_manager_test, qubit_budget_caps_growth )
{
  ancilla_manager manager( 4u, 5u );
  EXPECT_EQ( manager.clean_capacity(), 1u );
  EXPECT_TRUE( manager.can_acquire_clean( 1u ) );
  EXPECT_FALSE( manager.can_acquire_clean( 2u ) );
  EXPECT_THROW( manager.acquire_clean( 2u ), std::invalid_argument );
  const auto helpers = manager.acquire_clean( 1u );
  EXPECT_EQ( manager.clean_capacity(), 0u );
  manager.release_clean( helpers );
  EXPECT_EQ( manager.clean_capacity(), 1u );

  EXPECT_THROW( ancilla_manager( 4u, 3u ), std::invalid_argument );
}

TEST( ancilla_manager_test, dirty_borrowing_avoids_busy_and_held_wires )
{
  ancilla_manager manager( 5u );
  const auto held = manager.acquire_clean( 1u ); /* wire 5 */
  EXPECT_EQ( manager.num_idle( { 0u, 2u } ), 3u );
  const auto borrowed = manager.borrow_dirty( 3u, { 0u, 2u } );
  EXPECT_EQ( borrowed, ( std::vector<uint32_t>{ 1u, 3u, 4u } ) );
  EXPECT_THROW( manager.borrow_dirty( 4u, { 0u, 2u } ), std::invalid_argument );
  manager.release_clean( held );
  /* released clean helpers become borrowable again */
  EXPECT_EQ( manager.num_idle( { 0u, 2u } ), 4u );
  EXPECT_THROW( manager.release_clean( { 5u } ), std::invalid_argument );
}

/* ---------------------------------------------------------------- */
/* strategy equivalence                                             */
/* ---------------------------------------------------------------- */

/*! Checks `mapped` (data lines + optional |0> helpers) against the
 *  reference MCT `source`: every data-basis input, plus one all-lines
 *  superposition input that exposes stray relative phases.
 */
void expect_mct_equivalent( const qcircuit& mapped, const rev_circuit& source )
{
  const uint32_t data = source.num_lines();
  const uint32_t width = mapped.num_qubits();
  ASSERT_LE( width, 14u );

  /* permutation part: basis inputs with helpers in |0> */
  for ( uint64_t input = 0u; input < ( uint64_t{ 1 } << data ); ++input )
  {
    qcircuit program( width );
    for ( uint32_t line = 0u; line < data; ++line )
    {
      if ( ( input >> line ) & 1u )
      {
        program.x( line );
      }
    }
    program.append( mapped );
    statevector_simulator sim( width );
    sim.run( program );
    const uint64_t expected = source.simulate( input );
    EXPECT_NEAR( sim.probability_of( expected ), 1.0, 1e-9 ) << "input=" << input;
  }

  /* phase part: a full data superposition must match amplitude for
   * amplitude (a residual diagonal phase would break this) */
  qcircuit mapped_program( width );
  qcircuit reference_program( width );
  for ( uint32_t line = 0u; line < data; ++line )
  {
    mapped_program.h( line );
    reference_program.h( line );
  }
  mapped_program.append( mapped );
  for ( const auto& gate : source.gates() )
  {
    std::vector<uint32_t> positives;
    std::vector<uint32_t> negatives;
    for ( uint32_t line = 0u; line < data; ++line )
    {
      if ( ( gate.controls >> line ) & 1u )
      {
        ( ( gate.polarity >> line ) & 1u ? positives : negatives ).push_back( line );
      }
    }
    for ( const auto line : negatives )
    {
      reference_program.x( line );
    }
    std::vector<uint32_t> all_controls = positives;
    all_controls.insert( all_controls.end(), negatives.begin(), negatives.end() );
    if ( all_controls.empty() )
    {
      reference_program.x( gate.target );
    }
    else
    {
      reference_program.mcx( all_controls, gate.target );
    }
    for ( const auto line : negatives )
    {
      reference_program.x( line );
    }
  }
  statevector_simulator sim_mapped( width );
  sim_mapped.run( mapped_program );
  statevector_simulator sim_reference( width );
  sim_reference.run( reference_program );
  const auto& mapped_state = sim_mapped.state();
  const auto& reference_state = sim_reference.state();
  for ( uint64_t basis = 0u; basis < ( uint64_t{ 1 } << width ); ++basis )
  {
    ASSERT_NEAR( std::abs( mapped_state[basis] - reference_state[basis] ), 0.0, 1e-9 )
        << "basis=" << basis;
  }
}

struct strategy_case
{
  mct_strategy strategy;
  bool use_relative_phase;
  uint32_t spare_lines; /* idle data lines so the strategy is feasible */
};

class mct_strategy_test
    : public ::testing::TestWithParam<std::tuple<uint32_t, strategy_case>>
{
};

TEST_P( mct_strategy_test, equivalent_to_naive_mcx_with_mixed_polarity )
{
  const auto [num_controls, test_case] = GetParam();
  const uint32_t spare =
      test_case.strategy == mct_strategy::dirty && num_controls > 2u
          ? std::max( test_case.spare_lines, num_controls - 2u )
          : test_case.spare_lines;
  const uint32_t num_lines = num_controls + 1u + spare;

  /* mixed polarity: every other control is negative */
  std::vector<uint32_t> positives;
  std::vector<uint32_t> negatives;
  for ( uint32_t i = 0u; i < num_controls; ++i )
  {
    ( i % 2u == 0u ? positives : negatives ).push_back( i );
  }
  rev_circuit source( num_lines );
  source.add_gate( rev_gate::mct( positives, negatives, num_controls ) );

  clifford_t_options options;
  options.strategy = test_case.strategy;
  options.use_relative_phase = test_case.use_relative_phase;
  const auto mapped = map_to_clifford_t( source, options );

  if ( num_controls > 2u &&
       ( test_case.strategy == mct_strategy::dirty ||
         test_case.strategy == mct_strategy::recursive ) )
  {
    EXPECT_EQ( mapped.num_helper_qubits, 0u ) << "borrowing strategies must not grow";
  }
  expect_mct_equivalent( mapped.circuit, source );
}

INSTANTIATE_TEST_SUITE_P(
    arities, mct_strategy_test,
    ::testing::Combine(
        ::testing::Values( 0u, 1u, 2u, 3u, 4u, 5u, 6u ),
        ::testing::Values( strategy_case{ mct_strategy::clean, true, 0u },
                           strategy_case{ mct_strategy::clean, false, 0u },
                           strategy_case{ mct_strategy::dirty, true, 0u },
                           strategy_case{ mct_strategy::recursive, true, 1u },
                           strategy_case{ mct_strategy::automatic, true, 1u } ) ) );

TEST( mct_lowering_test, mcz_lowering_is_equivalent )
{
  /* compare on a full data superposition with helpers in |0> (clean
   * helpers are only contracted to work from |0>, so whole-unitary
   * equality over helper inputs is not required) */
  qcircuit source( 4u );
  source.mcz( { 0u, 1u, 2u }, 3u );
  const auto lowered = lower_multi_controlled_gates( source );
  const uint32_t width = lowered.circuit.num_qubits();
  ASSERT_LE( width, 12u );

  qcircuit mapped_program( width );
  qcircuit reference_program( width );
  for ( uint32_t q = 0u; q < 4u; ++q )
  {
    mapped_program.h( q );
    reference_program.h( q );
  }
  mapped_program.append( lowered.circuit );
  reference_program.mcz( { 0u, 1u, 2u }, 3u );
  statevector_simulator sim_mapped( width );
  sim_mapped.run( mapped_program );
  statevector_simulator sim_reference( width );
  sim_reference.run( reference_program );
  for ( uint64_t basis = 0u; basis < ( uint64_t{ 1 } << width ); ++basis )
  {
    ASSERT_NEAR( std::abs( sim_mapped.state()[basis] - sim_reference.state()[basis] ), 0.0,
                 1e-9 )
        << "basis=" << basis;
  }
}

TEST( mct_lowering_test, forced_strategy_falls_back_when_infeasible )
{
  /* a 3-control gate spanning all four lines has no idle wire: dirty
   * cannot apply and the emitter falls back to the clean chain */
  rev_circuit source( 4u );
  source.add_gate( rev_gate::mct( { 0u, 1u, 2u }, {}, 3u ) );
  clifford_t_options options;
  options.strategy = mct_strategy::dirty;
  const auto mapped = map_to_clifford_t( source, options );
  EXPECT_EQ( mapped.num_helper_qubits, 1u );
  expect_mct_equivalent( mapped.circuit, source );
}

TEST( mct_lowering_test, qubit_budget_selects_borrowing_strategies )
{
  /* 5 controls on 6 lines: clean needs 3 helpers (9 wires); with a
   * budget of 7 only the recursive split (one borrowed wire) fits */
  rev_circuit source( 7u );
  source.add_gate( rev_gate::mct( { 0u, 1u, 2u, 3u, 4u }, {}, 5u ) );
  clifford_t_options options;
  options.max_qubits = 7u;
  const auto mapped = map_to_clifford_t( source, options );
  EXPECT_EQ( mapped.num_helper_qubits, 0u );
  expect_mct_equivalent( mapped.circuit, source );

  /* no idle wire and no helper headroom at all: no strategy fits */
  rev_circuit stuck( 6u );
  stuck.add_gate( rev_gate::mct( { 0u, 1u, 2u, 3u, 4u }, {}, 5u ) );
  clifford_t_options impossible;
  impossible.max_qubits = 6u;
  EXPECT_THROW( map_to_clifford_t( stuck, impossible ), std::invalid_argument );
}

/* ---------------------------------------------------------------- */
/* cost table                                                       */
/* ---------------------------------------------------------------- */

class mct_cost_test
    : public ::testing::TestWithParam<std::tuple<uint32_t, strategy_case>>
{
};

TEST_P( mct_cost_test, predictions_match_emitted_circuits )
{
  const auto [num_controls, test_case] = GetParam();
  const uint32_t spare =
      num_controls > 2u ? std::max( test_case.spare_lines, num_controls - 2u ) : 0u;
  const uint32_t num_lines = num_controls + 1u + spare;

  std::vector<uint32_t> controls( num_controls );
  for ( uint32_t i = 0u; i < num_controls; ++i )
  {
    controls[i] = i;
  }
  rev_circuit source( num_lines );
  source.add_gate( rev_gate::mct( controls, {}, num_controls ) );

  clifford_t_options options;
  options.strategy = test_case.strategy;
  options.use_relative_phase = test_case.use_relative_phase;
  const auto mapped = map_to_clifford_t( source, options );
  const auto stats = compute_statistics( mapped.circuit );
  const auto cost = mct_lowering_cost( num_controls, test_case.strategy,
                                       test_case.use_relative_phase );
  EXPECT_EQ( stats.t_count, cost.t_count );
  EXPECT_EQ( stats.cnot_count, cost.cnot_count );
  EXPECT_EQ( stats.h_count, cost.h_count );
  EXPECT_EQ( stats.num_gates, cost.depth ) << "depth counts serialized primitive gates";
}

INSTANTIATE_TEST_SUITE_P(
    table, mct_cost_test,
    ::testing::Combine(
        ::testing::Values( 2u, 3u, 4u, 5u, 6u, 7u ),
        ::testing::Values( strategy_case{ mct_strategy::clean, true, 0u },
                           strategy_case{ mct_strategy::clean, false, 0u },
                           strategy_case{ mct_strategy::dirty, true, 0u },
                           strategy_case{ mct_strategy::recursive, true, 1u } ) ) );

TEST( mct_cost_test, table_properties )
{
  /* legacy shorthand stays wired to the table */
  EXPECT_EQ( mct_t_count( 5u, true ),
             mct_lowering_cost( 5u, mct_strategy::clean, true ).t_count );
  /* relative phase halves the chain T-cost */
  EXPECT_LT( mct_lowering_cost( 6u, mct_strategy::clean, true ).t_count,
             mct_lowering_cost( 6u, mct_strategy::clean, false ).t_count );
  /* borrowing costs more gates but no qubits */
  const auto clean = mct_lowering_cost( 5u, mct_strategy::clean, true );
  const auto dirty = mct_lowering_cost( 5u, mct_strategy::dirty, true );
  EXPECT_GT( dirty.t_count, clean.t_count );
  EXPECT_EQ( clean.clean_ancillas, 3u );
  EXPECT_EQ( dirty.clean_ancillas, 0u );
  EXPECT_EQ( dirty.dirty_ancillas, 3u );
  EXPECT_EQ( mct_lowering_cost( 5u, mct_strategy::recursive, true ).dirty_ancillas, 1u );
  EXPECT_THROW( mct_lowering_cost( 4u, mct_strategy::automatic ), std::invalid_argument );

  /* selection honors feasibility: no idle wires forces the clean chain,
   * no clean headroom forces borrowing */
  mapping_cost_weights weights;
  EXPECT_EQ( select_mct_strategy( 5u, 3u, 0u, weights, true ), mct_strategy::clean );
  EXPECT_EQ( select_mct_strategy( 5u, 0u, 3u, weights, true ), mct_strategy::dirty );
  EXPECT_EQ( select_mct_strategy( 5u, 0u, 1u, weights, true ), mct_strategy::recursive );
  EXPECT_EQ( select_mct_strategy( 5u, 0u, 0u, weights, true ), std::nullopt );
}

/* ---------------------------------------------------------------- */
/* negative-control conjugation                                     */
/* ---------------------------------------------------------------- */

uint64_t count_x_gates( const qcircuit& circuit )
{
  uint64_t count = 0u;
  for ( const auto& gate : circuit.gates() )
  {
    count += gate.kind == gate_kind::x ? 1u : 0u;
  }
  return count;
}

TEST( negative_control_test, shared_negative_controls_emit_no_x_pairs )
{
  /* two CNOTs negatively controlled on the same line: the naive
   * conjugation emits X-X between them, the lazy one does not */
  rev_circuit source( 3u );
  source.add_gate( rev_gate::mct( {}, { 0u }, 1u ) );
  source.add_gate( rev_gate::mct( {}, { 0u }, 2u ) );
  const auto mapped = map_to_clifford_t( source );
  EXPECT_EQ( count_x_gates( mapped.circuit ), 2u ); /* not 4 */
  EXPECT_TRUE( circuit_implements_permutation( mapped.circuit,
                                               source.to_permutation().images() ) );
}

TEST( negative_control_test, polarity_changes_resolve_pending_flips )
{
  /* same line used negative then positive then negative again */
  rev_circuit source( 2u );
  source.add_gate( rev_gate::mct( {}, { 0u }, 1u ) );
  source.add_gate( rev_gate::mct( { 0u }, {}, 1u ) );
  source.add_gate( rev_gate::mct( {}, { 0u }, 1u ) );
  const auto mapped = map_to_clifford_t( source );
  EXPECT_TRUE( circuit_implements_permutation( mapped.circuit,
                                               source.to_permutation().images() ) );
  EXPECT_EQ( count_x_gates( mapped.circuit ), 4u );
}

TEST( negative_control_test, pending_flip_commutes_with_target_use )
{
  /* gate 1 leaves a pending X on line 0; gate 2 targets line 0 */
  rev_circuit source( 3u );
  source.add_gate( rev_gate::mct( {}, { 0u }, 1u ) );
  source.add_gate( rev_gate::mct( { 2u }, {}, 0u ) );
  source.add_gate( rev_gate::mct( {}, { 0u }, 1u ) );
  const auto mapped = map_to_clifford_t( source );
  EXPECT_TRUE( circuit_implements_permutation( mapped.circuit,
                                               source.to_permutation().images() ) );
}

TEST( negative_control_test, mixed_polarity_multi_gate_circuit )
{
  rev_circuit source( 4u );
  source.add_gate( rev_gate::mct( { 1u }, { 0u, 2u }, 3u ) );
  source.add_gate( rev_gate::mct( { 3u }, { 0u }, 1u ) );
  source.add_gate( rev_gate::mct( {}, { 0u, 1u, 2u }, 3u ) );
  const auto mapped = map_to_clifford_t( source );
  EXPECT_TRUE( circuit_implements_permutation_with_helpers(
      mapped.circuit, 4u, source.to_permutation().images() ) );
}

/* ---------------------------------------------------------------- */
/* output pins                                                      */
/* ---------------------------------------------------------------- */

struct pinned_output
{
  const char* what;
  uint64_t t, cnot, gates, hash;
  uint32_t helpers;
};

void expect_pinned( const clifford_t_result& result, const pinned_output& pin )
{
  const auto stats = compute_statistics( result.circuit );
  EXPECT_EQ( stats.t_count, pin.t ) << pin.what;
  EXPECT_EQ( stats.cnot_count, pin.cnot ) << pin.what;
  EXPECT_EQ( result.circuit.num_gates(), pin.gates ) << pin.what;
  EXPECT_EQ( gate_sequence_hash( result.circuit ), pin.hash ) << pin.what;
  EXPECT_EQ( result.num_helper_qubits, pin.helpers ) << pin.what;
}

TEST( mct_output_pin_test, rptm_of_hwb_matches_the_pinned_sequence )
{
  /* every rptm variant the pass exposes, on tbs+revsimp hwb-5/6: a
   * change to the emitted gate sequence must update these on purpose */
  const pinned_output cases[] = {
      { "revgen --hwb 5; tbs; revsimp; rptm",
        579u, 477u, 1284u, 0x4ba8d28a72c577cdull, 2u },
      { "revgen --hwb 5; tbs; revsimp; rptm --strategy clean",
        579u, 477u, 1284u, 0x4ba8d28a72c577cdull, 2u },
      { "revgen --hwb 5; tbs; revsimp; rptm --strategy dirty",
        1017u, 879u, 2196u, 0xbc2712e05495450bull, 2u },
      { "revgen --hwb 5; tbs; revsimp; rptm --strategy recursive",
        1087u, 939u, 2346u, 0xa14cdadb61e772ebull, 2u },
      { "revgen --hwb 5; tbs; revsimp; rptm --keep-toffoli",
        0u, 9u, 126u, 0x35841d5cfe14d4a1ull, 2u },
      { "revgen --hwb 5; tbs; revsimp; rptm --no-relative-phase",
        777u, 675u, 1680u, 0x3acb342eab3088cdull, 2u },
      { "revgen --hwb 5; tbs; revsimp; rptm --cost-target ibm_qx5",
        579u, 477u, 1284u, 0x4ba8d28a72c577cdull, 2u },
      { "revgen --hwb 6; tbs; revsimp; rptm",
        2377u, 1903u, 5256u, 0x83240f3f0ed3880dull, 3u },
      { "revgen --hwb 6; tbs; revsimp; rptm --strategy clean",
        2377u, 1903u, 5256u, 0x83240f3f0ed3880dull, 3u },
      { "revgen --hwb 6; tbs; revsimp; rptm --strategy dirty",
        5029u, 4321u, 10794u, 0x58708ec6c48ab1caull, 3u },
      { "revgen --hwb 6; tbs; revsimp; rptm --strategy recursive",
        5939u, 5101u, 12744u, 0xc13c9b935051384aull, 3u },
      { "revgen --hwb 6; tbs; revsimp; rptm --keep-toffoli",
        0u, 13u, 502u, 0x34ba3ca493f4186eull, 3u },
      { "revgen --hwb 6; tbs; revsimp; rptm --no-relative-phase",
        3409u, 2935u, 7320u, 0x5c4ec693fe7ceaadull, 3u },
      { "revgen --hwb 6; tbs; revsimp; rptm --cost-target ibm_qx5",
        2377u, 1903u, 5256u, 0x83240f3f0ed3880dull, 3u } };
  pass_manager manager( /*enable_cache=*/false );
  for ( const auto& pin : cases )
  {
    const auto result = manager.run( parse_pipeline( pin.what ) );
    ASSERT_TRUE( result.ir.quantum.has_value() ) << pin.what;
    expect_pinned( *result.ir.quantum, pin );
  }
}

TEST( mct_output_pin_test, lowering_of_hidden_shift_matches_the_pinned_sequence )
{
  /* the execute path: a seeded k = 5 Maiorana-McFarland hidden shift
   * lowered with two spare qubits, as in the end-to-end benchmark */
  const auto circuit =
      hidden_shift_circuit_mm( mm_bent_function::random( 5u, 7u ), 0x2a5u );
  clifford_t_options options;
  options.max_qubits = circuit.num_qubits() + 2u;
  const pinned_output pin{ "hidden shift k=5, 2 helpers", 2279u, 1860u, 5295u,
                           0xeb99b1678ebaf7a7ull, 2u };
  expect_pinned( lower_multi_controlled_gates( circuit, options ), pin );
}

} // namespace
} // namespace qda
