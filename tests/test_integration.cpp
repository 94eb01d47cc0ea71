/*! End-to-end and failure-injection tests across module boundaries:
 *  synthesis -> mapping -> optimization -> routing -> (noisy) execution.
 */
#include "core/deutsch_jozsa.hpp"
#include "core/flow.hpp"
#include "core/hidden_shift.hpp"
#include "core/ibm_backend.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/router.hpp"
#include "optimization/peephole.hpp"
#include "optimization/phase_folding.hpp"
#include "phasepoly/linear_synthesis.hpp"
#include "quantum/qasm.hpp"
#include "simulator/statevector.hpp"
#include "simulator/unitary.hpp"
#include "synthesis/arithmetic.hpp"
#include "synthesis/esop_based.hpp"
#include "synthesis/revgen.hpp"
#include "synthesis/transformation_based.hpp"

#include <gtest/gtest.h>

#include <random>

namespace qda
{
namespace
{

TEST( integration_test, full_pipeline_qasm_roundtrip )
{
  /* synthesize -> map -> optimize -> export QASM -> reimport -> equivalent */
  flow pipeline;
  pipeline.revgen_hwb( 4u ).tbs().revsimp().rptm().tpar().peephole();
  const auto& circuit = pipeline.quantum();
  const auto reimported = read_qasm( write_qasm( circuit ) );
  EXPECT_TRUE( circuits_equivalent( circuit, reimported ) );
}

TEST( integration_test, qasm_roundtrip_property_on_random_mapped_circuits )
{
  std::mt19937_64 rng( 66u );
  for ( uint32_t trial = 0u; trial < 10u; ++trial )
  {
    const auto pi = permutation::random( 3u, trial + 500u );
    const auto mapped = map_to_clifford_t( transformation_based_synthesis( pi ) );
    const auto optimized = phase_folding( mapped.circuit );
    const auto reimported = read_qasm( write_qasm( optimized ) );
    ASSERT_TRUE( circuits_equivalent( optimized, reimported ) ) << "trial=" << trial;
  }
}

TEST( integration_test, routed_hidden_shift_still_recovers_shift_noiselessly )
{
  const auto f = inner_product_function( 2u, /*interleaved=*/true );
  for ( uint64_t shift = 0u; shift < 16u; shift += 3u )
  {
    const auto logical = hidden_shift_circuit( { f, shift } );
    const auto execution = run_on_ibm_model( logical, coupling_map::ibm_qx4(),
                                             noise_model::ideal(), 32u, 11u );
    ASSERT_EQ( execution.counts.size(), 1u ) << "shift=" << shift;
    ASSERT_EQ( execution.counts.begin()->first, shift ) << "shift=" << shift;
  }
}

TEST( integration_test, noise_injection_degrades_success_monotonically_in_rate )
{
  const auto f = inner_product_function( 2u, /*interleaved=*/true );
  const auto logical = hidden_shift_circuit( { f, 1u } );
  double previous_success = 1.1;
  for ( const double p2 : { 0.0, 0.02, 0.08, 0.25 } )
  {
    noise_model model = noise_model::ideal();
    model.p_two = p2;
    const auto execution =
        run_on_ibm_model( logical, coupling_map::ibm_qx4(), model, 2048u, 21u );
    const auto it = execution.counts.find( 1u );
    const double success =
        it == execution.counts.end() ? 0.0 : static_cast<double>( it->second ) / 2048.0;
    EXPECT_LT( success, previous_success + 0.02 ) << "p2=" << p2;
    previous_success = success;
  }
  /* heavy noise must not leave the correct answer dominant at ~1 */
  EXPECT_LT( previous_success, 0.8 );
}

TEST( integration_test, readout_failure_injection_flips_deterministic_bits )
{
  qcircuit circuit( 3u );
  circuit.x( 0u );
  circuit.measure_all();
  noise_model model = noise_model::ideal();
  model.p_readout = 1.0; /* fault injection: every readout inverted */
  const auto counts = sample_counts_noisy( circuit, model, 64u, 13u );
  ASSERT_EQ( counts.size(), 1u );
  EXPECT_EQ( counts.begin()->first, 0b110u ); /* all bits flipped */
}

TEST( integration_test, esop_synthesis_to_device_execution )
{
  /* an irreversible function end to end: Bennett embedding, Clifford+T,
   * routing, noiseless execution, compare against direct evaluation */
  const auto f = majority_function( 3u );
  const auto reversible = esop_based_synthesis( f );
  const auto mapped = map_to_clifford_t( reversible );

  for ( uint64_t x = 0u; x < 8u; ++x )
  {
    qcircuit prep( mapped.circuit.num_qubits() );
    for ( uint32_t bit = 0u; bit < 3u; ++bit )
    {
      if ( ( x >> bit ) & 1u )
      {
        prep.x( bit );
      }
    }
    prep.append( mapped.circuit );
    prep.measure( 3u ); /* output line */
    const auto counts = sample_counts( prep, 16u, 5u );
    ASSERT_EQ( counts.size(), 1u );
    ASSERT_EQ( counts.begin()->first, f.get_bit( x ) ? 1u : 0u ) << "x=" << x;
  }
}

TEST( integration_test, adder_through_full_quantum_flow )
{
  /* CDKM adder -> Clifford+T -> phase folding -> still adds */
  constexpr uint32_t n = 3u;
  const auto adder = modular_ripple_adder( n );
  const auto mapped = map_to_clifford_t( adder );
  const auto optimized = phase_folding( mapped.circuit );
  const uint64_t mask = ( uint64_t{ 1 } << n ) - 1u;

  statevector_simulator simulator( optimized.num_qubits() );
  for ( uint64_t a = 0u; a <= mask; a += 2u )
  {
    for ( uint64_t b = 0u; b <= mask; b += 3u )
    {
      const uint64_t input = ( a << 1u ) | ( b << ( n + 1u ) );
      simulator.set_basis_state( input );
      simulator.run( optimized );
      const uint64_t expected = ( a << 1u ) | ( ( ( a + b ) & mask ) << ( n + 1u ) );
      ASSERT_NEAR( simulator.probability_of( expected ), 1.0, 1e-9 )
          << "a=" << a << " b=" << b;
    }
  }
}

TEST( integration_test, pmh_inside_full_pipeline )
{
  flow pipeline;
  pipeline.revgen_hwb( 4u ).tbs().revsimp().rptm().tpar();
  const auto before = pipeline.quantum();
  const auto resynthesized = resynthesize_linear_regions( before );
  EXPECT_TRUE( circuits_equivalent( resynthesized, before ) );
  EXPECT_LE( compute_statistics( resynthesized ).cnot_count,
             compute_statistics( before ).cnot_count );
}

TEST( integration_test, deutsch_jozsa_classifies_promise_functions )
{
  EXPECT_TRUE( deutsch_jozsa_is_constant( truth_table( 4u ) ) );
  EXPECT_TRUE( deutsch_jozsa_is_constant( truth_table::constant( 4u, true ) ) );
  EXPECT_FALSE( deutsch_jozsa_is_constant( truth_table::projection( 4u, 2u ) ) );
  /* majority over an odd variable count is balanced but nonlinear */
  EXPECT_FALSE( deutsch_jozsa_is_constant( majority_function( 3u ) ) );
  /* bent functions are *not* balanced: the promise is violated */
  EXPECT_THROW( deutsch_jozsa_is_constant( inner_product_function( 2u ) ),
                std::invalid_argument );
  EXPECT_THROW( deutsch_jozsa_is_constant( majority_function( 4u ) ), std::invalid_argument );
}

TEST( integration_test, deutsch_jozsa_balanced_sweep )
{
  /* every linear non-constant function is balanced */
  for ( uint32_t var = 0u; var < 5u; ++var )
  {
    EXPECT_FALSE( deutsch_jozsa_is_constant( truth_table::projection( 5u, var ) ) );
  }
}

TEST( integration_test, ascii_rendering_of_quantum_circuits )
{
  qcircuit circuit( 2u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  circuit.measure_all();
  const auto art = circuit.to_ascii();
  EXPECT_NE( art.find( "q0" ), std::string::npos );
  EXPECT_NE( art.find( "h" ), std::string::npos );
  EXPECT_NE( art.find( "*" ), std::string::npos );
  EXPECT_NE( art.find( "M" ), std::string::npos );
}

TEST( integration_test, mm_hidden_shift_through_clifford_t_lowering )
{
  /* the full Fig. 7 circuit lowered to Clifford+T still recovers s */
  const auto f = mm_bent_function::paper_fig7();
  const auto logical = hidden_shift_circuit_mm( f, 19u );
  const auto lowered = lower_multi_controlled_gates( logical );
  EXPECT_EQ( solve_hidden_shift( lowered.circuit ), 19u );
}

TEST( integration_test, lowered_circuits_are_qasm_exportable )
{
  /* a bare 3-control mcx has no QASM spelling; lowering fixes that */
  qcircuit logical( 4u );
  logical.h( 0u );
  logical.mcx( { 0u, 1u, 2u }, 3u );
  EXPECT_THROW( write_qasm( logical ), std::invalid_argument );
  const auto lowered = lower_multi_controlled_gates( logical );
  EXPECT_NO_THROW( write_qasm( lowered.circuit ) );
  EXPECT_EQ( lowered.num_helper_qubits, 1u );
}

} // namespace
} // namespace qda
