#include "gate_sequence_hash.hpp"

#include "mapping/clifford_t.hpp"
#include "optimization/linear_synthesis.hpp"
#include "optimization/peephole.hpp"
#include "optimization/phase_folding.hpp"
#include "optimization/revsimp.hpp"
#include "pipeline/pass_manager.hpp"
#include "simulator/unitary.hpp"
#include "synthesis/revgen.hpp"
#include "synthesis/transformation_based.hpp"

#include <gtest/gtest.h>

#include <random>

namespace qda
{
namespace
{

TEST( revsimp_test, cancels_adjacent_identical_gates )
{
  rev_circuit circuit( 3u );
  circuit.add_toffoli( 0u, 1u, 2u );
  circuit.add_toffoli( 0u, 1u, 2u );
  const auto simplified = revsimp( circuit );
  EXPECT_EQ( simplified.num_gates(), 0u );
}

TEST( revsimp_test, cancels_across_commuting_gates )
{
  rev_circuit circuit( 3u );
  circuit.add_cnot( 0u, 2u );
  circuit.add_cnot( 1u, 2u ); /* same target: commutes */
  circuit.add_cnot( 0u, 2u );
  const auto simplified = revsimp( circuit );
  EXPECT_EQ( simplified.num_gates(), 1u );
  EXPECT_TRUE( equivalent( simplified, circuit ) );
}

TEST( revsimp_test, does_not_cancel_across_blocking_gates )
{
  rev_circuit circuit( 2u );
  circuit.add_cnot( 0u, 1u );
  circuit.add_cnot( 1u, 0u ); /* blocks */
  circuit.add_cnot( 0u, 1u );
  const auto simplified = revsimp( circuit );
  EXPECT_EQ( simplified.num_gates(), 3u );
}

TEST( revsimp_test, merges_distance_one_controls )
{
  /* T(x0, x1 -> t) T(x0, !x1 -> t) == T(x0 -> t) */
  rev_circuit circuit( 3u );
  circuit.add_gate( rev_gate::mct( { 0u, 1u }, {}, 2u ) );
  circuit.add_gate( rev_gate::mct( { 0u }, { 1u }, 2u ) );
  const auto simplified = revsimp( circuit );
  ASSERT_EQ( simplified.num_gates(), 1u );
  EXPECT_EQ( simplified.gate( 0u ), rev_gate::cnot( 0u, 2u ) );
  EXPECT_TRUE( equivalent( simplified, circuit ) );
}

TEST( revsimp_test, merges_subsumed_controls )
{
  /* T(x0 -> t) T(x0, x1 -> t) == T(x0, !x1 -> t) */
  rev_circuit circuit( 3u );
  circuit.add_cnot( 0u, 2u );
  circuit.add_toffoli( 0u, 1u, 2u );
  const auto simplified = revsimp( circuit );
  ASSERT_EQ( simplified.num_gates(), 1u );
  EXPECT_EQ( simplified.gate( 0u ), rev_gate::mct( { 0u }, { 1u }, 2u ) );
  EXPECT_TRUE( equivalent( simplified, circuit ) );
}

TEST( revsimp_test, preserves_function_on_random_circuits )
{
  std::mt19937_64 rng( 21u );
  for ( uint32_t trial = 0u; trial < 40u; ++trial )
  {
    rev_circuit circuit( 5u );
    for ( uint32_t g = 0u; g < 24u; ++g )
    {
      const uint32_t target = rng() % 5u;
      const uint64_t controls = rng() & 0x1fu & ~( uint64_t{ 1 } << target );
      const uint64_t polarity = rng() & controls;
      circuit.add_gate( rev_gate( controls, polarity, target ) );
    }
    const auto simplified = revsimp( circuit );
    ASSERT_TRUE( equivalent( simplified, circuit ) ) << "trial=" << trial;
    EXPECT_LE( simplified.num_gates(), circuit.num_gates() );
  }
}

TEST( revsimp_test, shrinks_synthesized_benchmarks )
{
  const auto circuit = transformation_based_synthesis( hwb_permutation( 5u ) );
  const auto simplified = revsimp( circuit );
  EXPECT_LE( simplified.num_gates(), circuit.num_gates() );
  EXPECT_TRUE( equivalent( simplified, circuit ) );
}

TEST( phase_folding_test, merges_split_t_gates )
{
  /* t . cx . t . cx : second t acts on the same parity as the first */
  qcircuit circuit( 2u );
  circuit.t( 0u );
  circuit.cx( 1u, 0u );
  circuit.cx( 1u, 0u );
  circuit.t( 0u );
  const auto folded = phase_folding( circuit );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
  EXPECT_EQ( compute_statistics( folded ).t_count, 0u ); /* t+t = s */
}

TEST( phase_folding_test, t_and_tdg_cancel_through_cnots )
{
  qcircuit circuit( 2u );
  circuit.t( 1u );
  circuit.cx( 0u, 1u );
  circuit.cx( 0u, 1u );
  circuit.tdg( 1u );
  const auto folded = phase_folding( circuit );
  EXPECT_EQ( compute_statistics( folded ).t_count, 0u );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
}

TEST( phase_folding_test, does_not_merge_across_hadamard )
{
  qcircuit circuit( 1u );
  circuit.t( 0u );
  circuit.h( 0u );
  circuit.t( 0u );
  const auto folded = phase_folding( circuit );
  EXPECT_EQ( compute_statistics( folded ).t_count, 2u );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
}

TEST( phase_folding_test, x_conjugation_flips_phase_sign )
{
  /* X T X T: phases theta(1-v) + theta(v) = global theta */
  qcircuit circuit( 1u );
  circuit.x( 0u );
  circuit.t( 0u );
  circuit.x( 0u );
  circuit.t( 0u );
  const auto folded = phase_folding( circuit );
  EXPECT_EQ( compute_statistics( folded ).t_count, 0u );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
}

TEST( phase_folding_test, parity_via_cnot_chain )
{
  qcircuit circuit( 3u );
  circuit.cx( 0u, 2u );
  circuit.cx( 1u, 2u );
  circuit.t( 2u ); /* phase on x0 ^ x1 ^ x2 */
  circuit.cx( 1u, 2u );
  circuit.cx( 0u, 2u );
  circuit.cx( 0u, 1u );
  circuit.t( 1u ); /* phase on x0 ^ x1: different parity, no merge */
  circuit.cx( 0u, 1u );
  const auto folded = phase_folding( circuit );
  EXPECT_EQ( compute_statistics( folded ).t_count, 2u );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
}

TEST( phase_folding_test, preserves_random_clifford_t_circuits )
{
  std::mt19937_64 rng( 5u );
  for ( uint32_t trial = 0u; trial < 30u; ++trial )
  {
    qcircuit circuit( 4u );
    for ( uint32_t g = 0u; g < 40u; ++g )
    {
      const uint32_t q = rng() % 4u;
      switch ( rng() % 7u )
      {
      case 0u: circuit.t( q ); break;
      case 1u: circuit.tdg( q ); break;
      case 2u: circuit.s( q ); break;
      case 3u: circuit.h( q ); break;
      case 4u: circuit.x( q ); break;
      case 5u: circuit.cx( q, ( q + 1u ) % 4u ); break;
      default: circuit.cz( q, ( q + 2u ) % 4u ); break;
      }
    }
    const auto folded = phase_folding( circuit );
    ASSERT_TRUE( circuits_equivalent( folded, circuit ) ) << "trial=" << trial;
    EXPECT_LE( compute_statistics( folded ).t_count, compute_statistics( circuit ).t_count );
  }
}

TEST( phase_folding_test, reduces_t_count_of_mapped_mct_cascades )
{
  rev_circuit circuit( 4u );
  circuit.add_toffoli( 0u, 1u, 3u );
  circuit.add_toffoli( 0u, 1u, 3u );
  const auto mapped = map_to_clifford_t( circuit );
  const auto folded = phase_folding( mapped.circuit );
  EXPECT_LT( compute_statistics( folded ).t_count,
             compute_statistics( mapped.circuit ).t_count );
  EXPECT_TRUE( circuits_equivalent( folded, mapped.circuit ) );
}

TEST( pmh_test, identity_and_single_cnot )
{
  EXPECT_EQ( pmh_linear_synthesis( { 1u, 2u, 4u } ).num_gates(), 0u );
  /* matrix of cx(0,1): row1 = x0 ^ x1 */
  const auto circuit = pmh_linear_synthesis( { 1u, 3u } );
  EXPECT_EQ( circuit.num_gates(), 1u );
  EXPECT_EQ( linear_map_of_circuit( circuit ), ( linear_matrix{ 1u, 3u } ) );
}

TEST( pmh_test, roundtrip_on_random_linear_circuits )
{
  std::mt19937_64 rng( 17u );
  for ( uint32_t trial = 0u; trial < 30u; ++trial )
  {
    qcircuit circuit( 6u );
    for ( uint32_t g = 0u; g < 30u; ++g )
    {
      const uint32_t c = rng() % 6u;
      uint32_t t = rng() % 6u;
      if ( t == c )
      {
        t = ( t + 1u ) % 6u;
      }
      circuit.cx( c, t );
    }
    const auto matrix = linear_map_of_circuit( circuit );
    ASSERT_TRUE( is_invertible( matrix ) );
    for ( const uint32_t section : { 1u, 2u, 3u } )
    {
      const auto resynthesized = pmh_linear_synthesis( matrix, section );
      ASSERT_EQ( linear_map_of_circuit( resynthesized ), matrix )
          << "trial=" << trial << " section=" << section;
    }
  }
}

TEST( pmh_test, compresses_redundant_cnot_chains )
{
  qcircuit circuit( 3u );
  for ( uint32_t i = 0u; i < 6u; ++i )
  {
    circuit.cx( 0u, 1u ); /* even count: identity */
  }
  circuit.cx( 1u, 2u );
  const auto matrix = linear_map_of_circuit( circuit );
  const auto resynthesized = pmh_linear_synthesis( matrix );
  EXPECT_EQ( resynthesized.num_gates(), 1u );
}

TEST( pmh_test, swap_handling_and_errors )
{
  qcircuit circuit( 2u );
  circuit.swap_( 0u, 1u );
  const auto matrix = linear_map_of_circuit( circuit );
  EXPECT_EQ( matrix, ( linear_matrix{ 2u, 1u } ) );

  qcircuit bad( 2u );
  bad.h( 0u );
  EXPECT_THROW( linear_map_of_circuit( bad ), std::invalid_argument );
  EXPECT_THROW( pmh_linear_synthesis( { 1u, 1u } ), std::invalid_argument ); /* singular */
}

TEST( pmh_test, region_resynthesis_preserves_semantics )
{
  qcircuit circuit( 4u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  circuit.cx( 1u, 2u );
  circuit.cx( 0u, 1u );
  circuit.cx( 1u, 2u );
  circuit.cx( 0u, 2u );
  circuit.t( 2u );
  circuit.cx( 3u, 2u );
  circuit.cx( 3u, 2u );
  circuit.h( 2u );
  const auto resynthesized = resynthesize_linear_regions( circuit );
  EXPECT_TRUE( circuits_equivalent( resynthesized, circuit ) );
  EXPECT_LE( resynthesized.num_gates(), circuit.num_gates() );
}

TEST( peephole_test, cancels_adjacent_pairs )
{
  qcircuit circuit( 2u );
  circuit.h( 0u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  circuit.cx( 0u, 1u );
  circuit.t( 1u );
  circuit.tdg( 1u );
  const auto optimized = peephole_optimize( circuit );
  EXPECT_EQ( optimized.num_gates(), 0u );
}

TEST( peephole_test, cancels_across_disjoint_gates )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.x( 1u );
  circuit.t( 2u );
  circuit.h( 0u );
  const auto optimized = peephole_optimize( circuit );
  EXPECT_EQ( optimized.num_gates(), 2u );
  EXPECT_TRUE( circuits_equivalent( optimized, circuit ) );
}

TEST( peephole_test, blocked_pairs_survive )
{
  qcircuit circuit( 2u );
  circuit.h( 0u );
  circuit.t( 0u );
  circuit.h( 0u );
  const auto optimized = peephole_optimize( circuit );
  EXPECT_EQ( optimized.num_gates(), 3u );
}

TEST( peephole_test, preserves_random_circuits )
{
  std::mt19937_64 rng( 77u );
  for ( uint32_t trial = 0u; trial < 30u; ++trial )
  {
    qcircuit circuit( 4u );
    for ( uint32_t g = 0u; g < 30u; ++g )
    {
      const uint32_t q = rng() % 4u;
      switch ( rng() % 6u )
      {
      case 0u: circuit.h( q ); break;
      case 1u: circuit.x( q ); break;
      case 2u: circuit.t( q ); break;
      case 3u: circuit.tdg( q ); break;
      case 4u: circuit.cx( q, ( q + 1u ) % 4u ); break;
      default: circuit.cz( q, ( q + 2u ) % 4u ); break;
      }
    }
    const auto optimized = peephole_optimize( circuit );
    ASSERT_TRUE( circuits_equivalent( optimized, circuit ) ) << "trial=" << trial;
    EXPECT_LE( optimized.num_gates(), circuit.num_gates() );
  }
}

TEST( peephole_test, survivors_keep_their_order )
{
  /* H H cancels first and exposes CX CX; the survivors stay in slot
   * order (a per-wire stack would emit T(2) before CX(0,1)) */
  qcircuit circuit( 3u );
  circuit.cx( 0u, 1u );
  circuit.t( 2u );
  circuit.h( 1u );
  circuit.h( 1u );
  circuit.cx( 0u, 1u );
  circuit.cx( 0u, 1u );
  const auto optimized = peephole_optimize( circuit );
  qcircuit expected( 3u );
  expected.cx( 0u, 1u );
  expected.t( 2u );
  EXPECT_TRUE( optimized.gates() == expected.gates() );
  EXPECT_EQ( gate_sequence_hash( optimized ), gate_sequence_hash( expected ) );
}

TEST( peephole_test, max_rounds_zero_leaves_the_circuit_alone )
{
  qcircuit circuit( 1u );
  circuit.h( 0u );
  circuit.h( 0u );
  qcircuit untouched( circuit );
  peephole_in_place( untouched, 0u );
  EXPECT_EQ( untouched.num_gates(), 2u );
  qcircuit one_round( circuit );
  peephole_in_place( one_round, 1u );
  EXPECT_EQ( one_round.num_gates(), 0u );
}

/* ---------------------------------------------------------------- */
/* output pins                                                      */
/* ---------------------------------------------------------------- */

/*! Runs `spec` cold: no result cache, no subcircuit library. */
staged_ir compile_cold( const std::string& spec )
{
  pass_manager manager( /*enable_cache=*/false );
  run_plan plan;
  plan.use_library = false;
  return manager.run( parse_pipeline( spec ), staged_ir{}, plan ).ir;
}

void expect_pinned( const qcircuit& circuit, const sequence_pin& pin )
{
  EXPECT_EQ( circuit.num_gates(), pin.gates ) << pin_row( pin.what, circuit );
  EXPECT_EQ( gate_sequence_hash( circuit ), pin.hash ) << pin_row( pin.what, circuit );
}

TEST( peephole_pin_test, rptm_and_tpar_outputs_match_the_pinned_sequence )
{
  /* the peephole tails of the compile workloads, n = 5..8 under tbs
   * and dbs: a change to which pairs cancel, or to the order of the
   * survivors, must update these on purpose */
  const sequence_pin pins[] = {
      { "revgen --random 5 --seed 11; tbs; revsimp; rptm; peephole", 1147u, 0xf0a2af9b9f0470c9ull },
      { "revgen --random 5 --seed 11; tbs; revsimp; rptm; tpar; peephole",
        1096u, 0x7e7db2fb5b2db587ull },
      { "revgen --random 5 --seed 11; dbs; revsimp; rptm; peephole", 736u, 0x977ae92924b563c1ull },
      { "revgen --random 5 --seed 11; dbs; revsimp; rptm; tpar; peephole",
        713u, 0x9d088dcf5c9ab4b8ull },
      { "revgen --random 6 --seed 11; tbs; revsimp; rptm; peephole", 4297u, 0xb02f81a29d17d824ull },
      { "revgen --random 6 --seed 11; tbs; revsimp; rptm; tpar; peephole",
        4141u, 0x870d32c44d558b00ull },
      { "revgen --random 6 --seed 11; dbs; revsimp; rptm; peephole", 2085u, 0x8bf8c07441b3e52full },
      { "revgen --random 6 --seed 11; dbs; revsimp; rptm; tpar; peephole",
        2033u, 0xa86fc29c82f072a3ull },
      { "revgen --random 7 --seed 11; tbs; revsimp; rptm; peephole",
        12418u, 0xd8d7ba4c18b5e0e1ull },
      { "revgen --random 7 --seed 11; tbs; revsimp; rptm; tpar; peephole",
        12029u, 0x4cc7ff1ed0627685ull },
      { "revgen --random 7 --seed 11; dbs; revsimp; rptm; peephole", 6381u, 0x47121cd83e439fcdull },
      { "revgen --random 7 --seed 11; dbs; revsimp; rptm; tpar; peephole",
        6229u, 0x4d82a0151dac9948ull },
      { "revgen --random 8 --seed 11; tbs; revsimp; rptm; peephole",
        35938u, 0x90aaeed0dcc51f62ull },
      { "revgen --random 8 --seed 11; tbs; revsimp; rptm; tpar; peephole",
        35000u, 0xdf88272259d60300ull },
      { "revgen --random 8 --seed 11; dbs; revsimp; rptm; peephole",
        16303u, 0xae52004ec712754aull },
      { "revgen --random 8 --seed 11; dbs; revsimp; rptm; tpar; peephole",
        15983u, 0xa8d68ff1d0a99279ull },
  };
  for ( const auto& pin : pins )
  {
    const auto ir = compile_cold( pin.what );
    ASSERT_TRUE( ir.quantum.has_value() ) << pin.what;
    expect_pinned( ir.quantum->circuit, pin );
  }
}

TEST( peephole_pin_test, routed_circuits_match_the_pinned_sequence )
{
  /* routed outputs carry direction-fix Hadamards and SWAP CNOTs that
   * cancel across wires; peephole is called directly on them */
  const sequence_pin pins[] = {
      { "revgen --random 5 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        2702u, 0xa10559d2d8073ee2ull },
      { "revgen --random 5 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5 --router greedy",
        5846u, 0xcea24d03ad32b007ull },
      { "revgen --random 5 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --linear 16",
        2168u, 0xc8d3bb0f214c6fc6ull },
      { "revgen --random 5 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --ring 16",
        2168u, 0xc8d3bb0f214c6fc6ull },
      { "revgen --random 6 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5",
        12455u, 0x4f0a5b3d99028fc8ull },
      { "revgen --random 6 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --device ibm_qx5 --router greedy",
        29354u, 0xa0300b86aef81222ull },
      { "revgen --random 6 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --linear 16",
        8849u, 0x49feec4300de3d2dull },
      { "revgen --random 6 --seed 11; tbs; revsimp; rptm --cost-target ibm_qx5; "
        "tpar; route --ring 16",
        8849u, 0x49feec4300de3d2dull },
  };
  for ( const auto& pin : pins )
  {
    auto ir = compile_cold( pin.what );
    ASSERT_TRUE( ir.mapped.has_value() ) << pin.what;
    peephole_in_place( ir.mapped->circuit );
    expect_pinned( ir.mapped->circuit, pin );
  }
}

} // namespace
} // namespace qda
