#include "mapping/clifford_t.hpp"
#include "optimization/phase_folding.hpp"
#include "phasepoly/phasepoly.hpp"
#include "pipeline/pass_manager.hpp"
#include "simulator/unitary.hpp"
#include "synthesis/revgen.hpp"
#include "synthesis/transformation_based.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

namespace qda
{
namespace
{

/* ---------------------------------------------------------------- */
/* bitvec: the dynamic-width parity vector                          */
/* ---------------------------------------------------------------- */

TEST( bitvec_test, set_test_across_word_boundaries )
{
  bitvec v;
  EXPECT_TRUE( v.none() );
  v.set( 0u );
  v.set( 63u );
  v.set( 64u );
  v.set( 200u );
  EXPECT_TRUE( v.test( 0u ) );
  EXPECT_TRUE( v.test( 63u ) );
  EXPECT_TRUE( v.test( 64u ) );
  EXPECT_TRUE( v.test( 200u ) );
  EXPECT_FALSE( v.test( 1u ) );
  EXPECT_FALSE( v.test( 128u ) );
  EXPECT_FALSE( v.test( 4000u ) );
  EXPECT_EQ( v.count(), 4u );
  EXPECT_EQ( v.top_bit(), 200u );
  EXPECT_EQ( v.to_string(), "{0, 63, 64, 200}" );
}

TEST( bitvec_test, equality_is_independent_of_construction_order )
{
  bitvec a;
  a.set( 700u );
  a.set( 3u );

  bitvec b;
  b.set( 3u );
  b.set( 700u );
  EXPECT_EQ( a, b );
  EXPECT_EQ( a.hash(), b.hash() );

  /* growing wide and shrinking back reaches the same canonical form */
  bitvec c;
  c.set( 3u );
  c.set( 700u );
  c.set( 9000u );
  c.flip( 9000u );
  EXPECT_EQ( a, c );
  EXPECT_EQ( a.hash(), c.hash() );
}

TEST( bitvec_test, high_only_vectors_are_compact_and_comparable )
{
  /* labels over late variables must not drag leading zero words */
  bitvec high;
  high.set( 9000u );
  bitvec low;
  low.set( 1u );
  EXPECT_TRUE( low < high );
  EXPECT_FALSE( high < low );
  EXPECT_FALSE( high < high );
  EXPECT_TRUE( high.test( 9000u ) );
  EXPECT_FALSE( high.test( 0u ) );
  EXPECT_EQ( high.count(), 1u );

  bitvec mixed = high ^ low;
  EXPECT_EQ( mixed.count(), 2u );
  EXPECT_TRUE( mixed.test( 1u ) );
  EXPECT_TRUE( mixed.test( 9000u ) );
  mixed ^= high;
  EXPECT_EQ( mixed, low );
}

TEST( bitvec_test, xor_cancels_and_renormalizes )
{
  bitvec a;
  a.set( 100u );
  a.set( 500u );
  bitvec b;
  b.set( 500u );
  a ^= b;
  bitvec expected;
  expected.set( 100u );
  EXPECT_EQ( a, expected );

  a ^= expected;
  EXPECT_TRUE( a.none() );
  EXPECT_EQ( a, bitvec{} );

  /* self-cancellation through the low word too */
  bitvec c{ 0xffu };
  c ^= bitvec{ 0xffu };
  EXPECT_TRUE( c.none() );
}

TEST( bitvec_test, inner_parity_and_iteration )
{
  bitvec a;
  a.set( 2u );
  a.set( 66u );
  a.set( 130u );
  bitvec b;
  b.set( 66u );
  b.set( 130u );
  EXPECT_FALSE( inner_parity( a, b ) ); /* overlap of 2 bits */
  b.set( 2u );
  EXPECT_TRUE( inner_parity( a, b ) ); /* overlap of 3 bits */

  std::vector<uint32_t> bits;
  a.for_each_set_bit( [&bits]( uint32_t index ) { bits.push_back( index ); } );
  EXPECT_EQ( bits, ( std::vector<uint32_t>{ 2u, 66u, 130u } ) );
}

TEST( parity_table_test, accumulates_and_survives_growth )
{
  phasepoly::parity_table table;
  std::vector<bitvec> keys;
  for ( uint32_t i = 0u; i < 300u; ++i )
  {
    bitvec key;
    key.set( i );
    key.set( 3u * i + 7u );
    keys.push_back( key );
    const auto [index, inserted] = table.find_or_insert( key );
    EXPECT_TRUE( inserted );
    EXPECT_EQ( index, i );
  }
  for ( uint32_t i = 0u; i < 300u; ++i )
  {
    const auto [index, inserted] = table.find_or_insert( keys[i] );
    EXPECT_FALSE( inserted );
    EXPECT_EQ( index, i );
    EXPECT_EQ( table.key( index ), keys[i] );
  }
  bitvec absent;
  absent.set( 4000u );
  EXPECT_EQ( table.find( absent ), phasepoly::parity_table::npos );
}

/* ---------------------------------------------------------------- */
/* extraction and parity-network synthesis                          */
/* ---------------------------------------------------------------- */

TEST( phase_polynomial_test, extracts_terms_and_affine_map )
{
  qcircuit circuit( 2u );
  circuit.t( 0u );
  circuit.cx( 0u, 1u );
  circuit.t( 1u );
  circuit.x( 1u );
  circuit.tdg( 1u );

  const auto poly = phasepoly::extract_phase_polynomial(
      circuit, 0u, circuit.core().num_slots(), { 0u, 1u } );
  ASSERT_EQ( poly.num_vars, 2u );
  /* terms: x0 (angle pi/4), x0^x1 (pi/4 then -(-pi/4) through the X) */
  ASSERT_EQ( poly.terms.size(), 2u );
  bitvec x0;
  x0.set( 0u );
  bitvec x01;
  x01.set( 0u );
  x01.set( 1u );
  EXPECT_EQ( poly.terms[0].parity, x0 );
  EXPECT_NEAR( poly.terms[0].angle, std::numbers::pi / 4.0, 1e-12 );
  EXPECT_EQ( poly.terms[1].parity, x01 );
  EXPECT_NEAR( poly.terms[1].angle, std::numbers::pi / 2.0, 1e-12 );
  /* outputs: wire0 = x0, wire1 = x0^x1 (+) 1 */
  EXPECT_EQ( poly.output_linear[0], x0 );
  EXPECT_EQ( poly.output_linear[1], x01 );
  EXPECT_FALSE( poly.output_constants.test( 0u ) );
  EXPECT_TRUE( poly.output_constants.test( 1u ) );
}

TEST( parity_network_test, rebuilds_equivalent_regions )
{
  /* t . cx . t . cx . x pattern: resynthesis must reproduce the exact
   * unitary including the affine tail */
  qcircuit region( 3u );
  region.t( 0u );
  region.cx( 0u, 1u );
  region.cx( 1u, 2u );
  region.t( 2u );
  region.cx( 1u, 2u );
  region.x( 1u );
  region.s( 1u );

  const auto poly = phasepoly::extract_phase_polynomial(
      region, 0u, region.core().num_slots(), { 0u, 1u, 2u } );
  const auto network = phasepoly::synthesize_parity_network( poly );

  qcircuit rebuilt( 3u );
  for ( const auto& gate : network.gates )
  {
    rebuilt.add_gate( gate );
  }
  rebuilt.global_phase( network.global_phase );
  EXPECT_TRUE( circuits_equivalent( rebuilt, region ) );
}

TEST( parity_network_test, gray_code_linear_region_collapses )
{
  /* a staircase of redundant CNOTs computes a permutation PMH finds in
   * fewer gates */
  qcircuit circuit( 3u );
  circuit.cx( 0u, 1u );
  circuit.cx( 1u, 2u );
  circuit.cx( 0u, 1u );
  circuit.cx( 1u, 2u );
  circuit.cx( 0u, 2u );
  circuit.cx( 0u, 2u );
  const auto optimized = phasepoly::tpar( circuit );
  EXPECT_TRUE( circuits_equivalent( optimized, circuit ) );
  EXPECT_LT( optimized.num_gates(), circuit.num_gates() );
}

/* ---------------------------------------------------------------- */
/* the tpar pass: fold + resynthesis                                */
/* ---------------------------------------------------------------- */

TEST( tpar_test, merges_beyond_64_parity_labels )
{
  /* the former stand-in recycled 64 label bits in "epochs": after 64
   * fresh labels it relabeled every qubit, so these two T gates no
   * longer merged.  Unbounded labels must fold them into one S. */
  qcircuit circuit( 2u );
  circuit.t( 0u );
  for ( uint32_t i = 0u; i < 70u; ++i )
  {
    circuit.h( 1u ); /* 70 fresh labels on qubit 1 */
  }
  circuit.t( 0u );

  const auto folded = phase_folding( circuit );
  EXPECT_EQ( compute_statistics( folded ).t_count, 0u );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
}

TEST( tpar_test, merges_labels_wider_than_the_inline_capacity )
{
  /* CX fan-in from eight freshly h'd qubits gives qubit 0 a nine-
   * variable parity, past the labels' inline storage; the two T gates
   * on that parity must still meet in the table and fold into one S */
  qcircuit circuit( 9u );
  for ( uint32_t q = 0u; q < 9u; ++q )
  {
    circuit.h( q );
  }
  for ( uint32_t q = 1u; q < 9u; ++q )
  {
    circuit.cx( q, 0u );
  }
  circuit.t( 0u );
  circuit.h( 1u ); /* unrelated: re-seeds qubit 1, not qubit 0 */
  circuit.cx( 3u, 2u );
  circuit.t( 2u );
  circuit.cx( 3u, 2u );
  circuit.t( 0u );

  const auto folded = phasepoly::tpar( circuit, { /*resynthesize=*/false } );
  const auto stats = compute_statistics( folded );
  EXPECT_EQ( stats.t_count, 1u ); /* only the T on x2 ^ x3 stays */
  size_t s_gates = 0u;
  for ( const auto& gate : folded.gates() )
  {
    s_gates += gate.kind == gate_kind::s && gate.target == 0u ? 1u : 0u;
  }
  EXPECT_EQ( s_gates, 1u );
  EXPECT_TRUE( circuits_equivalent( folded, circuit ) );
}

TEST( tpar_test, fuzz_wide_fan_in_labels_spill_and_shrink )
{
  /* dense CX fan-in on 7 qubits grows labels past the inline storage
   * and XORs them back below it; folding must stay exact throughout */
  std::mt19937_64 rng( 41u );
  for ( uint32_t trial = 0u; trial < 20u; ++trial )
  {
    qcircuit circuit( 7u );
    for ( uint32_t g = 0u; g < 200u; ++g )
    {
      const uint32_t q = rng() % 7u;
      const uint32_t other = ( q + 1u + rng() % 6u ) % 7u;
      switch ( rng() % 8u )
      {
      case 0u: circuit.h( q ); break;
      case 1u: circuit.t( q ); break;
      case 2u: circuit.tdg( q ); break;
      case 3u: circuit.x( q ); break;
      case 4u: circuit.swap_( q, other ); break;
      default: circuit.cx( other, q ); break;
      }
    }
    const auto folded = phasepoly::tpar( circuit, { /*resynthesize=*/false } );
    ASSERT_TRUE( circuits_equivalent( folded, circuit ) ) << "trial=" << trial;
    EXPECT_LE( compute_statistics( folded ).t_count, compute_statistics( circuit ).t_count );
  }
}

TEST( tpar_test, pins_hwb_counts_of_the_committed_ablation )
{
  /* the rptm_tpar / rptm_tpar_resynth rows of BENCH_tpar.json: any
   * change to what folding or resynthesis emits shows up here */
  struct pinned
  {
    const char* spec;
    uint64_t t, cnot, gates;
  };
  const pinned cases[] = {
      { "revgen --hwb 5; tbs; revsimp; rptm; tpar --fold-only; ps", 527u, 477u, 1245u },
      { "revgen --hwb 5; tbs; revsimp; rptm; tpar; ps", 527u, 471u, 1239u },
      { "revgen --hwb 6; tbs; revsimp; rptm; tpar --fold-only; ps", 2205u, 1903u, 5123u },
      { "revgen --hwb 6; tbs; revsimp; rptm; tpar; ps", 2205u, 1875u, 5095u } };
  pass_manager manager( /*enable_cache=*/false );
  for ( const auto& c : cases )
  {
    const auto result = manager.run( parse_pipeline( c.spec ) );
    ASSERT_TRUE( result.ir.last_statistics.has_value() ) << c.spec;
    const auto& stats = *result.ir.last_statistics;
    EXPECT_EQ( stats.t_count, c.t ) << c.spec;
    EXPECT_EQ( stats.cnot_count, c.cnot ) << c.spec;
    EXPECT_EQ( stats.num_gates, c.gates ) << c.spec;
  }
}

TEST( tpar_test, preserves_random_clifford_t_circuits )
{
  std::mt19937_64 rng( 11u );
  for ( uint32_t trial = 0u; trial < 30u; ++trial )
  {
    qcircuit circuit( 4u );
    for ( uint32_t g = 0u; g < 60u; ++g )
    {
      const uint32_t q = rng() % 4u;
      switch ( rng() % 8u )
      {
      case 0u: circuit.t( q ); break;
      case 1u: circuit.tdg( q ); break;
      case 2u: circuit.s( q ); break;
      case 3u: circuit.h( q ); break;
      case 4u: circuit.x( q ); break;
      case 5u: circuit.cx( q, ( q + 1u ) % 4u ); break;
      case 6u: circuit.swap_( q, ( q + 1u ) % 4u ); break;
      default: circuit.cz( q, ( q + 2u ) % 4u ); break;
      }
    }
    const auto fold_only = phasepoly::tpar( circuit, { /*resynthesize=*/false } );
    const auto full = phasepoly::tpar( circuit );
    ASSERT_TRUE( circuits_equivalent( fold_only, circuit ) ) << "trial=" << trial;
    ASSERT_TRUE( circuits_equivalent( full, circuit ) ) << "trial=" << trial;
    const auto t_before = compute_statistics( circuit ).t_count;
    const auto t_fold = compute_statistics( fold_only ).t_count;
    const auto t_full = compute_statistics( full ).t_count;
    EXPECT_LE( t_fold, t_before );
    EXPECT_LE( t_full, t_fold ); /* resynthesis must never cost T gates */
  }
}

TEST( tpar_test, concurrent_calls_emit_what_serial_calls_emit )
{
  /* tpar keeps no state across calls: eight threads optimizing shared
   * inputs must each get the serial output, gate for gate */
  constexpr uint32_t num_shapes = 4u;
  constexpr uint32_t num_threads = 8u;
  constexpr uint32_t rounds = 4u;
  std::mt19937_64 rng( 23u );
  std::vector<qcircuit> shapes;
  std::vector<qcircuit> references;
  for ( uint32_t s = 0u; s < num_shapes; ++s )
  {
    qcircuit circuit( 4u );
    for ( uint32_t g = 0u; g < 40u; ++g )
    {
      const uint32_t q = rng() % 4u;
      switch ( rng() % 6u )
      {
      case 0u: circuit.t( q ); break;
      case 1u: circuit.tdg( q ); break;
      case 2u: circuit.s( q ); break;
      case 3u: circuit.h( q ); break;
      case 4u: circuit.x( q ); break;
      default: circuit.cx( q, ( q + 1u ) % 4u ); break;
      }
    }
    references.push_back( phasepoly::tpar( circuit ) );
    shapes.push_back( std::move( circuit ) );
  }

  std::atomic<uint32_t> mismatches{ 0u };
  std::vector<std::thread> workers;
  for ( uint32_t thread_id = 0u; thread_id < num_threads; ++thread_id )
  {
    workers.emplace_back( [&, thread_id] {
      for ( uint32_t round = 0u; round < rounds; ++round )
      {
        const uint32_t shape = ( thread_id + round ) % num_shapes;
        if ( !( phasepoly::tpar( shapes[shape] ) == references[shape] ) )
        {
          mismatches.fetch_add( 1u );
        }
      }
    } );
  }
  for ( auto& worker : workers )
  {
    worker.join();
  }
  EXPECT_EQ( mismatches.load(), 0u );
}

TEST( tpar_test, fuzz_crosses_the_64_label_boundary )
{
  /* h-heavy circuits allocate hundreds of labels; pins the unbounded
   * tracking on inputs where the epoch hack used to reset state */
  std::mt19937_64 rng( 29u );
  for ( uint32_t trial = 0u; trial < 10u; ++trial )
  {
    qcircuit circuit( 4u );
    for ( uint32_t g = 0u; g < 300u; ++g )
    {
      const uint32_t q = rng() % 4u;
      switch ( rng() % 6u )
      {
      case 0u:
      case 1u: circuit.h( q ); break;
      case 2u: circuit.t( q ); break;
      case 3u: circuit.tdg( q ); break;
      case 4u: circuit.cx( q, ( q + 1u ) % 4u ); break;
      default: circuit.rz( q, 0.1 * static_cast<double>( g % 7u ) ); break;
      }
    }
    const auto optimized = phasepoly::tpar( circuit );
    ASSERT_TRUE( circuits_equivalent( optimized, circuit ) ) << "trial=" << trial;
    EXPECT_LE( compute_statistics( optimized ).t_count,
               compute_statistics( circuit ).t_count );
  }
}

TEST( tpar_test, improves_mapped_benchmarks_end_to_end )
{
  const auto reversible = transformation_based_synthesis( hwb_permutation( 4u ) );
  const auto mapped = map_to_clifford_t( reversible );
  const auto fold_only = phasepoly::tpar( mapped.circuit, { /*resynthesize=*/false } );
  const auto full = phasepoly::tpar( mapped.circuit );
  EXPECT_TRUE( circuits_equivalent( full, mapped.circuit ) );
  const auto stats_fold = compute_statistics( fold_only );
  const auto stats_full = compute_statistics( full );
  EXPECT_LE( stats_full.t_count, stats_fold.t_count );
  EXPECT_LE( stats_full.cnot_count, stats_fold.cnot_count );
  EXPECT_LT( stats_full.t_count, compute_statistics( mapped.circuit ).t_count );
}

/* ---------------------------------------------------------------- */
/* affine linear synthesis (unbounded width, X handling)            */
/* ---------------------------------------------------------------- */

TEST( affine_synthesis_test, linear_map_accepts_x_gates )
{
  qcircuit circuit( 2u );
  circuit.x( 0u );
  circuit.cx( 0u, 1u );
  /* previously threw std::invalid_argument on the X gate */
  const auto linear = linear_map_of_circuit( circuit );
  EXPECT_EQ( linear, ( linear_matrix{ 1u, 3u } ) );

  const auto map = affine_map_of_circuit( circuit );
  EXPECT_EQ( map.linear, linear );
  EXPECT_TRUE( map.constants.test( 0u ) );
  EXPECT_TRUE( map.constants.test( 1u ) ); /* X propagates through the CNOT */
}

TEST( affine_synthesis_test, resynthesizes_regions_with_x_gates )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  circuit.x( 1u );
  circuit.cx( 0u, 1u );
  circuit.cx( 1u, 2u );
  circuit.cx( 1u, 2u );
  circuit.x( 1u );
  circuit.h( 2u );
  const auto resynthesized = resynthesize_linear_regions( circuit );
  EXPECT_TRUE( circuits_equivalent( resynthesized, circuit ) );
  EXPECT_LT( resynthesized.num_gates(), circuit.num_gates() );
}

TEST( affine_synthesis_test, pmh_handles_more_than_64_qubits )
{
  /* the former linear_matrix was a vector of u64 masks, capping PMH at
   * 64 qubits; bitvec rows lift that */
  constexpr uint32_t n = 80u;
  std::mt19937_64 rng( 41u );
  qcircuit circuit( n );
  for ( uint32_t g = 0u; g < 400u; ++g )
  {
    const uint32_t c = static_cast<uint32_t>( rng() % n );
    uint32_t t = static_cast<uint32_t>( rng() % n );
    if ( t == c )
    {
      t = ( t + 1u ) % n;
    }
    circuit.cx( c, t );
  }
  const auto matrix = linear_map_of_circuit( circuit );
  ASSERT_TRUE( is_invertible( matrix ) );
  const auto resynthesized = pmh_linear_synthesis( matrix );
  EXPECT_EQ( linear_map_of_circuit( resynthesized ), matrix );
}

} // namespace
} // namespace qda
