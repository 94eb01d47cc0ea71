/*! \file test_simd_kernels.cpp
 *  \brief Cross-ISA and scheduling correctness of the SIMD kernel layer.
 *
 *  The runtime-dispatched primitive tables (simd.hpp: scalar / AVX2 /
 *  AVX-512) must agree amplitude-for-amplitude to 1e-12 on every kernel
 *  family, at qubit counts that straddle the vector widths (1..3 qubits
 *  force the tail paths, odd counts misalign the pair loops).  Within
 *  one ISA, results must be bit-identical for any thread count, and the
 *  cache-blocked tile schedule (schedule.hpp) must reproduce the naive
 *  reference.  Sampling at a fixed seed must give identical counts
 *  across thread counts and ISAs.
 */
#include "core/hidden_shift.hpp"
#include "mapping/clifford_t.hpp"
#include "pipeline/pass_manager.hpp"
#include "pipeline/spec_parser.hpp"
#include "simulator/fusion.hpp"
#include "simulator/kernels.hpp"
#include "simulator/simd.hpp"
#include "simulator/statevector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace qda
{
namespace
{

namespace sim = qda::sim;
using amplitude = sim::amplitude;

constexpr double amplitude_tolerance = 1e-12;

/*! Restores the global ISA and thread-count overrides on scope exit so
 *  one failing test cannot poison the rest of the suite. */
struct engine_guard
{
  ~engine_guard()
  {
    sim::set_isa( sim::detected_isa() );
    sim::set_num_threads( 0u );
  }
};

std::vector<sim::isa_kind> available_isas()
{
  std::vector<sim::isa_kind> isas{ sim::isa_kind::scalar };
  for ( const auto isa : { sim::isa_kind::avx2, sim::isa_kind::avx512 } )
  {
    if ( sim::isa_available( isa ) )
    {
      isas.push_back( isa );
    }
  }
  return isas;
}

/*! Random circuit over all kernel families; arms that need more qubits
 *  than available degrade to their small-register equivalents. */
qcircuit random_circuit( uint32_t num_qubits, uint32_t num_gates, uint64_t seed )
{
  std::mt19937_64 rng( seed );
  qcircuit circuit( num_qubits );
  for ( uint32_t g = 0u; g < num_gates; ++g )
  {
    const uint32_t q = rng() % num_qubits;
    switch ( rng() % 16u )
    {
    case 0u: circuit.h( q ); break;
    case 1u: circuit.x( q ); break;
    case 2u: circuit.y( q ); break;
    case 3u: circuit.z( q ); break;
    case 4u: circuit.s( q ); break;
    case 5u: circuit.sdg( q ); break;
    case 6u: circuit.t( q ); break;
    case 7u: circuit.tdg( q ); break;
    case 8u: circuit.rz( q, 0.1 * static_cast<double>( rng() % 60u ) ); break;
    case 9u: circuit.rx( q, 0.1 * static_cast<double>( rng() % 60u ) ); break;
    case 10u:
      if ( num_qubits >= 2u )
      {
        circuit.cx( q, ( q + 1u ) % num_qubits );
      }
      else
      {
        circuit.x( q );
      }
      break;
    case 11u:
      if ( num_qubits >= 2u )
      {
        circuit.cz( q, ( q + 1u + rng() % ( num_qubits - 1u ) ) % num_qubits );
      }
      else
      {
        circuit.z( q );
      }
      break;
    case 12u:
      if ( num_qubits >= 2u )
      {
        circuit.swap_( q, ( q + 1u ) % num_qubits );
      }
      else
      {
        circuit.h( q );
      }
      break;
    case 13u:
      if ( num_qubits >= 4u )
      {
        circuit.mcx( { q, ( q + 1u ) % num_qubits, ( q + 2u ) % num_qubits },
                     ( q + 3u ) % num_qubits );
      }
      else if ( num_qubits >= 2u )
      {
        circuit.cx( q, ( q + 1u ) % num_qubits );
      }
      else
      {
        circuit.x( q );
      }
      break;
    case 14u:
      if ( num_qubits >= 3u )
      {
        circuit.mcz( { q, ( q + 1u ) % num_qubits }, ( q + 2u ) % num_qubits );
      }
      else if ( num_qubits >= 2u )
      {
        circuit.cz( q, ( q + 1u ) % num_qubits );
      }
      else
      {
        circuit.z( q );
      }
      break;
    default: circuit.global_phase( 0.01 * static_cast<double>( rng() % 100u ) ); break;
    }
  }
  return circuit;
}

std::vector<amplitude> random_state( uint64_t dim, uint64_t seed )
{
  std::mt19937_64 rng( seed );
  std::normal_distribution<double> dist;
  std::vector<amplitude> state( dim );
  for ( auto& a : state )
  {
    a = { dist( rng ), dist( rng ) };
  }
  return state;
}

void expect_states_close( const std::vector<amplitude>& a, const std::vector<amplitude>& b,
                          const std::string& label )
{
  ASSERT_EQ( a.size(), b.size() ) << label;
  double worst = 0.0;
  for ( uint64_t i = 0u; i < a.size(); ++i )
  {
    worst = std::max( worst, std::abs( a[i] - b[i] ) );
  }
  EXPECT_LT( worst, amplitude_tolerance ) << label;
}

void expect_states_identical( const std::vector<amplitude>& a, const std::vector<amplitude>& b,
                              const std::string& label )
{
  ASSERT_EQ( a.size(), b.size() ) << label;
  EXPECT_EQ( 0, std::memcmp( a.data(), b.data(), a.size() * sizeof( amplitude ) ) ) << label;
}

/*! Row-major 2^k x 2^k matrix of a k-qubit circuit (local bit j =
 *  circuit qubit j), one naive run per basis column. */
std::vector<amplitude> circuit_matrix( const qcircuit& circuit )
{
  const uint64_t block = uint64_t{ 1 } << circuit.num_qubits();
  std::vector<amplitude> matrix( block * block );
  for ( uint64_t c = 0u; c < block; ++c )
  {
    statevector_simulator column( circuit.num_qubits() );
    column.set_basis_state( c );
    column.run_naive( circuit );
    for ( uint64_t r = 0u; r < block; ++r )
    {
      matrix[r * block + c] = column.state()[r];
    }
  }
  return matrix;
}

/*! Every entry nonzero: rotation layers around a CX ladder. */
std::vector<amplitude> dense_block_matrix( uint32_t k )
{
  qcircuit circuit( k );
  for ( uint32_t layer = 0u; layer < 2u; ++layer )
  {
    for ( uint32_t q = 0u; q < k; ++q )
    {
      circuit.rx( q, 0.3 + 0.2 * static_cast<double>( q + layer ) );
      circuit.rz( q, 0.7 + 0.1 * static_cast<double>( q ) );
    }
    for ( uint32_t q = 0u; q + 1u < k; ++q )
    {
      circuit.cx( q, q + 1u );
    }
  }
  return circuit_matrix( circuit );
}

/*! Two nonzeros per column, like the H-conjugated CNOT/T pieces of a
 *  lowered Toffoli: H on qubit 0, then a CX ladder with T phases.  A
 *  closing S makes some coefficients purely imaginary, so a zero test
 *  that looked at one component only would drop live terms. */
std::vector<amplitude> sparse_block_matrix( uint32_t k )
{
  qcircuit circuit( k );
  circuit.h( 0u );
  for ( uint32_t q = 0u; q + 1u < k; ++q )
  {
    circuit.cx( q, q + 1u );
    circuit.t( q + 1u );
  }
  circuit.s( 0u );
  return circuit_matrix( circuit );
}

/*! Direct group-by-group apply of a row-major block: the reference the
 *  fused-block primitive must reproduce. */
std::vector<amplitude> apply_block_directly( std::vector<amplitude> state,
                                             const std::vector<uint32_t>& qubits,
                                             const std::vector<amplitude>& matrix )
{
  const uint64_t block = uint64_t{ 1 } << qubits.size();
  uint64_t support = 0u;
  std::vector<uint64_t> offsets( block, 0u );
  for ( uint32_t j = 0u; j < qubits.size(); ++j )
  {
    support |= uint64_t{ 1 } << qubits[j];
    for ( uint64_t local = 0u; local < block; ++local )
    {
      offsets[local] |= ( ( local >> j ) & 1u ) << qubits[j];
    }
  }
  std::vector<amplitude> in( block );
  for ( uint64_t base = 0u; base < state.size(); ++base )
  {
    if ( ( base & support ) != 0u )
    {
      continue;
    }
    for ( uint64_t c = 0u; c < block; ++c )
    {
      in[c] = state[base + offsets[c]];
    }
    for ( uint64_t r = 0u; r < block; ++r )
    {
      amplitude acc{ 0.0 };
      for ( uint64_t c = 0u; c < block; ++c )
      {
        acc += matrix[r * block + c] * in[c];
      }
      state[base + offsets[r]] = acc;
    }
  }
  return state;
}

} // namespace

TEST( simd_kernels, isa_query_and_override_are_consistent )
{
  engine_guard guard;
  EXPECT_TRUE( sim::isa_available( sim::isa_kind::scalar ) );
  EXPECT_TRUE( sim::isa_available( sim::detected_isa() ) );
  EXPECT_EQ( sim::set_isa( sim::isa_kind::scalar ), sim::isa_kind::scalar );
  EXPECT_EQ( sim::active_isa(), sim::isa_kind::scalar );
  EXPECT_EQ( sim::active_ops().isa, sim::isa_kind::scalar );
  /* requests beyond what the CPU/build supports clamp, never fail */
  const auto granted = sim::set_isa( sim::isa_kind::avx512 );
  EXPECT_TRUE( sim::isa_available( granted ) );
  EXPECT_EQ( sim::active_isa(), granted );
  EXPECT_EQ( sim::active_ops().isa, granted );
  for ( const auto isa : available_isas() )
  {
    EXPECT_EQ( sim::ops_for( isa ).isa, isa ) << sim::isa_name( isa );
    sim::isa_kind parsed;
    ASSERT_TRUE( sim::isa_from_name( sim::isa_name( isa ), parsed ) );
    EXPECT_EQ( parsed, isa );
  }
}

/*! Every primitive-backed kernel, applied directly to the same random
 *  state under each available ISA: results agree to 1e-12.  Qubit 0
 *  cases exercise the interleaved-pair paths, higher qubits the
 *  split-half paths, and dim = 2^9 leaves odd tails for both vector
 *  widths on the masked subranges. */
TEST( simd_kernels, kernel_primitives_agree_across_isas )
{
  engine_guard guard;
  constexpr uint64_t dim = uint64_t{ 1 } << 9;
  const auto base = random_state( dim, 42u );

  const std::array<amplitude, 4> m2x2 = {
      amplitude{ 0.6, 0.1 }, amplitude{ -0.3, 0.7 }, amplitude{ 0.2, -0.5 }, amplitude{ 0.4, 0.4 } };
  std::vector<amplitude> diag8( 8u );
  std::vector<amplitude> diag4( 4u );
  for ( uint64_t i = 0u; i < diag8.size(); ++i )
  {
    diag8[i] = std::polar( 1.0, 0.37 * static_cast<double>( i + 1u ) );
  }
  for ( uint64_t i = 0u; i < diag4.size(); ++i )
  {
    diag4[i] = std::polar( 1.0, -0.53 * static_cast<double>( i + 1u ) );
  }
  const std::vector<uint32_t> diag_qubits_low{ 0u, 2u, 3u };
  const std::vector<uint32_t> diag_qubits_stretch{ 2u, 5u };

  using kernel_fn = std::function<void( amplitude*, uint64_t )>;
  const std::vector<std::pair<std::string, kernel_fn>> kernels = {
      { "1q q0", [&]( amplitude* s, uint64_t d ) { sim::apply_1q( s, d, 0u, m2x2 ); } },
      { "1q q3", [&]( amplitude* s, uint64_t d ) { sim::apply_1q( s, d, 3u, m2x2 ); } },
      { "diag q0", [&]( amplitude* s, uint64_t d ) {
          sim::apply_1q_diag( s, d, 0u, { 0.8, 0.2 }, { 0.1, -0.9 } ); } },
      { "diag q2 p0=1", [&]( amplitude* s, uint64_t d ) {
          sim::apply_1q_diag( s, d, 2u, { 1.0, 0.0 }, { 0.3, 0.6 } ); } },
      { "diag q4 p1=1", [&]( amplitude* s, uint64_t d ) {
          sim::apply_1q_diag( s, d, 4u, { -0.2, 0.5 }, { 1.0, 0.0 } ); } },
      { "diag q5 general", [&]( amplitude* s, uint64_t d ) {
          sim::apply_1q_diag( s, d, 5u, { 0.9, 0.1 }, { -0.4, 0.3 } ); } },
      { "antidiag q0", [&]( amplitude* s, uint64_t d ) {
          sim::apply_1q_antidiag( s, d, 0u, { 0.0, 1.0 }, { 0.0, -1.0 } ); } },
      { "antidiag q2", [&]( amplitude* s, uint64_t d ) {
          sim::apply_1q_antidiag( s, d, 2u, { 0.5, 0.5 }, { -0.5, 0.5 } ); } },
      { "phase mask bit0", [&]( amplitude* s, uint64_t d ) {
          sim::apply_phase_masked( s, d, 0x1u, { 0.0, 1.0 } ); } },
      { "phase mask 0b101", [&]( amplitude* s, uint64_t d ) {
          sim::apply_phase_masked( s, d, 0x5u, { -0.6, 0.8 } ); } },
      { "phase mask 0b11000", [&]( amplitude* s, uint64_t d ) {
          sim::apply_phase_masked( s, d, 0x18u, { 0.7, -0.7 } ); } },
      { "mcx t0 c2", [&]( amplitude* s, uint64_t d ) { sim::apply_mcx( s, d, 0x4u, 0u ); } },
      { "mcx t3 c0", [&]( amplitude* s, uint64_t d ) { sim::apply_mcx( s, d, 0x1u, 3u ); } },
      { "x t5", [&]( amplitude* s, uint64_t d ) { sim::apply_mcx( s, d, 0x0u, 5u ); } },
      { "mc1q t0", [&]( amplitude* s, uint64_t d ) { sim::apply_mc1q( s, d, 0xau, 0u, m2x2 ); } },
      { "mc1q t4 c0", [&]( amplitude* s, uint64_t d ) { sim::apply_mc1q( s, d, 0x1u, 4u, m2x2 ); } },
      { "swap 0,3", [&]( amplitude* s, uint64_t d ) { sim::apply_swap( s, d, 0u, 3u ); } },
      { "swap 2,5", [&]( amplitude* s, uint64_t d ) { sim::apply_swap( s, d, 2u, 5u ); } },
      { "scalar", [&]( amplitude* s, uint64_t d ) { sim::apply_scalar( s, d, { 0.6, -0.8 } ); } },
      { "diag_table q{0,2,3}", [&]( amplitude* s, uint64_t d ) {
          sim::apply_diag_table( s, d, diag_qubits_low, diag8 ); } },
      { "diag_table q{2,5} stretch", [&]( amplitude* s, uint64_t d ) {
          sim::apply_diag_table( s, d, diag_qubits_stretch, diag4 ); } },
  };

  for ( const auto& [label, kernel] : kernels )
  {
    sim::set_isa( sim::isa_kind::scalar );
    auto reference = base;
    kernel( reference.data(), dim );
    for ( const auto isa : available_isas() )
    {
      if ( isa == sim::isa_kind::scalar )
      {
        continue;
      }
      ASSERT_EQ( sim::set_isa( isa ), isa );
      auto state = base;
      kernel( state.data(), dim );
      expect_states_close( state, reference,
                           label + " [" + sim::isa_name( isa ) + " vs scalar]" );
    }
  }

  /* fused blocks: every class of support bits inside a vector ({}, {0},
   * {1}, {0,1}: none of them in-lane on scalar, bit 0 on AVX2, bits 0-1
   * on AVX-512) with 1..3 support qubits above them, for a dense and a
   * sparse matrix; every ISA must match the direct group-by-group apply.
   * Lane class {0,1} with three high qubits is a 5-qubit block, which
   * every ISA hands to the scalar instance. */
  struct fused_case
  {
    std::vector<uint32_t> qubits;
    uint64_t dim;
  };
  std::vector<fused_case> fused_cases;
  const std::vector<std::vector<uint32_t>> lane_classes = { {}, { 0u }, { 1u }, { 0u, 1u } };
  const std::vector<std::vector<uint32_t>> high_sets = { { 4u }, { 2u, 6u }, { 3u, 5u, 8u } };
  for ( const auto& lane : lane_classes )
  {
    for ( const auto& high : high_sets )
    {
      auto qubits = lane;
      qubits.insert( qubits.end(), high.begin(), high.end() );
      fused_cases.push_back( { qubits, dim } );
    }
  }
  /* state vectors smaller than one vector register, and a block that
   * spans the whole register */
  fused_cases.push_back( { { 0u }, 2u } );
  fused_cases.push_back( { { 1u }, 4u } );
  fused_cases.push_back( { { 0u, 1u }, 4u } );
  fused_cases.push_back( { { 0u, 1u, 2u }, 8u } );
  for ( const auto& [qubits, case_dim] : fused_cases )
  {
    const uint32_t k = static_cast<uint32_t>( qubits.size() );
    const std::vector<amplitude> start( base.begin(), base.begin() + case_dim );
    std::string support = "q{";
    for ( const auto q : qubits )
    {
      support += std::to_string( q ) + ( q == qubits.back() ? "}" : "," );
    }
    for ( const bool sparse : { false, true } )
    {
      const auto matrix = sparse ? sparse_block_matrix( k ) : dense_block_matrix( k );
      const auto reference = apply_block_directly( start, qubits, matrix );
      for ( const auto isa : available_isas() )
      {
        ASSERT_EQ( sim::set_isa( isa ), isa );
        auto state = start;
        sim::apply_fused_kq( state.data(), case_dim, qubits, matrix );
        expect_states_close( state, reference,
                             std::string( "fused_kq " ) + ( sparse ? "sparse " : "dense " ) +
                                 support + " dim " + std::to_string( case_dim ) + " [" +
                                 sim::isa_name( isa ) + " vs direct]" );
      }
    }
  }
}

/*! Full randomized circuits at qubit counts straddling the vector
 *  widths: every ISA agrees with the scalar reference, and the scalar
 *  fused path agrees with the naive gate-by-gate walk. */
TEST( simd_kernels, cross_isa_amplitudes_agree_on_random_circuits )
{
  engine_guard guard;
  for ( const uint32_t num_qubits : { 1u, 2u, 3u, 5u, 7u, 9u, 11u } )
  {
    const auto circuit = random_circuit( num_qubits, 40u * num_qubits + 20u, 1000u + num_qubits );

    sim::set_isa( sim::isa_kind::scalar );
    statevector_simulator scalar_run( num_qubits );
    scalar_run.run( circuit );
    statevector_simulator naive_run( num_qubits );
    naive_run.run_naive( circuit );
    expect_states_close( scalar_run.state(), naive_run.state(),
                         "scalar fused vs naive, n=" + std::to_string( num_qubits ) );

    for ( const auto isa : available_isas() )
    {
      if ( isa == sim::isa_kind::scalar )
      {
        continue;
      }
      ASSERT_EQ( sim::set_isa( isa ), isa );
      statevector_simulator vector_run( num_qubits );
      vector_run.run( circuit );
      expect_states_close( vector_run.state(), scalar_run.state(),
                           std::string( sim::isa_name( isa ) ) +
                               " vs scalar, n=" + std::to_string( num_qubits ) );
    }
  }
}

/*! The tile scheduler must actually produce tiled segments on a
 *  low-qubit-heavy circuit and the tiled execution must match both the
 *  naive walk and the unscheduled program, under every ISA. */
TEST( simd_kernels, tiled_schedule_matches_naive_across_isas )
{
  engine_guard guard;
  constexpr uint32_t num_qubits = 10u;
  qcircuit circuit( num_qubits );
  for ( uint32_t layer = 0u; layer < 12u; ++layer )
  {
    for ( uint32_t q = 0u; q < 4u; ++q )
    {
      circuit.h( q );
    }
    circuit.cx( 0u, 1u );
    circuit.cx( 2u, 3u );
    circuit.t( 0u );
    circuit.t( 2u );
    circuit.cx( 8u, 9u ); /* high op: forces a full-sweep segment */
    circuit.h( 7u );
  }

  sim::compile_options tiled_options;
  tiled_options.tile_qubits = 4u;
  const auto tiled_prog = sim::compile( circuit, tiled_options );
  ASSERT_FALSE( tiled_prog.segments.empty() );
  EXPECT_EQ( tiled_prog.tile_qubits, 4u );
  const bool has_tiled_segment =
      std::any_of( tiled_prog.segments.begin(), tiled_prog.segments.end(),
                   []( const sim::tile_segment& seg ) { return seg.tiled; } );
  EXPECT_TRUE( has_tiled_segment );
  uint64_t scheduled_ops = 0u;
  for ( const auto& seg : tiled_prog.segments )
  {
    scheduled_ops += seg.op_indices.size();
  }
  EXPECT_EQ( scheduled_ops, tiled_prog.ops.size() ); /* a permutation, nothing dropped */

  sim::compile_options flat_options;
  flat_options.tile_scheduling = false;
  const auto flat_prog = sim::compile( circuit, flat_options );
  EXPECT_TRUE( flat_prog.segments.empty() );

  statevector_simulator naive_run( num_qubits );
  naive_run.run_naive( circuit );

  for ( const auto isa : available_isas() )
  {
    ASSERT_EQ( sim::set_isa( isa ), isa );
    statevector_simulator tiled_run( num_qubits );
    tiled_run.run_program( tiled_prog );
    statevector_simulator flat_run( num_qubits );
    flat_run.run_program( flat_prog );
    expect_states_close( tiled_run.state(), naive_run.state(),
                         std::string( "tiled vs naive [" ) + sim::isa_name( isa ) + "]" );
    expect_states_close( tiled_run.state(), flat_run.state(),
                         std::string( "tiled vs flat [" ) + sim::isa_name( isa ) + "]" );
  }
}

/*! Within one ISA, the state after a large-dimension run (threads
 *  actually engaged, tiling engaged at the default tile size) is
 *  bit-identical for any thread count. */
TEST( simd_kernels, thread_count_bit_identity_per_isa )
{
  engine_guard guard;
  constexpr uint32_t num_qubits = 17u; /* > default 16 tile qubits and
                                        * > the parallel threshold */
  const auto circuit = random_circuit( num_qubits, 60u, 99u );
  const auto prog = sim::compile( circuit );
  EXPECT_FALSE( prog.segments.empty() ); /* tiling engages past 16 qubits */

  for ( const auto isa : available_isas() )
  {
    ASSERT_EQ( sim::set_isa( isa ), isa );
    sim::set_num_threads( 1u );
    statevector_simulator single( num_qubits );
    single.run_program( prog );
    for ( const uint32_t threads : { 2u, 8u } )
    {
      sim::set_num_threads( threads );
      statevector_simulator multi( num_qubits );
      multi.run_program( prog );
      expect_states_identical( multi.state(), single.state(),
                               std::string( sim::isa_name( isa ) ) + ", " +
                                   std::to_string( threads ) + " threads vs 1" );
    }
    sim::set_num_threads( 0u );
  }
}

/*! The paper's Fig. 7/8 flow at k = 5 (10 qubits plus 2 clean helpers
 *  for the lowering, then `tpar; ps`), the circuit class whose lowered
 *  Toffolis fill the dense blocks with sparse matrices: on every ISA the
 *  fused program matches the naive walk and measures the shift with
 *  probability 1.  Padded to 17 qubits, so the thread pool and the tile
 *  schedule engage, it gives bit-identical states at 1 and 4 threads. */
TEST( simd_kernels, hidden_shift_program_matches_naive_on_every_isa )
{
  engine_guard guard;
  constexpr uint64_t shift = 0x2b5u;
  const auto circuit = hidden_shift_circuit_mm( mm_bent_function::random( 5u, 11u ), shift );
  clifford_t_options options;
  options.max_qubits = circuit.num_qubits() + 2u;
  staged_ir ir;
  ir.set_quantum( lower_multi_controlled_gates( circuit, options ) );
  pass_manager manager( /*enable_cache=*/false );
  const auto optimized =
      manager.run( parse_pipeline( "tpar; ps" ), std::move( ir ) ).ir.require_quantum().circuit;
  const uint32_t num_qubits = optimized.num_qubits();
  ASSERT_EQ( num_qubits, 12u );

  std::vector<uint32_t> measured;
  const auto prog = sim::compile_unitary_prefix( optimized, measured );
  ASSERT_EQ( measured.size(), 10u );
  EXPECT_TRUE( std::any_of( prog.ops.begin(), prog.ops.end(), []( const sim::op& o ) {
    return o.kind == sim::op_kind::fused_kq;
  } ) );
  qcircuit unitary( num_qubits );
  qcircuit padded( 17u );
  for ( const auto& gate : optimized.gates() )
  {
    if ( gate.kind != gate_kind::measure && gate.kind != gate_kind::barrier )
    {
      unitary.add_gate( gate );
      padded.add_gate( gate );
    }
  }
  statevector_simulator naive_run( num_qubits );
  naive_run.run_naive( unitary );
  uint64_t outcome = 0u;
  for ( size_t j = 0u; j < measured.size(); ++j )
  {
    outcome |= ( ( shift >> j ) & 1u ) << measured[j];
  }

  const auto padded_prog = sim::compile( padded );
  for ( const auto isa : available_isas() )
  {
    ASSERT_EQ( sim::set_isa( isa ), isa );
    statevector_simulator fused_run( num_qubits );
    fused_run.run_program( prog );
    const std::string label = std::string( "hidden shift k=5 [" ) + sim::isa_name( isa ) + "]";
    expect_states_close( fused_run.state(), naive_run.state(), label + " vs naive" );
    EXPECT_NEAR( fused_run.probability_of( outcome ), 1.0, amplitude_tolerance ) << label;

    sim::set_num_threads( 1u );
    statevector_simulator single( 17u );
    single.run_program( padded_prog );
    sim::set_num_threads( 4u );
    statevector_simulator multi( 17u );
    multi.run_program( padded_prog );
    expect_states_identical( multi.state(), single.state(), label + ", 4 threads vs 1" );
    sim::set_num_threads( 0u );
  }
}

/*! Sampled counts at a fixed seed are identical across thread counts
 *  and across ISAs. */
TEST( simd_kernels, sample_counts_deterministic_across_threads_and_isas )
{
  engine_guard guard;
  constexpr uint32_t num_qubits = 12u;
  auto circuit = random_circuit( num_qubits, 150u, 5u );
  for ( uint32_t q = 0u; q < 6u; ++q )
  {
    circuit.measure( q );
  }

  sim::set_isa( sim::isa_kind::scalar );
  sim::set_num_threads( 1u );
  const auto reference = sample_counts( circuit, 2000u, 7u );
  uint64_t total = 0u;
  for ( const auto& [outcome, count] : reference )
  {
    EXPECT_LT( outcome, uint64_t{ 1 } << 6 );
    total += count;
  }
  EXPECT_EQ( total, 2000u );

  for ( const auto isa : available_isas() )
  {
    ASSERT_EQ( sim::set_isa( isa ), isa );
    for ( const uint32_t threads : { 1u, 2u, 8u } )
    {
      sim::set_num_threads( threads );
      const auto counts = sample_counts( circuit, 2000u, 7u );
      EXPECT_EQ( counts, reference )
          << sim::isa_name( isa ) << ", " << threads << " threads";
    }
  }
}

} // namespace qda
