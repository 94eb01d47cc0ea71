/*! \file test_simulator_perf_paths.cpp
 *  \brief Randomized cross-checks of the high-throughput simulation
 *         engine against the naive reference paths.
 *
 *  The fused/specialized/threaded state-vector pipeline and the
 *  snapshot-sampling stabilizer backend must agree with the scalar
 *  gate-by-gate reference amplitude-for-amplitude (1e-12) and, at a
 *  fixed seed, count-for-count.
 */
#include "core/engine.hpp"
#include "core/hidden_shift.hpp"
#include "simulator/fusion.hpp"
#include "simulator/kernels.hpp"
#include "simulator/stabilizer.hpp"
#include "simulator/statevector.hpp"
#include "simulator/unitary.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

namespace qda
{
namespace
{

constexpr double amplitude_tolerance = 1e-12;

/*! Random Clifford+T circuit, optionally with rotations, multi-control
 *  gates, swaps and global phases. */
qcircuit random_circuit( uint32_t num_qubits, uint32_t num_gates, uint64_t seed,
                         bool with_rotations = true )
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
    case 8u:
      if ( with_rotations )
      {
        circuit.rz( q, 0.1 * static_cast<double>( rng() % 60u ) );
      }
      else
      {
        circuit.s( q );
      }
      break;
    case 9u:
      if ( with_rotations )
      {
        circuit.rx( q, 0.1 * static_cast<double>( rng() % 60u ) );
      }
      else
      {
        circuit.h( q );
      }
      break;
    case 10u: circuit.cx( q, ( q + 1u ) % num_qubits ); break;
    case 11u: circuit.cz( q, ( q + 1u + rng() % ( num_qubits - 1u ) ) % num_qubits ); break;
    case 12u: circuit.swap_( q, ( q + 1u ) % num_qubits ); break;
    case 13u:
    {
      if ( num_qubits >= 4u )
      {
        const uint32_t t = ( q + 3u ) % num_qubits;
        circuit.mcx( { q, ( q + 1u ) % num_qubits, ( q + 2u ) % num_qubits }, t );
      }
      else
      {
        circuit.cx( q, ( q + 1u ) % num_qubits );
      }
      break;
    }
    case 14u:
    {
      if ( num_qubits >= 3u )
      {
        circuit.mcz( { q, ( q + 1u ) % num_qubits }, ( q + 2u ) % num_qubits );
      }
      else
      {
        circuit.cz( q, ( q + 1u ) % num_qubits );
      }
      break;
    }
    default: circuit.global_phase( 0.01 * static_cast<double>( rng() % 100u ) ); break;
    }
  }
  return circuit;
}

void expect_states_close( const std::vector<std::complex<double>>& fused,
                          const std::vector<std::complex<double>>& naive, const char* label )
{
  ASSERT_EQ( fused.size(), naive.size() );
  double worst = 0.0;
  for ( uint64_t i = 0u; i < fused.size(); ++i )
  {
    worst = std::max( worst, std::abs( fused[i] - naive[i] ) );
  }
  EXPECT_LT( worst, amplitude_tolerance ) << label;
}

/*! The pre-rework `sample_counts`: unitary part into a fresh circuit,
 *  naive run, per-shot O(2^n) scan. */
std::map<uint64_t, uint64_t> naive_sample_counts( const qcircuit& circuit, uint64_t shots,
                                                  uint64_t seed )
{
  qcircuit unitary_part( circuit.num_qubits() );
  std::vector<uint32_t> measured;
  for ( const auto& gate : circuit.gates() )
  {
    if ( gate.kind == gate_kind::measure )
    {
      measured.push_back( gate.target );
    }
    else if ( gate.kind != gate_kind::barrier )
    {
      unitary_part.add_gate( gate );
    }
  }
  statevector_simulator simulator( circuit.num_qubits() );
  simulator.run_naive( unitary_part );
  std::mt19937_64 rng( seed );
  std::map<uint64_t, uint64_t> counts;
  for ( uint64_t shot = 0u; shot < shots; ++shot )
  {
    const uint64_t full = simulator.sample( rng );
    uint64_t key = 0u;
    for ( uint32_t i = 0u; i < measured.size(); ++i )
    {
      if ( ( full >> measured[i] ) & 1u )
      {
        key |= uint64_t{ 1 } << i;
      }
    }
    ++counts[key];
  }
  return counts;
}

/*! Per-shot full re-run stabilizer sampler sharing one RNG stream (the
 *  snapshot sampler must match it bit-for-bit). */
std::map<uint64_t, uint64_t> naive_stabilizer_counts( const qcircuit& circuit, uint64_t shots,
                                                      uint64_t seed )
{
  std::mt19937_64 rng( seed );
  std::map<uint64_t, uint64_t> counts;
  for ( uint64_t shot = 0u; shot < shots; ++shot )
  {
    stabilizer_simulator simulator( circuit.num_qubits() );
    uint64_t key = 0u;
    uint32_t measure_index = 0u;
    for ( const auto& gate : circuit.gates() )
    {
      if ( gate.kind == gate_kind::measure )
      {
        const bool bit = simulator.measure( gate.target, rng );
        if ( bit && measure_index < 64u )
        {
          key |= uint64_t{ 1 } << measure_index;
        }
        ++measure_index;
      }
      else
      {
        simulator.apply_gate( gate );
      }
    }
    ++counts[key];
  }
  return counts;
}

TEST( perf_paths_test, fused_matches_naive_on_random_clifford_t_circuits )
{
  for ( uint64_t seed = 0u; seed < 20u; ++seed )
  {
    const auto circuit = random_circuit( 6u, 120u, 1000u + seed );
    statevector_simulator fused( 6u );
    fused.run( circuit );
    statevector_simulator naive( 6u );
    naive.run_naive( circuit );
    expect_states_close( fused.state(), naive.state(), "random Clifford+T" );
  }
}

/*! The compiled program of a seeded Clifford+T circuit is pinned.  It
 *  is on 40 qubits (compiling needs no state vector), so ops commute far
 *  back and the 64-block open window overflows all the time and shapes
 *  the dense blocks (a 48-block window fails the pin).  Op kinds,
 *  supports, gate counts and table widths by an exact digest, with and
 *  without dense fusion.  The tables of the dense-off program (phase
 *  tables and 2x2s) are pinned bit for bit; the dense blocks' matrices
 *  are pinned by a weighted sum, since composing them row-wise rounds
 *  differently from the column-wise kernel walk the pins were taken on. */
TEST( perf_paths_test, compiled_program_is_pinned_on_a_seeded_clifford_t_circuit )
{
  struct fnv
  {
    uint64_t hash = 1469598103934665603ull;
    void add( uint64_t value )
    {
      for ( uint32_t i = 0u; i < 8u; ++i )
      {
        hash ^= ( value >> ( 8u * i ) ) & 0xffu;
        hash *= 1099511628211ull;
      }
    }
    void add( const std::complex<double>& value )
    {
      uint64_t bits[2];
      std::memcpy( bits, &value, sizeof( bits ) );
      add( bits[0] );
      add( bits[1] );
    }
  };
  struct pin
  {
    uint32_t dense_qubits;
    size_t ops;
    uint64_t structure;
    uint64_t table_bits; /* 0: not pinned bitwise */
    double weighted_sum;
  };
  const auto circuit = random_circuit( 40u, 3000u, 2024u, /*with_rotations=*/false );
  for ( const auto& expected : { pin{ 3u, 778u, 0xd6afaa3576662aa4ull, 0u, 9283197.51379566 },
                                 pin{ 0u, 1344u, 0xa22b1c9e3faf6e3full, 0xce776ae6053f14d2ull,
                                      2806009.28195029 } } )
  {
    sim::compile_options options;
    options.max_dense_fusion_qubits = expected.dense_qubits;
    options.tile_scheduling = false;
    const auto prog = sim::compile( circuit, options );
    fnv structure;
    fnv table_bits;
    double weighted_sum = 0.0;
    for ( const auto& o : prog.ops )
    {
      structure.add( static_cast<uint64_t>( o.kind ) );
      structure.add( sim::op_support( o ) );
      structure.add( o.source_gates );
      structure.add( o.table.size() );
      for ( const auto q : o.table_qubits )
      {
        structure.add( q );
      }
      for ( size_t i = 0u; i < o.table.size(); ++i )
      {
        table_bits.add( o.table[i] );
        weighted_sum += ( static_cast<double>( i ) + 1.0 ) *
                        ( o.table[i].real() + 2.0 * o.table[i].imag() );
      }
      for ( const auto& entry : o.m )
      {
        table_bits.add( entry );
      }
    }
    const std::string label = "dense qubits " + std::to_string( expected.dense_qubits );
    EXPECT_EQ( prog.ops.size(), expected.ops ) << label;
    EXPECT_EQ( structure.hash, expected.structure ) << label;
    if ( expected.table_bits != 0u )
    {
      EXPECT_EQ( table_bits.hash, expected.table_bits ) << label;
    }
    EXPECT_NEAR( weighted_sum, expected.weighted_sum, 1e-6 ) << label;
  }
}

TEST( perf_paths_test, long_single_qubit_fusion_runs )
{
  /* >64 consecutive single-qubit gates on one qubit must fold into one
   * 2x2 product (and interleaved runs on other qubits must not leak) */
  std::mt19937_64 rng( 7u );
  qcircuit circuit( 3u );
  for ( uint32_t i = 0u; i < 100u; ++i )
  {
    const uint32_t q = i % 10u < 7u ? 1u : 0u; /* long run on qubit 1 */
    switch ( rng() % 5u )
    {
    case 0u: circuit.h( q ); break;
    case 1u: circuit.t( q ); break;
    case 2u: circuit.s( q ); break;
    case 3u: circuit.rx( q, 0.37 ); break;
    default: circuit.rz( q, -0.83 ); break;
    }
  }
  const auto prog = sim::compile( circuit );
  EXPECT_LE( prog.ops.size(), 4u ) << "100 single-qubit gates should fuse into <= 4 ops";
  EXPECT_EQ( prog.source_gate_count, 100u );

  statevector_simulator fused( 3u );
  fused.run( circuit );
  statevector_simulator naive( 3u );
  naive.run_naive( circuit );
  expect_states_close( fused.state(), naive.state(), "long 1q run" );
}

TEST( perf_paths_test, diagonal_runs_merge_into_phase_tables )
{
  /* a CZ ladder interleaved with T gates is one diagonal run; with a
   * table cap of 12 qubits, 16 qubits force at least two tables */
  qcircuit circuit( 16u );
  for ( uint32_t q = 0u; q < 16u; ++q )
  {
    circuit.t( q );
  }
  for ( uint32_t q = 0u; q + 1u < 16u; ++q )
  {
    circuit.cz( q, q + 1u );
  }
  circuit.mcz( { 0u, 1u, 2u }, 3u );
  const auto prog = sim::compile( circuit );
  /* everything is diagonal: only diagonal ops survive (a lone trailing
   * factor may flush as a specialized masked phase) */
  for ( const auto& o : prog.ops )
  {
    EXPECT_TRUE( o.kind == sim::op_kind::diag_table || o.kind == sim::op_kind::phase_masked );
  }
  EXPECT_GE( prog.ops.size(), 2u );
  EXPECT_LE( prog.ops.size(), 4u );

  statevector_simulator fused( 16u );
  qcircuit walls( 16u );
  for ( uint32_t q = 0u; q < 16u; ++q )
  {
    walls.h( q );
  }
  fused.run( walls );
  fused.run( circuit );
  statevector_simulator naive( 16u );
  naive.run_naive( walls );
  naive.run_naive( circuit );
  expect_states_close( fused.state(), naive.state(), "diagonal tables" );
}

TEST( perf_paths_test, threaded_execution_is_deterministic_and_correct )
{
  /* 17 qubits crosses the parallel threshold; results must be
   * bit-identical across thread counts and match the naive reference */
  const auto circuit = random_circuit( 17u, 200u, 9001u );

  sim::set_num_threads( 1u );
  statevector_simulator serial( 17u );
  serial.run( circuit );

  sim::set_num_threads( 5u );
  statevector_simulator threaded( 17u );
  threaded.run( circuit );
  sim::set_num_threads( 0u ); /* restore automatic */

  ASSERT_EQ( serial.state().size(), threaded.state().size() );
  for ( uint64_t i = 0u; i < serial.state().size(); ++i )
  {
    ASSERT_EQ( serial.state()[i], threaded.state()[i] ) << "thread-count dependent at " << i;
  }

  statevector_simulator naive( 17u );
  naive.run_naive( circuit );
  expect_states_close( threaded.state(), naive.state(), "threaded 17-qubit" );

  /* deterministic reductions too */
  EXPECT_EQ( serial.norm(), threaded.norm() );
}

TEST( perf_paths_test, sample_counts_bit_identical_to_naive_reference )
{
  for ( uint64_t seed = 0u; seed < 8u; ++seed )
  {
    auto circuit = random_circuit( 6u, 80u, 5000u + seed );
    circuit.measure_all();
    const auto fast = sample_counts( circuit, 2048u, 17u + seed );
    const auto reference = naive_sample_counts( circuit, 2048u, 17u + seed );
    EXPECT_EQ( fast, reference ) << "seed=" << seed;
  }
}

TEST( perf_paths_test, sample_counts_partial_measurement_keys )
{
  qcircuit circuit( 4u );
  circuit.h( 0u );
  circuit.cx( 0u, 2u );
  circuit.x( 3u );
  circuit.measure( 2u );
  circuit.measure( 3u );
  const auto counts = sample_counts( circuit, 512u, 3u );
  uint64_t total = 0u;
  for ( const auto& [outcome, count] : counts )
  {
    EXPECT_TRUE( outcome == 0b10u || outcome == 0b11u ) << outcome;
    total += count;
  }
  EXPECT_EQ( total, 512u );
}

TEST( perf_paths_test, apply_gate_specialized_matches_naive )
{
  /* single-gate dispatch (no fusion) must agree gate by gate */
  for ( uint64_t seed = 0u; seed < 10u; ++seed )
  {
    const auto circuit = random_circuit( 5u, 60u, 7000u + seed );
    /* entangle a bit first so every kernel sees non-trivial amplitudes */
    qcircuit prep( 5u );
    for ( uint32_t q = 0u; q < 5u; ++q )
    {
      prep.h( q );
    }
    statevector_simulator specialized( 5u );
    specialized.run_naive( prep );
    for ( const auto& gate : circuit.gates() )
    {
      specialized.apply_gate( gate ); /* per-gate specialized dispatch */
    }
    statevector_simulator naive( 5u );
    naive.run_naive( prep );
    naive.run_naive( circuit );
    expect_states_close( specialized.state(), naive.state(), "specialized apply_gate" );
  }
}

TEST( perf_paths_test, build_unitary_matches_column_by_column_naive )
{
  const auto circuit = random_circuit( 5u, 60u, 4242u );
  const auto fast = build_unitary( circuit );
  /* naive reference: one full circuit re-run per basis column */
  const uint64_t dimension = uint64_t{ 1 } << 5u;
  statevector_simulator simulator( 5u );
  for ( uint64_t column = 0u; column < dimension; ++column )
  {
    simulator.set_basis_state( column );
    simulator.run_naive( circuit );
    ASSERT_EQ( fast[column].size(), simulator.state().size() );
    for ( uint64_t row = 0u; row < dimension; ++row )
    {
      ASSERT_LT( std::abs( fast[column][row] - simulator.state()[row] ), amplitude_tolerance )
          << "column " << column << " row " << row;
    }
  }
}

TEST( perf_paths_test, stabilizer_snapshot_sampler_bit_identical_to_rerun )
{
  std::mt19937_64 rng( 21u );
  for ( uint32_t trial = 0u; trial < 10u; ++trial )
  {
    qcircuit circuit( 5u );
    for ( uint32_t g = 0u; g < 40u; ++g )
    {
      const uint32_t q = rng() % 5u;
      switch ( rng() % 9u )
      {
      case 0u: circuit.h( q ); break;
      case 1u: circuit.s( q ); break;
      case 2u: circuit.sdg( q ); break;
      case 3u: circuit.x( q ); break;
      case 4u: circuit.y( q ); break;
      case 5u: circuit.z( q ); break;
      case 6u: circuit.cx( q, ( q + 1u ) % 5u ); break;
      case 7u: circuit.swap_( q, ( q + 2u ) % 5u ); break;
      default: circuit.cz( q, ( q + 1u + rng() % 3u ) % 5u ); break;
      }
    }
    circuit.measure_all();
    const auto fast = stabilizer_sample_counts( circuit, 512u, 100u + trial );
    const auto reference = naive_stabilizer_counts( circuit, 512u, 100u + trial );
    EXPECT_EQ( fast, reference ) << "trial=" << trial;
  }
}

TEST( perf_paths_test, stabilizer_snapshot_sampler_with_mid_circuit_measurements )
{
  /* gates after the first measurement land in the replayed tail */
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  circuit.measure( 0u );
  circuit.h( 2u );
  circuit.cx( 2u, 1u );
  circuit.measure( 1u );
  circuit.measure( 2u );
  const auto fast = stabilizer_sample_counts( circuit, 1024u, 5u );
  const auto reference = naive_stabilizer_counts( circuit, 1024u, 5u );
  EXPECT_EQ( fast, reference );
}

TEST( perf_paths_test, stabilizer_direct_gates_match_hs_compositions )
{
  /* X = H Z H, Z = S S, Y = Z X (up to phase), Sdg = Z S, CZ = H CX H,
   * SWAP = CX CX CX: with identical seeds the direct single-pass
   * updates must produce identical measurement outcomes */
  std::mt19937_64 rng( 77u );
  for ( uint32_t trial = 0u; trial < 25u; ++trial )
  {
    const uint64_t seed = 1234u + trial;
    stabilizer_simulator direct( 4u, seed );
    stabilizer_simulator composed( 4u, seed );
    for ( uint32_t g = 0u; g < 30u; ++g )
    {
      const uint32_t q = rng() % 4u;
      const uint32_t r = ( q + 1u + rng() % 3u ) % 4u;
      switch ( rng() % 8u )
      {
      case 0u:
        direct.apply_x( q );
        composed.apply_h( q );
        composed.apply_s( q );
        composed.apply_s( q );
        composed.apply_h( q );
        break;
      case 1u:
        direct.apply_y( q );
        composed.apply_s( q );
        composed.apply_s( q );
        composed.apply_h( q );
        composed.apply_s( q );
        composed.apply_s( q );
        composed.apply_h( q );
        break;
      case 2u:
        direct.apply_z( q );
        composed.apply_s( q );
        composed.apply_s( q );
        break;
      case 3u:
        direct.apply_sdg( q );
        composed.apply_s( q );
        composed.apply_s( q );
        composed.apply_s( q );
        break;
      case 4u:
        direct.apply_cz( q, r );
        composed.apply_h( r );
        composed.apply_cx( q, r );
        composed.apply_h( r );
        break;
      case 5u:
        direct.apply_swap( q, r );
        composed.apply_cx( q, r );
        composed.apply_cx( r, q );
        composed.apply_cx( q, r );
        break;
      case 6u:
        direct.apply_h( q );
        composed.apply_h( q );
        break;
      default:
        direct.apply_cx( q, r );
        composed.apply_cx( q, r );
        break;
      }
    }
    for ( uint32_t q = 0u; q < 4u; ++q )
    {
      ASSERT_EQ( direct.measure( q ), composed.measure( q ) )
          << "trial=" << trial << " qubit=" << q;
    }
  }
}

TEST( perf_paths_test, engine_sample_counts_matches_free_function )
{
  main_engine engine( 3u );
  engine.h( 0u );
  engine.cx( 0u, 1u );
  engine.x( 2u );
  engine.measure_all();
  const auto via_engine = engine.sample_counts( 1024u, 11u );
  const auto direct = sample_counts( engine.circuit(), 1024u, 11u );
  EXPECT_EQ( via_engine, direct );
}

TEST( perf_paths_test, stabilizer_seeded_hidden_shift_counts_are_pinned )
{
  /* regression for the seed + shot bug: one RNG stream for the whole
   * sampling run means counts are a pure function of (circuit, shots,
   * seed) and never correlate across overlapping calls.  Pinned on a
   * Bravyi-Gosset inner-product hidden-shift instance. */
  const std::vector<bool> shift{ true, false, true, true, false, false, true, false };
  const auto circuit = clifford_hidden_shift_circuit( 4u, shift );
  const auto counts = stabilizer_sample_counts( circuit, 4096u, 2026u );
  /* the plain inner-product instance is deterministic: one outcome */
  ASSERT_EQ( counts.size(), 1u );
  EXPECT_EQ( counts.begin()->first, 0b01001101u );
  EXPECT_EQ( counts.begin()->second, 4096u );

  /* a randomized variant (extra H layer) pins the stream itself */
  qcircuit randomized( 4u );
  randomized.h( 0u );
  randomized.h( 1u );
  randomized.cz( 0u, 1u );
  randomized.cx( 1u, 2u );
  randomized.h( 3u );
  randomized.measure_all();
  const auto pinned = stabilizer_sample_counts( randomized, 64u, 7u );
  const auto reference = naive_stabilizer_counts( randomized, 64u, 7u );
  EXPECT_EQ( pinned, reference );
  uint64_t total = 0u;
  for ( const auto& [outcome, count] : pinned )
  {
    total += count;
  }
  EXPECT_EQ( total, 64u );
  /* two disjoint calls must not reproduce each other's statistics the
   * way the old seed+shot scheme did for overlapping shot windows */
  const auto first_half = stabilizer_sample_counts( randomized, 32u, 7u );
  uint64_t first_total = 0u;
  for ( const auto& [outcome, count] : first_half )
  {
    first_total += count;
  }
  EXPECT_EQ( first_total, 32u );
}

} // namespace
} // namespace qda
