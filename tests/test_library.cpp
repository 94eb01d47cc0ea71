#include "fault/failpoint.hpp"
#include "library/fingerprint.hpp"
#include "library/subcircuit_library.hpp"
#include "mapping/clifford_t.hpp"
#include "phasepoly/phasepoly.hpp"
#include "pipeline/pass_manager.hpp"
#include "simulator/unitary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h> /* ::truncate */

namespace qda
{
namespace
{

/* ---------------------------------------------------------------- */
/* helpers                                                          */
/* ---------------------------------------------------------------- */

/*! Library that admits every offered shape on first sighting. */
library::library_options eager_options()
{
  library::library_options options;
  options.admit_cost_ms = 0.0;
  return options;
}

phasepoly::tpar_options with_library( library::subcircuit_library& lib )
{
  phasepoly::tpar_options options;
  options.resynthesis.library = &lib;
  return options;
}

/*! Removes a store file before and after a persistence test. */
struct scoped_store_file
{
  explicit scoped_store_file( std::string name ) : path( std::move( name ) )
  {
    std::remove( path.c_str() );
  }
  ~scoped_store_file() { std::remove( path.c_str() ); }

  std::string path;
};

void write_file( const std::string& path, const std::string& bytes )
{
  std::FILE* file = std::fopen( path.c_str(), "wb" );
  ASSERT_NE( file, nullptr );
  ASSERT_EQ( std::fwrite( bytes.data(), 1u, bytes.size(), file ), bytes.size() );
  std::fclose( file );
}

long file_size( const std::string& path )
{
  std::FILE* file = std::fopen( path.c_str(), "rb" );
  if ( !file )
  {
    return -1;
  }
  std::fseek( file, 0, SEEK_END );
  const long size = std::ftell( file );
  std::fclose( file );
  return size;
}

/*! A circuit with two phase-poly regions split by an H wall. */
qcircuit sample_circuit()
{
  qcircuit circuit( 4u );
  circuit.t( 0u );
  circuit.cx( 0u, 1u );
  circuit.t( 1u );
  circuit.cx( 1u, 2u );
  circuit.tdg( 2u );
  circuit.cx( 0u, 1u );
  circuit.t( 1u );
  circuit.h( 1u );
  circuit.t( 1u );
  circuit.cx( 1u, 3u );
  circuit.t( 3u );
  circuit.cx( 1u, 3u );
  circuit.tdg( 1u );
  return circuit;
}

qcircuit random_clifford_t_circuit( std::mt19937_64& rng, uint32_t num_qubits,
                                    uint32_t num_gates )
{
  qcircuit circuit( num_qubits );
  for ( uint32_t g = 0u; g < num_gates; ++g )
  {
    const uint32_t q = rng() % num_qubits;
    switch ( rng() % 9u )
    {
    case 0u: circuit.t( q ); break;
    case 1u: circuit.tdg( q ); break;
    case 2u: circuit.s( q ); break;
    case 3u: circuit.h( q ); break;
    case 4u: circuit.x( q ); break;
    case 5u: circuit.z( q ); break;
    case 6u: circuit.cx( q, ( q + 1u ) % num_qubits ); break;
    case 7u: circuit.swap_( q, ( q + 1u ) % num_qubits ); break;
    default: circuit.cz( q, ( q + 2u ) % num_qubits ); break;
    }
  }
  return circuit;
}

/*! One large H-free phase-polynomial region: its tpar costs well over
 *  the default 0.05 ms admission threshold, and it holds no smaller
 *  region that could repeat inside a single pass. */
qcircuit single_region_circuit()
{
  std::mt19937_64 rng( 4242u );
  constexpr uint32_t num_qubits = 8u;
  qcircuit circuit( num_qubits );
  for ( uint32_t g = 0u; g < 4000u; ++g )
  {
    const uint32_t q = rng() % num_qubits;
    switch ( rng() % 5u )
    {
    case 0u: circuit.t( q ); break;
    case 1u: circuit.tdg( q ); break;
    case 2u: circuit.s( q ); break;
    case 3u: circuit.x( q ); break;
    default: circuit.cx( q, ( q + 1u + rng() % ( num_qubits - 1u ) ) % num_qubits ); break;
    }
  }
  return circuit;
}

/* ---------------------------------------------------------------- */
/* canonical fingerprints                                           */
/* ---------------------------------------------------------------- */

/*! Relabels a phase polynomial's variables: `perm[v]` is the new label
 *  of variable `v`; wires (output rows) move with their variable.
 */
phasepoly::phase_polynomial permuted( const phasepoly::phase_polynomial& poly,
                                      const std::vector<uint32_t>& perm )
{
  const auto map_bits = [&]( const bitvec& bits ) {
    bitvec out;
    for ( uint32_t v = 0u; v < poly.num_vars; ++v )
    {
      if ( bits.test( v ) )
      {
        out.set( perm[v] );
      }
    }
    return out;
  };

  phasepoly::phase_polynomial result;
  result.num_vars = poly.num_vars;
  result.global_phase = poly.global_phase;
  for ( const auto& term : poly.terms )
  {
    result.terms.push_back( { map_bits( term.parity ), term.angle } );
  }
  result.output_linear.resize( poly.num_vars );
  for ( uint32_t v = 0u; v < poly.num_vars; ++v )
  {
    result.output_linear[perm[v]] = map_bits( poly.output_linear[v] );
    if ( poly.output_constants.test( v ) )
    {
      result.output_constants.set( perm[v] );
    }
  }
  return result;
}

phasepoly::phase_polynomial sample_polynomial()
{
  constexpr double pi = std::numbers::pi;
  phasepoly::phase_polynomial poly;
  poly.num_vars = 3u;
  poly.terms.push_back( { bitvec{ 0b011u }, pi / 4.0 } );
  poly.terms.push_back( { bitvec{ 0b100u }, pi / 2.0 } );
  poly.terms.push_back( { bitvec{ 0b101u }, -pi / 4.0 } );
  poly.output_linear = { bitvec{ 0b011u }, bitvec{ 0b010u }, bitvec{ 0b100u } };
  poly.output_constants.set( 1u );
  return poly;
}

TEST( library_fingerprint_test, qubit_relabeled_polynomials_hash_equal )
{
  const auto poly = sample_polynomial();
  const auto relabeled = permuted( poly, { 2u, 0u, 1u } );

  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_phase_polynomial( poly, "tag", a );
  library::fingerprint_phase_polynomial( relabeled, "tag", b );

  ASSERT_TRUE( a.valid );
  ASSERT_TRUE( b.valid );
  EXPECT_EQ( a.key, b.key );
  EXPECT_EQ( a.bytes, b.bytes );
}

TEST( library_fingerprint_test, commuting_reorder_hashes_equal )
{
  /* the T gates on distinct qubits commute: different spellings, same
   * phase polynomial, same fingerprint */
  qcircuit first( 2u );
  first.t( 0u );
  first.t( 1u );
  first.cx( 0u, 1u );
  first.t( 1u );

  qcircuit second( 2u );
  second.t( 1u );
  second.t( 0u );
  second.cx( 0u, 1u );
  second.t( 1u );

  const std::vector<uint32_t> qubits{ 0u, 1u };
  const auto poly_a = phasepoly::extract_phase_polynomial(
      first, 0u, static_cast<uint32_t>( first.num_gates() ), qubits );
  const auto poly_b = phasepoly::extract_phase_polynomial(
      second, 0u, static_cast<uint32_t>( second.num_gates() ), qubits );

  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_phase_polynomial( poly_a, "tag", a );
  library::fingerprint_phase_polynomial( poly_b, "tag", b );
  EXPECT_EQ( a.key, b.key );
  EXPECT_EQ( a.bytes, b.bytes );
}

TEST( library_fingerprint_test, near_miss_one_extra_t_hashes_distinct )
{
  const auto poly = sample_polynomial();
  auto near_miss = poly;
  near_miss.terms.push_back( { bitvec{ 0b010u }, std::numbers::pi / 4.0 } );

  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_phase_polynomial( poly, "tag", a );
  library::fingerprint_phase_polynomial( near_miss, "tag", b );
  EXPECT_NE( a.bytes, b.bytes );
  EXPECT_NE( a.key, b.key );
}

TEST( library_fingerprint_test, option_tag_separates_entries )
{
  const auto poly = sample_polynomial();
  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_phase_polynomial( poly, "tpar-region|s4", a );
  library::fingerprint_phase_polynomial( poly, "tpar-region|s6", b );
  EXPECT_NE( a.key, b.key );
}

TEST( library_fingerprint_test, circuit_fingerprint_is_first_touch_canonical )
{
  qcircuit small( 2u );
  small.h( 0u );
  small.cx( 0u, 1u );
  small.t( 1u );

  /* the same gates moved to qubits {1, 2} of a wider circuit: the
   * first-touch relabeling erases the shift */
  qcircuit shifted( 3u );
  shifted.h( 1u );
  shifted.cx( 1u, 2u );
  shifted.t( 2u );

  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_circuit( small, "tag", a );
  library::fingerprint_circuit( shifted, "tag", b );
  EXPECT_EQ( a.key, b.key );
  EXPECT_EQ( a.bytes, b.bytes );
  EXPECT_EQ( a.wires, ( std::vector<uint32_t>{ 0u, 1u } ) );
  EXPECT_EQ( b.wires, ( std::vector<uint32_t>{ 1u, 2u } ) );
}

/*! `num_qubits` wires, each first touched by an X in index order (so
 *  local label = qubit), then one CX from wire 0 onto `target`. */
qcircuit touch_all_then_cx( uint32_t num_qubits, uint32_t target )
{
  qcircuit circuit( num_qubits );
  for ( uint32_t q = 0u; q < num_qubits; ++q )
  {
    circuit.x( q );
  }
  circuit.cx( 0u, target );
  return circuit;
}

TEST( library_fingerprint_test, circuit_fingerprint_separates_wires_past_one_byte )
{
  /* labels 1 and 257 agree in their low byte */
  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_circuit( touch_all_then_cx( 300u, 1u ), "tag", a );
  library::fingerprint_circuit( touch_all_then_cx( 300u, 257u ), "tag", b );
  EXPECT_EQ( a.bytes.size(), b.bytes.size() );
  EXPECT_NE( a.bytes, b.bytes );
  EXPECT_NE( a.key, b.key );
  EXPECT_EQ( a.wires, b.wires );
}

TEST( library_fingerprint_test, circuit_fingerprint_separates_wires_past_sixteen_bits )
{
  /* labels 1 and 65537 agree in their low 16 bits; circuits this wide
   * spell 32-bit ids */
  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_circuit( touch_all_then_cx( 65540u, 1u ), "tag", a );
  library::fingerprint_circuit( touch_all_then_cx( 65540u, 65537u ), "tag", b );
  EXPECT_EQ( a.bytes.size(), b.bytes.size() );
  EXPECT_NE( a.bytes, b.bytes );
  EXPECT_NE( a.key, b.key );
  ASSERT_EQ( a.wires.size(), 65540u );
  EXPECT_EQ( a.wires[65537], 65537u );
}

TEST( library_fingerprint_test, byte_hash_separates_padding_and_single_byte_edits )
{
  /* the hash reads 8 bytes per step: zero padding of the last word and
   * an edit at any position must still change the key */
  const std::string base = "0123456789abcdefghij";
  const auto key = library::fingerprint_bytes( base );
  EXPECT_NE( library::fingerprint_bytes( base + std::string( 1u, '\0' ) ), key );
  EXPECT_NE( library::fingerprint_bytes( std::string( 1u, '\0' ) ),
             library::fingerprint_bytes( "" ) );
  for ( size_t at = 0u; at < base.size(); ++at )
  {
    auto edited = base;
    edited[at] = static_cast<char>( edited[at] ^ 0x40 );
    EXPECT_NE( library::fingerprint_bytes( edited ), key ) << "at=" << at;
  }
}

/* ---------------------------------------------------------------- */
/* tpar splicing                                                    */
/* ---------------------------------------------------------------- */

TEST( library_splice_test, second_sighting_splices_whole_tpar_input )
{
  library::subcircuit_library lib{ eager_options() };
  const auto circuit = sample_circuit();

  const auto first = phasepoly::tpar( circuit, with_library( lib ) );
  const auto cold = lib.statistics();
  EXPECT_EQ( cold.hits, 0u );
  EXPECT_GT( cold.admits, 0u );

  const auto second = phasepoly::tpar( circuit, with_library( lib ) );
  const auto warm = lib.statistics();
  EXPECT_GT( warm.hits, cold.hits );

  EXPECT_EQ( first, second ); /* splices are byte-exact */
  EXPECT_TRUE( circuits_equivalent( second, circuit, 1e-12 ) );
}

TEST( library_splice_test, region_hit_survives_different_surroundings )
{
  /* two circuits with different whole-input spellings sharing one
   * region up to qubit relabeling: the region tier must hit */
  qcircuit first( 3u );
  first.h( 2u );
  first.t( 0u );
  first.cx( 0u, 1u );
  first.t( 1u );
  first.cx( 0u, 1u );
  first.tdg( 0u );

  qcircuit second( 3u );
  second.h( 2u );
  second.h( 2u ); /* changes the whole-circuit fingerprint without
                   * joining the phase-poly region (h is not a region
                   * kind, x would be) */
  second.t( 1u );
  second.cx( 1u, 0u );
  second.t( 0u );
  second.cx( 1u, 0u );
  second.tdg( 1u );

  library::subcircuit_library lib{ eager_options() };
  const auto out_first = phasepoly::tpar( first, with_library( lib ) );
  const auto cold = lib.statistics();
  const auto out_second = phasepoly::tpar( second, with_library( lib ) );
  const auto warm = lib.statistics();

  EXPECT_GT( warm.hits, cold.hits );
  EXPECT_TRUE( circuits_equivalent( out_first, first, 1e-12 ) );
  EXPECT_TRUE( circuits_equivalent( out_second, second, 1e-12 ) );
}

TEST( library_splice_test, randomized_splices_match_resynthesis_exactly )
{
  std::mt19937_64 rng( 77u );
  for ( uint32_t trial = 0u; trial < 20u; ++trial )
  {
    const auto circuit = random_clifford_t_circuit( rng, 4u, 50u );

    library::subcircuit_library lib{ eager_options() };
    const auto reference = phasepoly::tpar( circuit ); /* no library */
    const auto cold = phasepoly::tpar( circuit, with_library( lib ) );
    const auto warm = phasepoly::tpar( circuit, with_library( lib ) );

    ASSERT_EQ( cold, reference ) << "trial=" << trial;
    ASSERT_EQ( warm, reference ) << "trial=" << trial;
    ASSERT_TRUE( circuits_equivalent( warm, circuit, 1e-12 ) ) << "trial=" << trial;
  }
}

TEST( library_splice_test, admission_threshold_rejects_cold_shapes )
{
  library::library_options options;
  options.admit_cost_ms = 1e9; /* nothing is ever hot enough */
  library::subcircuit_library lib{ options };

  const auto circuit = sample_circuit();
  phasepoly::tpar( circuit, with_library( lib ) );
  phasepoly::tpar( circuit, with_library( lib ) );

  const auto stats = lib.statistics();
  EXPECT_EQ( stats.hits, 0u );
  EXPECT_EQ( stats.entries, 0u );
  EXPECT_GT( stats.rejected_cold, 0u );
}

TEST( library_admission_test, default_threshold_admits_on_second_sighting )
{
  library::subcircuit_library lib; /* default library_options */
  const auto circuit = single_region_circuit();
  const auto reference = phasepoly::tpar( circuit ); /* no library */

  /* a shape seen once has saved nothing: no admission, however costly */
  const auto first = phasepoly::tpar( circuit, with_library( lib ) );
  const auto after_first = lib.statistics();
  EXPECT_EQ( after_first.admits, 0u );
  EXPECT_EQ( after_first.entries, 0u );
  EXPECT_GT( after_first.rejected_cold, 0u );
  EXPECT_EQ( after_first.hits, 0u );

  /* the repeat demonstrates the saving: the whole input is admitted */
  const auto second = phasepoly::tpar( circuit, with_library( lib ) );
  const auto after_second = lib.statistics();
  EXPECT_GT( after_second.admits, 0u );
  EXPECT_EQ( after_second.hits, 0u );

  /* ... and spliced from the third sighting, byte-exactly */
  const auto third = phasepoly::tpar( circuit, with_library( lib ) );
  EXPECT_GT( lib.statistics().hits, 0u );
  EXPECT_EQ( first, reference );
  EXPECT_EQ( second, reference );
  EXPECT_EQ( third, reference );
}

TEST( library_splice_test, zero_capacity_disables_storage )
{
  library::library_options options;
  options.admit_cost_ms = 0.0;
  options.capacity = 0u;
  library::subcircuit_library lib{ options };

  const auto circuit = sample_circuit();
  const auto first = phasepoly::tpar( circuit, with_library( lib ) );
  const auto second = phasepoly::tpar( circuit, with_library( lib ) );

  EXPECT_EQ( lib.statistics().hits, 0u );
  EXPECT_EQ( lib.statistics().entries, 0u );
  EXPECT_EQ( first, second );
}

/* ---------------------------------------------------------------- */
/* rptm splicing                                                    */
/* ---------------------------------------------------------------- */

TEST( library_splice_test, rptm_second_sighting_splices_mapped_circuit )
{
  rev_circuit source( 3u );
  source.add_toffoli( 0u, 1u, 2u );
  source.add_cnot( 0u, 1u );
  source.add_not( 2u );
  source.add_toffoli( 1u, 2u, 0u );

  library::subcircuit_library lib{ eager_options() };
  clifford_t_options options;
  options.library = &lib;

  const auto reference = map_to_clifford_t( source ); /* no library */
  const auto cold = map_to_clifford_t( source, options );
  const auto hits_after_cold = lib.statistics().hits;
  const auto warm = map_to_clifford_t( source, options );

  EXPECT_GT( lib.statistics().hits, hits_after_cold );
  EXPECT_EQ( cold.circuit, reference.circuit );
  EXPECT_EQ( warm.circuit, reference.circuit );
  EXPECT_EQ( warm.num_helper_qubits, reference.num_helper_qubits );
  EXPECT_TRUE( circuits_equivalent( warm.circuit, cold.circuit, 1e-12 ) );
}

TEST( library_splice_test, rptm_relabeled_input_maps_fresh )
{
  /* rptm's output follows the line order, so an entry may only serve
   * the exact input it was mapped from.  Each pair below spells the
   * same under first-touch relabeling, yet a fresh mapping of the
   * second circuit differs from the first one's relabeled output: */
  std::vector<std::pair<rev_circuit, rev_circuit>> pairs;

  /* the same cascade shifted onto lines {1, 2, 3} of a wider circuit */
  pairs.emplace_back( rev_circuit( 3u ), rev_circuit( 4u ) );
  pairs.back().first.add_toffoli( 0u, 1u, 2u );
  pairs.back().first.add_cnot( 0u, 2u );
  pairs.back().second.add_toffoli( 1u, 2u, 3u );
  pairs.back().second.add_cnot( 1u, 3u );

  /* lines 0 and 2 swapped: the Toffoli's controls come in the other
   * order, and the 7-T network is not symmetric in them */
  pairs.emplace_back( rev_circuit( 3u ), rev_circuit( 3u ) );
  pairs.back().first.add_not( 2u );
  pairs.back().first.add_toffoli( 0u, 2u, 1u );
  pairs.back().second.add_not( 0u );
  pairs.back().second.add_toffoli( 2u, 0u, 1u );

  /* lines 1 and 3 swapped: the pending X flips of the negative
   * controls are flushed in the other order */
  pairs.emplace_back( rev_circuit( 4u ), rev_circuit( 4u ) );
  pairs.back().first.add_gate( rev_gate::mct( {}, { 3u }, 0u ) );
  pairs.back().first.add_gate( rev_gate::mct( {}, { 1u }, 0u ) );
  pairs.back().second.add_gate( rev_gate::mct( {}, { 1u }, 0u ) );
  pairs.back().second.add_gate( rev_gate::mct( {}, { 3u }, 0u ) );

  for ( size_t i = 0u; i < pairs.size(); ++i )
  {
    const auto& [first, second] = pairs[i];
    library::subcircuit_library lib{ eager_options() };
    clifford_t_options options;
    options.library = &lib;

    map_to_clifford_t( first, options );
    const auto hits_before = lib.statistics().hits;
    const auto mapped = map_to_clifford_t( second, options );
    EXPECT_EQ( lib.statistics().hits, hits_before ) << "pair=" << i;

    const auto reference = map_to_clifford_t( second );
    EXPECT_EQ( mapped.circuit, reference.circuit ) << "pair=" << i;
    EXPECT_EQ( mapped.num_helper_qubits, reference.num_helper_qubits ) << "pair=" << i;
  }
}

/*! The reversible circuit a front-end spec leaves for rptm. */
rev_circuit reversible_of( const std::string& spec )
{
  pass_manager manager( /*enable_cache=*/false );
  run_plan plan;
  plan.use_library = false;
  auto result = manager.run( parse_pipeline( spec ), staged_ir{}, plan );
  return std::move( *result.ir.reversible );
}

/*! `circuit` with line i renamed to `image[i]`. */
rev_circuit relabeled( const rev_circuit& circuit, const std::vector<uint32_t>& image )
{
  rev_circuit result( circuit.num_lines() );
  for ( const auto& gate : circuit.gates() )
  {
    rev_gate moved;
    for ( uint32_t line = 0u; line < circuit.num_lines(); ++line )
    {
      const uint64_t bit = uint64_t{ 1 } << image[line];
      moved.controls |= ( gate.controls >> line ) & 1u ? bit : 0u;
      moved.polarity |= ( gate.polarity >> line ) & 1u ? bit : 0u;
    }
    moved.target = image[gate.target];
    result.add_gate( moved );
  }
  return result;
}

TEST( library_splice_test, rptm_with_eager_library_emits_what_no_library_emits )
{
  /* three rounds through one eager library: the first admits every
   * whole input, the later ones splice it back; every round must be
   * gate for gate what rptm emits without a library */
  std::vector<rev_circuit> inputs;
  for ( uint32_t n = 4u; n <= 7u; ++n )
  {
    inputs.push_back( reversible_of( "revgen --hwb " + std::to_string( n ) + "; tbs; revsimp" ) );
  }
  for ( const uint32_t seed : { 1u, 2u, 3u } )
  {
    inputs.push_back( reversible_of( "revgen --random " + std::to_string( 4u + seed ) +
                                     " --seed " + std::to_string( seed ) + "; tbs; revsimp" ) );
  }
  /* a relabeled repeat of the last random spec */
  std::vector<uint32_t> image( inputs.back().num_lines() );
  std::iota( image.begin(), image.end(), 0u );
  std::shuffle( image.begin(), image.end(), std::mt19937_64( 9u ) );
  inputs.push_back( relabeled( inputs.back(), image ) );

  library::subcircuit_library lib{ eager_options() };
  clifford_t_options with_lib;
  with_lib.library = &lib;
  for ( uint32_t round = 0u; round < 3u; ++round )
  {
    for ( size_t i = 0u; i < inputs.size(); ++i )
    {
      const auto reference = map_to_clifford_t( inputs[i] );
      const auto mapped = map_to_clifford_t( inputs[i], with_lib );
      EXPECT_EQ( mapped.circuit, reference.circuit ) << "round=" << round << " input=" << i;
      EXPECT_EQ( mapped.num_helper_qubits, reference.num_helper_qubits )
          << "round=" << round << " input=" << i;
    }
  }
  EXPECT_GT( lib.statistics().hits, 0u );
}

/* ---------------------------------------------------------------- */
/* persistence                                                      */
/* ---------------------------------------------------------------- */

TEST( library_persistence_test, warm_restart_reloads_admitted_entries )
{
  scoped_store_file store{ "qda_test_library_roundtrip.bin" };
  const auto circuit = sample_circuit();

  auto options = eager_options();
  options.path = store.path;
  uint64_t admitted = 0u;
  qcircuit cold( 1u );
  {
    library::subcircuit_library writer{ options };
    cold = phasepoly::tpar( circuit, with_library( writer ) );
    admitted = writer.statistics().admits;
    ASSERT_GT( admitted, 0u );
  }

  /* a fresh "process": a new library instance over the same file */
  library::subcircuit_library reader{ options };
  const auto loaded = reader.statistics();
  EXPECT_EQ( loaded.loaded_entries, admitted );
  EXPECT_EQ( loaded.load_failures, 0u );
  EXPECT_EQ( loaded.load_truncated, 0u );

  const auto warm = phasepoly::tpar( circuit, with_library( reader ) );
  EXPECT_GT( reader.statistics().hits, 0u );
  EXPECT_EQ( warm, cold );
}

TEST( library_persistence_test, second_sighting_store_hits_first_sighting_after_restart )
{
  scoped_store_file store{ "qda_test_library_second_sighting.bin" };
  const auto circuit = single_region_circuit();

  library::library_options options; /* default threshold */
  options.path = store.path;
  uint64_t admitted = 0u;
  {
    library::subcircuit_library writer{ options };
    phasepoly::tpar( circuit, with_library( writer ) );
    EXPECT_EQ( writer.statistics().admits, 0u );
    phasepoly::tpar( circuit, with_library( writer ) );
    admitted = writer.statistics().admits;
    ASSERT_GT( admitted, 0u );
  }

  /* reloaded entries need no sightings of their own */
  library::subcircuit_library reader{ options };
  EXPECT_EQ( reader.statistics().loaded_entries, admitted );
  const auto warm = phasepoly::tpar( circuit, with_library( reader ) );
  EXPECT_GT( reader.statistics().hits, 0u );
  EXPECT_EQ( warm, phasepoly::tpar( circuit ) );
}

TEST( library_persistence_test, corrupt_header_cold_starts_with_counter )
{
  scoped_store_file store{ "qda_test_library_corrupt.bin" };
  write_file( store.path, "this is not a library file at all" );

  auto options = eager_options();
  options.path = store.path;
  library::subcircuit_library lib{ options };

  const auto stats = lib.statistics();
  EXPECT_EQ( stats.loaded_entries, 0u );
  EXPECT_EQ( stats.load_failures, 1u );

  /* the library must stay fully usable after a cold start */
  const auto circuit = sample_circuit();
  const auto first = phasepoly::tpar( circuit, with_library( lib ) );
  const auto second = phasepoly::tpar( circuit, with_library( lib ) );
  EXPECT_EQ( first, second );
  EXPECT_GT( lib.statistics().hits, 0u );
}

TEST( library_persistence_test, version_mismatch_cold_starts_with_counter )
{
  scoped_store_file store{ "qda_test_library_version.bin" };
  /* a store written while MCT-ladder records existed (version 2): it
   * may hold records of a kind that is gone, so it must not load */
  std::string bytes( "QDALIB1\n", 8u );
  const uint32_t old_version = 2u;
  bytes.append( reinterpret_cast<const char*>( &old_version ), sizeof( old_version ) );
  write_file( store.path, bytes );

  auto options = eager_options();
  options.path = store.path;
  library::subcircuit_library lib{ options };

  const auto stats = lib.statistics();
  EXPECT_EQ( stats.loaded_entries, 0u );
  EXPECT_EQ( stats.version_mismatches, 1u );
  EXPECT_EQ( stats.load_failures, 0u );
}

TEST( library_persistence_test, truncated_tail_keeps_valid_prefix )
{
  scoped_store_file store{ "qda_test_library_truncated.bin" };

  auto options = eager_options();
  options.path = store.path;
  uint64_t admitted = 0u;
  {
    library::subcircuit_library writer{ options };
    phasepoly::tpar( sample_circuit(), with_library( writer ) );
    std::mt19937_64 rng( 5u );
    phasepoly::tpar( random_clifford_t_circuit( rng, 4u, 40u ), with_library( writer ) );
    admitted = writer.statistics().admits;
    ASSERT_GE( admitted, 2u );
  }

  const long size = file_size( store.path );
  ASSERT_GT( size, 16 );
  ASSERT_EQ( ::truncate( store.path.c_str(), size - 7 ), 0 );

  library::subcircuit_library reader{ options };
  const auto stats = reader.statistics();
  EXPECT_EQ( stats.load_truncated, 1u );
  EXPECT_GE( stats.loaded_entries, 1u );
  EXPECT_LT( stats.loaded_entries, admitted );
}

#if QDA_FAILPOINTS_ENABLED

TEST( library_persistence_test, load_failpoint_cold_starts_without_crashing )
{
  scoped_store_file store{ "qda_test_library_failpoint.bin" };

  auto options = eager_options();
  options.path = store.path;
  {
    library::subcircuit_library writer{ options };
    phasepoly::tpar( sample_circuit(), with_library( writer ) );
    ASSERT_GT( writer.statistics().admits, 0u );
  }

  failpoint::registry::instance().arm(
      failpoint::parse_spec( "library.load:fail:1:1" ) );
  library::subcircuit_library lib{ options };
  failpoint::registry::instance().reset();

  const auto stats = lib.statistics();
  EXPECT_EQ( stats.loaded_entries, 0u );
  EXPECT_GE( stats.load_failures, 1u );

  /* disarmed, the same file loads fine again */
  library::subcircuit_library retry{ options };
  EXPECT_GT( retry.statistics().loaded_entries, 0u );
}

#endif

/* ---------------------------------------------------------------- */
/* concurrency (exercised under TSan in CI)                         */
/* ---------------------------------------------------------------- */

TEST( library_concurrency_test, parallel_compilations_share_one_library )
{
  constexpr uint32_t num_shapes = 4u;
  constexpr uint32_t num_threads = 8u;
  constexpr uint32_t rounds = 4u;

  std::vector<qcircuit> shapes;
  std::vector<qcircuit> references;
  std::mt19937_64 rng( 23u );
  for ( uint32_t s = 0u; s < num_shapes; ++s )
  {
    shapes.push_back( random_clifford_t_circuit( rng, 4u, 40u ) );
    references.push_back( phasepoly::tpar( shapes.back() ) );
  }

  library::subcircuit_library lib{ eager_options() };
  std::atomic<uint32_t> mismatches{ 0u };

  std::vector<std::thread> workers;
  for ( uint32_t thread_id = 0u; thread_id < num_threads; ++thread_id )
  {
    workers.emplace_back( [&, thread_id] {
      for ( uint32_t round = 0u; round < rounds; ++round )
      {
        const uint32_t shape = ( thread_id + round ) % num_shapes;
        const auto out = phasepoly::tpar( shapes[shape], with_library( lib ) );
        if ( !( out == references[shape] ) )
        {
          mismatches.fetch_add( 1u );
        }
        lib.statistics(); /* concurrent snapshotting must be safe */
      }
    } );
  }
  for ( auto& worker : workers )
  {
    worker.join();
  }

  EXPECT_EQ( mismatches.load(), 0u );
  const auto stats = lib.statistics();
  EXPECT_GT( stats.hits, 0u );
  EXPECT_GT( stats.entries, 0u );
}

} // namespace
} // namespace qda
