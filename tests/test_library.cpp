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

phasepoly::tpar_options with_library( library::subcircuit_library& lib )
{
  phasepoly::tpar_options options;
  options.library = &lib;
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

/*! One large H-free phase-polynomial region: it holds no smaller
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
/* exact fingerprints                                               */
/* ---------------------------------------------------------------- */

TEST( library_fingerprint_test, circuit_fingerprint_keys_shifted_circuit_apart )
{
  qcircuit small( 3u );
  small.h( 0u );
  small.cx( 0u, 1u );
  small.t( 1u );

  /* the same gates moved to qubits {1, 2}: tpar's output follows the
   * wires, so the two must not share an entry */
  qcircuit shifted( 3u );
  shifted.h( 1u );
  shifted.cx( 1u, 2u );
  shifted.t( 2u );

  /* and the same gates in a wider circuit */
  qcircuit wider( 4u );
  wider.h( 0u );
  wider.cx( 0u, 1u );
  wider.t( 1u );

  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  phasepoly::splice_probe c;
  library::fingerprint_circuit( small, "tag", a );
  library::fingerprint_circuit( shifted, "tag", b );
  library::fingerprint_circuit( wider, "tag", c );
  EXPECT_NE( a.bytes, b.bytes );
  EXPECT_NE( a.key, b.key );
  EXPECT_NE( a.bytes, c.bytes );
  EXPECT_NE( a.key, c.key );
}

/*! `num_qubits` wires, each touched by an X in index order, then one
 *  CX from wire 0 onto `target`. */
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
  /* wires 1 and 257 agree in their low byte */
  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_circuit( touch_all_then_cx( 300u, 1u ), "tag", a );
  library::fingerprint_circuit( touch_all_then_cx( 300u, 257u ), "tag", b );
  EXPECT_EQ( a.bytes.size(), b.bytes.size() );
  EXPECT_NE( a.bytes, b.bytes );
  EXPECT_NE( a.key, b.key );
}

TEST( library_fingerprint_test, circuit_fingerprint_separates_wires_past_sixteen_bits )
{
  /* wires 1 and 65537 agree in their low 16 bits; circuits this wide
   * spell 32-bit ids */
  phasepoly::splice_probe a;
  phasepoly::splice_probe b;
  library::fingerprint_circuit( touch_all_then_cx( 65540u, 1u ), "tag", a );
  library::fingerprint_circuit( touch_all_then_cx( 65540u, 65537u ), "tag", b );
  EXPECT_EQ( a.bytes.size(), b.bytes.size() );
  EXPECT_NE( a.bytes, b.bytes );
  EXPECT_NE( a.key, b.key );
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
  library::subcircuit_library lib;
  const auto circuit = sample_circuit();

  phasepoly::tpar( circuit, with_library( lib ) ); /* first sighting */
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

TEST( library_splice_test, randomized_splices_match_resynthesis_exactly )
{
  std::mt19937_64 rng( 77u );
  for ( uint32_t trial = 0u; trial < 20u; ++trial )
  {
    const auto circuit = random_clifford_t_circuit( rng, 4u, 50u );

    library::subcircuit_library lib;
    const auto reference = phasepoly::tpar( circuit ); /* no library */
    const auto cold = phasepoly::tpar( circuit, with_library( lib ) );
    const auto admitted = phasepoly::tpar( circuit, with_library( lib ) );
    const auto warm = phasepoly::tpar( circuit, with_library( lib ) );

    ASSERT_EQ( cold, reference ) << "trial=" << trial;
    ASSERT_EQ( admitted, reference ) << "trial=" << trial;
    ASSERT_EQ( warm, reference ) << "trial=" << trial;
    ASSERT_TRUE( circuits_equivalent( warm, circuit, 1e-12 ) ) << "trial=" << trial;
  }
}

TEST( library_admission_test, default_threshold_admits_on_second_sighting )
{
  library::subcircuit_library lib; /* default library_options */
  const auto circuit = single_region_circuit();
  const auto reference = phasepoly::tpar( circuit ); /* no library */

  /* a shape seen once has saved nothing: no admission */
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

  library::subcircuit_library lib;
  clifford_t_options options;
  options.library = &lib;

  const auto reference = map_to_clifford_t( source ); /* no library */
  map_to_clifford_t( source, options ); /* first sighting */
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
    library::subcircuit_library lib;
    clifford_t_options options;
    options.library = &lib;

    map_to_clifford_t( first, options );
    map_to_clifford_t( first, options ); /* admitted on its second sighting */
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

TEST( library_splice_test, rptm_with_library_emits_what_no_library_emits )
{
  /* three rounds through one library: the second admits every whole
   * input, the third splices it back; every round must be gate for
   * gate what rptm emits without a library */
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

  library::subcircuit_library lib;
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
/* exactness: library on emits what library off emits              */
/* ---------------------------------------------------------------- */

/*! The final circuit a spec compiles to, with or without `lib`. */
qcircuit compiled( const std::string& spec, library::subcircuit_library* lib )
{
  pass_manager manager( /*enable_cache=*/false );
  run_plan plan;
  plan.use_library = lib != nullptr;
  plan.library = lib;
  auto result = manager.run( parse_pipeline( spec ), staged_ir{}, plan );
  return std::move( result.ir.quantum->circuit );
}

/*! `circuit` with qubit q renamed to `image[q]`. */
qcircuit relabeled( const qcircuit& circuit, const std::vector<uint32_t>& image )
{
  qcircuit result( circuit.num_qubits() );
  for ( const auto& view : circuit.gates() )
  {
    auto gate = view.materialize();
    for ( auto& control : gate.controls )
    {
      control = image[control];
    }
    gate.target = image[gate.target];
    if ( gate.kind == gate_kind::swap )
    {
      gate.target2 = image[gate.target2];
    }
    result.add_gate( gate );
  }
  return result;
}

/*! `circuit` with some adjacent gates on disjoint qubits swapped. */
qcircuit commuting_reordered( const qcircuit& circuit, std::mt19937_64& rng )
{
  std::vector<qgate> gates;
  for ( const auto& view : circuit.gates() )
  {
    gates.push_back( view.materialize() );
  }
  const auto qubits_of = []( const qgate& gate ) {
    auto qubits = gate.controls;
    qubits.push_back( gate.target );
    if ( gate.kind == gate_kind::swap )
    {
      qubits.push_back( gate.target2 );
    }
    return qubits;
  };
  for ( size_t i = 0u; i + 1u < gates.size(); ++i )
  {
    const auto a = qubits_of( gates[i] );
    const auto b = qubits_of( gates[i + 1u] );
    const bool disjoint = std::none_of( a.begin(), a.end(), [&]( uint32_t q ) {
      return std::find( b.begin(), b.end(), q ) != b.end();
    } );
    if ( disjoint && rng() % 2u == 0u )
    {
      std::swap( gates[i], gates[i + 1u] );
      ++i;
    }
  }
  qcircuit result( circuit.num_qubits() );
  for ( const auto& gate : gates )
  {
    result.add_gate( gate );
  }
  return result;
}

TEST( library_exactness_test, tpar_with_library_emits_what_no_library_emits )
{
  /* three rounds through one default library: the first sighting is
   * rejected, the second admits, the third splices; every round must
   * be gate for gate what tpar emits without a library */
  std::vector<qcircuit> inputs;
  for ( uint32_t n = 4u; n <= 8u; ++n )
  {
    inputs.push_back( compiled( "revgen --hwb " + std::to_string( n ) + "; tbs; revsimp; rptm",
                                nullptr ) );
  }
  std::mt19937_64 rng( 31u );
  for ( uint32_t trial = 0u; trial < 4u; ++trial )
  {
    const auto circuit = random_clifford_t_circuit( rng, 5u, 60u );
    std::vector<uint32_t> image( circuit.num_qubits() );
    std::iota( image.begin(), image.end(), 0u );
    std::shuffle( image.begin(), image.end(), rng );
    inputs.push_back( circuit );
    inputs.push_back( relabeled( circuit, image ) );
    inputs.push_back( commuting_reordered( circuit, rng ) );
  }

  library::subcircuit_library lib;
  for ( uint32_t round = 0u; round < 3u; ++round )
  {
    for ( size_t i = 0u; i < inputs.size(); ++i )
    {
      const auto reference = phasepoly::tpar( inputs[i] );
      const auto optimized = phasepoly::tpar( inputs[i], with_library( lib ) );
      ASSERT_EQ( optimized, reference ) << "round=" << round << " input=" << i;
    }
  }
  EXPECT_GT( lib.statistics().hits, 0u );
}

/*! `walls` H gates on qubit 0, then `circuit`. */
qcircuit after_h_walls( uint32_t walls, const qcircuit& circuit )
{
  qcircuit result( circuit.num_qubits() );
  for ( uint32_t wall = 0u; wall < walls; ++wall )
  {
    result.h( 0u );
  }
  for ( const auto& view : circuit.gates() )
  {
    result.add_gate( view.materialize() );
  }
  return result;
}

TEST( library_exactness_test, commuting_reordered_region_optimizes_fresh )
{
  /* pairs of circuits whose phase-polynomial regions (after the H
   * walls) differ only by commuting gate reorder: equal polynomials,
   * different spellings.  A library keyed on the polynomial replays
   * the first region's synthesized gate order into the second
   * circuit, where tpar without a library emits another order.  The
   * extra H wall keeps the whole inputs apart. */
  std::vector<std::pair<qcircuit, qcircuit>> pairs;

  /* s(1) moved across the commuting CXs: such a library emits s(3)
   * before s(1) for the second circuit, tpar alone s(1) first */
  qcircuit small_first( 4u );
  small_first.s( 1u );
  small_first.cx( 3u, 0u );
  small_first.cx( 3u, 0u );
  small_first.s( 3u );
  qcircuit small_second( 4u );
  small_second.cx( 3u, 0u );
  small_second.s( 1u );
  small_second.cx( 3u, 0u );
  small_second.s( 3u );
  pairs.emplace_back( after_h_walls( 1u, small_first ), after_h_walls( 2u, small_second ) );

  /* a 600-gate region, costly enough to synthesize that any cost-based
   * admission bar stores it on its second sighting */
  std::mt19937_64 rng( 1u );
  qcircuit region( 6u );
  for ( uint32_t g = 0u; g < 600u; ++g )
  {
    const uint32_t q = rng() % 6u;
    switch ( rng() % 4u )
    {
    case 0u: region.t( q ); break;
    case 1u: region.tdg( q ); break;
    case 2u: region.s( q ); break;
    default: region.cx( q, ( q + 1u + rng() % 5u ) % 6u ); break;
    }
  }
  pairs.emplace_back( after_h_walls( 1u, region ),
                      after_h_walls( 2u, commuting_reordered( region, rng ) ) );

  for ( size_t i = 0u; i < pairs.size(); ++i )
  {
    const auto& [first, second] = pairs[i];
    library::subcircuit_library lib;
    for ( uint32_t round = 0u; round < 3u; ++round )
    {
      phasepoly::tpar( first, with_library( lib ) );
    }
    const auto reference = phasepoly::tpar( second );
    for ( uint32_t round = 0u; round < 3u; ++round )
    {
      EXPECT_EQ( phasepoly::tpar( second, with_library( lib ) ), reference )
          << "pair=" << i << " round=" << round;
    }
  }
}

TEST( library_exactness_test, compile_cold_mix_with_library_emits_what_no_library_emits )
{
  /* the compile-cold request mix: every (width, tail) kind, three seeds,
   * each spec compiled three times through one default library */
  const std::vector<std::pair<uint32_t, std::string>> kinds = {
      { 5u, "tbs; revsimp; rptm --cost-target ibm_qx5; tpar; route --device ibm_qx5; ps" },
      { 5u, "tbs; revsimp; rptm; tpar; ps" },
      { 6u, "tbs; revsimp; rptm; tpar; ps" },
      { 6u, "dbs; revsimp; rptm; tpar; ps" },
      { 7u, "tbs; revsimp; rptm; tpar; ps" },
      { 7u, "dbs; revsimp; rptm; tpar; ps" },
      { 7u, "tbs; revsimp; rptm; peephole; ps" },
      { 8u, "tbs; revsimp; rptm; tpar; ps" },
      { 8u, "tbs; revsimp; rptm; peephole; ps" } };
  library::subcircuit_library lib;
  for ( const uint32_t seed : { 1u, 2u, 1000003u } )
  {
    for ( const auto& [n, tail] : kinds )
    {
      const auto spec = "revgen --random " + std::to_string( n ) + " --seed " +
                        std::to_string( seed ) + "; " + tail;
      const auto reference = compiled( spec, nullptr );
      for ( uint32_t round = 0u; round < 3u; ++round )
      {
        ASSERT_EQ( compiled( spec, &lib ), reference ) << spec << " round=" << round;
      }
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

  library::library_options options;
  options.path = store.path;
  uint64_t admitted = 0u;
  qcircuit cold( 1u );
  {
    library::subcircuit_library writer{ options };
    phasepoly::tpar( circuit, with_library( writer ) );
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

  library::library_options options;
  options.path = store.path;
  library::subcircuit_library lib{ options };

  const auto stats = lib.statistics();
  EXPECT_EQ( stats.loaded_entries, 0u );
  EXPECT_EQ( stats.load_failures, 1u );

  /* the library must stay fully usable after a cold start */
  const auto circuit = sample_circuit();
  const auto first = phasepoly::tpar( circuit, with_library( lib ) );
  phasepoly::tpar( circuit, with_library( lib ) );
  const auto third = phasepoly::tpar( circuit, with_library( lib ) );
  EXPECT_EQ( first, third );
  EXPECT_GT( lib.statistics().hits, 0u );
}

TEST( library_persistence_test, version_mismatch_cold_starts_with_counter )
{
  scoped_store_file store{ "qda_test_library_version.bin" };
  /* a store written while region records existed (version 3): it may
   * hold records of a kind that is gone, so it must not load */
  std::string bytes( "QDALIB1\n", 8u );
  const uint32_t old_version = 3u;
  bytes.append( reinterpret_cast<const char*>( &old_version ), sizeof( old_version ) );
  write_file( store.path, bytes );

  library::library_options options;
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

  library::library_options options;
  options.path = store.path;
  uint64_t admitted = 0u;
  {
    library::subcircuit_library writer{ options };
    std::mt19937_64 rng( 5u );
    const auto random = random_clifford_t_circuit( rng, 4u, 40u );
    for ( uint32_t sighting = 0u; sighting < 2u; ++sighting )
    {
      phasepoly::tpar( sample_circuit(), with_library( writer ) );
      phasepoly::tpar( random, with_library( writer ) );
    }
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

  library::library_options options;
  options.path = store.path;
  {
    library::subcircuit_library writer{ options };
    phasepoly::tpar( sample_circuit(), with_library( writer ) );
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

  library::subcircuit_library lib;
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
