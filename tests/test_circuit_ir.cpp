/*! \file test_circuit_ir.cpp
 *  \brief The unified gate-graph IR: tombstones, rewriter,
 *         zero-copy views, the `circuit_cast` lowering hook and frozen
 *         (byte-packed) snapshots.
 */
#include "gate_sequence_hash.hpp"

#include "circuit/circuit.hpp"
#include "circuit/circuit_cast.hpp"
#include "circuit/frozen_circuit.hpp"
#include "kernel/bits.hpp"
#include "mapping/clifford_t.hpp"
#include "optimization/peephole.hpp"
#include "optimization/phase_folding.hpp"
#include "optimization/revsimp.hpp"
#include "optimization/revsimp_reference.hpp"
#include "quantum/qcircuit.hpp"
#include "reversible/rev_circuit.hpp"
#include "simulator/unitary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <random>

namespace qda
{
namespace
{

TEST( circuit_ir_test, commit_compacts_survivors_in_order )
{
  rev_circuit circuit( 3u );
  circuit.add_not( 0u );
  circuit.add_cnot( 0u, 1u );
  circuit.add_toffoli( 0u, 1u, 2u );
  circuit.add_not( 2u );

  {
    auto rewriter = circuit.rewrite();
    rewriter.erase_slot( 1u );
  } /* destructor commits and compacts */

  ASSERT_EQ( circuit.num_gates(), 3u );
  EXPECT_EQ( circuit.core().num_slots(), 3u );
  EXPECT_EQ( circuit.core().num_tombstones(), 0u );
  /* survivors slide down one slot each, in their old order */
  EXPECT_EQ( circuit.core().view_at_slot( 0u ), rev_gate::not_gate( 0u ) );
  EXPECT_EQ( circuit.core().view_at_slot( 1u ), rev_gate::toffoli( 0u, 1u, 2u ) );
  EXPECT_EQ( circuit.core().view_at_slot( 2u ), rev_gate::not_gate( 2u ) );
}

TEST( circuit_ir_test, erase_is_idempotent_and_keeps_the_slot_until_commit )
{
  rev_circuit circuit( 2u );
  circuit.add_not( 0u );
  circuit.add_cnot( 0u, 1u );
  {
    auto rewriter = circuit.rewrite();
    rewriter.erase_slot( 1u );
    rewriter.erase_slot( 1u ); /* idempotent: one tombstone */
    EXPECT_FALSE( rewriter.slot_alive( 1u ) );
    EXPECT_EQ( circuit.core().num_tombstones(), 1u );
    EXPECT_EQ( circuit.core().num_slots(), 2u );
    /* an insert anchored at the dead slot still lands in its place */
    rewriter.insert_before_slot( 1u, rev_gate::not_gate( 1u ) );
  }
  ASSERT_EQ( circuit.num_gates(), 2u );
  EXPECT_EQ( circuit.gate( 0u ), rev_gate::not_gate( 0u ) );
  EXPECT_EQ( circuit.gate( 1u ), rev_gate::not_gate( 1u ) );
}

TEST( circuit_ir_test, tombstone_erase_is_deferred_until_commit )
{
  rev_circuit circuit( 2u );
  circuit.add_not( 0u );
  circuit.add_not( 1u );
  circuit.add_cnot( 0u, 1u );

  auto rewriter = circuit.rewrite();
  rewriter.erase_slot( 1u );

  /* before commit: slot count unchanged, alive count and views adjust */
  EXPECT_EQ( circuit.core().num_slots(), 3u );
  EXPECT_EQ( circuit.num_gates(), 2u );
  EXPECT_EQ( circuit.core().num_tombstones(), 1u );
  EXPECT_EQ( circuit.gate( 1u ), rev_gate::cnot( 0u, 1u ) );

  rewriter.commit();
  EXPECT_EQ( circuit.core().num_slots(), 2u );
  EXPECT_EQ( circuit.core().num_tombstones(), 0u );
}

TEST( circuit_ir_test, rewriter_batches_inserts_in_document_order )
{
  qcircuit circuit( 1u );
  circuit.h( 0u );
  circuit.s( 0u );

  qgate x_gate;
  x_gate.kind = gate_kind::x;
  qgate z_gate;
  z_gate.kind = gate_kind::z;
  qgate t_gate;
  t_gate.kind = gate_kind::t;

  {
    auto rewriter = circuit.rewrite();
    rewriter.insert_after_slot( 0u, x_gate );  /* after h */
    rewriter.insert_before_slot( 1u, z_gate ); /* before s, after the after-insert */
    rewriter.append( t_gate );
  }

  ASSERT_EQ( circuit.num_gates(), 5u );
  EXPECT_EQ( circuit.gate( 0u ).kind, gate_kind::h );
  EXPECT_EQ( circuit.gate( 1u ).kind, gate_kind::x );
  EXPECT_EQ( circuit.gate( 2u ).kind, gate_kind::z );
  EXPECT_EQ( circuit.gate( 3u ).kind, gate_kind::s );
  EXPECT_EQ( circuit.gate( 4u ).kind, gate_kind::t );
}

TEST( circuit_ir_test, replace_overwrites_in_place_and_keeps_the_slot )
{
  qcircuit circuit( 4u );
  circuit.mcx( { 0u, 1u, 2u }, 3u );
  circuit.cx( 0u, 1u );
  circuit.h( 2u );

  qgate shrunk;
  shrunk.kind = gate_kind::cz;
  shrunk.controls = { 3u };
  shrunk.target = 2u;
  qgate grown;
  grown.kind = gate_kind::mcz;
  grown.controls = { 0u, 1u, 3u };
  grown.target = 2u;
  {
    auto rewriter = circuit.rewrite();
    rewriter.replace_slot( 0u, shrunk ); /* strands two slab entries */
    rewriter.replace_slot( 1u, grown );  /* moves to the slab's end */
    EXPECT_EQ( circuit.core().num_slots(), 3u );
    EXPECT_EQ( circuit.core().num_tombstones(), 0u );
    EXPECT_EQ( circuit.gate( 0u ).materialize(), shrunk );
    EXPECT_EQ( circuit.gate( 1u ).materialize(), grown );
    rewriter.erase_slot( 2u );
  }
  ASSERT_EQ( circuit.num_gates(), 2u );
  EXPECT_EQ( circuit.gate( 0u ).materialize(), shrunk );
  EXPECT_EQ( circuit.gate( 1u ).materialize(), grown );
  /* the commit rebuilt the slab densely, in row order */
  const auto& cols = circuit.core().columns();
  EXPECT_EQ( cols.operands, ( std::vector<uint32_t>{ 3u, 0u, 1u, 3u } ) );
  EXPECT_EQ( cols.op_offset, ( std::vector<uint32_t>{ 0u, 1u } ) );
}

TEST( circuit_ir_test, commit_leaves_the_slab_and_angle_pool_dense )
{
  qcircuit circuit( 3u );
  circuit.rz( 0u, 0.5 );
  circuit.cx( 0u, 1u );
  circuit.rz( 1u, 0.25 );
  circuit.ccx( 0u, 1u, 2u );
  circuit.rz( 2u, 0.75 );
  circuit.rz( 0u, 0.25 );

  qgate inserted;
  inserted.kind = gate_kind::rz;
  inserted.target = 1u;
  inserted.angle = 0.125;
  {
    auto rewriter = circuit.rewrite();
    rewriter.erase_slot( 0u );
    rewriter.erase_slot( 1u );
    rewriter.erase_slot( 4u );
    rewriter.insert_after_slot( 2u, inserted );
  } /* a merge commit */
  ASSERT_EQ( circuit.num_gates(), 4u );
  const auto& merged = circuit.core().columns();
  EXPECT_EQ( merged.operands, ( std::vector<uint32_t>{ 0u, 1u } ) );
  EXPECT_EQ( merged.angles, ( std::vector<double>{ 0.25, 0.125 } ) );
  EXPECT_EQ( circuit.gate( 1u ).angle, 0.125 );
  EXPECT_EQ( circuit.gate( 3u ).angle, 0.25 );

  {
    auto rewriter = circuit.rewrite();
    rewriter.erase_slot( 0u );
    rewriter.erase_slot( 1u );
  } /* an erase-only commit, in place */
  ASSERT_EQ( circuit.num_gates(), 2u );
  const auto& kept = circuit.core().columns();
  EXPECT_EQ( kept.operands, ( std::vector<uint32_t>{ 0u, 1u } ) );
  EXPECT_EQ( kept.op_offset, ( std::vector<uint32_t>{ 0u, 2u } ) );
  EXPECT_EQ( kept.angles, ( std::vector<double>{ 0.25 } ) );
  EXPECT_EQ( circuit.gate( 1u ).angle, 0.25 );
  /* the rebuilt lookup still deduplicates */
  circuit.rz( 1u, 0.25 );
  EXPECT_EQ( circuit.core().columns().angles.size(), 1u );
}

TEST( circuit_ir_test, quantum_views_span_the_operand_slab )
{
  qcircuit circuit( 3u );
  circuit.ccx( 0u, 1u, 2u );
  const auto view = circuit.gate( 0u );
  /* zero-copy: the controls span points straight into the SoA slab */
  EXPECT_EQ( view.controls.data(), circuit.core().columns().operands.data() );
  ASSERT_EQ( view.controls.size(), 2u );
  EXPECT_EQ( view.controls[0], 0u );
  EXPECT_EQ( view.controls[1], 1u );
}

TEST( circuit_ir_test, angle_pool_deduplicates )
{
  qcircuit circuit( 2u );
  circuit.rz( 0u, 0.25 );
  circuit.rz( 1u, 0.25 );
  circuit.rz( 0u, 0.5 );
  EXPECT_EQ( circuit.core().columns().angles.size(), 2u );
  EXPECT_EQ( circuit.gate( 1u ).angle, 0.25 );
  EXPECT_EQ( circuit.gate( 2u ).angle, 0.5 );
}

TEST( circuit_ir_test, gates_view_equality_is_structural )
{
  qcircuit a( 2u );
  a.h( 0u );
  a.cx( 0u, 1u );
  qcircuit b( 2u );
  b.h( 0u );
  b.cx( 0u, 1u );
  EXPECT_TRUE( a.gates() == b.gates() );
  b.t( 1u );
  EXPECT_FALSE( a.gates() == b.gates() );
}

TEST( circuit_ir_test, circuit_cast_runs_the_rptm_lowering )
{
  rev_circuit circuit( 3u );
  circuit.add_toffoli( 0u, 1u, 2u );
  circuit.add_cnot( 0u, 1u );

  const auto via_cast = circuit_cast<clifford_t_result>( circuit );
  const auto direct = map_to_clifford_t( circuit );
  EXPECT_EQ( via_cast.num_helper_qubits, direct.num_helper_qubits );
  EXPECT_TRUE( via_cast.circuit == direct.circuit );

  const auto circuit_only = circuit_cast<qcircuit>( circuit );
  EXPECT_TRUE( circuit_only == direct.circuit );
}

TEST( circuit_ir_test, rewriter_revsimp_matches_legacy_reference )
{
  std::mt19937_64 rng( 7u );
  for ( uint32_t trial = 0u; trial < 50u; ++trial )
  {
    rev_circuit circuit( 4u );
    for ( uint32_t g = 0u; g < 24u; ++g )
    {
      const uint32_t target = rng() % 4u;
      const uint64_t controls = rng() & 0xfu & ~( uint64_t{ 1 } << target );
      circuit.add_gate( rev_gate( controls, rng() & 0xfu, target ) );
    }
    const auto baseline = reference::revsimp( circuit );
    rev_circuit in_place( circuit );
    revsimp_in_place( in_place );
    EXPECT_TRUE( revsimp( circuit ) == in_place ); /* wrapper == in-place */
    EXPECT_TRUE( equivalent( circuit, in_place ) );
    EXPECT_TRUE( equivalent( baseline, in_place ) );
    /* ESOP merging is not confluent, so the two scan orders may settle
     * on different fixpoints; across 500 sampled circuits the count
     * never differed by more than one gate in either direction */
    EXPECT_LE( in_place.num_gates(), baseline.num_gates() + 1u );
  }

  /* full-cancellation family: both must collapse to nothing */
  rev_circuit mirror( 4u );
  std::vector<rev_gate> half;
  for ( uint32_t g = 0u; g < 16u; ++g )
  {
    const uint32_t target = rng() % 4u;
    const uint64_t controls = rng() & 0xfu & ~( uint64_t{ 1 } << target );
    const rev_gate gate( controls, rng() & 0xfu, target );
    mirror.add_gate( gate );
    half.push_back( gate );
  }
  for ( auto it = half.rbegin(); it != half.rend(); ++it )
  {
    mirror.add_gate( *it );
  }
  EXPECT_EQ( reference::revsimp( mirror ).num_gates(), 0u );
  rev_circuit collapsed( mirror );
  revsimp_in_place( collapsed );
  EXPECT_EQ( collapsed.num_gates(), 0u );
}

TEST( circuit_ir_test, in_place_peephole_and_folding_preserve_semantics )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.t( 0u );
  circuit.cx( 0u, 1u );
  circuit.t( 1u );
  circuit.cx( 0u, 1u );
  circuit.tdg( 1u );
  circuit.h( 2u );
  circuit.h( 2u );

  qcircuit optimized( circuit );
  peephole_in_place( optimized );
  phase_folding_in_place( optimized );
  EXPECT_LT( optimized.num_gates(), circuit.num_gates() );
  EXPECT_TRUE( circuits_equivalent( circuit, optimized ) );
}

TEST( circuit_ir_test, qcircuit_inverse_matches_adjoint_parity )
{
  qcircuit circuit( 2u );
  circuit.h( 0u );
  circuit.t( 0u );
  circuit.cx( 0u, 1u );
  circuit.rz( 1u, 0.3 );

  EXPECT_TRUE( circuit.inverse() == circuit.adjoint() );

  qcircuit composed( 2u );
  composed.append( circuit );
  composed.append( circuit.inverse() );
  EXPECT_TRUE( circuits_equivalent( composed, qcircuit( 2u ) ) );
}

TEST( circuit_ir_test, swap_builder_emits_swap_gate )
{
  qcircuit circuit( 2u );
  circuit.swap_( 0u, 1u );
  EXPECT_EQ( circuit.gate( 0u ).kind, gate_kind::swap );
}

TEST( circuit_ir_test, self_referencing_views_and_self_append_are_safe )
{
  qcircuit circuit( 4u );
  circuit.mcx( { 0u, 1u, 2u }, 3u );
  circuit.h( 0u );
  /* duplicating a gate through its own view must not corrupt the slab,
   * even when the slab reallocates mid-append */
  for ( uint32_t rep = 0u; rep < 64u; ++rep )
  {
    circuit.add_gate( circuit.gate( 0u ) );
  }
  ASSERT_EQ( circuit.num_gates(), 66u );
  const auto last = circuit.gate( 65u );
  ASSERT_EQ( last.controls.size(), 3u );
  EXPECT_EQ( last.controls[2], 2u );

  qcircuit doubled( 2u );
  doubled.cx( 0u, 1u );
  doubled.t( 1u );
  doubled.append( doubled ); /* self-append: snapshot, then copy */
  ASSERT_EQ( doubled.num_gates(), 4u );
  EXPECT_EQ( doubled.gate( 2u ).kind, gate_kind::cx );
  EXPECT_EQ( doubled.gate( 2u ).controls[0], 0u );

  rev_circuit rev_doubled( 2u );
  rev_doubled.add_cnot( 0u, 1u );
  rev_doubled.append( rev_doubled );
  EXPECT_EQ( rev_doubled.num_gates(), 2u );
  EXPECT_EQ( rev_doubled.gate( 1u ), rev_gate::cnot( 0u, 1u ) );
}

TEST( circuit_ir_test, prepend_shifts_every_gate_up_one_slot )
{
  qcircuit circuit( 3u );
  circuit.cx( 0u, 1u );
  circuit.h( 2u );
  qgate first;
  first.kind = gate_kind::mcx;
  first.controls = { 1u, 2u };
  first.target = 0u;
  circuit.core().prepend( first );
  ASSERT_EQ( circuit.core().num_slots(), 3u );
  EXPECT_EQ( circuit.gate( 0u ).materialize(), first );
  EXPECT_EQ( circuit.gate( 1u ).kind, gate_kind::cx );
  EXPECT_EQ( circuit.gate( 1u ).controls[0], 0u );
  EXPECT_EQ( circuit.gate( 2u ).kind, gate_kind::h );

  /* the prepended row's controls sit at the slab's end; an erase-only
   * commit still leaves the slab in row order */
  {
    auto rewriter = circuit.rewrite();
    rewriter.erase_slot( 2u );
  }
  EXPECT_EQ( circuit.core().columns().operands, ( std::vector<uint32_t>{ 1u, 2u, 0u } ) );
  EXPECT_EQ( circuit.gate( 1u ).controls[0], 0u );

  rev_circuit rev( 2u );
  rev.add_cnot( 0u, 1u );
  rev.prepend_gate( rev_gate::not_gate( 0u ) );
  EXPECT_EQ( rev.gate( 0u ), rev_gate::not_gate( 0u ) );
  EXPECT_EQ( rev.gate( 1u ), rev_gate::cnot( 0u, 1u ) );
}

/* ---------------- frozen snapshots ---------------- */

using frozen_cliffordt = ir::frozen_circuit<ir::cliffordt_policy>;
using frozen_mct = ir::frozen_circuit<ir::mct_policy>;

/*! Seeded random rows over every gate kind, appended unchecked (the
 *  codec must round-trip any row the columns can hold). */
qcircuit random_quantum_circuit( uint32_t num_wires, size_t num_gates, uint64_t seed )
{
  std::mt19937_64 rng( seed );
  const auto wire = [&] { return static_cast<uint32_t>( rng() % num_wires ); };
  const auto distinct_wires = [&]( size_t count ) {
    count = std::min<size_t>( count, num_wires );
    std::vector<uint32_t> wires;
    while ( wires.size() < count )
    {
      const auto w = wire();
      if ( std::find( wires.begin(), wires.end(), w ) == wires.end() )
      {
        wires.push_back( w );
      }
    }
    return wires;
  };
  const double angles[] = { -0.0,    0.0,    std::numbers::pi / 4.0, -1.0e-300,
                            3.0e17, std::nextafter( 1.0, 2.0 ) };
  qcircuit circuit( num_wires );
  for ( size_t i = 0u; i < num_gates; ++i )
  {
    qgate gate;
    constexpr uint32_t num_kinds = static_cast<uint32_t>( gate_kind::global_phase ) + 1u;
    gate.kind = static_cast<gate_kind>( rng() % num_kinds );
    switch ( gate.kind )
    {
    case gate_kind::cx:
    case gate_kind::cz:
    {
      const auto wires = distinct_wires( 2u );
      gate.controls = { wires[0] };
      gate.target = wires[1];
      break;
    }
    case gate_kind::mcx:
    case gate_kind::mcz:
    {
      auto wires = distinct_wires( 2u + rng() % 4u );
      gate.target = wires.back();
      wires.pop_back();
      gate.controls = wires;
      break;
    }
    case gate_kind::swap:
    {
      const auto wires = distinct_wires( 2u );
      gate.target = wires[0];
      gate.target2 = wires[1];
      break;
    }
    case gate_kind::rx:
    case gate_kind::ry:
    case gate_kind::rz:
    case gate_kind::global_phase:
      gate.target = wire();
      gate.angle = rng() % 2u == 0u ? angles[rng() % std::size( angles )]
                                     : std::ldexp( static_cast<double>( rng() >> 11u ), -40 );
      break;
    case gate_kind::measure:
      gate.target = wire();
      gate.target2 = wire(); /* classical bit */
      break;
    default:
      gate.target = wire();
      break;
    }
    circuit.core().append( gate );
  }
  return circuit;
}

uint64_t angle_bits( const qcircuit& circuit, uint32_t slot )
{
  return std::bit_cast<uint64_t>( circuit.core().columns().angle_of( slot ) );
}

/*! thaw(freeze(c)) == c, gate count equal and every angle bit-identical
 *  (the thawed circuit is compacted, so its slot i is c's i-th alive row). */
void expect_round_trip( const qcircuit& circuit )
{
  const auto frozen = frozen_cliffordt::freeze( circuit.core() );
  const qcircuit thawed( frozen.thaw() );
  ASSERT_EQ( frozen.num_gates(), circuit.num_gates() );
  ASSERT_EQ( thawed.num_gates(), circuit.num_gates() );
  EXPECT_EQ( thawed.num_qubits(), circuit.num_qubits() );
  EXPECT_TRUE( thawed == circuit );
  EXPECT_EQ( thawed.core().num_tombstones(), 0u );
  uint32_t slot = 0u;
  for ( auto it = circuit.gates().begin(); it != circuit.gates().end(); ++it, ++slot )
  {
    ASSERT_EQ( angle_bits( thawed, slot ), angle_bits( circuit, it.slot() ) ) << "row " << slot;
    ASSERT_EQ( thawed.core().columns().angle_index[slot] == ir::npos,
               circuit.core().columns().angle_index[it.slot()] == ir::npos );
    EXPECT_TRUE( thawed.core().slot_alive( slot ) );
    EXPECT_TRUE( ir::cliffordt_policy::rows_equal( thawed.core().columns(), slot,
                                                   circuit.core().columns(), it.slot() ) );
  }
}

TEST( frozen_circuit_test, random_circuits_round_trip_over_every_gate_kind )
{
  for ( uint64_t seed = 1u; seed <= 20u; ++seed )
  {
    SCOPED_TRACE( seed );
    const auto wires = 6u + static_cast<uint32_t>( seed % 9u );
    expect_round_trip( random_quantum_circuit( wires, 400u, seed ) );
  }
  expect_round_trip( qcircuit( 5u ) ); /* empty */
}

TEST( frozen_circuit_test, uncommitted_tombstones_and_stranded_operands_are_skipped )
{
  for ( uint64_t seed = 1u; seed <= 10u; ++seed )
  {
    SCOPED_TRACE( seed );
    auto circuit = random_quantum_circuit( 8u, 300u, 100u + seed );
    std::mt19937_64 rng( seed );
    auto rewriter = circuit.rewrite();
    for ( uint32_t slot = 0u; slot < circuit.core().num_slots(); ++slot )
    {
      if ( rng() % 3u == 0u )
      {
        rewriter.erase_slot( slot );
      }
      else if ( rng() % 5u == 0u )
      {
        /* a shrinking replace strands slab entries */
        qgate h;
        h.kind = gate_kind::h;
        h.target = slot % 8u;
        rewriter.replace_slot( slot, h );
      }
    }
    ASSERT_GT( circuit.core().num_tombstones(), 0u );
    expect_round_trip( circuit ); /* before the rewriter commits */
  }
}

TEST( circuit_ir_test, peephole_over_every_gate_kind_matches_the_pinned_sequence )
{
  /* barriers fence every wire, measurements block their wire, global
   * phases are transparent; one hash over seeded random circuits pins
   * which pairs cancel and the order of the survivors */
  uint64_t combined = 14695981039346656037ull;
  size_t gates = 0u;
  for ( uint64_t seed = 1u; seed <= 20u; ++seed )
  {
    for ( const uint32_t wires : { 2u, 3u, 8u } )
    {
      auto circuit = random_quantum_circuit( wires, 400u, 1000u * wires + seed );
      peephole_in_place( circuit );
      gates += circuit.num_gates();
      combined = ( combined ^ gate_sequence_hash( circuit ) ) * 1099511628211ull;
    }
  }
  EXPECT_EQ( gates, 23172u );
  EXPECT_EQ( combined, 0xe59548b9640f7ea1ull ) << std::hex << combined << std::dec << " " << gates;
}

TEST( circuit_ir_test, peephole_skips_uncommitted_tombstones )
{
  for ( uint64_t seed = 1u; seed <= 10u; ++seed )
  {
    SCOPED_TRACE( seed );
    const auto source = random_quantum_circuit( 3u, 400u, 500u + seed );
    const auto erase_some = [&]( qcircuit::rewriter& rewriter ) {
      std::mt19937_64 rng( seed );
      for ( uint32_t slot = 0u; slot < source.core().num_slots(); ++slot )
      {
        if ( rng() % 4u == 0u )
        {
          rewriter.erase_slot( slot );
        }
      }
    };
    auto compacted = source;
    {
      auto rewriter = compacted.rewrite();
      erase_some( rewriter );
    }
    peephole_in_place( compacted );

    auto tombstoned = source;
    auto rewriter = tombstoned.rewrite();
    erase_some( rewriter );
    ASSERT_GT( tombstoned.core().num_tombstones(), 0u );
    peephole_in_place( tombstoned ); /* before the outer rewriter commits */
    EXPECT_TRUE( tombstoned.gates() == compacted.gates() );
  }
}

TEST( frozen_circuit_test, operand_width_follows_the_widest_wire )
{
  const auto narrow = random_quantum_circuit( 256u, 500u, 7u );
  const auto wide = random_quantum_circuit( 300u, 500u, 8u );
  const auto huge = random_quantum_circuit( 70000u, 200u, 9u );
  EXPECT_EQ( frozen_cliffordt::freeze( narrow.core() ).width(), 1u );
  EXPECT_EQ( frozen_cliffordt::freeze( wide.core() ).width(), 2u );
  EXPECT_EQ( frozen_cliffordt::freeze( huge.core() ).width(), 4u );
  expect_round_trip( narrow );
  expect_round_trip( wide );
  expect_round_trip( huge );
}

TEST( frozen_circuit_test, lowered_clifford_t_costs_under_three_bytes_per_gate )
{
  std::mt19937_64 rng( 11u );
  rev_circuit mct( 8u );
  for ( int i = 0; i < 200; ++i )
  {
    const auto target = static_cast<uint32_t>( rng() % 8u );
    const auto controls = ( rng() & 0xFFu ) & ~( uint64_t{ 1 } << target );
    mct.add_gate( rev_gate( controls, controls & rng(), target ) );
  }
  const auto lowered = map_to_clifford_t( mct ).circuit;
  const auto frozen = frozen_cliffordt::freeze( lowered.core() );
  ASSERT_GT( frozen.num_gates(), 1000u );
  EXPECT_LE( static_cast<double>( frozen.bytes() ) / static_cast<double>( frozen.num_gates() ),
             3.0 );
  EXPECT_TRUE( qcircuit( frozen.thaw() ) == lowered );
}

TEST( circuit_ir_test, committed_lowered_clifford_t_holds_at_most_32_bytes_per_gate )
{
  /* a live row is its columns plus one tombstone byte: kind, target,
   * target2, slab offset and count, pool index, and the slab's share */
  std::mt19937_64 rng( 11u );
  rev_circuit mct( 8u );
  for ( int i = 0; i < 200; ++i )
  {
    const auto target = static_cast<uint32_t>( rng() % 8u );
    const auto controls = ( rng() & 0xFFu ) & ~( uint64_t{ 1 } << target );
    mct.add_gate( rev_gate( controls, controls & rng(), target ) );
  }
  auto lowered = map_to_clifford_t( mct ).circuit;
  const auto before = lowered.num_gates();
  peephole_in_place( lowered );
  ASSERT_GT( lowered.num_gates(), 1000u );
  ASSERT_LT( lowered.num_gates(), before ); /* the commit erased rows */
  EXPECT_EQ( lowered.core().num_tombstones(), 0u );
  const double per_gate = static_cast<double>( lowered.core().heap_bytes() ) /
                          static_cast<double>( lowered.num_gates() );
  EXPECT_LE( per_gate, 32.0 );
}

TEST( frozen_circuit_test, mct_circuits_round_trip_with_tombstones )
{
  for ( uint32_t lines : { 3u, 8u, 9u, 40u, 64u } )
  {
    SCOPED_TRACE( lines );
    std::mt19937_64 rng( lines );
    rev_circuit circuit( lines );
    for ( int i = 0; i < 300; ++i )
    {
      const auto target = static_cast<uint32_t>( rng() % lines );
      const uint64_t lines_mask = lines == 64u ? ~uint64_t{ 0 } : ( uint64_t{ 1 } << lines ) - 1u;
      const auto controls = rng() & lines_mask & ~( uint64_t{ 1 } << target );
      circuit.add_gate( rev_gate( controls, controls & rng(), target ) );
    }
    auto rewriter = circuit.rewrite();
    for ( uint32_t slot = 0u; slot < circuit.core().num_slots(); slot += 3u )
    {
      rewriter.erase_slot( slot );
    }
    const auto frozen = frozen_mct::freeze( circuit.core() );
    const rev_circuit thawed( frozen.thaw() );
    EXPECT_EQ( thawed.num_gates(), circuit.num_gates() );
    EXPECT_EQ( thawed.num_lines(), lines );
    EXPECT_TRUE( thawed == circuit );
    if ( lines <= 8u )
    {
      EXPECT_EQ( frozen.bytes(), 3u * frozen.num_gates() );
    }
  }
}

} // namespace
} // namespace qda
