#include "mapping/clifford_t.hpp"

#include "kernel/bits.hpp"
#include "library/subcircuit_library.hpp"
#include "mapping/ancilla.hpp"

#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace qda
{

uint64_t mct_t_count( uint32_t num_controls, bool use_relative_phase )
{
  return mct_lowering_cost( num_controls, mct_strategy::clean, use_relative_phase ).t_count;
}

namespace
{

mct_emit_options emit_options_of( const clifford_t_options& options )
{
  return { options.use_relative_phase, options.keep_toffoli, options.strategy,
           options.weights };
}

/*! Entries mapped under different options must never alias: the tag
 *  spells every knob the emission depends on (weights as exact bits). */
std::string rptm_library_tag( const clifford_t_options& options )
{
  std::string tag = "rptm|";
  tag += options.use_relative_phase ? 'r' : '-';
  tag += options.keep_toffoli ? 'k' : '-';
  tag += mct_strategy_name( options.strategy );
  tag += '|';
  const double weights[4] = { options.weights.t, options.weights.cnot,
                              options.weights.h, options.weights.depth };
  char bytes[sizeof( weights )];
  std::memcpy( bytes, weights, sizeof( weights ) );
  tag.append( bytes, sizeof( weights ) );
  tag += "|q";
  tag += options.max_qubits ? std::to_string( *options.max_qubits ) : "-";
  return tag;
}

void append_x( qcircuit& out, uint32_t line )
{
  out.core().emplace( gate_kind::x, std::span<const uint32_t>{}, line, 0u, 0.0 );
}

/*! Rows one k-control gate emits under the clean V-chain, which the
 *  default weights pick whenever helpers can be had.  The entry points
 *  size the output columns from it once; growing them by doubling made
 *  the hwb-7 rptm about 1.6x slower (4-core x86-64, Release).  Other
 *  strategies emit more, and the columns then grow as usual. */
uint64_t clean_chain_rows( uint32_t num_controls, const clifford_t_options& options )
{
  if ( options.keep_toffoli )
  {
    return num_controls < 2u ? 1u : 2u * num_controls - 3u; /* one row per Toffoli */
  }
  /* the serialized primitive count of the chain is its row count */
  return mct_lowering_cost( num_controls, mct_strategy::clean, options.use_relative_phase )
      .depth;
}

/*! Source gates between two cancellation polls: one gate can emit a
 *  few hundred rows, so this bounds a poll's lag to tens of
 *  microseconds. */
constexpr uint32_t cancel_stride = 64u;

} // namespace

clifford_t_result map_to_clifford_t( const rev_circuit& source, const clifford_t_options& options )
{
  const uint32_t num_lines = source.num_lines();

  phasepoly::splice_probe probe;
  if ( options.library )
  {
    /* whole-input tier: a verified hit of this exact input replays
     * the stored Clifford+T circuit and skips emission entirely */
    qcircuit spliced( num_lines );
    uint32_t num_helpers = 0u;
    if ( options.library->splice_rev_mapping( source, rptm_library_tag( options ), probe,
                                              spliced, num_helpers ) )
    {
      return { std::move( spliced ), num_helpers };
    }
  }
  ancilla_manager ancillas( num_lines, options.max_qubits );
  const auto emit_options = emit_options_of( options );
  qcircuit out( num_lines );
  uint64_t rows = num_lines; /* the final flush of pending flips */
  for ( const auto& gate : source.gates() )
  {
    /* every control may resolve one pending flip */
    const uint32_t k = popcount64( gate.controls );
    rows += k + clean_chain_rows( k, options );
  }
  out.core().reserve( rows );

  /* Lazy X conjugation of negative controls: bit `line` set means an X
   * is pending on that line.  A pending flip is only resolved when a
   * gate controls on the line in the other polarity -- consecutive
   * gates sharing negative controls emit no X pairs between them.
   * Pending flips commute with gates that use the line as target or
   * borrow it as a (state-restoring) dirty ancilla. */
  uint64_t flipped = 0u;
  std::vector<uint32_t> controls;
  controls.reserve( num_lines );
  cancel_checkpoint checkpoint( cancel_stride );

  for ( const auto& gate : source.gates() )
  {
    if ( checkpoint.due() )
    {
      options.cancel.check( "rptm" );
    }
    controls.clear();
    for ( uint64_t mask = gate.controls; mask != 0u; mask &= mask - 1u )
    {
      const uint32_t line = least_significant_bit( mask );
      controls.push_back( line );
      /* a flip must be pending exactly on the negative controls */
      const uint64_t bit = uint64_t{ 1 } << line;
      if ( ( flipped ^ ~gate.polarity ) & bit )
      {
        append_x( out, line );
        flipped ^= bit;
      }
    }
    emit_mct_gate( out, ancillas, controls, gate.target, emit_options );
  }
  for ( ; flipped != 0u; flipped &= flipped - 1u )
  {
    append_x( out, least_significant_bit( flipped ) );
  }
  clifford_t_result result{ std::move( out ), ancillas.num_helpers() };
  if ( options.library && probe.valid )
  {
    options.library->offer_rev_mapping( probe, result.circuit, result.num_helper_qubits );
  }
  return result;
}

clifford_t_result lower_multi_controlled_gates( const qcircuit& source,
                                                const clifford_t_options& options )
{
  ancilla_manager ancillas( source.num_qubits(), options.max_qubits );
  const auto emit_options = emit_options_of( options );
  qcircuit out( source.num_qubits() );
  uint64_t rows = 0u;
  for ( const auto& gate : source.gates() )
  {
    const bool multi = gate.kind == gate_kind::mcx || gate.kind == gate_kind::mcz;
    rows += multi ? clean_chain_rows( static_cast<uint32_t>( gate.controls.size() ), options )
                  : 1u;
    rows += gate.kind == gate_kind::mcz ? 2u : 0u;
  }
  out.core().reserve( rows );
  cancel_checkpoint checkpoint( cancel_stride );

  for ( const auto& gate : source.gates() )
  {
    if ( checkpoint.due() )
    {
      options.cancel.check( "lower" );
    }
    switch ( gate.kind )
    {
    case gate_kind::mcx:
      emit_mct_gate( out, ancillas, gate.controls, gate.target, emit_options );
      break;
    case gate_kind::mcz:
      out.core().emplace( gate_kind::h, std::span<const uint32_t>{}, gate.target, 0u, 0.0 );
      emit_mct_gate( out, ancillas, gate.controls, gate.target, emit_options );
      out.core().emplace( gate_kind::h, std::span<const uint32_t>{}, gate.target, 0u, 0.0 );
      break;
    default:
      out.core().emplace( gate.kind, gate.controls, gate.target, gate.target2, gate.angle );
      break;
    }
  }
  return { std::move( out ), ancillas.num_helpers() };
}

} // namespace qda
