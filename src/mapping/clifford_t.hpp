/*! \file clifford_t.hpp
 *  \brief Mapping reversible MCT circuits into Clifford+T quantum circuits.
 *
 *  This is the `rptm` stage of the paper's Eq. (5) pipeline: Toffoli
 *  gates are expressed over {H, T, T^dagger, CNOT} (refs [40]-[42]).
 *  Multiple-controlled gates go through the strategy-dispatched lowerer
 *  (mapping/mct_lowering.hpp): a per-gate cost model picks between the
 *  clean V-chain (relative-phase Toffolis by default, Maslov [42]), the
 *  Barenco dirty-ancilla chain, and the ancilla-free recursive split,
 *  subject to the ancilla manager's qubit budget.  Negative controls
 *  are conjugated with X lazily: a flip stays pending until a gate
 *  needs the line in the opposite polarity, so back-to-back gates
 *  sharing negative controls emit no cancelling X pairs.
 *
 *  Both entry points emit straight into the IR columns of the result
 *  circuit: controls come from the gate's mask bits into one reused
 *  buffer, and each primitive appends its rows in place.  Both poll
 *  `clifford_t_options::cancel` every few source gates.
 */
#pragma once

#include "circuit/circuit_cast.hpp"
#include "fault/cancel.hpp"
#include "mapping/mct_lowering.hpp"
#include "quantum/qcircuit.hpp"
#include "reversible/rev_circuit.hpp"

#include <optional>

namespace qda::library
{
class subcircuit_library;
}

namespace qda
{

/*! \brief Options of the Clifford+T mapping. */
struct clifford_t_options
{
  /*! Use relative-phase Toffolis for compute/uncompute pairs ([42]). */
  bool use_relative_phase = true;
  /*! Keep ccx/mcx as opaque gates instead of expanding to Clifford+T
   *  (useful when a later pass or backend handles them natively). */
  bool keep_toffoli = false;
  /*! Lowering strategy; `automatic` picks per gate by weighted cost. */
  mct_strategy strategy = mct_strategy::automatic;
  /*! Cost-model weights (take them from `target::cost_weights()` to
   *  map for a specific backend). */
  mapping_cost_weights weights{};
  /*! Total qubit budget (data lines + helpers), e.g. the device size.
   *  Unset = clean helpers may grow freely. */
  std::optional<uint32_t> max_qubits{};
  /*! Cross-compilation subcircuit library: an rptm input mapped
   *  before (the exact circuit, under the same options) splices the
   *  stored Clifford+T circuit, skipping emission entirely.  Null
   *  disables it. */
  library::subcircuit_library* library = nullptr;
  /*! Cooperative cancellation, polled in the emission loops. */
  cancel_token cancel{};
};

/*! \brief Result of the mapping. */
struct clifford_t_result
{
  qcircuit circuit;            /*!< Clifford+T circuit */
  uint32_t num_helper_qubits;  /*!< clean helpers appended after the lines */
};

/*! \brief Maps an MCT circuit to Clifford+T.
 *
 *  The result acts on `circuit.num_lines()` + helpers qubits; helpers
 *  start and end in |0>.
 */
clifford_t_result map_to_clifford_t( const rev_circuit& circuit,
                                     const clifford_t_options& options = {} );

/*! \brief Expands all mcx/mcz gates of a quantum circuit into Clifford+T,
 *         appending clean helper qubits as needed (mcz is H-conjugated
 *         into mcx first).  Other gates pass through unchanged.
 */
clifford_t_result lower_multi_controlled_gates( const qcircuit& circuit,
                                                const clifford_t_options& options = {} );

/*! \brief T-count of one k-control MCT under the clean V-chain (legacy
 *         shorthand for `mct_lowering_cost(k, clean, rp).t_count`).
 */
uint64_t mct_t_count( uint32_t num_controls, bool use_relative_phase = true );

/*! \brief `circuit_cast` lowering of the `rptm` stage: reversible MCT
 *         level down to Clifford+T (with helper-qubit bookkeeping).
 */
template<>
struct circuit_lowering<clifford_t_result, rev_circuit>
{
  static clifford_t_result apply( const rev_circuit& circuit,
                                  const clifford_t_options& options = {} )
  {
    return map_to_clifford_t( circuit, options );
  }
};

/*! \brief Same lowering when only the quantum circuit is needed. */
template<>
struct circuit_lowering<qcircuit, rev_circuit>
{
  static qcircuit apply( const rev_circuit& circuit, const clifford_t_options& options = {} )
  {
    return map_to_clifford_t( circuit, options ).circuit;
  }
};

/*! \brief `circuit_cast` lowering of in-circuit mcx/mcz gates. */
template<>
struct circuit_lowering<clifford_t_result, qcircuit>
{
  static clifford_t_result apply( const qcircuit& circuit,
                                  const clifford_t_options& options = {} )
  {
    return lower_multi_controlled_gates( circuit, options );
  }
};

} // namespace qda
