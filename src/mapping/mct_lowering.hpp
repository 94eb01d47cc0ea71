/*! \file mct_lowering.hpp
 *  \brief Strategy-dispatched lowering of multiple-controlled Toffolis.
 *
 *  One k-control Toffoli admits several Clifford+T realizations with
 *  very different resource trades (Barenco et al. [40], Maslov [42]):
 *
 *  - `clean`: the V-chain over k-2 clean |0> helpers; cheapest in T
 *    gates (relative-phase compute/uncompute pairs halve the T-count)
 *    but widest.
 *  - `dirty`: Barenco's borrowed-ancilla chain; k-2 *idle* circuit
 *    wires in arbitrary states stand in for the helpers, each interior
 *    Toffoli runs twice, so the gate costs ~4x more T but adds no
 *    qubits.
 *  - `recursive`: the ancilla-free split Λ_k = T1 T2 T1 T2 with the
 *    controls halved; needs only a single idle wire, the two halves
 *    borrow their scratch from each other's controls.
 *  - `automatic`: per-gate selection by weighted T/CNOT/H/depth cost
 *    among the strategies feasible under the current ancilla budget.
 *
 *  Emission appends rows straight into the IR columns of the output
 *  `qcircuit` (no intermediate gate objects, no per-gate heap vector);
 *  the output widens as clean helpers are acquired.  The 7-T Toffoli
 *  and the 4-T relative-phase Toffoli below are the only primitives.
 *
 *  `mct_lowering_cost` is the analytic cost table behind the selection;
 *  tests pin its T/CNOT/H predictions to the actually emitted circuits.
 */
#pragma once

#include "mapping/ancilla.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace qda
{

class qcircuit;

/*! \brief How one multiple-controlled Toffoli is realized. */
enum class mct_strategy : uint8_t
{
  automatic, /*!< per-gate minimum-cost feasible strategy */
  clean,     /*!< V-chain over clean |0> helpers (k-2 ancillas) */
  dirty,     /*!< Barenco borrowed-ancilla chain (k-2 idle wires) */
  recursive  /*!< ancilla-free split (1 idle wire) */
};

/*! \brief Printable strategy name. */
const char* mct_strategy_name( mct_strategy strategy );

/*! \brief Parses a strategy name ("auto" accepted for automatic). */
std::optional<mct_strategy> parse_mct_strategy( const std::string& name );

/*! \brief Weights of the mapping cost model.
 *
 *  Execution targets expose their weights through
 *  `target::cost_weights()`: a noisy device is dominated by two-qubit
 *  error rates, a fault-tolerant cost model by T-count.
 */
struct mapping_cost_weights
{
  double t = 1.0;     /*!< per T/T-dagger gate */
  double cnot = 1.0;  /*!< per CNOT */
  double h = 0.1;     /*!< per Hadamard */
  double depth = 0.0; /*!< per estimated sequential stage */

  /*! \brief Weights of a noisy NISQ device (CNOT-dominated). */
  static mapping_cost_weights noisy_device() { return { 1.0, 10.0, 0.5, 0.0 }; }

  /*! \brief Weights of a fault-tolerant backend (T-dominated). */
  static mapping_cost_weights fault_tolerant() { return { 10.0, 1.0, 0.1, 0.0 }; }
};

/*! \brief Analytic resources of lowering one k-control Toffoli. */
struct mct_cost
{
  uint64_t t_count = 0u;
  uint64_t cnot_count = 0u;
  uint64_t h_count = 0u;
  /*! Estimated sequential stages (serialized primitive gate count). */
  uint64_t depth = 0u;
  uint32_t clean_ancillas = 0u; /*!< clean helpers required */
  uint32_t dirty_ancillas = 0u; /*!< idle wires borrowed */

  double weighted( const mapping_cost_weights& weights ) const
  {
    return weights.t * static_cast<double>( t_count ) +
           weights.cnot * static_cast<double>( cnot_count ) +
           weights.h * static_cast<double>( h_count ) +
           weights.depth * static_cast<double>( depth );
  }
};

/*! \brief Cost table of the lowering strategies.
 *
 *  `strategy` must be concrete (not `automatic`); `use_relative_phase`
 *  only affects the clean V-chain, whose compute/uncompute Toffolis it
 *  replaces by 4-T relative-phase ones.
 */
mct_cost mct_lowering_cost( uint32_t num_controls, mct_strategy strategy,
                            bool use_relative_phase = true );

/*! \brief Minimum-cost strategy among those feasible with
 *         `clean_available` obtainable helpers and `idle_available`
 *         borrowable wires.  Returns nullopt if no strategy fits
 *         (gate spans every wire and the qubit budget is exhausted).
 */
std::optional<mct_strategy> select_mct_strategy( uint32_t num_controls, uint32_t clean_available,
                                                 uint32_t idle_available,
                                                 const mapping_cost_weights& weights,
                                                 bool use_relative_phase );

/*! \brief Options of the strategy-dispatched MCT emission. */
struct mct_emit_options
{
  bool use_relative_phase = true;
  bool keep_toffoli = false; /*!< keep ccx opaque instead of 7-T expansion */
  mct_strategy strategy = mct_strategy::automatic;
  mapping_cost_weights weights{};
};

/*! \brief Appends one multi-controlled X (positive controls) to `out`,
 *         drawing scratch qubits from `ancillas`.
 *
 *  `out` is widened to `ancillas.num_wires()` when the gate acquires
 *  clean helpers.  A forced strategy falls back to the cheapest
 *  feasible one when its ancilla requirement cannot be met for this
 *  particular gate; throws std::invalid_argument when no strategy fits
 *  at all.
 */
void emit_mct_gate( qcircuit& out, ancilla_manager& ancillas,
                    std::span<const uint32_t> controls, uint32_t target,
                    const mct_emit_options& options );

/* ---- Clifford+T primitives (shared with tests and peepholes) ---- */

/*! \brief Appends the textbook 7-T Toffoli decomposition.  Throws
 *         std::invalid_argument unless the three qubits are distinct
 *         wires of `circuit`.
 */
void append_toffoli_clifford_t( qcircuit& circuit, uint32_t c0, uint32_t c1, uint32_t target );

/*! \brief Appends Maslov's 4-T relative-phase Toffoli (or its adjoint,
 *         which is the same cascade).  Operands are checked as for
 *         `append_toffoli_clifford_t`.
 */
void append_relative_phase_toffoli( qcircuit& circuit, uint32_t c0, uint32_t c1, uint32_t target,
                                    bool adjoint = false );

} // namespace qda
