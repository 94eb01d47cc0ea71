/*! \file rev_circuit.hpp
 *  \brief Reversible circuits: cascades of MCT gates over n lines.
 *
 *  A reversible circuit computes a permutation of the 2^n basis states
 *  by composing its gates left to right.  This is the intermediate
 *  representation between Boolean-function-level synthesis and the
 *  quantum (Clifford+T) level: circuits produced by the algorithms in
 *  src/synthesis/ are later mapped gate-by-gate by src/mapping/.
 *
 *  Since the unified-IR redesign this class is a thin typed facade over
 *  `qda::ir::circuit<mct_policy>`: gates live in struct-of-arrays
 *  columns, `gates()` is a zero-copy view, and passes mutate in place
 *  through `rewrite()` instead of rebuilding gate vectors.
 */
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/mct_policy.hpp"
#include "kernel/permutation.hpp"
#include "kernel/truth_table.hpp"
#include "reversible/rev_gate.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace qda
{

/*! \brief A cascade of MCT gates. */
class rev_circuit
{
public:
  using core_type = ir::circuit<ir::mct_policy>;
  using gates_view = core_type::gates_view;
  using rewriter = core_type::rewriter;

  explicit rev_circuit( uint32_t num_lines );

  /*! \brief Adopts a built core (e.g. one thawed from a snapshot). */
  explicit rev_circuit( core_type core ) : core_( std::move( core ) ) {}

  uint32_t num_lines() const noexcept { return core_.num_wires(); }
  size_t num_gates() const noexcept { return core_.num_gates(); }
  bool empty() const noexcept { return core_.empty(); }

  /*! \brief Zero-copy view of the alive gates in circuit order. */
  gates_view gates() const noexcept { return core_.gates(); }
  rev_gate gate( size_t index ) const;

  /*! \brief Appends a gate (validates line indices). */
  void add_gate( const rev_gate& gate );

  void add_not( uint32_t target ) { add_gate( rev_gate::not_gate( target ) ); }
  void add_cnot( uint32_t control, uint32_t target )
  {
    add_gate( rev_gate::cnot( control, target ) );
  }
  void add_toffoli( uint32_t control0, uint32_t control1, uint32_t target )
  {
    add_gate( rev_gate::toffoli( control0, control1, target ) );
  }

  /*! \brief Appends all gates of `other` (line counts must agree). */
  void append( const rev_circuit& other );

  /*! \brief Prepends a gate (used by bidirectional synthesis). */
  void prepend_gate( const rev_gate& gate );

  /*! \brief The inverse circuit: gates reversed (MCT gates are self-inverse). */
  rev_circuit inverse() const;

  /*! \brief Applies the circuit to one basis state. */
  uint64_t simulate( uint64_t input ) const;

  /*! \brief The permutation computed by the circuit (n <= 20). */
  permutation to_permutation() const;

  /*! \brief Truth table of output line `line` as a function of all inputs. */
  truth_table output_function( uint32_t line ) const;

  /*! \brief Total controls over all gates (a classical cost proxy). */
  uint64_t control_count() const noexcept;

  /*! \brief Histogram entry: number of gates with exactly `k` controls. */
  std::vector<uint64_t> control_histogram() const;

  /*! \brief Quantum cost following the standard MCT cost table
   *         (Barenco et al. [40]): NOT/CNOT = 1, Toffoli = 5,
   *         k-control MCT = 2^(k+1) - 3 for k >= 2 (ancilla-free bound).
   */
  uint64_t quantum_cost() const noexcept;

  bool operator==( const rev_circuit& other ) const { return core_.equal( other.core_ ); }

  /*! \brief Multi-line ASCII diagram (one row per line). */
  std::string to_ascii() const;

  /* ---- unified-IR access (passes and tools) ---- */

  /*! \brief The shared gate-graph core (SoA columns, tombstones, slots). */
  const core_type& core() const noexcept { return core_; }
  core_type& core() noexcept { return core_; }

  /*! \brief In-place batched mutation; see `ir::circuit::rewriter`.
   *         Gates supplied to the rewriter are trusted to be valid for
   *         this circuit's line count.
   */
  rewriter rewrite() { return core_.rewrite(); }

private:
  core_type core_;
};

/*! \brief Functional equivalence of two reversible circuits (n <= 20:
 *         exhaustive; larger: sampled with 4096 random probes).
 */
bool equivalent( const rev_circuit& a, const rev_circuit& b );

std::ostream& operator<<( std::ostream& os, const rev_circuit& circuit );

} // namespace qda
