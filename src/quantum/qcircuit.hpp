/*! \file qcircuit.hpp
 *  \brief Quantum circuits: gate cascades over qubits with builder API.
 *
 *  The quantum circuit is the compilation target of the reversible
 *  level and the input of the hardware mapping and simulation stages.
 *  Gate order follows circuit reading order: the first gate of
 *  `gates()` is applied first (paper Fig. 1: time moves left to right).
 *
 *  Since the unified-IR redesign this class is a thin typed facade over
 *  `qda::ir::circuit<cliffordt_policy>`: gate kinds, targets, operand
 *  slab offsets and angle-pool indices live in struct-of-arrays
 *  columns, `gates()` is a zero-copy view yielding `qgate_view`, and
 *  passes mutate in place through `rewrite()` instead of rebuilding
 *  gate vectors.
 */
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/cliffordt_policy.hpp"
#include "quantum/qgate.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace qda
{

/*! \brief A quantum circuit over a fixed number of qubits. */
class qcircuit
{
public:
  using core_type = ir::circuit<ir::cliffordt_policy>;
  using gates_view = core_type::gates_view;
  using rewriter = core_type::rewriter;

  explicit qcircuit( uint32_t num_qubits );

  /*! \brief Adopts a built core (e.g. one thawed from a snapshot). */
  explicit qcircuit( core_type core ) : core_( std::move( core ) ) {}

  uint32_t num_qubits() const noexcept { return core_.num_wires(); }
  size_t num_gates() const noexcept { return core_.num_gates(); }
  bool empty() const noexcept { return core_.empty(); }

  /*! \brief Zero-copy view of the alive gates in circuit order. */
  gates_view gates() const noexcept { return core_.gates(); }
  qgate_view gate( size_t index ) const;

  void add_gate( const qgate& gate );
  /*! \brief Appends straight from a view (no control-vector copy). */
  void add_gate( const qgate_view& gate );

  /* single-qubit builders */
  void h( uint32_t qubit ) { add_simple( gate_kind::h, qubit ); }
  void x( uint32_t qubit ) { add_simple( gate_kind::x, qubit ); }
  void y( uint32_t qubit ) { add_simple( gate_kind::y, qubit ); }
  void z( uint32_t qubit ) { add_simple( gate_kind::z, qubit ); }
  void s( uint32_t qubit ) { add_simple( gate_kind::s, qubit ); }
  void sdg( uint32_t qubit ) { add_simple( gate_kind::sdg, qubit ); }
  void t( uint32_t qubit ) { add_simple( gate_kind::t, qubit ); }
  void tdg( uint32_t qubit ) { add_simple( gate_kind::tdg, qubit ); }
  void rx( uint32_t qubit, double angle ) { add_rotation( gate_kind::rx, qubit, angle ); }
  void ry( uint32_t qubit, double angle ) { add_rotation( gate_kind::ry, qubit, angle ); }
  void rz( uint32_t qubit, double angle ) { add_rotation( gate_kind::rz, qubit, angle ); }

  /* multi-qubit builders */
  void cx( uint32_t control, uint32_t target );
  void cz( uint32_t control, uint32_t target );
  void swap_( uint32_t a, uint32_t b );
  void mcx( std::vector<uint32_t> controls, uint32_t target );
  void mcz( std::vector<uint32_t> controls, uint32_t target );
  void ccx( uint32_t c0, uint32_t c1, uint32_t target ) { mcx( { c0, c1 }, target ); }

  void measure( uint32_t qubit );
  void measure_all();
  void barrier();
  void global_phase( double angle );

  /*! \brief Appends all gates of `other`. */
  void append( const qcircuit& other );

  /*! \brief Appends `other` with its qubit i mapped to `mapping[i]`. */
  void append_mapped( const qcircuit& other, const std::vector<uint32_t>& mapping );

  /*! \brief The adjoint circuit (reversed, each gate inverted).
   *         Throws std::logic_error if the circuit contains measurements.
   */
  qcircuit adjoint() const;

  /*! \brief The inverse circuit: dagger of each gate, reversed order
   *         (parity with `rev_circuit::inverse`; same as `adjoint`).
   */
  qcircuit inverse() const { return adjoint(); }

  /*! \brief True if the circuit contains a measurement. */
  bool has_measurements() const noexcept;

  /*! \brief Qubits measured, in gate order. */
  std::vector<uint32_t> measured_qubits() const;

  std::string to_string() const;

  /*! \brief Multi-line ASCII diagram, one row per qubit (time flows
   *         left to right, as in the paper's Fig. 1).
   */
  std::string to_ascii() const;

  bool operator==( const qcircuit& other ) const { return core_.equal( other.core_ ); }

  /* ---- unified-IR access (passes and tools) ---- */

  /*! \brief The shared gate-graph core (SoA columns, tombstones, slots). */
  const core_type& core() const noexcept { return core_; }
  core_type& core() noexcept { return core_; }

  /*! \brief In-place batched mutation; see `ir::circuit::rewriter`.
   *         Gates supplied to the rewriter are trusted to be valid for
   *         this circuit's qubit count.
   */
  rewriter rewrite() { return core_.rewrite(); }

  /*! \brief The operand check of `add_gate`: throws
   *         std::invalid_argument unless every operand is a wire of
   *         this circuit and no wire repeats.  For code that appends
   *         rows through `core()` directly.
   */
  void check_operands( const qgate_view& gate ) const;

private:
  void add_simple( gate_kind kind, uint32_t qubit );
  void add_rotation( gate_kind kind, uint32_t qubit, double angle );
  void check_qubit( uint32_t qubit ) const;

  core_type core_;
};

/*! \brief Gate statistics (the `ps -c` of the paper's Eq. (5)). */
struct circuit_statistics
{
  uint32_t num_qubits = 0u;
  uint64_t num_gates = 0u;
  uint64_t t_count = 0u;        /*!< number of T/T-dagger gates */
  uint64_t t_depth = 0u;        /*!< T stages along the critical path */
  uint64_t h_count = 0u;
  uint64_t cnot_count = 0u;     /*!< cx gates */
  uint64_t two_qubit_count = 0u; /*!< cx + cz + swap */
  uint64_t clifford_count = 0u;
  uint64_t depth = 0u;          /*!< overall circuit depth */
  uint64_t num_measurements = 0u;
};

/*! \brief Computes statistics over a circuit. */
circuit_statistics compute_statistics( const qcircuit& circuit );

/*! \brief RevKit `ps -c`-style one-line summary. */
std::string format_statistics( const circuit_statistics& stats );

} // namespace qda
