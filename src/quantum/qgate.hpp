/*! \file qgate.hpp
 *  \brief Quantum gates: the Clifford+T library plus rotations and
 *         measurements.
 *
 *  This is the "assembly" level of the flow (paper Sec. I): the gate
 *  set a physical machine or simulator understands.  Controls at this
 *  level are positive; negative controls from the reversible level are
 *  eliminated during mapping by X conjugation.
 */
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace qda
{

/*! \brief Gate kinds of the quantum IR (one byte: the IR stores a kind
 *         column per row). */
enum class gate_kind : uint8_t
{
  h,            /*!< Hadamard */
  x,            /*!< Pauli-X */
  y,            /*!< Pauli-Y */
  z,            /*!< Pauli-Z */
  s,            /*!< phase gate S = sqrt(Z) */
  sdg,          /*!< S dagger */
  t,            /*!< T = sqrt(S) */
  tdg,          /*!< T dagger */
  rx,           /*!< X rotation by `angle` */
  ry,           /*!< Y rotation by `angle` */
  rz,           /*!< Z rotation by `angle` */
  cx,           /*!< controlled NOT */
  cz,           /*!< controlled Z */
  swap,         /*!< SWAP */
  mcx,          /*!< multi-controlled X (pre-mapping IR only) */
  mcz,          /*!< multi-controlled Z (pre-mapping IR only) */
  measure,      /*!< computational basis measurement into classical bit */
  barrier,      /*!< scheduling barrier */
  global_phase  /*!< global phase e^{i angle} (bookkeeping) */
};

/*! \brief One gate instance. */
struct qgate
{
  gate_kind kind = gate_kind::h;
  std::vector<uint32_t> controls; /*!< positive control qubits */
  uint32_t target = 0u;           /*!< target qubit (first target for swap) */
  uint32_t target2 = 0u;          /*!< second target (swap only) */
  double angle = 0.0;             /*!< rotation angle / global phase */

  /*! \brief All qubits the gate touches. */
  std::vector<uint32_t> qubits() const;

  /*! \brief True for measure/barrier pseudo-gates. */
  bool is_unitary() const noexcept
  {
    return kind != gate_kind::measure && kind != gate_kind::barrier;
  }

  /*! \brief True for t/tdg (the T-count unit). */
  bool is_t_gate() const noexcept { return kind == gate_kind::t || kind == gate_kind::tdg; }

  /*! \brief True if the gate belongs to the Clifford group. */
  bool is_clifford() const noexcept;

  /*! \brief The adjoint gate.  Throws std::logic_error for measurements. */
  qgate adjoint() const;

  bool operator==( const qgate& other ) const = default;

  std::string to_string() const;
};

/*! \brief Zero-copy reference to one gate of a circuit.
 *
 *  The scalar fields are value copies of the SoA columns; `controls`
 *  is a span into the circuit's shared operand slab (or into a
 *  materialized gate's control vector).  A view stays valid until the
 *  owning circuit is mutated.  Converts implicitly to `qgate` where a
 *  materialized copy is needed (e.g. `qcircuit::add_gate`).
 */
struct qgate_view
{
  gate_kind kind = gate_kind::h;
  std::span<const uint32_t> controls; /*!< positive control qubits */
  uint32_t target = 0u;
  uint32_t target2 = 0u;
  double angle = 0.0;

  qgate_view() = default;
  qgate_view( gate_kind kind_, std::span<const uint32_t> controls_, uint32_t target_,
              uint32_t target2_, double angle_ )
      : kind( kind_ ), controls( controls_ ), target( target_ ), target2( target2_ ),
        angle( angle_ )
  {
  }
  /*! \brief View of a materialized gate (spans its control vector). */
  qgate_view( const qgate& gate )
      : kind( gate.kind ), controls( gate.controls ), target( gate.target ),
        target2( gate.target2 ), angle( gate.angle )
  {
  }

  /*! \brief All qubits the gate touches. */
  std::vector<uint32_t> qubits() const;

  bool is_unitary() const noexcept
  {
    return kind != gate_kind::measure && kind != gate_kind::barrier;
  }
  bool is_t_gate() const noexcept { return kind == gate_kind::t || kind == gate_kind::tdg; }
  bool is_clifford() const noexcept;

  /*! \brief Materialized copy (allocates the control vector). */
  qgate materialize() const;
  operator qgate() const { return materialize(); }

  /*! \brief The adjoint gate.  Throws std::logic_error for measurements. */
  qgate adjoint() const;

  std::string to_string() const;
};

/*! \brief Structural equality (operand spans compared element-wise). */
bool operator==( const qgate_view& a, const qgate_view& b ) noexcept;

/*! \brief The 2x2 matrix of a single-qubit gate kind (throws for others). */
std::array<std::complex<double>, 4> single_qubit_matrix( gate_kind kind, double angle );

/*! \brief Printable gate name ("h", "tdg", ...). */
std::string gate_name( gate_kind kind );

} // namespace qda
