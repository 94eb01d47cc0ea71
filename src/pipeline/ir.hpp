/*! \file ir.hpp
 *  \brief Staged intermediate representation of the compilation pipeline.
 *
 *  The paper's Eq. (5) flow is staged: `revgen` produces a permutation,
 *  a synthesis command turns it into a reversible MCT circuit, `rptm`
 *  maps that to a Clifford+T quantum circuit, and routing legalizes it
 *  for a physical device.  `staged_ir` carries a program through those
 *  representations; every pass (pipeline/pass_registry.hpp) declares
 *  which stages it accepts and which stage it produces, and the pass
 *  manager validates the transitions.
 *
 *  Both circuit-carrying stages hold facades over the same unified
 *  gate-graph core (`qda::ir::circuit`, src/circuit/): `rev_circuit`
 *  with the MCT policy, `qcircuit` with the Clifford+T policy.  Stage
 *  transitions therefore move one storage representation through
 *  `circuit_cast` lowerings instead of converting between unrelated
 *  containers.
 */
#pragma once

#include "circuit/frozen_circuit.hpp"
#include "kernel/permutation.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/router.hpp"
#include "quantum/qcircuit.hpp"
#include "reversible/rev_circuit.hpp"

#include <optional>
#include <stdexcept>
#include <string>

namespace qda
{

/*! \brief Compilation stages, in pipeline order. */
enum class stage : uint8_t
{
  empty,       /*!< nothing loaded yet */
  permutation, /*!< Boolean-function level (after a generator) */
  reversible,  /*!< MCT circuit level (after synthesis) */
  quantum,     /*!< Clifford+T level (after rptm) */
  mapped       /*!< device level (after routing) */
};

/*! \brief Printable stage name ("unknown" for invalid enum values). */
inline const char* stage_name( stage s )
{
  switch ( s )
  {
  case stage::empty: return "empty";
  case stage::permutation: return "permutation";
  case stage::reversible: return "reversible";
  case stage::quantum: return "quantum";
  case stage::mapped: return "mapped";
  }
  return "unknown";
}

/*! \brief A program moving through the pipeline stages.
 *
 *  Earlier-stage artifacts are kept when a later stage is entered (the
 *  permutation remains available for verification after mapping);
 *  re-entering an earlier stage resets everything downstream.
 */
struct staged_ir
{
  std::optional<permutation> target_permutation;
  std::optional<rev_circuit> reversible;
  std::optional<clifford_t_result> quantum;
  std::optional<routing_result> mapped;

  /*! \brief Statistics recorded by the most recent `ps` pass. */
  std::optional<circuit_statistics> last_statistics;

  stage current = stage::empty;

  /* ---- stage transitions (reset all downstream artifacts) ---- */

  void set_permutation( permutation p )
  {
    target_permutation = std::move( p );
    reversible.reset();
    quantum.reset();
    mapped.reset();
    current = stage::permutation;
  }

  void set_reversible( rev_circuit c )
  {
    reversible = std::move( c );
    quantum.reset();
    mapped.reset();
    current = stage::reversible;
  }

  void set_quantum( clifford_t_result r )
  {
    quantum = std::move( r );
    mapped.reset();
    current = stage::quantum;
  }

  void set_mapped( routing_result r )
  {
    mapped = std::move( r );
    current = stage::mapped;
  }

  /* ---- checked accessors ---- */

  const permutation& require_permutation() const
  {
    if ( !target_permutation )
    {
      throw std::logic_error( "pipeline: no permutation; run a generator (revgen) first" );
    }
    return *target_permutation;
  }

  const rev_circuit& require_reversible() const
  {
    if ( !reversible )
    {
      throw std::logic_error( "pipeline: no reversible circuit; run a synthesis command first" );
    }
    return *reversible;
  }

  const clifford_t_result& require_quantum() const
  {
    if ( !quantum )
    {
      throw std::logic_error( "pipeline: no quantum circuit; run rptm first" );
    }
    return *quantum;
  }

  const routing_result& require_mapped() const
  {
    if ( !mapped )
    {
      throw std::logic_error( "pipeline: no mapped circuit; run route first" );
    }
    return *mapped;
  }

  /*! \brief The circuit of the deepest stage reached (quantum or mapped). */
  const qcircuit& current_circuit() const
  {
    if ( mapped )
    {
      return mapped->circuit;
    }
    return require_quantum().circuit;
  }

  /*! \brief Gate count of the current stage's circuit (0 before synthesis). */
  uint64_t current_gate_count() const
  {
    switch ( current )
    {
    case stage::reversible:
      return reversible ? reversible->num_gates() : 0u;
    case stage::quantum:
      return quantum ? quantum->circuit.num_gates() : 0u;
    case stage::mapped:
      return mapped ? mapped->circuit.num_gates() : 0u;
    default:
      return 0u;
    }
  }

  /*! \brief Statistics of the current circuit, when a quantum or mapped
   *         circuit exists.
   */
  std::optional<circuit_statistics> current_statistics() const
  {
    if ( current == stage::quantum && quantum )
    {
      return compute_statistics( quantum->circuit );
    }
    if ( current == stage::mapped && mapped )
    {
      return compute_statistics( mapped->circuit );
    }
    return std::nullopt;
  }

  /*! \brief Gates held, over every circuit of the stage artifacts. */
  uint64_t num_gates() const noexcept
  {
    return ( reversible ? reversible->num_gates() : 0u ) +
           ( quantum ? quantum->circuit.num_gates() : 0u ) +
           ( mapped ? mapped->circuit.num_gates() : 0u );
  }

  /*! \brief Heap bytes held by the stage artifacts, by capacity. */
  size_t heap_bytes() const noexcept
  {
    size_t bytes = 0u;
    if ( target_permutation )
    {
      bytes += target_permutation->images().capacity() * sizeof( uint64_t );
    }
    if ( reversible )
    {
      bytes += reversible->core().heap_bytes();
    }
    if ( quantum )
    {
      bytes += quantum->circuit.core().heap_bytes();
    }
    if ( mapped )
    {
      bytes += mapped->circuit.core().heap_bytes() +
               ( mapped->initial_layout.capacity() + mapped->final_layout.capacity() ) *
                   sizeof( uint32_t );
    }
    return bytes;
  }
};

/*! \brief Immutable snapshot of a `staged_ir`, for caches that only
 *         hand programs back.
 *
 *  The small artifacts (permutation, statistics, stage, layouts) are
 *  kept as they are.  Every circuit -- the reversible one and each
 *  Clifford+T one (quantum and mapped) -- is frozen into one byte-packed
 *  allocation (circuit/frozen_circuit.hpp): about 2.4 bytes per
 *  Clifford+T gate and 3 per MCT gate up to 8 lines, instead of the
 *  live IR's ~25.  `thaw` rebuilds a `staged_ir` whose circuits
 *  equal the frozen ones gate for gate, so a run resumed from a
 *  snapshot compiles exactly as one resumed from a copy.
 */
class frozen_ir
{
public:
  explicit frozen_ir( const staged_ir& source )
      : permutation_( source.target_permutation ),
        last_statistics_( source.last_statistics ), current_( source.current )
  {
    if ( source.reversible )
    {
      reversible_ = frozen_mct::freeze( source.reversible->core() );
    }
    if ( source.quantum )
    {
      quantum_ = frozen_cliffordt::freeze( source.quantum->circuit.core() );
      helpers_ = source.quantum->num_helper_qubits;
    }
    if ( source.mapped )
    {
      mapped_circuit_ = frozen_cliffordt::freeze( source.mapped->circuit.core() );
      mapped_ = routing_result{ qcircuit( 0u ), source.mapped->initial_layout,
                                source.mapped->final_layout, source.mapped->added_swaps,
                                source.mapped->added_direction_fixes };
    }
  }

  staged_ir thaw() const
  {
    staged_ir ir;
    ir.target_permutation = permutation_;
    if ( reversible_ )
    {
      ir.reversible = rev_circuit( reversible_->thaw() );
    }
    if ( quantum_ )
    {
      ir.quantum = clifford_t_result{ qcircuit( quantum_->thaw() ), helpers_ };
    }
    if ( mapped_ )
    {
      ir.mapped = *mapped_;
      ir.mapped->circuit = qcircuit( mapped_circuit_->thaw() );
    }
    ir.last_statistics = last_statistics_;
    ir.current = current_;
    return ir;
  }

  /*! \brief Gates held, over every circuit of the snapshot. */
  uint64_t num_gates() const noexcept
  {
    return ( reversible_ ? reversible_->num_gates() : 0u ) +
           ( quantum_ ? quantum_->num_gates() : 0u ) +
           ( mapped_circuit_ ? mapped_circuit_->num_gates() : 0u );
  }

  /*! \brief Heap bytes held by the snapshot. */
  size_t heap_bytes() const noexcept
  {
    size_t bytes = 0u;
    if ( permutation_ )
    {
      bytes += permutation_->images().capacity() * sizeof( uint64_t );
    }
    if ( reversible_ )
    {
      bytes += reversible_->bytes();
    }
    if ( quantum_ )
    {
      bytes += quantum_->bytes();
    }
    if ( mapped_ )
    {
      bytes += mapped_circuit_->bytes() +
               ( mapped_->initial_layout.capacity() + mapped_->final_layout.capacity() ) *
                   sizeof( uint32_t );
    }
    return bytes;
  }

private:
  using frozen_mct = ir::frozen_circuit<ir::mct_policy>;
  using frozen_cliffordt = ir::frozen_circuit<ir::cliffordt_policy>;

  std::optional<permutation> permutation_;
  std::optional<frozen_mct> reversible_;
  std::optional<frozen_cliffordt> quantum_;
  uint32_t helpers_ = 0u; /*!< clean helper qubits of the quantum stage */
  std::optional<frozen_cliffordt> mapped_circuit_;
  /*! The routing record around the mapped circuit (its own circuit
   *  left empty). */
  std::optional<routing_result> mapped_;
  std::optional<circuit_statistics> last_statistics_;
  stage current_;
};

} // namespace qda
