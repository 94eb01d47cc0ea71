/*! \file pass_manager.hpp
 *  \brief Pipeline execution engine with instrumentation and caching.
 *
 *  Executes a `pipeline_spec` over a `staged_ir`: each pass is resolved
 *  through the pass registry, its stage precondition is checked, its
 *  wall-clock time and circuit-size effect are recorded in a
 *  `pass_report`, and the whole compilation can be memoized in a
 *  pluggable cache backend (pipeline/compilation_cache.hpp) keyed on
 *  the structural fingerprint of the input IR plus the canonical
 *  pipeline spec -- repeated compilations of the same program (the
 *  common case in batched/server settings) return instantly.
 *
 *  Execution is *resumable*: a caller holding a mid-pipeline snapshot
 *  (the compile server's cross-job prefix cache, server/) can start a
 *  run at pass index k over that snapshot via a `run_plan`, and observe
 *  every executed pass through a `pass_observer` to harvest new
 *  snapshots.  A pass manager has no mutable state of its own beyond
 *  the (thread-safe) cache backend, so one instance may be driven from
 *  many threads concurrently.
 */
#pragma once

#include "fault/cancel.hpp"
#include "fault/error.hpp"
#include "pipeline/compilation_cache.hpp"
#include "pipeline/ir.hpp"
#include "pipeline/spec_parser.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace qda
{

/*! \brief Record of one executed pass. */
struct pass_report
{
  std::string name;      /*!< pass name */
  std::string arguments; /*!< canonical argument rendering */

  stage stage_before = stage::empty;
  stage stage_after = stage::empty;

  double elapsed_ms = 0.0;

  /*! True when the pass was not executed by this run: its effect was
   *  replayed from a cached pipeline prefix (elapsed_ms then reports
   *  the cost of the run that originally executed it). */
  bool reused = false;

  /*! True when the pass was skipped (or its partial effect rolled
   *  back) under a `degrade` failure policy; the circuit at this point
   *  is valid but unoptimized by this pass.  `degraded_reason` holds
   *  the stable error-code name that caused the skip. */
  bool degraded = false;
  std::string degraded_reason;

  /*! Gate count at the pass boundary (reversible or quantum stage;
   *  0 when the stage has no circuit yet). */
  uint64_t gates_before = 0u;
  uint64_t gates_after = 0u;

  /*! Clean helper qubits (ancillae) at the pass boundary; nonzero only
   *  once the quantum stage exists. */
  uint32_t helpers_before = 0u;
  uint32_t helpers_after = 0u;

  /*! Full statistics, recorded when a quantum/mapped circuit exists. */
  std::optional<circuit_statistics> statistics_before;
  std::optional<circuit_statistics> statistics_after;
};

/*! \brief Heap bytes held by a run's reports (strings included). */
size_t heap_bytes( const std::vector<pass_report>& reports ) noexcept;

/*! \brief Result of running a pipeline. */
struct compilation_result
{
  staged_ir ir;
  std::vector<pass_report> reports;
  std::string spec;      /*!< canonical spec string */
  uint64_t cache_key = 0u;
  bool cache_hit = false;
  uint32_t reused_passes = 0u; /*!< leading passes replayed from a prefix snapshot */
  double total_ms = 0.0;

  /*! True when at least one pass was skipped under a `degrade` policy;
   *  the result is valid but not fully optimized.  Degraded results
   *  are never stored in the compilation cache. */
  bool degraded = false;
  uint32_t degraded_passes = 0u;

  /*! \brief Heap bytes held (IR, reports and strings), by capacity. */
  size_t heap_bytes() const noexcept;
};

/*! \brief Called after every pass a run actually executes.
 *
 *  `pass_index` is the pass's position in the full spec; `reports`
 *  holds every report up to and including that pass (reused prefix
 *  reports first).  The compile server snapshots `ir` here to feed its
 *  cross-job prefix cache.
 */
using pass_observer =
    std::function<void( size_t pass_index, const staged_ir& ir,
                        const std::vector<pass_report>& reports )>;

/*! \brief What happens when an optional optimization pass fails or the
 *         job's deadline fires mid-pipeline.
 */
enum class failure_policy : uint8_t
{
  strict, /*!< any pass failure or expired deadline fails the run */
  degrade /*!< degradable passes are rolled back and skipped; the run
               still produces a valid (less optimized) circuit */
};

/*! \brief Hard ceilings that convert runaway synthesis into a typed
 *         `resource_exhausted` failure.  0 = unlimited; checked after
 *         every executed pass.
 */
struct resource_limits
{
  uint64_t max_gates = 0u;
  uint32_t max_helper_qubits = 0u;
};

/*! \brief How a run starts and how its result is keyed.
 *
 *  The default plan describes a plain cold run: start at pass 0, look
 *  the input up in the cache, store the result under its own
 *  structural key.
 */
struct run_plan
{
  /*! Passes [0, first_pass) are already applied to the initial IR
   *  handed to `run`; execution starts at `first_pass`. */
  size_t first_pass = 0u;

  /*! Reports of the skipped passes, replayed (marked `reused`) at the
   *  front of the result. */
  std::vector<pass_report> prefix_reports;

  /*! Cache key for the final result.  Mandatory when `first_pass > 0`
   *  (the mid-pipeline IR no longer fingerprints to the original
   *  input); defaults to the structural key of (spec, initial). */
  std::optional<structural_key> cache_key;

  /*! Cooperative cancellation / deadline, polled at every pass
   *  boundary and inside the long pass loops.  An explicit cancel
   *  always aborts the run (qda::error_code::cancelled); an expired
   *  deadline aborts under `strict` and skips the remaining degradable
   *  passes under `degrade`. */
  cancel_token cancel;

  failure_policy policy = failure_policy::strict;

  resource_limits limits;
};

/*! \brief Executes pipelines over the staged IR. */
class pass_manager
{
public:
  /*! \brief `max_cache_entries` bounds the built-in LRU memoization
   *         cache; the least-recently-used compilation is evicted
   *         first (hits refresh recency).
   */
  explicit pass_manager( bool enable_cache = true,
                         const pass_registry& registry = pass_registry::instance(),
                         size_t max_cache_entries = 256u );

  /*! \brief Uses `cache` as the memoization backend (nullptr disables
   *         caching).  The backend may be shared between managers; the
   *         compile server plugs its sharded cache in here.
   */
  explicit pass_manager( std::shared_ptr<compilation_cache> cache,
                         const pass_registry& registry = pass_registry::instance() );

  /*! \brief Parses and runs RevKit shell syntax from the empty stage. */
  compilation_result run( const std::string& spec_text );

  /*! \brief Runs a parsed pipeline from the empty stage. */
  compilation_result run( const pipeline_spec& spec );

  /*! \brief Runs a parsed pipeline over an existing IR. */
  compilation_result run( const pipeline_spec& spec, staged_ir initial );

  /*! \brief Runs (or resumes) a pipeline as described by `plan`,
   *         reporting executed passes to `observer` (when set).
   */
  compilation_result run( const pipeline_spec& spec, staged_ir initial,
                          const run_plan& plan, const pass_observer& observer = {} );

  /*! \brief Applies one pass to an IR, enforcing its stage signature
   *         (std::logic_error on violation) and argument vocabulary
   *         (std::invalid_argument).  Used by the fluent `qda::flow`.
   *
   *  `stats_before` (when non-null) spares recomputing the entry
   *  statistics the caller already knows from the previous report.
   */
  static pass_report apply_pass( staged_ir& ir, const pass_invocation& invocation,
                                 const pass_registry& registry = pass_registry::instance(),
                                 const std::optional<circuit_statistics>* stats_before = nullptr,
                                 const pass_context& context = {} );

  static pass_report apply_pass( staged_ir& ir, const std::string& name,
                                 const pass_arguments& args = {},
                                 const pass_registry& registry = pass_registry::instance() );

  /*! \brief Primary half of the structural fingerprint of (initial IR,
   *         spec); the legacy 64-bit cache key.
   */
  static uint64_t compute_cache_key( const pipeline_spec& spec, const staged_ir& initial );

  /*! \brief The memoization backend (nullptr when caching is off). */
  const std::shared_ptr<compilation_cache>& cache() const noexcept { return cache_; }

  cache_statistics cache_stats() const;
  void clear_cache();

private:
  const pass_registry& registry_;
  std::shared_ptr<compilation_cache> cache_;
};

/*! \brief Human-readable per-pass table of a compilation. */
std::string format_report( const compilation_result& result );

/*! \brief Fig. 6-style per-pass cost-delta table: what each pass did to
 *         T-count, CNOT count, depth, qubits and ancillae.  Rows appear
 *         once a quantum circuit exists (earlier passes show the MCT
 *         gate count only); deltas are rendered as before -> after.
 */
std::string format_cost_table( const compilation_result& result );

} // namespace qda
