/*! \file compile_server.hpp
 *  \brief Concurrent compilation-as-a-service core.
 *
 *  The paper's premise is compilation as a push-button service:
 *  Eq. (5) shell specs in, optimized Clifford+T circuits out.  This
 *  subsystem is the serving layer: a `compile_server` accepts many
 *  spec-shaped requests concurrently (`submit(spec) -> future`) and
 *  amortizes work across them through four mechanisms:
 *
 *   1. a bounded thread-safe job queue with a worker pool and
 *      admission control (block or reject when full), draining
 *      gracefully on shutdown;
 *   2. a sharded structural-hash result cache
 *      (server/sharded_cache.hpp) keyed on the canonical post-parse
 *      pipeline plus the input IR -- equivalent spec spellings dedup
 *      to one entry.  A result is admitted on its key's second
 *      compile (a key-only `library::sighting_profile` counts them;
 *      hits and coalesced waiters are not sightings) and shared with
 *      the cache, never copied, so one-shot traffic holds nothing.
 *      A held result is a live IR: its Clifford+T rows cost their
 *      columns plus one tombstone byte, about 25 bytes per gate;
 *   3. cross-job pass-prefix reuse (server/prefix_cache.hpp): a job
 *      sharing a leading pass sequence with any prior job resumes
 *      mid-pipeline instead of recompiling from scratch.  Snapshots
 *      are admitted on first sighting as frozen, byte-packed
 *      `frozen_ir`s and thawed on resume; the snapshots of one job
 *      share one chain of pass reports;
 *   4. request coalescing: identical jobs submitted while one is
 *      queued or in flight attach to it and are served by a single
 *      compilation (batching with the queue residency as the window).
 *
 *  Results are shared (`shared_ptr<const compilation_result>`), so a
 *  cache hit never deep-copies a circuit.
 */
#pragma once

#include "fault/cancel.hpp"
#include "fault/error.hpp"
#include "library/profile.hpp"
#include "library/subcircuit_library.hpp"
#include "pipeline/pass_manager.hpp"
#include "server/prefix_cache.hpp"
#include "server/sharded_cache.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace qda::server
{

/*! \brief How submissions are keyed in the result cache. */
enum class key_mode
{
  structural, /*!< canonical structural hash of (post-parse spec, input IR) */
  exact_text  /*!< raw spec text; the pre-server keying, kept as ablation */
};

/*! \brief Configuration of a compile server. */
struct server_options
{
  /*! Worker threads; 0 = std::thread::hardware_concurrency(). */
  uint32_t num_workers = 0u;

  /*! Admission control: pending jobs beyond this bound either block
   *  the submitter (backpressure, default) or are rejected with
   *  `server_overloaded`. */
  size_t max_queue_depth = 1024u;
  bool reject_when_full = false;

  size_t cache_shards = 16u;
  /*! Result entries; 0 disables.  Only results whose key compiled
   *  twice are held, so this bounds the repeating working set. */
  size_t cache_capacity = 1024u;
  size_t prefix_shards = 8u;
  /*! Snapshot entries; 0 disables.  A job leaves one frozen snapshot
   *  per proper pipeline prefix (about five for an Eq. (5) spec, 2.6
   *  bytes per held gate at n = 7), so the default holds the working set of
   *  a few hundred programs served under prefix-sharing tails.  This is
   *  where a repeated pass input is reused first: the library admits a
   *  whole rptm/tpar input only on its second sighting. */
  size_t prefix_capacity = 2048u;

  bool enable_result_cache = true;
  bool enable_prefix_reuse = true;
  bool coalesce_identical = true;

  key_mode keying = key_mode::structural;

  /*! Thread the process-wide subcircuit library through every job's
   *  pass context, so hot rptm/tpar shapes splice across jobs. */
  bool enable_library = true;

  /*! When nonempty, points the library singleton at this append-only
   *  store at construction: entries admitted by earlier processes are
   *  loaded for a warm start, new admissions are appended. */
  std::string library_path;

  /*! Pass registry to resolve specs against; nullptr = the built-in
   *  process-wide registry. */
  const pass_registry* registry = nullptr;
};

/*! \brief Per-job execution options (deadline, degradation, retries). */
struct job_options
{
  /*! Wall-clock budget measured from submission (queue wait counts);
   *  zero = unbounded.  An expired deadline fails the job with
   *  `deadline_exceeded` under `strict` policy, or skips the remaining
   *  degradable passes under `degrade`. */
  std::chrono::milliseconds deadline{ 0 };

  failure_policy policy = failure_policy::strict;

  /*! Gate / helper-qubit ceilings -> `resource_exhausted`. */
  resource_limits limits;

  /*! Worker-side retries of *transient* compile failures (injected
   *  faults, overload), with capped exponential backoff (1 ms base,
   *  doubling, 50 ms cap).  In reject-when-full mode the same budget
   *  also retries admission before `server_overloaded` is thrown. */
  uint32_t max_retries = 0u;
};

/*! \brief One served request.
 *
 *  Compile failures are delivered by value: `code != error_code::ok`
 *  with `result == nullptr` and the diagnostic in `error_message`, so
 *  clients branch on the stable code instead of catching exceptions.
 *  (Submission-time failures -- malformed specs, overload, shutdown --
 *  still throw from `submit`, before a future exists.)
 */
struct compile_response
{
  std::shared_ptr<const compilation_result> result;
  bool cache_hit = false;      /*!< served from the result cache, no compile */
  bool coalesced = false;      /*!< attached to an identical pending job */
  uint32_t reused_passes = 0u; /*!< passes skipped via the prefix cache */
  double queue_wait_ms = 0.0;  /*!< admission -> worker pickup (0 for hits) */
  double total_ms = 0.0;       /*!< submit -> response */

  error_code code = error_code::ok;
  std::string error_message;
  bool degraded = false;  /*!< >= 1 pass skipped under the degrade policy */
  uint32_t retries = 0u;  /*!< transient-failure retries this job consumed */

  bool ok() const noexcept { return code == error_code::ok; }
};

/*! \brief Rejected by admission control (queue full, reject mode).
 *         Typed `overloaded` and transient: the same request may be
 *         admitted later.
 */
class server_overloaded : public qda_error
{
public:
  explicit server_overloaded( const std::string& what )
      : qda_error( error_code::overloaded, what, /*transient=*/true )
  {
  }
};

namespace detail
{

/*! \brief Shared cancel bookkeeping of one queued or in-flight job.
 *
 *  Coalesced submissions share one compilation, so one waiter's
 *  cancel must not abort the others: the job's cancel_source fires
 *  only once every attached waiter has cancelled.
 */
struct job_cancel
{
  cancel_source source;
  std::atomic<uint32_t> waiters{ 0u };
  std::atomic<uint32_t> cancelled{ 0u };

  void cancel_one() noexcept
  {
    const auto done = cancelled.fetch_add( 1u, std::memory_order_acq_rel ) + 1u;
    if ( done >= waiters.load( std::memory_order_acquire ) )
    {
      source.request_cancel();
    }
  }
};

} // namespace detail

/*! \brief Client handle to one submission: the response future plus
 *         cooperative cancellation.
 */
class job_handle
{
public:
  job_handle() = default;

  std::future<compile_response>& future() noexcept { return future_; }

  /*! \brief Blocks for the response (shorthand for future().get()). */
  compile_response get() { return future_.get(); }

  bool valid() const noexcept { return future_.valid(); }

  /*! \brief Requests cooperative cancellation of this submission.
   *
   *  The shared compilation aborts (typed `cancelled`) once every
   *  coalesced waiter has cancelled; until then the job keeps running
   *  for the remaining waiters and this handle still receives the
   *  outcome.  Idempotent; a no-op for cache hits.
   */
  void cancel() noexcept
  {
    if ( ctl_ && !cancel_sent_ )
    {
      cancel_sent_ = true;
      ctl_->cancel_one();
    }
  }

private:
  friend class compile_server;

  std::future<compile_response> future_;
  std::shared_ptr<detail::job_cancel> ctl_;
  bool cancel_sent_ = false;
};

/*! \brief Queue-wait histogram bucket upper bounds, in ms. */
inline constexpr std::array<double, 8u> queue_wait_bounds_ms = { 0.05, 0.2, 1.0,  5.0,
                                                                 20.0, 100.0, 500.0, 2000.0 };

/*! \brief Aggregate server counters (one consistent snapshot). */
struct server_statistics
{
  uint64_t submitted = 0u;
  uint64_t completed = 0u;  /*!< responses delivered (incl. hits, coalesced) */
  uint64_t cache_hits = 0u; /*!< served at admission from the result cache */
  uint64_t coalesced = 0u;  /*!< attached to an identical pending job */
  uint64_t compiled = 0u;   /*!< jobs that actually executed passes */
  uint64_t rejected = 0u;
  uint64_t failed = 0u;    /*!< pass failures / resource exhaustion */
  uint64_t cancelled = 0u; /*!< jobs aborted by client cancel */
  uint64_t deadline_exceeded = 0u;
  uint64_t degraded = 0u;  /*!< completed jobs with >= 1 degraded pass */
  uint64_t retried = 0u;   /*!< transient-failure retry attempts */

  uint64_t prefix_hits = 0u;          /*!< compiles resumed mid-pipeline */
  uint64_t prefix_passes_skipped = 0u;
  uint64_t passes_executed = 0u;
  double prefix_saved_ms = 0.0; /*!< original cost of every skipped pass */

  uint64_t peak_queue_depth = 0u;
  double total_queue_wait_ms = 0.0;
  std::array<uint64_t, queue_wait_bounds_ms.size() + 1u> queue_wait_histogram{};

  cache_statistics result_cache;            /*!< aggregate backend counters */
  std::vector<shard_statistics> result_shards; /*!< per-shard hit/miss/evict */
  shard_statistics prefix_cache;            /*!< snapshot-store counters */
  library::library_statistics library;      /*!< subcircuit-library counters */

  /*! Served-from-cache fraction of completed requests (hits + coalesced
   *  over completed; 0 when nothing completed). */
  double hit_rate() const noexcept
  {
    return completed == 0u
               ? 0.0
               : static_cast<double>( cache_hits + coalesced ) /
                     static_cast<double>( completed );
  }
};

/*! \brief Concurrent compile service over a shared pass manager. */
class compile_server
{
public:
  explicit compile_server( server_options options = {} );

  /*! \brief Graceful: drains admitted jobs, then joins the workers. */
  ~compile_server();

  compile_server( const compile_server& ) = delete;
  compile_server& operator=( const compile_server& ) = delete;

  /*! \brief Parses, validates and admits one request.
   *
   *  Throws qda::spec_parse_error (a std::invalid_argument) /
   *  qda::spec_stage_error (a std::logic_error) on malformed specs
   *  (before admission), `server_overloaded` when the queue is full in
   *  reject mode, and a typed `server_shutdown` qda_error (a
   *  std::runtime_error) after shutdown began; otherwise blocks while
   *  the queue is full.  The future always delivers a value: compile
   *  failures arrive as `compile_response::code != ok`.
   */
  std::future<compile_response> submit( const std::string& spec_text );

  /*! \brief Like submit(), with per-job deadline / degradation /
   *         retry options and a cancellable handle.  Jobs coalesce
   *         only with identical options (deadlines max-merge).
   */
  job_handle submit( const std::string& spec_text, const job_options& options );

  /*! \brief Stops admission, drains every admitted job, joins the
   *         worker pool (idempotent).
   */
  void shutdown();

  server_statistics statistics() const;

  size_t queue_depth() const;

  const server_options& options() const noexcept { return options_; }

  /*! \brief The shared result-cache backend (also pluggable into any
   *         pass_manager). */
  const std::shared_ptr<sharded_compilation_cache>& result_cache() const noexcept
  {
    return cache_;
  }

private:
  struct job
  {
    pipeline_spec spec;
    std::string canonical;
    structural_key key;
    std::vector<structural_key> prefix_keys; /*!< [len] = key of first len passes */
    std::chrono::steady_clock::time_point enqueued_at;
    job_options opts;
    std::shared_ptr<detail::job_cancel> ctl;
    /*! Each attached submission: its promise and submit time. */
    std::vector<std::pair<std::promise<compile_response>,
                          std::chrono::steady_clock::time_point>> waiters;
  };

  job_handle do_submit( const std::string& spec_text, const job_options& options );
  void worker_loop();
  void execute( const std::shared_ptr<job>& job_ptr );
  void record_queue_wait( double wait_ms );

  server_options options_;
  const pass_registry& registry_;
  std::shared_ptr<sharded_compilation_cache> cache_;
  /*! Compiles per result key; a result is admitted on its second. */
  library::sighting_profile sightings_;
  prefix_cache prefixes_;
  pass_manager manager_;

  mutable std::mutex state_mutex_;
  std::condition_variable work_available_;
  std::condition_variable space_available_;
  std::deque<std::shared_ptr<job>> queue_;
  std::unordered_map<structural_key, std::shared_ptr<job>, structural_key_hash> active_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  /* counters; guarded by state_mutex_ except the relaxed histogram */
  server_statistics stats_;
};

/*! \brief Human-readable aggregate report (jobs, cache, prefix reuse,
 *         queue-wait histogram); the server-level counterpart of
 *         `format_cost_table`, printed by the demo/bench alongside the
 *         telemetry `--report` sink.
 */
std::string format_server_report( const server_statistics& stats );

} // namespace qda::server
