#include "server/compile_server.hpp"

#include "fault/failpoint.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace qda::server
{

namespace
{

using qda::detail::elapsed_ms_since;
using qda::detail::steady_clock;

/*! Capped exponential backoff: 1 ms base, doubling, 50 ms ceiling. */
std::chrono::milliseconds retry_backoff( uint32_t attempt )
{
  const auto exponent = std::min<uint32_t>( attempt, 6u );
  return std::chrono::milliseconds( std::min<int64_t>( int64_t{ 1 } << exponent, 50 ) );
}

bool same_job_options( const job_options& a, const job_options& b )
{
  return a.policy == b.policy && a.max_retries == b.max_retries &&
         a.limits.max_gates == b.limits.max_gates &&
         a.limits.max_helper_qubits == b.limits.max_helper_qubits &&
         ( a.deadline.count() == 0 ) == ( b.deadline.count() == 0 );
}

/*! Sets gauge `name` to `read()`, evaluated only while recording. */
template<typename Read>
void set_gauge( const char* name, const Read& read )
{
#if QDA_TELEMETRY_ENABLED
  if ( telemetry::enabled() )
  {
    telemetry::metrics_registry::instance().get_gauge( name ).set(
        static_cast<double>( read() ) );
  }
#else
  static_cast<void>( name );
  static_cast<void>( read );
#endif
}

void set_queue_depth_gauge( size_t depth )
{
  set_gauge( "server.queue_depth", [depth] { return depth; } );
}

} // namespace

compile_server::compile_server( server_options options )
    : options_( std::move( options ) ),
      registry_( options_.registry ? *options_.registry : pass_registry::instance() ),
      cache_( std::make_shared<sharded_compilation_cache>( options_.cache_shards,
                                                           options_.cache_capacity ) ),
      prefixes_( options_.prefix_shards, options_.prefix_capacity ),
      /* the server probes and fills the result cache itself, so that it
       * can admit a result without copying it */
      manager_( std::shared_ptr<compilation_cache>(), registry_ )
{
  if ( options_.enable_library && !options_.library_path.empty() )
  {
    /* warm start: entries admitted by earlier processes splice from
     * the first sighting of this one */
    library::subcircuit_library::instance().set_path( options_.library_path );
  }
  auto workers = options_.num_workers;
  if ( workers == 0u )
  {
    workers = std::max( 1u, std::thread::hardware_concurrency() );
  }
  workers_.reserve( workers );
  for ( uint32_t i = 0u; i < workers; ++i )
  {
    workers_.emplace_back( [this] { worker_loop(); } );
  }
}

compile_server::~compile_server()
{
  shutdown();
}

std::future<compile_response> compile_server::submit( const std::string& spec_text )
{
  return std::move( do_submit( spec_text, job_options{} ).future_ );
}

job_handle compile_server::submit( const std::string& spec_text, const job_options& options )
{
  return do_submit( spec_text, options );
}

job_handle compile_server::do_submit( const std::string& spec_text, const job_options& opts )
{
  const auto submit_time = steady_clock::now();
  /* parse + validate before admission: malformed requests fail the
   * caller directly and never consume queue capacity */
  auto spec = parse_pipeline( spec_text );
  validate_pipeline( spec, registry_ );
  const auto key = options_.keying == key_mode::structural
                       ? compute_structural_key( spec, staged_ir{} )
                       : compute_text_key( spec_text );

  const bool use_cache = options_.enable_result_cache && options_.cache_capacity > 0u;
  const auto shutdown_error = [] {
    return qda_error( error_code::server_shutdown, "compile_server: submit after shutdown" );
  };

  std::unique_lock<std::mutex> lock( state_mutex_ );
  if ( stopping_ )
  {
    throw shutdown_error();
  }
  ++stats_.submitted;
  QDA_COUNT( "server.jobs.submitted" );

  /* fast path: an earlier identical job already produced the result */
  if ( use_cache )
  {
    std::shared_ptr<const compilation_result> cached;
    try
    {
      cached = cache_->lookup( key );
    }
    catch ( ... )
    {
      /* a failing cache backend degrades to a miss, never to a failed
       * submission */
      QDA_COUNT( "server.cache.lookup_failed" );
    }
    if ( cached )
    {
      ++stats_.completed;
      ++stats_.cache_hits;
      QDA_COUNT( "server.jobs.cache_hit" );
      QDA_COUNT( "server.jobs.completed" );
      lock.unlock();
      compile_response response;
      response.result = std::move( cached );
      response.cache_hit = true;
      response.reused_passes = 0u;
      response.total_ms = elapsed_ms_since( submit_time );
      std::promise<compile_response> promise;
      job_handle handle;
      handle.future_ = promise.get_future();
      promise.set_value( std::move( response ) );
      return handle;
    }
  }

  /* coalesce: attach to an identical job that is queued or in flight.
   * Only jobs with matching options share a compilation (one waiter's
   * policy must not change another's semantics), and never a job whose
   * waiters have all cancelled already. */
  if ( options_.coalesce_identical )
  {
    const auto it = active_.find( key );
    if ( it != active_.end() && same_job_options( it->second->opts, opts ) &&
         !it->second->ctl->source.cancel_requested() )
    {
      auto& existing = *it->second;
      ++stats_.coalesced;
      QDA_COUNT( "server.jobs.coalesced" );
      existing.ctl->waiters.fetch_add( 1u, std::memory_order_acq_rel );
      if ( opts.deadline.count() > 0 )
      {
        /* the job may run as long as its most patient client allows */
        existing.ctl->source.extend_deadline( submit_time + opts.deadline );
      }
      existing.waiters.emplace_back( std::promise<compile_response>{}, submit_time );
      job_handle handle;
      handle.future_ = existing.waiters.back().first.get_future();
      handle.ctl_ = existing.ctl;
      return handle;
    }
  }

  /* admission control */
  uint32_t admission_attempts = 0u;
  while ( queue_.size() >= options_.max_queue_depth && !stopping_ )
  {
    if ( options_.reject_when_full )
    {
      if ( admission_attempts < opts.max_retries )
      {
        /* transient overload: back off briefly and retry admission
         * before bouncing the request back to the client */
        ++admission_attempts;
        ++stats_.retried;
        QDA_COUNT( "server.jobs.retried" );
        const auto backoff = retry_backoff( admission_attempts );
        QDA_HISTOGRAM( "server.retry_backoff_ms",
                       static_cast<double>( backoff.count() ),
                       { 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0 } );
        lock.unlock();
        std::this_thread::sleep_for( backoff );
        lock.lock();
        continue;
      }
      ++stats_.rejected;
      QDA_COUNT( "server.jobs.rejected" );
      throw server_overloaded( "compile_server: queue full (" +
                               std::to_string( options_.max_queue_depth ) + " pending)" );
    }
    space_available_.wait( lock );
  }
  if ( stopping_ )
  {
    throw shutdown_error();
  }

  auto job_ptr = std::make_shared<job>();
  job_ptr->spec = std::move( spec );
  job_ptr->canonical = job_ptr->spec.to_string();
  job_ptr->key = key;
  job_ptr->enqueued_at = submit_time;
  job_ptr->opts = opts;
  job_ptr->ctl = std::make_shared<detail::job_cancel>();
  job_ptr->ctl->waiters.store( 1u, std::memory_order_relaxed );
  if ( opts.deadline.count() > 0 )
  {
    /* armed from submission, so queue wait counts against the budget */
    job_ptr->ctl->source.set_deadline( submit_time + opts.deadline );
  }
  job_ptr->waiters.emplace_back( std::promise<compile_response>{}, submit_time );
  job_handle handle;
  handle.future_ = job_ptr->waiters.back().first.get_future();
  handle.ctl_ = job_ptr->ctl;

  queue_.push_back( job_ptr );
  if ( options_.coalesce_identical )
  {
    /* a same-key job may still be registered if its waiters all
     * cancelled or its options differ; latest wins as coalesce target */
    active_[key] = job_ptr;
  }
  stats_.peak_queue_depth = std::max<uint64_t>( stats_.peak_queue_depth, queue_.size() );
  set_queue_depth_gauge( queue_.size() );
  work_available_.notify_one();
  return handle;
}

void compile_server::worker_loop()
{
  for ( ;; )
  {
    std::shared_ptr<job> job_ptr;
    {
      std::unique_lock<std::mutex> lock( state_mutex_ );
      work_available_.wait( lock, [this] { return stopping_ || !queue_.empty(); } );
      if ( queue_.empty() )
      {
        return; /* stopping and fully drained */
      }
      job_ptr = std::move( queue_.front() );
      queue_.pop_front();
      set_queue_depth_gauge( queue_.size() );
    }
    space_available_.notify_one();
    execute( job_ptr );
  }
}

void compile_server::record_queue_wait( double wait_ms )
{
  /* caller holds state_mutex_ */
  stats_.total_queue_wait_ms += wait_ms;
  size_t bucket = queue_wait_bounds_ms.size();
  for ( size_t i = 0u; i < queue_wait_bounds_ms.size(); ++i )
  {
    if ( wait_ms <= queue_wait_bounds_ms[i] )
    {
      bucket = i;
      break;
    }
  }
  ++stats_.queue_wait_histogram[bucket];
}

void compile_server::execute( const std::shared_ptr<job>& job_ptr )
{
  const auto started = steady_clock::now();
  const auto queue_wait_ms = elapsed_ms_since( job_ptr->enqueued_at );
  QDA_HISTOGRAM( "server.queue_wait_ms", queue_wait_ms,
                 { 0.05, 0.2, 1.0, 5.0, 20.0, 100.0, 500.0, 2000.0 } );

  QDA_TRACE_SPAN_NAMED( job_span, "server.job" );
  job_span.attr( "spec", job_ptr->canonical );
  job_span.attr( "queue_wait_ms", queue_wait_ms );

  const auto& spec = job_ptr->spec;
  const auto token = job_ptr->ctl->source.token();
  const bool use_prefixes = options_.enable_prefix_reuse &&
                            options_.prefix_capacity > 0u && spec.size() >= 2u;

  /* structural keys of every proper pipeline prefix over the empty
   * input; [len] = first len passes */
  if ( use_prefixes )
  {
    job_ptr->prefix_keys.resize( spec.size() );
    pipeline_spec prefix;
    prefix.passes.reserve( spec.size() - 1u );
    for ( size_t len = 1u; len < spec.size(); ++len )
    {
      prefix.passes.push_back( spec.passes[len - 1u] );
      job_ptr->prefix_keys[len] = compute_structural_key( prefix, staged_ir{} );
    }
  }

  run_plan plan;
  plan.cache_key = job_ptr->key;
  plan.cancel = token;
  plan.policy = job_ptr->opts.policy;
  plan.limits = job_ptr->opts.limits;
  plan.use_library = options_.enable_library;
  staged_ir initial;
  double resumed_saved_ms = 0.0;
  report_chain resumed_chain; /* the reports of the resumed prefix */
  if ( use_prefixes )
  {
    const auto match = prefixes_.find_longest( job_ptr->prefix_keys );
    if ( match.passes > 0u )
    {
      initial = match.entry->ir.thaw(); /* the frozen entry stays shared */
      plan.first_pass = match.passes;
      resumed_chain = match.entry->reports;
      plan.prefix_reports = unroll_chain( resumed_chain );
      for ( const auto& report : plan.prefix_reports )
      {
        resumed_saved_ms += report.elapsed_ms;
      }
      QDA_COUNT( "server.prefix.hit" );
      QDA_COUNT_N( "server.prefix.passes_skipped", match.passes );
      job_span.attr( "reused_passes", static_cast<int64_t>( match.passes ) );
    }
  }

  pass_observer observer;
  if ( use_prefixes )
  {
    /* this job's snapshots share one report chain, rooted at the
     * resumed prefix's */
    observer = [this, &job_ptr, &spec, first_pass = plan.first_pass, chain = resumed_chain,
                base = resumed_chain]( size_t pass_index, const staged_ir& ir,
                                       const std::vector<pass_report>& reports ) mutable {
      if ( pass_index == first_pass )
      {
        chain = base; /* every attempt reruns the passes after the prefix */
      }
      const auto len = pass_index + 1u;
      if ( len >= spec.size() ) /* the full result lives in the result cache */
      {
        return;
      }
      const auto& key = job_ptr->prefix_keys[len];
      if ( prefixes_.contains( key ) )
      {
        return;
      }
      try
      {
        QDA_FAILPOINT( "prefix.snapshot" );
        chain = extend_chain( std::move( chain ), reports );
        prefixes_.store( key, prefix_entry{ frozen_ir( ir ), chain } );
        QDA_COUNT( "server.prefix.snapshot" );
        set_gauge( "server.prefix.bytes", [this] { return prefixes_.statistics().bytes; } );
      }
      catch ( ... )
      {
        /* a snapshot is pure opportunity; dropping it never fails the
         * compilation it was harvested from */
        QDA_COUNT( "server.prefix.snapshot_failed" );
      }
    };
  }

  /* compile, retrying transient failures with capped exponential
   * backoff; every outcome -- success, degradation, typed failure --
   * is delivered by value so the worker thread never dies */
  compile_response response;
  response.queue_wait_ms = queue_wait_ms;
  const auto max_retries = job_ptr->opts.max_retries;
  for ( uint32_t attempt = 0u;; )
  {
    try
    {
      if ( token.cancel_requested() )
      {
        throw qda_error( error_code::cancelled,
                         "compilation cancelled while queued for '" +
                             job_ptr->canonical + "'" );
      }
      if ( job_ptr->opts.policy == failure_policy::strict )
      {
        /* fast-fail jobs whose budget elapsed during the queue wait;
         * under degrade the run itself skips what no longer fits */
        token.check( "server.pickup" );
      }
      QDA_FAILPOINT( "server.worker" );
      /* each attempt compiles a fresh copy of the input; the final
       * attempt may consume it */
      staged_ir input =
          attempt >= max_retries ? std::move( initial ) : staged_ir( initial );
      auto result = manager_.run( spec, std::move( input ), plan, observer );
      response.reused_passes = result.reused_passes;
      response.degraded = result.degraded;
      response.code = error_code::ok;
      response.error_message.clear();
      response.result = std::make_shared<const compilation_result>( std::move( result ) );
      break;
    }
    catch ( const qda_error& e )
    {
      response.code = e.code();
      response.error_message = e.what();
      const bool retryable = e.transient() && attempt < max_retries &&
                             !token.cancel_requested() && !token.deadline_expired();
      if ( !retryable )
      {
        break;
      }
    }
    catch ( const std::exception& e )
    {
      response.code = classify_current_exception( error_code::pass_failure );
      response.error_message = e.what();
      break; /* untyped failures are never retried */
    }
    catch ( ... )
    {
      response.code = error_code::internal;
      response.error_message = "unknown compile failure";
      break;
    }
    ++attempt;
    ++response.retries;
    QDA_COUNT( "server.jobs.retried" );
    const auto backoff = retry_backoff( attempt );
    QDA_HISTOGRAM( "server.retry_backoff_ms", static_cast<double>( backoff.count() ),
                   { 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0 } );
    std::this_thread::sleep_for( backoff );
  }
  const auto compile_ms = elapsed_ms_since( started );
  job_span.attr( "compile_ms", compile_ms );
  job_span.attr( "error_code", std::string( error_code_name( response.code ) ) );
  if ( response.degraded )
  {
    job_span.attr( "degraded", int64_t{ 1 } );
  }
  if ( response.retries > 0u )
  {
    job_span.attr( "retries", static_cast<int64_t>( response.retries ) );
  }

  /* result admission, before the job detaches so that a same-key
   * submission either coalesces onto this job or finds the entry.
   * Only executed compiles are sightings (hits and coalesced waiters
   * are not), and a result is shared with the cache, never copied,
   * from its key's second sighting on.  Degraded and failed results
   * are never admitted: a later strict client hashing to the same key
   * must not receive an unoptimized circuit. */
  if ( options_.enable_result_cache && options_.cache_capacity > 0u )
  {
    const auto sighting = sightings_.observe( job_ptr->key.primary );
    if ( response.ok() && !response.degraded )
    {
      if ( sighting < library::sighting_profile::admit_sighting )
      {
        QDA_COUNT( "server.cache.admit_deferred" );
      }
      else
      {
        try
        {
          cache_->store( job_ptr->key, response.result );
          set_gauge( "server.result_cache.bytes",
                     [this] { return cache_->statistics().bytes; } );
        }
        catch ( ... )
        {
          /* memoization is an optimization; a failing backend must not
           * fail a compilation that already succeeded */
          QDA_COUNT( "pipeline.cache.store_failed" );
        }
      }
    }
  }

  /* completion: detach the job, then fulfill every attached submission */
  decltype( job_ptr->waiters ) waiters;
  {
    std::lock_guard<std::mutex> guard( state_mutex_ );
    if ( options_.coalesce_identical )
    {
      /* erase only our own registration: a later same-key submission
       * may have replaced it (e.g. after this job was cancelled) */
      const auto it = active_.find( job_ptr->key );
      if ( it != active_.end() && it->second == job_ptr )
      {
        active_.erase( it );
      }
    }
    record_queue_wait( queue_wait_ms );
    stats_.retried += response.retries;
    switch ( response.code )
    {
    case error_code::ok:
      ++stats_.compiled;
      stats_.completed += job_ptr->waiters.size();
      stats_.passes_executed += job_ptr->spec.size() - response.reused_passes;
      if ( response.reused_passes > 0u )
      {
        ++stats_.prefix_hits;
        stats_.prefix_passes_skipped += response.reused_passes;
        stats_.prefix_saved_ms += resumed_saved_ms;
      }
      if ( response.degraded )
      {
        ++stats_.degraded;
        QDA_COUNT( "server.jobs.degraded" );
      }
      QDA_COUNT( "server.jobs.compiled" );
      QDA_COUNT_N( "server.jobs.completed", job_ptr->waiters.size() );
      break;
    case error_code::cancelled:
      ++stats_.cancelled;
      QDA_COUNT( "server.jobs.cancelled" );
      break;
    case error_code::deadline_exceeded:
      ++stats_.deadline_exceeded;
      QDA_COUNT( "server.jobs.deadline" );
      break;
    default:
      ++stats_.failed;
      QDA_COUNT( "server.jobs.failed" );
      break;
    }
    waiters.swap( job_ptr->waiters );
  }

  bool first = true;
  for ( auto& [promise, submit_time] : waiters )
  {
    auto copy = response;
    copy.coalesced = !first;
    copy.total_ms = elapsed_ms_since( submit_time );
    promise.set_value( std::move( copy ) );
    first = false;
  }
}

void compile_server::shutdown()
{
  {
    std::lock_guard<std::mutex> guard( state_mutex_ );
    stopping_ = true;
  }
  work_available_.notify_all();
  space_available_.notify_all();
  for ( auto& worker : workers_ )
  {
    if ( worker.joinable() )
    {
      worker.join();
    }
  }
}

server_statistics compile_server::statistics() const
{
  server_statistics stats;
  {
    std::lock_guard<std::mutex> guard( state_mutex_ );
    stats = stats_;
  }
  stats.result_cache = cache_->statistics();
  stats.result_shards = cache_->per_shard_statistics();
  stats.prefix_cache = prefixes_.statistics();
  if ( options_.enable_library )
  {
    stats.library = library::subcircuit_library::instance().statistics();
  }
  return stats;
}

size_t compile_server::queue_depth() const
{
  std::lock_guard<std::mutex> guard( state_mutex_ );
  return queue_.size();
}

std::string format_server_report( const server_statistics& stats )
{
  std::ostringstream out;
  char line[256];
  out << "compile server report\n";
  std::snprintf( line, sizeof( line ),
                 "  jobs: %llu submitted, %llu completed (%llu cache hits, %llu coalesced, "
                 "%llu compiled), %llu rejected, %llu failed\n",
                 static_cast<unsigned long long>( stats.submitted ),
                 static_cast<unsigned long long>( stats.completed ),
                 static_cast<unsigned long long>( stats.cache_hits ),
                 static_cast<unsigned long long>( stats.coalesced ),
                 static_cast<unsigned long long>( stats.compiled ),
                 static_cast<unsigned long long>( stats.rejected ),
                 static_cast<unsigned long long>( stats.failed ) );
  out << line;
  std::snprintf( line, sizeof( line ),
                 "  faults: %llu cancelled, %llu deadline-exceeded, %llu degraded, "
                 "%llu retries\n",
                 static_cast<unsigned long long>( stats.cancelled ),
                 static_cast<unsigned long long>( stats.deadline_exceeded ),
                 static_cast<unsigned long long>( stats.degraded ),
                 static_cast<unsigned long long>( stats.retried ) );
  out << line;
  std::snprintf( line, sizeof( line ),
                 "  result cache: %llu entries (%.1f KiB) / %zu shards, %llu hits, "
                 "%llu misses, %llu evictions (%.1f%% request hit rate)\n",
                 static_cast<unsigned long long>( stats.result_cache.entries ),
                 static_cast<double>( stats.result_cache.bytes ) / 1024.0,
                 stats.result_shards.size(),
                 static_cast<unsigned long long>( stats.result_cache.hits ),
                 static_cast<unsigned long long>( stats.result_cache.misses ),
                 static_cast<unsigned long long>( stats.result_cache.evictions ),
                 100.0 * stats.hit_rate() );
  out << line;
  std::snprintf( line, sizeof( line ),
                 "  prefix reuse: %llu resumed compiles, %llu passes skipped, "
                 "%.3f ms of pass time saved, %llu snapshots held (%.1f KiB)\n",
                 static_cast<unsigned long long>( stats.prefix_hits ),
                 static_cast<unsigned long long>( stats.prefix_passes_skipped ),
                 stats.prefix_saved_ms,
                 static_cast<unsigned long long>( stats.prefix_cache.entries ),
                 static_cast<double>( stats.prefix_cache.bytes ) / 1024.0 );
  out << line;
  out << "  " << library::format_library_report( stats.library ) << "\n";
  const auto waits = static_cast<double>( stats.compiled );
  std::snprintf( line, sizeof( line ),
                 "  queue: peak depth %llu, mean wait %.3f ms over %llu executed jobs\n",
                 static_cast<unsigned long long>( stats.peak_queue_depth ),
                 waits > 0.0 ? stats.total_queue_wait_ms / waits : 0.0,
                 static_cast<unsigned long long>( stats.compiled ) );
  out << line;
  out << "  queue wait histogram (ms):";
  for ( size_t i = 0u; i < stats.queue_wait_histogram.size(); ++i )
  {
    if ( stats.queue_wait_histogram[i] == 0u )
    {
      continue;
    }
    if ( i < queue_wait_bounds_ms.size() )
    {
      std::snprintf( line, sizeof( line ), "  <=%g: %llu", queue_wait_bounds_ms[i],
                     static_cast<unsigned long long>( stats.queue_wait_histogram[i] ) );
    }
    else
    {
      std::snprintf( line, sizeof( line ), "  >%g: %llu",
                     queue_wait_bounds_ms.back(),
                     static_cast<unsigned long long>( stats.queue_wait_histogram[i] ) );
    }
    out << line;
  }
  out << "\n";
  return out.str();
}

} // namespace qda::server
