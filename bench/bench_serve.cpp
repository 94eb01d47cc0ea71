/*! \file bench_serve.cpp
 *  \brief Experiment E11: compile-server throughput on a zipf workload.
 *
 *  The paper frames design automation for quantum programs as a
 *  service: many clients push Eq. (5)-style specs at a compiler and
 *  expect circuits back.  This bench measures what the serving layer
 *  (src/server/) buys over the pre-server status quo of compiling every
 *  request from scratch on one thread:
 *
 *    - serial_baseline: 1 worker, result cache, prefix reuse and
 *      coalescing all off -- each request is an independent cold
 *      compile (what a CLI loop over specs does);
 *    - amortized_{1,8,32}w: the full server (sharded structural-hash
 *      result cache, cross-job prefix reuse, coalescing) at different
 *      worker-pool sizes;
 *    - exact_text_8w: ablation keying the cache on the raw spec string
 *      instead of the canonical structural hash;
 *    - one_shot: distinct Eq. (5) programs, each submitted once, through
 *      a default 1-worker server.  Nothing repeats, so nothing can hit;
 *      the row records what the caches hold anyway: no result entries
 *      (admission waits for a second sighting) and frozen prefix
 *      snapshots at under 3 bytes per held gate.  Next to it, the
 *      snapshot codec is timed on a random n = 8 rptm output: a live
 *      `staged_ir` copy against `frozen_ir` freeze and thaw.
 *
 *  The summary also records what the zipf mix's result cache holds at
 *  8 workers: heap bytes per held gate of its live results.
 *
 *  The workload is zipf-distributed over ~30 unique pipelines (hwb
 *  3..5 with assorted optimization tails), and every request's raw text
 *  is drawn from one of three equivalent spellings (whitespace, empty
 *  segments), as produced by scripted clients.  The headline metric --
 *  compiles/sec at 8 workers vs the serial baseline -- is dominated by
 *  cross-request amortization (dedup, coalescing, prefix reuse), which
 *  is the design point of the subsystem; the pure same-config thread
 *  scaling ratio is also emitted and is hardware-dependent (this gate
 *  keeps compiling on 1-core CI runners, where thread scaling is ~1x).
 *
 *  The serial baseline, amortized_8w and degrade_8w run interleaved
 *  seven times each, and each row keeps its fastest run: one amortized
 *  run is a single wall of a few milliseconds, so the ratio of two
 *  single runs follows host noise.
 *
 *  Emits BENCH_serve.json and (outside QDA_BENCH_SMOKE) enforces the
 *  acceptance floors: >= 4x amortized speedup at 8 workers, a strictly
 *  higher hit rate for structural keying than for exact-text keying, a
 *  healthy degrade-policy run at >= 0.80x the strict throughput with
 *  no degraded or failed job and the same number of compiles, and an
 *  empty result cache after one-shot traffic.
 */
#include "pipeline/pass_manager.hpp"
#include "server/compile_server.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/metadata.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace
{

using clock_type = qda::telemetry::steady_clock;
using qda::telemetry::elapsed_ms_since;
using namespace qda;
using namespace qda::server;

/*! One of three equivalent spellings of `spec`, as distinct clients
 *  would type it. */
std::string respell( const std::string& spec, size_t variant )
{
  switch ( variant % 3u )
  {
  case 1u:
  {
    auto noisy = "  " + spec + " ;";
    for ( size_t pos = 0u; ( pos = noisy.find( "; ", pos ) ) != std::string::npos; )
    {
      noisy.replace( pos, 2u, " ;  ; " );
      pos += 6u;
    }
    return noisy;
  }
  case 2u:
  {
    auto noisy = spec;
    for ( size_t pos = 0u; ( pos = noisy.find( "; ", pos ) ) != std::string::npos; )
    {
      noisy.replace( pos, 2u, ";" );
    }
    return noisy + " ;";
  }
  default:
    return spec;
  }
}

std::vector<std::string> make_unique_pipelines( bool smoke )
{
  const std::vector<std::string> tails = {
    "tbs",
    "tbs --bidirectional",
    "tbs; revsimp",
    "tbs; rptm",
    "tbs; revsimp; rptm",
    "tbs; revsimp; rptm; tpar",
    "tbs; revsimp; rptm; tpar; ps",
    "tbs; revsimp; rptm; peephole",
    "dbs",
    "dbs; revsimp",
  };
  std::vector<std::string> unique;
  const uint32_t max_n = smoke ? 4u : 5u;
  for ( uint32_t n = 3u; n <= max_n; ++n )
  {
    for ( const auto& tail : tails )
    {
      unique.push_back( "revgen --hwb " + std::to_string( n ) + "; " + tail );
    }
  }
  return unique;
}

/*! Zipf-distributed request stream: (pipeline index, spelling variant)
 *  pairs, identical for every measured configuration. */
std::vector<std::pair<size_t, size_t>> make_requests( size_t count, size_t num_unique )
{
  std::vector<double> weights;
  weights.reserve( num_unique );
  for ( size_t rank = 0u; rank < num_unique; ++rank )
  {
    weights.push_back( 1.0 / std::pow( static_cast<double>( rank + 1u ), 1.1 ) );
  }
  std::mt19937_64 rng( 0x5e7fe5u );
  std::discrete_distribution<size_t> pick( weights.begin(), weights.end() );
  std::vector<std::pair<size_t, size_t>> requests;
  requests.reserve( count );
  for ( size_t i = 0u; i < count; ++i )
  {
    requests.emplace_back( pick( rng ), rng() % 3u );
  }
  return requests;
}

struct config_result
{
  std::string name;
  uint32_t workers = 0u;
  bool amortized = false;
  std::string keying;
  double wall_ms = 0.0;
  double throughput = 0.0; /*!< served requests per second */
  server_statistics stats;

  /*! Result-cache heap bytes over the gates its entries hold. */
  double result_bytes_per_gate() const noexcept
  {
    uint64_t gates = 0u;
    for ( const auto& shard : stats.result_shards )
    {
      gates += shard.gates;
    }
    return gates == 0u ? 0.0
                       : static_cast<double>( stats.result_cache.bytes ) /
                             static_cast<double>( gates );
  }
};

/*! Runs the whole request stream through one server configuration with
 *  four client threads, wall-clocked end to end.  When \p per_job is
 *  set, every request is submitted with those job options (the
 *  fault-tolerant submit path); the workload itself stays healthy. */
config_result run_config( const std::string& name, server_options options,
                          const std::vector<std::string>& unique,
                          const std::vector<std::pair<size_t, size_t>>& requests,
                          const job_options* per_job = nullptr )
{
  config_result row;
  row.name = name;
  row.workers = options.num_workers;
  row.amortized = options.enable_result_cache;
  row.keying = options.keying == key_mode::structural ? "structural" : "exact_text";

  compile_server server( options );
  constexpr size_t num_clients = 4u;
  const auto start = clock_type::now();
  std::vector<std::thread> clients;
  clients.reserve( num_clients );
  for ( size_t c = 0u; c < num_clients; ++c )
  {
    clients.emplace_back( [&, c] {
      /* each client waits its chunk so futures don't pile up unbounded */
      const size_t begin = c * requests.size() / num_clients;
      const size_t end = ( c + 1u ) * requests.size() / num_clients;
      std::vector<std::future<compile_response>> futures;
      futures.reserve( end - begin );
      for ( size_t i = begin; i < end; ++i )
      {
        const auto& [pick, variant] = requests[i];
        const auto spelled = respell( unique[pick], variant );
        if ( per_job != nullptr )
        {
          auto handle = server.submit( spelled, *per_job );
          futures.push_back( std::move( handle.future() ) );
        }
        else
        {
          futures.push_back( server.submit( spelled ) );
        }
      }
      for ( auto& future : futures )
      {
        future.get();
      }
    } );
  }
  for ( auto& client : clients )
  {
    client.join();
  }
  row.wall_ms = elapsed_ms_since( start );
  row.throughput =
      row.wall_ms > 0.0 ? 1000.0 * static_cast<double>( requests.size() ) / row.wall_ms
                        : 0.0;
  row.stats = server.statistics();
  return row;
}

server_options amortized_options( uint32_t workers )
{
  server_options options;
  options.num_workers = workers;
  return options;
}

/*! Runs behind each side of a wall-time floor.  One amortized run is a
 *  single wall of a few milliseconds over a mostly-hit mix, so host
 *  noise decides the ratio of two single runs; each side is instead
 *  the fastest of this many runs, interleaved with the other sides. */
constexpr int wall_repeats = 7;

/*! Keeps the faster of `best` and `run` in `best`. */
void keep_fastest( config_result& best, config_result run )
{
  if ( best.name.empty() || run.throughput > best.throughput )
  {
    best = std::move( run );
  }
}

struct one_shot_result
{
  size_t requests = 0u;
  double wall_ms = 0.0;
  server_statistics stats;

  double prefix_bytes_per_gate() const noexcept
  {
    return stats.prefix_cache.gates == 0u
               ? 0.0
               : static_cast<double>( stats.prefix_cache.bytes ) /
                     static_cast<double>( stats.prefix_cache.gates );
  }
};

/*! What a snapshot costs on one rptm output: a live `staged_ir` copy
 *  (what prefix entries held before they were frozen) against freezing
 *  and thawing it, best of `rounds`, in microseconds. */
struct codec_timing
{
  uint64_t gates = 0u;
  double copy_us = 0.0;
  double freeze_us = 0.0;
  double thaw_us = 0.0;
  double bytes_per_gate = 0.0; /*!< frozen Clifford+T circuit */
};

codec_timing time_codec( const std::string& spec, int rounds )
{
  const auto program = pass_manager( false ).run( parse_pipeline( spec ) ).ir;
  const auto best_us = [rounds]( const auto& work ) {
    double best = 1e300;
    for ( int i = 0; i < rounds; ++i )
    {
      const auto start = clock_type::now();
      work();
      best = std::min( best, 1000.0 * elapsed_ms_since( start ) );
    }
    return best;
  };
  codec_timing timing;
  timing.gates = program.current_gate_count();
  timing.copy_us = best_us( [&] { staged_ir copy = program; } );
  timing.freeze_us = best_us( [&] { frozen_ir frozen( program ); } );
  const frozen_ir frozen( program );
  timing.thaw_us = best_us( [&] { frozen.thaw(); } );
  const auto circuit =
      ir::frozen_circuit<ir::cliffordt_policy>::freeze( program.quantum->circuit.core() );
  timing.bytes_per_gate =
      static_cast<double>( circuit.bytes() ) / static_cast<double>( circuit.num_gates() );
  return timing;
}

/*! Distinct `revgen --random 7` programs under the Eq. (5) tail, one
 *  submission each, through a default 1-worker server. */
one_shot_result run_one_shot( size_t count )
{
  one_shot_result row;
  row.requests = count;
  compile_server server( amortized_options( 1u ) );
  const auto start = clock_type::now();
  for ( size_t seed = 1u; seed <= count; ++seed )
  {
    server.submit( "revgen --random 7 --seed " + std::to_string( seed ) +
                   "; tbs; revsimp; rptm; tpar; ps" )
        .get();
  }
  row.wall_ms = elapsed_ms_since( start );
  row.stats = server.statistics();
  return row;
}

} // namespace

int main()
{
  using namespace qda;

  const char* smoke_env = std::getenv( "QDA_BENCH_SMOKE" );
  const bool smoke = smoke_env != nullptr && smoke_env[0] != '\0' && smoke_env[0] != '0';

  const auto unique = make_unique_pipelines( smoke );
  const size_t num_requests = smoke ? 60u : 1200u;
  const auto requests = make_requests( num_requests, unique.size() );

  std::printf( "E11: compile server on a zipf workload (%zu requests over %zu pipelines%s)\n",
               requests.size(), unique.size(), smoke ? ", smoke" : "" );

  /* ---- correctness spot check: served results == cold compiles ---- */

  {
    compile_server server( amortized_options( 8u ) );
    pass_manager reference( /*enable_cache=*/false );
    for ( size_t i = 0u; i < unique.size(); i += 5u )
    {
      const auto served = server.submit( respell( unique[i], i % 3u ) ).get();
      const auto expected = reference.run( unique[i] );
      const auto gates = []( const staged_ir& ir ) {
        return ir.current == stage::reversible ? ir.require_reversible().num_gates()
                                               : ir.require_quantum().circuit.num_gates();
      };
      if ( gates( served.result->ir ) != gates( expected.ir ) )
      {
        std::printf( "E11: VERIFY-FAIL served '%s' differs from a cold compile\n",
                     unique[i].c_str() );
        return 1;
      }
    }
    std::printf( "verification: served results match cold compiles\n" );
  }

  /* ---- measured configurations ---- */

  /* the serial baseline, amortized_8w and degrade_8w are the sides of
   * the two wall-time floors: each keeps its fastest of `wall_repeats`
   * interleaved runs.  degrade_8w is the healthy workload through the
   * fault-tolerant submit path: degrade policy armed but never
   * triggered -- it measures the cancellation/rollback plumbing */
  server_options serial_options;
  serial_options.num_workers = 1u;
  serial_options.enable_result_cache = false;
  serial_options.enable_prefix_reuse = false;
  serial_options.coalesce_identical = false;
  server::job_options degrade_job;
  degrade_job.policy = failure_policy::degrade;
  config_result serial_best;
  config_result amortized_8_best;
  config_result degrade_8_best;
  for ( int run = 0; run < ( smoke ? 1 : wall_repeats ); ++run )
  {
    auto serial = run_config( "serial_baseline", serial_options, unique, requests );
    auto strict = run_config( "amortized_8w", amortized_options( 8u ), unique, requests );
    auto degrade =
        run_config( "degrade_8w", amortized_options( 8u ), unique, requests, &degrade_job );
    std::printf( "run %d: serial %.1f req/s; 8 workers strict %.1f req/s (%llu compiled), "
                 "degrade %.1f req/s (%llu compiled)\n",
                 run, serial.throughput, strict.throughput,
                 static_cast<unsigned long long>( strict.stats.compiled ), degrade.throughput,
                 static_cast<unsigned long long>( degrade.stats.compiled ) );
    keep_fastest( serial_best, std::move( serial ) );
    keep_fastest( amortized_8_best, std::move( strict ) );
    keep_fastest( degrade_8_best, std::move( degrade ) );
  }

  std::vector<config_result> rows;
  rows.push_back( std::move( serial_best ) );
  rows.push_back( run_config( "amortized_1w", amortized_options( 1u ), unique, requests ) );
  rows.push_back( std::move( amortized_8_best ) );
  rows.push_back( run_config( "amortized_32w", amortized_options( 32u ), unique, requests ) );
  {
    auto exact = amortized_options( 8u );
    exact.keying = key_mode::exact_text;
    exact.enable_prefix_reuse = false; /* text keys have no pass structure */
    rows.push_back( run_config( "exact_text_8w", exact, unique, requests ) );
  }
  rows.push_back( std::move( degrade_8_best ) );

  std::printf( "\n%-16s %-8s %-10s %-11s %-10s %-9s %-9s %-9s %-8s\n", "config", "workers",
               "wall-ms", "compiles/s", "hit-rate", "compiled", "hits", "coalesced",
               "prefix" );
  for ( const auto& row : rows )
  {
    std::printf( "%-16s %-8u %-10.1f %-11.1f %-10.3f %-9llu %-9llu %-9llu %-8llu\n",
                 row.name.c_str(), row.workers, row.wall_ms, row.throughput,
                 row.stats.hit_rate(),
                 static_cast<unsigned long long>( row.stats.compiled ),
                 static_cast<unsigned long long>( row.stats.cache_hits ),
                 static_cast<unsigned long long>( row.stats.coalesced ),
                 static_cast<unsigned long long>( row.stats.prefix_passes_skipped ) );
  }

  const auto find_row = [&]( const char* name ) -> const config_result& {
    for ( const auto& row : rows )
    {
      if ( row.name == name )
      {
        return row;
      }
    }
    std::abort();
  };
  const auto one_shot = run_one_shot( smoke ? 20u : 200u );
  std::printf( "\n%-16s %-8u %-10.1f %-11.1f %-10.3f %-9llu  result entries %llu, "
               "prefix %.1f KiB over %llu gates (%.2f B/gate)\n",
               "one_shot", 1u, one_shot.wall_ms,
               1000.0 * static_cast<double>( one_shot.requests ) / one_shot.wall_ms,
               one_shot.stats.hit_rate(),
               static_cast<unsigned long long>( one_shot.stats.compiled ),
               static_cast<unsigned long long>( one_shot.stats.result_cache.entries ),
               static_cast<double>( one_shot.stats.prefix_cache.bytes ) / 1024.0,
               static_cast<unsigned long long>( one_shot.stats.prefix_cache.gates ),
               one_shot.prefix_bytes_per_gate() );

  const auto codec =
      time_codec( smoke ? "revgen --random 6 --seed 7; tbs; revsimp; rptm"
                        : "revgen --random 8 --seed 7; tbs; revsimp; rptm",
                  smoke ? 3 : 20 );
  std::printf( "snapshot codec on a %llu-gate rptm output: copy %.1f us, freeze %.1f us, "
               "thaw %.1f us, %.2f B/gate frozen\n",
               static_cast<unsigned long long>( codec.gates ), codec.copy_us, codec.freeze_us,
               codec.thaw_us, codec.bytes_per_gate );

  const auto& serial = find_row( "serial_baseline" );
  const auto& amortized_1 = find_row( "amortized_1w" );
  const auto& amortized_8 = find_row( "amortized_8w" );
  const auto& exact_text = find_row( "exact_text_8w" );
  const auto& degrade_8 = find_row( "degrade_8w" );

  const double speedup =
      serial.throughput > 0.0 ? amortized_8.throughput / serial.throughput : 0.0;
  const double thread_scaling =
      amortized_1.throughput > 0.0 ? amortized_8.throughput / amortized_1.throughput : 0.0;
  const double structural_hit_rate = amortized_8.stats.hit_rate();
  const double exact_hit_rate = exact_text.stats.hit_rate();
  const double degrade_healthy_ratio =
      amortized_8.throughput > 0.0 ? degrade_8.throughput / amortized_8.throughput : 0.0;

  std::printf( "\nsummary:\n" );
  std::printf( "  8-worker amortized vs serial baseline: %.1fx\n", speedup );
  std::printf( "  8-worker vs 1-worker (same config, hardware-dependent): %.2fx\n",
               thread_scaling );
  std::printf( "  hit rate: structural %.3f vs exact-text %.3f\n", structural_hit_rate,
               exact_hit_rate );
  std::printf( "  prefix reuse at 8 workers: %llu passes skipped, %.1f ms saved\n",
               static_cast<unsigned long long>( amortized_8.stats.prefix_passes_skipped ),
               amortized_8.stats.prefix_saved_ms );
  std::printf( "  result cache at 8 workers: %.1f KiB over %zu entries (%.2f B/gate)\n",
               static_cast<double>( amortized_8.stats.result_cache.bytes ) / 1024.0,
               static_cast<size_t>( amortized_8.stats.result_cache.entries ),
               amortized_8.result_bytes_per_gate() );
  std::printf( "  fault-path overhead on a healthy workload: %.1f%% "
               "(degrade policy at %.1f req/s vs strict at %.1f)\n",
               100.0 * ( 1.0 - degrade_healthy_ratio ), degrade_8.throughput,
               amortized_8.throughput );
  std::printf( "\n%s", format_server_report( amortized_8.stats ).c_str() );

  /* ---- machine-readable record for cross-PR tracking ---- */

  std::FILE* json = std::fopen( "BENCH_serve.json", "w" );
  if ( json == nullptr )
  {
    std::printf( "could not open BENCH_serve.json for writing\n" );
    return 1;
  }
  std::fprintf( json, "{\n  \"experiment\": \"compile_serve\",\n  %s,\n",
                telemetry::bench_metadata_json().c_str() );
  std::fprintf( json,
                "  \"smoke\": %s,\n  \"workload\": { \"requests\": %zu, "
                "\"unique_pipelines\": %zu, \"spelling_variants\": 3, "
                "\"zipf_exponent\": 1.1, \"client_threads\": 4 },\n",
                smoke ? "true" : "false", requests.size(), unique.size() );
  std::fprintf( json, "  \"configs\": [\n" );
  for ( size_t i = 0u; i < rows.size(); ++i )
  {
    const auto& row = rows[i];
    std::fprintf(
        json,
        "    { \"name\": \"%s\", \"workers\": %u, \"amortized\": %s, \"keying\": \"%s\", "
        "\"wall_ms\": %.1f, \"throughput_per_sec\": %.1f, \"hit_rate\": %.4f, "
        "\"compiled\": %llu, \"cache_hits\": %llu, \"coalesced\": %llu, "
        "\"prefix_hits\": %llu, \"prefix_passes_skipped\": %llu, "
        "\"prefix_saved_ms\": %.1f, \"peak_queue_depth\": %llu, "
        "\"failed\": %llu, \"cancelled\": %llu, \"deadline_exceeded\": %llu, "
        "\"degraded\": %llu, \"retried\": %llu }%s\n",
        row.name.c_str(), row.workers, row.amortized ? "true" : "false",
        row.keying.c_str(), row.wall_ms, row.throughput, row.stats.hit_rate(),
        static_cast<unsigned long long>( row.stats.compiled ),
        static_cast<unsigned long long>( row.stats.cache_hits ),
        static_cast<unsigned long long>( row.stats.coalesced ),
        static_cast<unsigned long long>( row.stats.prefix_hits ),
        static_cast<unsigned long long>( row.stats.prefix_passes_skipped ),
        row.stats.prefix_saved_ms,
        static_cast<unsigned long long>( row.stats.peak_queue_depth ),
        static_cast<unsigned long long>( row.stats.failed ),
        static_cast<unsigned long long>( row.stats.cancelled ),
        static_cast<unsigned long long>( row.stats.deadline_exceeded ),
        static_cast<unsigned long long>( row.stats.degraded ),
        static_cast<unsigned long long>( row.stats.retried ),
        i + 1u < rows.size() ? "," : "" );
  }
  std::fprintf( json, "  ],\n" );
  std::fprintf( json,
                "  \"one_shot\": { \"requests\": %zu, \"workers\": 1, \"wall_ms\": %.1f, "
                "\"hit_rate\": %.4f, \"compiled\": %llu, \"result_entries\": %llu, "
                "\"result_bytes\": %llu, \"prefix_entries\": %llu, \"prefix_bytes\": %llu, "
                "\"prefix_gates\": %llu, \"prefix_bytes_per_gate\": %.4f,\n"
                "    \"codec\": { \"rptm_gates\": %llu, \"copy_us\": %.1f, \"freeze_us\": %.1f, "
                "\"thaw_us\": %.1f, \"frozen_bytes_per_gate\": %.4f } },\n",
                one_shot.requests, one_shot.wall_ms, one_shot.stats.hit_rate(),
                static_cast<unsigned long long>( one_shot.stats.compiled ),
                static_cast<unsigned long long>( one_shot.stats.result_cache.entries ),
                static_cast<unsigned long long>( one_shot.stats.result_cache.bytes ),
                static_cast<unsigned long long>( one_shot.stats.prefix_cache.entries ),
                static_cast<unsigned long long>( one_shot.stats.prefix_cache.bytes ),
                static_cast<unsigned long long>( one_shot.stats.prefix_cache.gates ),
                one_shot.prefix_bytes_per_gate(), static_cast<unsigned long long>( codec.gates ),
                codec.copy_us, codec.freeze_us, codec.thaw_us, codec.bytes_per_gate );
  std::fprintf( json,
                "  \"summary\": { \"speedup_8_workers_vs_serial_baseline\": %.2f, "
                "\"thread_scaling_8v1\": %.2f, \"structural_hit_rate\": %.4f, "
                "\"exact_text_hit_rate\": %.4f, \"hit_rate_gain\": %.4f, "
                "\"degrade_healthy_ratio\": %.4f, \"result_bytes_per_gate\": %.4f }\n}\n",
                speedup, thread_scaling, structural_hit_rate, exact_hit_rate,
                structural_hit_rate - exact_hit_rate, degrade_healthy_ratio,
                amortized_8.result_bytes_per_gate() );
  std::fclose( json );
  std::printf( "wrote BENCH_serve.json\n" );

  /* ---- acceptance floors (full runs only) ---- */

  if ( !smoke )
  {
    bool failed = false;
    if ( speedup < 4.0 )
    {
      std::printf( "E11: FAIL amortized 8-worker speedup %.1fx < 4x\n", speedup );
      failed = true;
    }
    if ( structural_hit_rate <= exact_hit_rate )
    {
      std::printf( "E11: FAIL structural hit rate %.3f not above exact-text %.3f\n",
                   structural_hit_rate, exact_hit_rate );
      failed = true;
    }
    /* the fault plumbing should be invisible on a healthy workload; the
     * floor is generous because both sides are wall-clock measurements
     * on shared CI hardware, even as best of `wall_repeats` (the
     * tracked ratio is also gated by check_bench_regression.py against
     * the committed baseline) */
    if ( degrade_healthy_ratio < 0.80 )
    {
      std::printf( "E11: FAIL degrade-policy healthy throughput %.2fx of strict (< 0.80x)\n",
                   degrade_healthy_ratio );
      failed = true;
    }
    if ( degrade_8.stats.degraded != 0u || degrade_8.stats.failed != 0u )
    {
      std::printf( "E11: FAIL healthy degrade run reported %llu degraded, %llu failed jobs\n",
                   static_cast<unsigned long long>( degrade_8.stats.degraded ),
                   static_cast<unsigned long long>( degrade_8.stats.failed ) );
      failed = true;
    }
    /* deterministic work: the degrade policy must compile exactly what
     * the strict policy compiles on a healthy mix */
    if ( degrade_8.stats.compiled != amortized_8.stats.compiled )
    {
      std::printf( "E11: FAIL healthy degrade run compiled %llu jobs, strict %llu\n",
                   static_cast<unsigned long long>( degrade_8.stats.compiled ),
                   static_cast<unsigned long long>( amortized_8.stats.compiled ) );
      failed = true;
    }
    if ( one_shot.stats.result_cache.entries != 0u )
    {
      std::printf( "E11: FAIL one-shot traffic left %llu result entries (expected 0)\n",
                   static_cast<unsigned long long>( one_shot.stats.result_cache.entries ) );
      failed = true;
    }
    if ( failed )
    {
      return 1;
    }
    std::printf( "floors: amortized speedup >= 4x, structural > exact-text hit rate, "
                 "healthy degrade-path >= 0.80x strict throughput with equal compiles, "
                 "no result entries after one-shot traffic\n" );
  }
  return 0;
}
