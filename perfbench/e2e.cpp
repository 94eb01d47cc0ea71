/*! \file e2e.cpp
 *  \brief End-to-end benchmark of the qda compiler.  One process runs one
 *         workload through the library's public entry points and prints
 *         its metrics as JSON on the last line of standard output.
 *
 *    perfbench_e2e --workload compile-cold|serve-zipf|execute-hidden-shift
 *                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 *  The request list is a pure function of (workload, seed, seconds): the
 *  timed request count is the workload's nominal rate times --seconds,
 *  so a seed always yields the same requests and the output-size counts
 *  (T-count, CNOT count) repeat exactly.
 *
 *  --trace 0 runs one untraced timed phase and prints the end-to-end
 *  metrics.  --trace 1 runs that phase again for the counters, then the
 *  same requests with spans taken around every call into the library
 *  (and, for the compile workloads, a pass-by-pass replay that splits
 *  the compile time by layer), and prints the per-layer metrics.  Spans
 *  are recorded here, outside the library; the library's own telemetry
 *  tracer stays off.  README.md documents the workloads and metrics.
 */
#include "core/bent.hpp"
#include "core/hidden_shift.hpp"
#include "kernel/permutation.hpp"
#include "library/subcircuit_library.hpp"
#include "mapping/clifford_t.hpp"
#include "pipeline/pass_manager.hpp"
#include "pipeline/spec_parser.hpp"
#include "server/compile_server.hpp"
#include "simulator/fusion.hpp"
#include "simulator/kernels.hpp"
#include "simulator/statevector.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace
{

using namespace qda;
using server::compile_response;
using server::compile_server;
using server::server_options;
using server::server_statistics;
using clock_type = std::chrono::steady_clock;
using time_point = clock_type::time_point;

const time_point process_start = clock_type::now();

double ms_between( time_point from, time_point to )
{
  return std::chrono::duration<double, std::milli>( to - from ).count();
}

library::subcircuit_library& shared_library()
{
  return library::subcircuit_library::instance();
}

/* ------------------------------------------------------------------ */
/* workload shapes                                                     */
/* ------------------------------------------------------------------ */

/*! Fixed shape of one workload. */
struct workload_shape
{
  std::string_view name;
  std::string_view loop;   /*!< "closed" (1 client) or "open" (1 generator) */
  double nominal_rps;      /*!< timed requests = nominal_rps x --seconds;
                                for the open loop also the offered rate */
  double latency_limit_ms; /*!< per-request SLO */
  size_t warmup_requests;  /*!< serial, before every timed phase */
};

constexpr workload_shape compile_cold{ "compile-cold", "closed", 80.0, 100.0, 40u };
constexpr workload_shape serve_zipf{ "serve-zipf", "open", 1000.0, 50.0, 800u };
constexpr workload_shape execute_shift{ "execute-hidden-shift", "closed", 8.0, 300.0, 12u };

/*! Setup runs this many times per process; setup_s is the median. */
constexpr uint32_t setup_repetitions = 3u;

/*! An open-loop run is invalid when the generator's p99 lag (send time
 *  minus due time) exceeds this fraction of the latency limit.  p99, not
 *  the maximum: one descheduling of the generator on a shared host must
 *  not void a run. */
constexpr double max_lag_fraction = 0.5;

/*! Simulator threads; one keeps the small hidden-shift states steady. */
constexpr uint32_t simulator_threads = 1u;

/* ------------------------------------------------------------------ */
/* spans, recorded around calls into the library                       */
/* ------------------------------------------------------------------ */

using layer_times = std::map<std::string, double, std::less<>>;

struct span_record
{
  std::string_view name; /*!< layer name; always a string literal */
  time_point start;
  time_point end;
  int32_t parent = -1;
  uint32_t request = 0u;
};

/*! In-memory span store of one phase.  Single-threaded: every span is
 *  taken on the benchmark's client or generator thread. */
class span_log
{
public:
  explicit span_log( std::string phase ) : phase_( std::move( phase ) ) {}

  int32_t add( std::string_view name, time_point start, time_point end, int32_t parent,
               size_t request )
  {
    spans_.push_back( { name, start, end, parent, static_cast<uint32_t>( request ) } );
    return static_cast<int32_t>( spans_.size() - 1u );
  }

  void open( std::string_view name, size_t request )
  {
    const auto now = clock_type::now();
    stack_.push_back( add( name, now, now, stack_.empty() ? -1 : stack_.back(), request ) );
  }

  void close()
  {
    spans_[static_cast<size_t>( stack_.back() )].end = clock_type::now();
    stack_.pop_back();
  }

  const std::string& phase() const noexcept { return phase_; }
  const std::vector<span_record>& spans() const noexcept { return spans_; }

  /*! Self time (span minus the part its children cover) per name, ms. */
  layer_times self_ms() const
  {
    std::vector<double> child_ms( spans_.size(), 0.0 );
    for ( const auto& span : spans_ )
    {
      if ( span.parent >= 0 )
      {
        child_ms[static_cast<size_t>( span.parent )] += ms_between( span.start, span.end );
      }
    }
    layer_times self;
    for ( size_t i = 0u; i < spans_.size(); ++i )
    {
      self[std::string( spans_[i].name )] +=
          ms_between( spans_[i].start, spans_[i].end ) - child_ms[i];
    }
    return self;
  }

  /*! Summed duration of the root spans (one per request), ms. */
  double root_ms() const
  {
    double total = 0.0;
    for ( const auto& span : spans_ )
    {
      total += span.parent < 0 ? ms_between( span.start, span.end ) : 0.0;
    }
    return total;
  }

private:
  std::string phase_;
  std::vector<span_record> spans_;
  std::vector<int32_t> stack_;
};

/*! RAII span; a no-op when tracing is off (null log). */
class scoped_span
{
public:
  scoped_span( span_log* log, std::string_view name, size_t request ) : log_( log )
  {
    if ( log_ != nullptr )
    {
      log_->open( name, request );
    }
  }
  ~scoped_span()
  {
    if ( log_ != nullptr )
    {
      log_->close();
    }
  }
  scoped_span( const scoped_span& ) = delete;
  scoped_span& operator=( const scoped_span& ) = delete;

private:
  span_log* log_;
};

/*! Writes every phase's spans as JSON, times in µs since process start. */
bool write_spans( const std::string& path, const std::vector<const span_log*>& logs )
{
  std::FILE* file = std::fopen( path.c_str(), "w" );
  if ( file == nullptr )
  {
    return false;
  }
  const auto us = []( time_point t ) { return 1000.0 * ms_between( process_start, t ); };
  std::fprintf( file, "{\"fields\": [\"name\", \"start_us\", \"end_us\", \"parent\", "
                      "\"request\"],\n \"phases\": [" );
  for ( size_t l = 0u; l < logs.size(); ++l )
  {
    std::fprintf( file, "%s\n  {\"phase\": \"%s\", \"spans\": [", l ? "," : "",
                  logs[l]->phase().c_str() );
    const auto& spans = logs[l]->spans();
    for ( size_t i = 0u; i < spans.size(); ++i )
    {
      std::fprintf( file, "%s\n   [\"%.*s\", %.3f, %.3f, %d, %u]", i ? "," : "",
                    static_cast<int>( spans[i].name.size() ), spans[i].name.data(),
                    us( spans[i].start ), us( spans[i].end ), spans[i].parent,
                    spans[i].request );
    }
    std::fprintf( file, "]}" );
  }
  std::fprintf( file, "]}\n" );
  return std::fclose( file ) == 0;
}

/*! The layer (src/ module) a pipeline pass belongs to. */
std::string_view pass_layer( const std::string& pass )
{
  if ( pass == "revgen" || pass == "tbs" || pass == "dbs" )
  {
    return "synthesis";
  }
  if ( pass == "revsimp" || pass == "peephole" )
  {
    return "optimization";
  }
  if ( pass == "rptm" )
  {
    return "mapping.rptm";
  }
  if ( pass == "route" )
  {
    return "mapping.route";
  }
  if ( pass == "tpar" )
  {
    return "phasepoly.tpar";
  }
  if ( pass == "ps" )
  {
    return "pipeline.ps";
  }
  return "pipeline.other";
}

/* ------------------------------------------------------------------ */
/* deterministic inputs                                                */
/* ------------------------------------------------------------------ */

uint64_t mix64( uint64_t x )
{
  x += 0x9e3779b97f4a7c15ull;
  x = ( x ^ ( x >> 30u ) ) * 0xbf58476d1ce4e5b9ull;
  x = ( x ^ ( x >> 27u ) ) * 0x94d049bb133111ebull;
  return x ^ ( x >> 31u );
}

/*! Independent random streams of one workload seed. */
enum class stream : uint64_t
{
  timed = 1u,
  warmup,
  catalog,
  schedule,
  check,
  shots
};

std::mt19937_64 stream_rng( uint64_t seed, stream which )
{
  return std::mt19937_64( mix64( mix64( seed ) ^ static_cast<uint64_t>( which ) ) );
}

/*! revgen seeds stay below 2^52 so they print and parse exactly. */
uint64_t draw_seed( std::mt19937_64& rng )
{
  return rng() >> 12u;
}

size_t timed_request_count( const workload_shape& shape, double seconds )
{
  return std::max<size_t>( 20u,
                           static_cast<size_t>( std::llround( shape.nominal_rps * seconds ) ) );
}

constexpr std::string_view eq5_tail = "tbs; revsimp; rptm; tpar; ps";
constexpr std::string_view dbs_tail = "dbs; revsimp; rptm; tpar; ps";
constexpr std::string_view peephole_tail = "tbs; revsimp; rptm; peephole; ps";
constexpr std::string_view device_tail =
    "tbs; revsimp; rptm --cost-target ibm_qx5; tpar; route --device ibm_qx5; ps";

std::string revgen_spec( uint32_t n, uint64_t seed, std::string_view tail )
{
  return "revgen --random " + std::to_string( n ) + " --seed " + std::to_string( seed ) + "; " +
         std::string( tail );
}

/*! One of three equivalent spellings of `spec`, as distinct scripted
 *  clients would type it (extra blanks and empty segments; no blanks). */
std::string respell( const std::string& spec, uint32_t variant )
{
  std::string out;
  for ( size_t i = 0u; i < spec.size(); ++i )
  {
    if ( spec[i] != ';' || variant == 0u )
    {
      out += spec[i];
    }
    else if ( variant == 1u )
    {
      out += " ;  ;";
    }
    else
    {
      out += ';';
      while ( i + 1u < spec.size() && spec[i + 1u] == ' ' )
      {
        ++i;
      }
    }
  }
  return variant == 1u ? "  " + out + " ;" : variant == 2u ? out + ";" : out;
}

/*! One compile request: the text sent and the generator inputs that
 *  the output is checked against. */
struct spec_request
{
  std::string text;
  uint32_t n = 0u; /*!< revgen --random width */
  uint64_t perm_seed = 0u;
};

/*! compile-cold draws from blocks holding every request kind once, in
 *  shuffled order, so the mix of sizes and tails is exact in every run.
 *  n = 7 fills 40..80 % of the block, so the median latency sits inside
 *  one size class instead of between two. */
std::vector<spec_request> cold_requests( uint64_t seed, stream which, size_t count )
{
  struct kind
  {
    uint32_t n;
    std::string_view tail;
  };
  static const std::vector<kind> block = {
      { 5u, device_tail }, { 5u, eq5_tail }, { 6u, eq5_tail },      { 6u, dbs_tail },
      { 7u, eq5_tail },    { 7u, dbs_tail }, { 7u, peephole_tail }, { 7u, eq5_tail },
      { 8u, eq5_tail },    { 8u, peephole_tail } };
  auto rng = stream_rng( seed, which );
  std::vector<spec_request> requests;
  requests.reserve( count );
  while ( requests.size() < count )
  {
    auto order = block;
    std::shuffle( order.begin(), order.end(), rng );
    for ( const auto& k : order )
    {
      if ( requests.size() == count )
      {
        break;
      }
      const auto perm_seed = draw_seed( rng );
      requests.push_back( { revgen_spec( k.n, perm_seed, k.tail ), k.n, perm_seed } );
    }
  }
  return requests;
}

/*! serve-zipf catalog: 400 programs, each under four tails sharing the
 *  `tbs; revsimp; rptm` prefix, so prefix reuse and library second
 *  sightings fire.  The 1600 pairs exceed the result cache's default
 *  1024 entries, so LRU eviction keeps a steady miss rate.  Popularity
 *  follows the program's rank and its width is fixed by that rank, so
 *  the size mix of the traffic is the same for every seed; the seed
 *  only picks the permutations. */
constexpr size_t serve_programs = 400u;
constexpr double serve_zipf_exponent = 0.9;
constexpr std::string_view serve_tails[] = { "tbs; revsimp; rptm; ps",
                                             "tbs; revsimp; rptm; tpar; ps",
                                             "tbs; revsimp; rptm; peephole; ps",
                                             "tbs; revsimp; rptm; tpar; peephole; ps" };

struct serve_catalog
{
  std::vector<spec_request> pairs; /*!< canonical spelling in `text`, by rank */
  std::vector<double> weights;     /*!< zipf popularity of each pair */
};

serve_catalog make_catalog( uint64_t seed )
{
  static constexpr uint32_t widths[] = { 5u, 6u, 6u, 6u };
  auto rng = stream_rng( seed, stream::catalog );
  serve_catalog catalog;
  for ( size_t program = 0u; program < serve_programs; ++program )
  {
    const uint32_t n = widths[program % std::size( widths )];
    const auto perm_seed = draw_seed( rng );
    for ( const auto tail : serve_tails )
    {
      const auto rank = catalog.pairs.size();
      catalog.pairs.push_back( { revgen_spec( n, perm_seed, tail ), n, perm_seed } );
      catalog.weights.push_back(
          1.0 / std::pow( static_cast<double>( rank + 1u ), serve_zipf_exponent ) );
    }
  }
  return catalog;
}

std::vector<spec_request> zipf_requests( const serve_catalog& catalog, uint64_t seed,
                                         stream which, size_t count )
{
  auto rng = stream_rng( seed, which );
  std::discrete_distribution<size_t> pick( catalog.weights.begin(), catalog.weights.end() );
  std::vector<spec_request> requests;
  requests.reserve( count );
  for ( size_t i = 0u; i < count; ++i )
  {
    auto request = catalog.pairs[pick( rng )];
    request.text = respell( request.text, static_cast<uint32_t>( rng() % 3u ) );
    requests.push_back( std::move( request ) );
  }
  return requests;
}

/*! Poisson arrivals: due time of each request, ms after the start. */
std::vector<double> arrival_offsets_ms( uint64_t seed, size_t count, double rate_rps )
{
  auto rng = stream_rng( seed, stream::schedule );
  std::exponential_distribution<double> gap_ms( rate_rps / 1000.0 );
  std::vector<double> offsets;
  offsets.reserve( count );
  double due = 0.0;
  for ( size_t i = 0u; i < count; ++i )
  {
    due += gap_ms( rng );
    offsets.push_back( due );
  }
  return offsets;
}

/*! One hidden-shift request: a seeded Maiorana-McFarland instance over
 *  2k variables and a random shift. */
struct shift_request
{
  uint32_t k = 0u;
  uint64_t f_seed = 0u;
  uint64_t shift = 0u;
};

/*! k = 6 fills three quarters of each block, so the median and the
 *  tail both fall inside the k = 6 class. */
std::vector<shift_request> shift_requests( uint64_t seed, stream which, size_t count )
{
  static constexpr uint32_t block[] = { 5u, 6u, 6u, 6u };
  auto rng = stream_rng( seed, which );
  std::vector<shift_request> requests;
  requests.reserve( count );
  while ( requests.size() < count )
  {
    std::vector<uint32_t> order( std::begin( block ), std::end( block ) );
    std::shuffle( order.begin(), order.end(), rng );
    for ( const auto k : order )
    {
      if ( requests.size() == count )
      {
        break;
      }
      const auto f_seed = draw_seed( rng );
      const auto shift = rng() & ( ( uint64_t{ 1 } << ( 2u * k ) ) - 1u );
      requests.push_back( { k, f_seed, shift } );
    }
  }
  return requests;
}

/*! Clean helper qubits the hidden-shift lowering may add. */
constexpr uint32_t shift_helper_budget = 2u;
constexpr uint64_t shift_shots = 32u;

/* ------------------------------------------------------------------ */
/* one timed phase                                                     */
/* ------------------------------------------------------------------ */

struct request_outcome
{
  double latency_ms = 0.0;
  bool ok = false;
  uint64_t t_count = 0u;
  uint64_t cnot_count = 0u;
};

struct size_sum
{
  uint64_t total = 0u;
  uint64_t samples = 0u;
};

struct phase_result
{
  std::vector<request_outcome> outcomes;
  time_point start;
  double wall_ms = 0.0; /*!< phase start to last completion */
  double busy_ms = 0.0; /*!< closed loop: wall; open loop: summed latency */
  std::vector<double> lags_ms;        /*!< open loop: send time - due time */
  std::vector<double> queue_waits_ms; /*!< compiled (not hit) responses */
  std::vector<size_t> compiled;       /*!< requests served by a real compile */
  std::map<std::string, size_sum, std::less<>> ir_sizes;
  /*! Sampled outputs kept for the check against the generator. */
  std::vector<std::pair<size_t, std::shared_ptr<const compilation_result>>> kept;
  server_statistics server_before;
  server_statistics server_after;
  library::library_statistics library_before;
  library::library_statistics library_after;
  uint64_t fused_source_gates = 0u;
  uint64_t fused_ops = 0u;
  std::string first_error;
};

void add_size( phase_result& out, std::string_view name, uint64_t value )
{
  auto it = out.ir_sizes.find( name );
  if ( it == out.ir_sizes.end() )
  {
    it = out.ir_sizes.emplace( std::string( name ), size_sum{} ).first;
  }
  it->second.total += value;
  ++it->second.samples;
}

void count_ir_sizes( phase_result& out, const std::vector<pass_report>& reports )
{
  for ( const auto& report : reports )
  {
    if ( report.name == "rptm" )
    {
      add_size( out, "ir.gates_after.rptm", report.gates_after );
      add_size( out, "ir.helpers_after.rptm", report.helpers_after );
    }
    else if ( report.name == "tpar" )
    {
      add_size( out, "ir.gates_after.tpar", report.gates_after );
    }
    else if ( report.name == "peephole" )
    {
      add_size( out, "ir.gates_after.peephole", report.gates_after );
    }
    else if ( report.name == "route" )
    {
      add_size( out, "ir.gates_after.route", report.gates_after );
    }
  }
}

void note_error( phase_result& out, const std::string& message )
{
  if ( out.first_error.empty() )
  {
    out.first_error = message;
  }
}

/*! Records one served response. */
void record_response( phase_result& out, size_t index, const compile_response& response,
                      double latency_ms, bool keep_output )
{
  auto& outcome = out.outcomes[index];
  outcome.latency_ms = latency_ms;
  const auto* result = response.result.get();
  if ( !response.ok() || result == nullptr || !result->ir.last_statistics )
  {
    note_error( out, response.ok() ? "response without statistics" : response.error_message );
    return;
  }
  outcome.ok = true;
  outcome.t_count = result->ir.last_statistics->t_count;
  outcome.cnot_count = result->ir.last_statistics->cnot_count;
  if ( !response.cache_hit && !response.coalesced )
  {
    out.queue_waits_ms.push_back( response.queue_wait_ms );
    out.compiled.push_back( index );
  }
  count_ir_sizes( out, result->reports );
  if ( keep_output )
  {
    out.kept.emplace_back( index, response.result );
  }
}

void snapshot_before( phase_result& out, const compile_server* server )
{
  if ( server != nullptr )
  {
    out.server_before = server->statistics();
  }
  out.library_before = shared_library().statistics();
  out.start = clock_type::now();
}

void snapshot_after( phase_result& out, const compile_server* server )
{
  out.wall_ms = ms_between( out.start, clock_type::now() );
  if ( server != nullptr )
  {
    out.server_after = server->statistics();
  }
  out.library_after = shared_library().statistics();
}

/*! Which outputs a phase keeps for the check against the generator. */
struct output_sample
{
  size_t stride = 1u;
  size_t offset = 0u;

  bool keeps( size_t index ) const noexcept { return index % stride == offset; }
};

/*! Closed loop, one client: submit, wait, next. */
phase_result run_closed_server_phase( compile_server& server,
                                      const std::vector<spec_request>& requests,
                                      const output_sample& sample, span_log* spans )
{
  phase_result out;
  out.outcomes.resize( requests.size() );
  snapshot_before( out, &server );
  for ( size_t i = 0u; i < requests.size(); ++i )
  {
    const auto sent = clock_type::now();
    compile_response response;
    try
    {
      scoped_span request( spans, "request", i );
      std::future<compile_response> future;
      {
        scoped_span submit( spans, "server.submit", i );
        future = server.submit( requests[i].text );
      }
      scoped_span wait( spans, "server.wait", i );
      response = future.get();
    }
    catch ( const std::exception& e )
    {
      response.code = error_code::internal;
      response.error_message = e.what();
    }
    record_response( out, i, response, ms_between( sent, clock_type::now() ), sample.keeps( i ) );
  }
  snapshot_after( out, &server );
  out.busy_ms = out.wall_ms;
  return out;
}

/*! Open loop: one generator thread sends each request at its due time
 *  and polls the outstanding futures while it waits, so a completion is
 *  seen within about 0.1 ms.  Latency runs from the due time. */
phase_result run_open_server_phase( compile_server& server,
                                    const std::vector<spec_request>& requests,
                                    const std::vector<double>& offsets_ms,
                                    const output_sample& sample, span_log* spans )
{
  using std::chrono::microseconds;
  struct in_flight
  {
    size_t index = 0u;
    time_point due;
    time_point sent;
    time_point submitted;
    std::future<compile_response> future;
  };

  phase_result out;
  out.outcomes.resize( requests.size() );
  out.lags_ms.reserve( requests.size() );
  std::vector<in_flight> pending;

  const auto finish = [&]( in_flight& job ) {
    const auto done = clock_type::now();
    compile_response response;
    try
    {
      response = job.future.get();
    }
    catch ( const std::exception& e )
    {
      response.code = error_code::internal;
      response.error_message = e.what();
    }
    const double latency_ms = ms_between( job.due, done );
    out.busy_ms += latency_ms;
    record_response( out, job.index, response, latency_ms, sample.keeps( job.index ) );
    if ( spans != nullptr )
    {
      const auto root = spans->add( "request", job.due, done, -1, job.index );
      spans->add( "server.submit", job.sent, job.submitted, root, job.index );
      spans->add( "server.wait", job.submitted, done, root, job.index );
    }
  };
  const auto poll = [&] {
    for ( size_t j = 0u; j < pending.size(); )
    {
      if ( pending[j].future.wait_for( std::chrono::seconds( 0 ) ) == std::future_status::ready )
      {
        finish( pending[j] );
        pending[j] = std::move( pending.back() );
        pending.pop_back();
      }
      else
      {
        ++j;
      }
    }
  };

  snapshot_before( out, &server );
  for ( size_t i = 0u; i < requests.size(); ++i )
  {
    const auto due = out.start + std::chrono::duration_cast<clock_type::duration>(
                                     std::chrono::duration<double, std::milli>( offsets_ms[i] ) );
    for ( ;; )
    {
      poll();
      const auto now = clock_type::now();
      if ( now >= due )
      {
        break;
      }
      /* sleep in short steps while compiles are outstanding, and spin
       * through the last 0.3 ms so sends are not late by timer slack */
      const auto left = due - now;
      const auto spin = microseconds( 300 );
      if ( left <= spin )
      {
        std::this_thread::yield();
      }
      else if ( pending.empty() )
      {
        std::this_thread::sleep_for( left - spin );
      }
      else
      {
        std::this_thread::sleep_for(
            std::min<clock_type::duration>( left - spin, microseconds( 100 ) ) );
      }
    }
    in_flight job;
    job.index = i;
    job.due = due;
    job.sent = clock_type::now();
    out.lags_ms.push_back( ms_between( due, job.sent ) );
    try
    {
      job.future = server.submit( requests[i].text );
    }
    catch ( const std::exception& e )
    {
      out.outcomes[i].latency_ms = ms_between( due, clock_type::now() );
      note_error( out, e.what() );
      continue;
    }
    job.submitted = clock_type::now();
    if ( job.future.wait_for( std::chrono::seconds( 0 ) ) == std::future_status::ready )
    {
      finish( job );
    }
    else
    {
      pending.push_back( std::move( job ) );
    }
  }
  while ( !pending.empty() )
  {
    poll();
    if ( !pending.empty() )
    {
      std::this_thread::sleep_for( microseconds( 50 ) );
    }
  }
  snapshot_after( out, &server );
  return out;
}

/*! Pass-by-pass replay through parse_pipeline + apply_pass with the
 *  process-wide library in the pass context, as the server path uses
 *  it.  Splits the compile time of each request by layer. */
phase_result replay_passes( const std::vector<const spec_request*>& requests, span_log& spans )
{
  phase_result out;
  out.outcomes.resize( requests.size() );
  pass_context context;
  context.library = &shared_library();
  snapshot_before( out, nullptr );
  for ( size_t i = 0u; i < requests.size(); ++i )
  {
    const auto begun = clock_type::now();
    auto& outcome = out.outcomes[i];
    try
    {
      scoped_span request( &spans, "request", i );
      const auto spec = [&] {
        scoped_span parse( &spans, "pipeline.parse", i );
        return parse_pipeline( requests[i]->text );
      }();
      staged_ir ir;
      std::vector<pass_report> reports;
      for ( const auto& invocation : spec.passes )
      {
        scoped_span pass( &spans, pass_layer( invocation.name ), i );
        reports.push_back( pass_manager::apply_pass( ir, invocation, pass_registry::instance(),
                                                     nullptr, context ) );
      }
      if ( ir.last_statistics )
      {
        outcome.ok = true;
        outcome.t_count = ir.last_statistics->t_count;
        outcome.cnot_count = ir.last_statistics->cnot_count;
      }
      count_ir_sizes( out, reports );
    }
    catch ( const std::exception& e )
    {
      note_error( out, e.what() );
    }
    outcome.latency_ms = ms_between( begun, clock_type::now() );
  }
  snapshot_after( out, nullptr );
  out.busy_ms = out.wall_ms;
  return out;
}

/*! One hidden-shift request, layer by layer.  Untraced, `tpar; ps` runs
 *  through pass_manager::run; traced, through apply_pass per pass with
 *  the same library, so each pass gets its own span.  Correct only if
 *  every shot returns the generated shift with all helpers back at 0. */
void run_shift_request( phase_result& out, size_t index, const shift_request& request,
                        pass_manager& manager, const pipeline_spec& tail, uint64_t shot_seed,
                        span_log* spans )
{
  auto& outcome = out.outcomes[index];
  const auto begun = clock_type::now();
  try
  {
    scoped_span root( spans, "request", index );
    const auto circuit = [&] {
      scoped_span build( spans, "core.build", index );
      return hidden_shift_circuit_mm( mm_bent_function::random( request.k, request.f_seed ),
                                      request.shift );
    }();
    auto lowered = [&] {
      scoped_span lower( spans, "mapping.lower", index );
      clifford_t_options options;
      options.max_qubits = circuit.num_qubits() + shift_helper_budget;
      return lower_multi_controlled_gates( circuit, options );
    }();
    add_size( out, "ir.gates_after.lower", lowered.circuit.num_gates() );
    staged_ir ir;
    ir.set_quantum( std::move( lowered ) );
    if ( spans == nullptr )
    {
      auto result = manager.run( tail, std::move( ir ) );
      ir = std::move( result.ir );
      count_ir_sizes( out, result.reports );
    }
    else
    {
      pass_context context;
      context.library = &shared_library();
      std::vector<pass_report> reports;
      for ( const auto& invocation : tail.passes )
      {
        scoped_span pass( spans, pass_layer( invocation.name ), index );
        reports.push_back( pass_manager::apply_pass( ir, invocation, pass_registry::instance(),
                                                     nullptr, context ) );
      }
      count_ir_sizes( out, reports );
    }
    const auto& optimized = ir.require_quantum().circuit;
    std::vector<uint32_t> measured;
    const auto program = [&] {
      scoped_span compile( spans, "simulator.compile", index );
      return sim::compile_unitary_prefix( optimized, measured );
    }();
    out.fused_source_gates += program.source_gate_count;
    out.fused_ops += program.ops.size();
    statevector_simulator simulator( optimized.num_qubits() );
    {
      scoped_span run( spans, "simulator.run", index );
      simulator.run_program( program );
    }
    bool every_shot = measured.size() == circuit.num_qubits();
    {
      scoped_span sample( spans, "simulator.sample", index );
      const shot_sampler sampler( simulator );
      std::mt19937_64 rng( shot_seed );
      for ( uint64_t shot = 0u; shot < shift_shots; ++shot )
      {
        const uint64_t full = sampler.sample( rng );
        uint64_t value = 0u;
        for ( size_t j = 0u; j < measured.size(); ++j )
        {
          value |= ( ( full >> measured[j] ) & 1u ) << j;
        }
        const bool helpers_clean = ( full >> circuit.num_qubits() ) == 0u;
        every_shot = every_shot && value == request.shift && helpers_clean;
      }
    }
    if ( !every_shot )
    {
      note_error( out, "hidden shift not recovered on every shot" );
    }
    else if ( ir.last_statistics )
    {
      outcome.ok = true;
      outcome.t_count = ir.last_statistics->t_count;
      outcome.cnot_count = ir.last_statistics->cnot_count;
    }
  }
  catch ( const std::exception& e )
  {
    note_error( out, e.what() );
  }
  outcome.latency_ms = ms_between( begun, clock_type::now() );
}

phase_result run_shift_phase( const std::vector<shift_request>& requests,
                              uint64_t shot_stream_seed, span_log* spans )
{
  phase_result out;
  out.outcomes.resize( requests.size() );
  pass_manager manager( /*enable_cache=*/false );
  const auto tail = parse_pipeline( "tpar; ps" );
  auto shot_seeds = stream_rng( shot_stream_seed, stream::shots );
  snapshot_before( out, nullptr );
  for ( size_t i = 0u; i < requests.size(); ++i )
  {
    run_shift_request( out, i, requests[i], manager, tail, shot_seeds(), spans );
  }
  snapshot_after( out, nullptr );
  out.busy_ms = out.wall_ms;
  return out;
}

/* ------------------------------------------------------------------ */
/* checks that do not trust the compiler                               */
/* ------------------------------------------------------------------ */

/*! Simulates a compiled output on random basis states and compares it
 *  with the permutation the generator draws for (n, seed) -- never with
 *  anything the passes recorded.  Routed outputs are read through their
 *  initial/final layouts. */
bool matches_generator( const compilation_result& result, const spec_request& request,
                        std::mt19937_64& rng )
{
  constexpr uint32_t inputs_per_output = 2u;
  const auto reference = permutation::random( request.n, request.perm_seed );
  const auto& ir = result.ir;
  const qcircuit& circuit = ir.mapped ? ir.mapped->circuit : ir.require_quantum().circuit;
  const auto program = sim::compile( circuit );
  statevector_simulator simulator( circuit.num_qubits() );
  for ( uint32_t trial = 0u; trial < inputs_per_output; ++trial )
  {
    const uint64_t x = rng() & ( ( uint64_t{ 1 } << request.n ) - 1u );
    const uint64_t y = reference.apply( x );
    uint64_t input = 0u;
    uint64_t expected = 0u;
    for ( uint32_t q = 0u; q < request.n; ++q )
    {
      const uint32_t in_wire = ir.mapped ? ir.mapped->initial_layout.at( q ) : q;
      const uint32_t out_wire = ir.mapped ? ir.mapped->final_layout.at( q ) : q;
      input |= ( ( x >> q ) & 1u ) << in_wire;
      expected |= ( ( y >> q ) & 1u ) << out_wire;
    }
    simulator.set_basis_state( input );
    simulator.run_program( program );
    if ( std::abs( simulator.probability_of( expected ) - 1.0 ) > 1e-6 )
    {
      return false;
    }
  }
  return true;
}

/*! Checks the kept outputs of a compile phase; a wrong output turns its
 *  request into a failure.  Returns the number checked. */
size_t check_outputs( phase_result& out, const std::vector<spec_request>& requests,
                      uint64_t seed )
{
  auto rng = stream_rng( seed, stream::check );
  for ( const auto& [index, result] : out.kept )
  {
    bool good = false;
    try
    {
      good = matches_generator( *result, requests[index], rng );
    }
    catch ( const std::exception& e )
    {
      note_error( out, e.what() );
    }
    if ( !good )
    {
      out.outcomes[index].ok = false;
      note_error( out, "output differs from the generator's permutation: " + requests[index].text );
    }
  }
  const size_t checked = out.kept.size();
  out.kept.clear();
  return checked;
}

/* ------------------------------------------------------------------ */
/* summaries                                                           */
/* ------------------------------------------------------------------ */

/*! Nearest-rank percentile, p in (0, 100]. */
double percentile( std::vector<double> values, double p )
{
  if ( values.empty() )
  {
    return 0.0;
  }
  std::sort( values.begin(), values.end() );
  const auto rank =
      static_cast<size_t>( std::ceil( p / 100.0 * static_cast<double>( values.size() ) ) );
  return values[std::clamp<size_t>( rank, 1u, values.size() ) - 1u];
}

size_t samples_beyond( size_t samples, double p )
{
  const auto at = static_cast<size_t>( std::ceil( p / 100.0 * static_cast<double>( samples ) ) );
  return samples - std::min( samples, at );
}

/*! Highest percentile of a fixed ladder with >= 10 samples beyond it.
 *  The ladder stops at p99: beyond it a run's value hangs on a handful
 *  of requests and moves more between runs than any bound allows. */
double tail_percentile( size_t samples )
{
  for ( const double p : { 99.0, 98.0, 95.0, 90.0, 80.0, 75.0 } )
  {
    if ( samples_beyond( samples, p ) >= 10u )
    {
      return p;
    }
  }
  return 50.0;
}

double median( std::vector<double> values )
{
  return percentile( std::move( values ), 50.0 );
}

struct e2e_summary
{
  uint64_t attempted = 0u;
  uint64_t failed = 0u;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;
  size_t tail_beyond = 0u;
  double slo_attainment = 0.0;
  uint64_t t_sum = 0u;
  uint64_t cnot_sum = 0u;
};

e2e_summary summarize( const phase_result& phase, double limit_ms )
{
  e2e_summary s;
  s.attempted = phase.outcomes.size();
  std::vector<double> latencies;
  uint64_t within = 0u;
  for ( const auto& o : phase.outcomes )
  {
    latencies.push_back( o.latency_ms );
    if ( !o.ok )
    {
      ++s.failed;
      continue;
    }
    within += o.latency_ms <= limit_ms ? 1u : 0u;
    s.t_sum += o.t_count;
    s.cnot_sum += o.cnot_count;
  }
  const uint64_t completed = s.attempted - s.failed;
  s.throughput_rps =
      phase.wall_ms > 0.0 ? 1000.0 * static_cast<double>( completed ) / phase.wall_ms : 0.0;
  s.p50_ms = percentile( latencies, 50.0 );
  s.tail_pct = tail_percentile( latencies.size() );
  s.tail_beyond = samples_beyond( latencies.size(), s.tail_pct );
  s.tail_ms = percentile( latencies, s.tail_pct );
  s.slo_attainment =
      s.attempted ? static_cast<double>( within ) / static_cast<double>( s.attempted ) : 0.0;
  return s;
}

double peak_rss_mb()
{
  rusage usage{};
  getrusage( RUSAGE_SELF, &usage );
  return static_cast<double>( usage.ru_maxrss ) / 1024.0; /* ru_maxrss is in KiB */
}

/* ------------------------------------------------------------------ */
/* reporting                                                           */
/* ------------------------------------------------------------------ */

std::string number( double value )
{
  char buffer[64];
  std::snprintf( buffer, sizeof( buffer ), "%.17g", std::isfinite( value ) ? value : 0.0 );
  return buffer;
}

std::string quoted( std::string_view text )
{
  std::string out = "\"";
  for ( const char c : text )
  {
    if ( c == '"' || c == '\\' )
    {
      out += '\\';
    }
    out += static_cast<unsigned char>( c ) < 0x20u ? ' ' : c;
  }
  return out + "\"";
}

std::string json_list( const std::vector<double>& values )
{
  std::string out = "[";
  for ( size_t i = 0u; i < values.size(); ++i )
  {
    out += ( i ? ", " : "" ) + number( values[i] );
  }
  return out + "]";
}

struct metric
{
  std::string name;
  double value = 0.0;
  std::string unit;
};

/*! What a workload run hands to main for printing. */
struct run_report
{
  bool correct = true;
  uint64_t attempted = 0u;
  uint64_t failed = 0u;
  std::vector<metric> metrics;
  std::vector<std::pair<std::string, std::string>> details; /*!< key, JSON value */
  std::vector<std::unique_ptr<span_log>> span_logs;

  void detail( std::string key, std::string json_value )
  {
    details.emplace_back( std::move( key ), std::move( json_value ) );
  }

  span_log& new_span_log( std::string phase )
  {
    return *span_logs.emplace_back( std::make_unique<span_log>( std::move( phase ) ) );
  }
};

/*! Runs `setup` setup_repetitions times (each rebuilds the state from
 *  scratch) and returns every duration in seconds. */
std::vector<double> repeated_setup( const std::function<void()>& setup )
{
  std::vector<double> seconds;
  for ( uint32_t r = 0u; r < setup_repetitions; ++r )
  {
    const auto begun = clock_type::now();
    setup();
    seconds.push_back( ms_between( begun, clock_type::now() ) / 1000.0 );
  }
  return seconds;
}

/*! Empties the process-wide library so no setup inherits another's
 *  entries; a library loaded from a store file would warm-start runs. */
void reset_library()
{
  auto& library = shared_library();
  library.clear();
  if ( !library.path().empty() || library.statistics().loaded_entries != 0u )
  {
    throw std::runtime_error( "library is backed by a store file; unset QDA_LIBRARY_PATH" );
  }
}

void add_e2e_metrics( run_report& report, const workload_shape& shape, const phase_result& phase,
                      const std::vector<double>& setup_seconds )
{
  const auto s = summarize( phase, shape.latency_limit_ms );
  report.attempted = s.attempted;
  report.failed = s.failed;
  report.correct = s.failed == 0u;
  const auto completed = static_cast<double>( std::max<uint64_t>( 1u, s.attempted - s.failed ) );
  report.metrics = { { "setup_s", median( setup_seconds ), "s" },
                     { "throughput_rps", s.throughput_rps, "req/s" },
                     { "latency_p50_ms", s.p50_ms, "ms" },
                     { "latency_tail_ms", s.tail_ms, "ms" },
                     { "slo_attainment", s.slo_attainment, "ratio" },
                     { "t_count", static_cast<double>( s.t_sum ) / completed, "gates" },
                     { "cnot_count", static_cast<double>( s.cnot_sum ) / completed, "gates" },
                     { "peak_rss_mb", peak_rss_mb(), "MB" } };
  report.detail( "loop", quoted( shape.loop ) );
  report.detail( "requests", std::to_string( s.attempted ) );
  report.detail( "latency_limit_ms", number( shape.latency_limit_ms ) );
  report.detail( "tail_percentile", number( s.tail_pct ) );
  report.detail( "tail_samples_beyond", std::to_string( s.tail_beyond ) );
  report.detail( "fail_ratio", number( s.attempted ? static_cast<double>( s.failed ) /
                                                         static_cast<double>( s.attempted )
                                                   : 0.0 ) );
  report.detail( "t_count_sum", std::to_string( s.t_sum ) );
  report.detail( "cnot_count_sum", std::to_string( s.cnot_sum ) );
  report.detail( "setup_samples_s", json_list( setup_seconds ) );
  report.detail( "process_to_first_request_s",
                 number( ms_between( process_start, phase.start ) / 1000.0 ) );
  report.detail( "timed_wall_s", number( phase.wall_ms / 1000.0 ) );

  const auto& sb = phase.server_before;
  const auto& sa = phase.server_after;
  const auto served = ( sa.cache_hits - sb.cache_hits ) + ( sa.coalesced - sb.coalesced );
  const auto completed_jobs = sa.completed - sb.completed;
  report.detail( "server_hit_ratio",
                 number( completed_jobs ? static_cast<double>( served ) /
                                              static_cast<double>( completed_jobs )
                                        : 0.0 ) );
  report.detail( "library_hits",
                 std::to_string( phase.library_after.hits - phase.library_before.hits ) );
  report.detail( "library_misses",
                 std::to_string( phase.library_after.misses - phase.library_before.misses ) );
  if ( !phase.first_error.empty() )
  {
    report.detail( "first_error", quoted( phase.first_error ) );
  }
}

/*! Per-layer metrics.  `counters` is the untraced phase (counter deltas,
 *  queue waits, IR sizes); `submit_log` holds the spans around submit;
 *  `split_log` the layer-by-layer spans of `split_requests` requests. */
void add_layer_metrics( run_report& report, const phase_result& counters,
                        const span_log* submit_log, size_t submit_requests,
                        const span_log& split_log, size_t split_requests, double overhead_ratio )
{
  const auto submit_self = submit_log != nullptr ? submit_log->self_ms() : layer_times{};
  const auto split_self = split_log.self_ms();
  const auto per_request = []( const layer_times& self, std::string_view layer, size_t requests ) {
    const auto it = self.find( layer );
    return it == self.end() || requests == 0u ? 0.0
                                              : it->second / static_cast<double>( requests );
  };
  const auto layer = [&]( std::string_view name ) {
    return per_request( split_self, name, split_requests );
  };
  const auto ratio = []( double part, double whole ) { return whole > 0.0 ? part / whole : 0.0; };
  const auto count = []( uint64_t value ) { return static_cast<double>( value ); };
  const auto ir_mean = [&]( std::string_view name ) {
    const auto it = counters.ir_sizes.find( name );
    return it == counters.ir_sizes.end()
               ? 0.0
               : ratio( count( it->second.total ), count( it->second.samples ) );
  };

  const auto& sb = counters.server_before;
  const auto& sa = counters.server_after;
  const auto& lb = counters.library_before;
  const auto& la = counters.library_after;
  const auto served = ( sa.cache_hits - sb.cache_hits ) + ( sa.coalesced - sb.coalesced );
  const auto lib_hits = la.hits - lb.hits;
  const auto lib_misses = la.misses - lb.misses;
  const double wait_tail_pct = tail_percentile( counters.queue_waits_ms.size() );
  const double split_root = split_log.root_ms();

  report.metrics = {
      { "server.submit_ms", per_request( submit_self, "server.submit", submit_requests ), "ms" },
      { "server.queue_wait_ms_p50", percentile( counters.queue_waits_ms, 50.0 ), "ms" },
      { "server.queue_wait_ms_tail", percentile( counters.queue_waits_ms, wait_tail_pct ), "ms" },
      { "server.hit_ratio", ratio( count( served ), count( sa.completed - sb.completed ) ),
        "ratio" },
      { "server.compiled", count( sa.compiled - sb.compiled ), "count" },
      { "server.prefix_passes_skipped",
        count( sa.prefix_passes_skipped - sb.prefix_passes_skipped ), "count" },
      { "server.result_cache_entries", count( sa.result_cache.entries ), "count" },
      { "pipeline.parse_ms", layer( "pipeline.parse" ), "ms" },
      { "pipeline.ps_ms", layer( "pipeline.ps" ), "ms" },
      { "synthesis.ms", layer( "synthesis" ), "ms" },
      { "core.build_ms", layer( "core.build" ), "ms" },
      { "optimization.ms", layer( "optimization" ), "ms" },
      { "mapping.rptm_ms", layer( "mapping.rptm" ), "ms" },
      { "mapping.route_ms", layer( "mapping.route" ), "ms" },
      { "mapping.lower_ms", layer( "mapping.lower" ), "ms" },
      { "phasepoly.tpar_ms", layer( "phasepoly.tpar" ), "ms" },
      { "library.hits", count( lib_hits ), "count" },
      { "library.misses", count( lib_misses ), "count" },
      { "library.admits", count( la.admits - lb.admits ), "count" },
      { "library.hit_ratio", ratio( count( lib_hits ), count( lib_hits + lib_misses ) ),
        "ratio" },
      { "library.entries", count( la.entries ), "count" },
      { "simulator.compile_ms", layer( "simulator.compile" ), "ms" },
      { "simulator.run_ms", layer( "simulator.run" ), "ms" },
      { "simulator.sample_ms", layer( "simulator.sample" ), "ms" },
      { "simulator.fusion_ratio",
        ratio( count( counters.fused_source_gates ), count( counters.fused_ops ) ), "ratio" },
      { "ir.gates_after.rptm", ir_mean( "ir.gates_after.rptm" ), "gates" },
      { "ir.gates_after.tpar", ir_mean( "ir.gates_after.tpar" ), "gates" },
      { "ir.gates_after.peephole", ir_mean( "ir.gates_after.peephole" ), "gates" },
      { "ir.gates_after.route", ir_mean( "ir.gates_after.route" ), "gates" },
      { "ir.gates_after.lower", ir_mean( "ir.gates_after.lower" ), "gates" },
      { "ir.helpers_after.rptm", ir_mean( "ir.helpers_after.rptm" ), "qubits" },
      { "trace.overhead_ratio", overhead_ratio, "ratio" },
      { "trace.coverage",
        ratio( split_root - per_request( split_self, "request", 1u ), split_root ), "ratio" } };
  report.detail( "queue_wait_tail_percentile", number( wait_tail_pct ) );
  report.detail( "queue_wait_samples", std::to_string( counters.queue_waits_ms.size() ) );
  report.detail( "layer_split_requests", std::to_string( split_requests ) );
}

/*! A traced run repeats the untraced phase; its output sizes should
 *  match exactly.  Reported, not enforced: the library admits regions by
 *  measured synthesis time, so which regions get spliced (and with them
 *  a few CNOTs) can differ between two identical runs. */
void require_same_outputs( run_report& report, const phase_result& untraced,
                           const phase_result& traced, const workload_shape& shape )
{
  const auto a = summarize( untraced, shape.latency_limit_ms );
  const auto b = summarize( traced, shape.latency_limit_ms );
  const bool same = a.t_sum == b.t_sum && a.cnot_sum == b.cnot_sum && a.failed == b.failed;
  report.detail( "traced_outputs_match", same ? "true" : "false" );
}

void require_no_failures( run_report& report, const phase_result& phase, const char* name )
{
  const auto failed = summarize( phase, 0.0 ).failed;
  report.detail( std::string( name ) + "_failed", std::to_string( failed ) );
  if ( failed != 0u && !phase.first_error.empty() )
  {
    report.detail( std::string( name ) + "_first_error", quoted( phase.first_error ) );
  }
  report.correct = report.correct && failed == 0u;
}

/* ------------------------------------------------------------------ */
/* workloads                                                           */
/* ------------------------------------------------------------------ */

struct run_options
{
  std::string workload;
  uint64_t seed = 0u;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

output_sample sample_outputs( uint64_t seed, size_t count )
{
  constexpr size_t checks_per_run = 16u;
  output_sample sample;
  sample.stride = std::max<size_t>( 1u, count / checks_per_run );
  sample.offset = stream_rng( seed, stream::check )() % sample.stride;
  return sample;
}

std::vector<const spec_request*> pointers_to( const std::vector<spec_request>& requests,
                                              const std::vector<size_t>& indices )
{
  std::vector<const spec_request*> out;
  for ( const auto index : indices )
  {
    out.push_back( &requests[index] );
  }
  return out;
}

/*! compile-cold: closed loop, one client, a one-worker compile_server
 *  with default options; every request is a distinct spec, so the
 *  result and prefix caches miss and the library sees first sightings. */
run_report run_compile_cold( const run_options& options )
{
  const auto& shape = compile_cold;
  const size_t count = timed_request_count( shape, options.seconds );
  std::unique_ptr<compile_server> server;
  std::vector<spec_request> requests;
  const auto setup = [&] {
    server.reset();
    reset_library();
    server_options config;
    config.num_workers = 1u;
    server = std::make_unique<compile_server>( config );
    requests = cold_requests( options.seed, stream::timed, count );
    for ( const auto& warm : cold_requests( options.seed, stream::warmup, shape.warmup_requests ) )
    {
      if ( !server->submit( warm.text ).get().ok() )
      {
        throw std::runtime_error( "warm-up request failed: " + warm.text );
      }
    }
  };
  const auto sample = sample_outputs( options.seed, count );

  run_report report;
  const auto setup_seconds = repeated_setup( setup );
  auto untraced = run_closed_server_phase( *server, requests, sample, nullptr );
  const size_t checked = check_outputs( untraced, requests, options.seed );
  add_e2e_metrics( report, shape, untraced, setup_seconds );
  report.detail( "checked_outputs", std::to_string( checked ) );
  report.detail( "clients", "1" );
  report.detail( "server_workers", "1" );

  if ( options.trace )
  {
    auto& submit_log = report.new_span_log( "server" );
    setup();
    auto traced = run_closed_server_phase( *server, requests, sample, &submit_log );
    check_outputs( traced, requests, options.seed );
    require_same_outputs( report, untraced, traced, shape );

    auto& split_log = report.new_span_log( "replay" );
    setup();
    server.reset();
    std::vector<size_t> all( requests.size() );
    std::iota( all.begin(), all.end(), size_t{ 0 } );
    const auto replay = replay_passes( pointers_to( requests, all ), split_log );
    require_no_failures( report, replay, "replay" );
    add_layer_metrics( report, untraced, &submit_log, requests.size(), split_log,
                       requests.size(), traced.busy_ms / untraced.busy_ms );
  }
  return report;
}

/*! serve-zipf: open loop at a fixed offered rate into a compile_server
 *  with two workers on a 4-core host (nproc - 2), which leaves a core to
 *  the generator so its sends stay on schedule; three workers starved
 *  it. */
run_report run_serve_zipf( const run_options& options )
{
  const auto& shape = serve_zipf;
  const size_t count = timed_request_count( shape, options.seconds );
  const uint32_t workers = std::thread::hardware_concurrency() >= 4u ? 2u : 1u;
  std::unique_ptr<compile_server> server;
  serve_catalog catalog;
  std::vector<spec_request> requests;
  std::vector<double> offsets;
  const auto setup = [&] {
    server.reset();
    reset_library();
    server_options config;
    config.num_workers = workers;
    server = std::make_unique<compile_server>( config );
    catalog = make_catalog( options.seed );
    requests = zipf_requests( catalog, options.seed, stream::timed, count );
    offsets = arrival_offsets_ms( options.seed, count, shape.nominal_rps );
    for ( const auto& warm :
          zipf_requests( catalog, options.seed, stream::warmup, shape.warmup_requests ) )
    {
      if ( !server->submit( warm.text ).get().ok() )
      {
        throw std::runtime_error( "warm-up request failed: " + warm.text );
      }
    }
  };
  const auto sample = sample_outputs( options.seed, count );

  run_report report;
  const auto setup_seconds = repeated_setup( setup );
  auto untraced = run_open_server_phase( *server, requests, offsets, sample, nullptr );
  const size_t checked = check_outputs( untraced, requests, options.seed );
  add_e2e_metrics( report, shape, untraced, setup_seconds );
  const double lag_limit_ms = max_lag_fraction * shape.latency_limit_ms;
  const double lag_p99_ms = percentile( untraced.lags_ms, 99.0 );
  const bool lag_valid = lag_p99_ms <= lag_limit_ms;
  report.correct = report.correct && lag_valid;
  report.detail( "checked_outputs", std::to_string( checked ) );
  report.detail( "generator_threads", "1" );
  report.detail( "server_workers", std::to_string( workers ) );
  report.detail( "offered_rps", number( shape.nominal_rps ) );
  report.detail( "pairs", std::to_string( catalog.pairs.size() ) );
  report.detail( "lag_p50_ms", number( percentile( untraced.lags_ms, 50.0 ) ) );
  report.detail( "lag_p99_ms", number( lag_p99_ms ) );
  report.detail( "lag_max_ms", number( percentile( untraced.lags_ms, 100.0 ) ) );
  report.detail( "lag_limit_ms", number( lag_limit_ms ) );
  report.detail( "open_loop_valid", lag_valid ? "true" : "false" );

  if ( options.trace )
  {
    auto& submit_log = report.new_span_log( "server" );
    setup();
    auto traced = run_open_server_phase( *server, requests, offsets, sample, &submit_log );
    check_outputs( traced, requests, options.seed );
    require_same_outputs( report, untraced, traced, shape );

    /* the requests the server compiled, replayed pass by pass from the
     * same warm state to split the miss path by layer */
    auto& split_log = report.new_span_log( "replay" );
    auto compiled = traced.compiled;
    std::sort( compiled.begin(), compiled.end() );
    setup();
    server.reset();
    const auto replay = replay_passes( pointers_to( requests, compiled ), split_log );
    require_no_failures( report, replay, "replay" );
    add_layer_metrics( report, untraced, &submit_log, requests.size(), split_log,
                       compiled.size(), traced.busy_ms / untraced.busy_ms );
  }
  return report;
}

/*! execute-hidden-shift: closed loop, one client; each request builds,
 *  lowers, optimizes and samples one Fig. 7/8 circuit. */
run_report run_execute_hidden_shift( const run_options& options )
{
  const auto& shape = execute_shift;
  const size_t count = timed_request_count( shape, options.seconds );
  std::vector<shift_request> requests;
  const auto setup = [&] {
    reset_library();
    requests = shift_requests( options.seed, stream::timed, count );
    const auto warm = run_shift_phase(
        shift_requests( options.seed, stream::warmup, shape.warmup_requests ),
        options.seed + 1u, nullptr );
    if ( summarize( warm, shape.latency_limit_ms ).failed != 0u )
    {
      throw std::runtime_error( "warm-up request failed: " + warm.first_error );
    }
  };

  run_report report;
  const auto setup_seconds = repeated_setup( setup );
  const auto untraced = run_shift_phase( requests, options.seed, nullptr );
  add_e2e_metrics( report, shape, untraced, setup_seconds );
  report.detail( "clients", "1" );
  report.detail( "simulator_threads", std::to_string( sim::num_threads() ) );
  report.detail( "shots", std::to_string( shift_shots ) );

  if ( options.trace )
  {
    auto& split_log = report.new_span_log( "execute" );
    setup();
    const auto traced = run_shift_phase( requests, options.seed, &split_log );
    require_same_outputs( report, untraced, traced, shape );
    add_layer_metrics( report, untraced, nullptr, 0u, split_log, requests.size(),
                       traced.busy_ms / untraced.busy_ms );
  }
  return report;
}

bool parse_arguments( int argc, char** argv, run_options& options )
{
  bool have_seed = false;
  bool have_seconds = false;
  for ( int i = 1; i + 1 < argc; i += 2 )
  {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if ( flag == "--workload" )
    {
      options.workload = value;
    }
    else if ( flag == "--seed" )
    {
      options.seed = std::strtoull( value.c_str(), &end, 10 );
      have_seed = end != value.c_str() && *end == '\0';
    }
    else if ( flag == "--seconds" )
    {
      options.seconds = std::strtod( value.c_str(), &end );
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 600.0;
    }
    else if ( flag == "--trace" && ( value == "0" || value == "1" ) )
    {
      options.trace = value == "1";
    }
    else if ( flag == "--trace-out" )
    {
      options.trace_out = value;
    }
    else
    {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && !options.workload.empty();
}

} // namespace

int main( int argc, char** argv )
{
  run_options options;
  if ( !parse_arguments( argc, argv, options ) )
  {
    std::fprintf( stderr, "usage: perfbench_e2e --workload compile-cold|serve-zipf|"
                          "execute-hidden-shift --seed N --seconds S --trace 0|1 "
                          "[--trace-out FILE]\n" );
    return 2;
  }
  sim::set_num_threads( simulator_threads );

  run_report report;
  try
  {
    if ( options.workload == compile_cold.name )
    {
      report = run_compile_cold( options );
    }
    else if ( options.workload == serve_zipf.name )
    {
      report = run_serve_zipf( options );
    }
    else if ( options.workload == execute_shift.name )
    {
      report = run_execute_hidden_shift( options );
    }
    else
    {
      std::fprintf( stderr, "perfbench_e2e: unknown workload '%s'\n", options.workload.c_str() );
      return 2;
    }
  }
  catch ( const std::exception& e )
  {
    std::fprintf( stderr, "perfbench_e2e: %s\n", e.what() );
    return 3;
  }

  if ( options.trace && !options.trace_out.empty() )
  {
    std::vector<const span_log*> logs;
    for ( const auto& log : report.span_logs )
    {
      logs.push_back( log.get() );
    }
    if ( !write_spans( options.trace_out, logs ) )
    {
      std::fprintf( stderr, "perfbench_e2e: could not write %s\n", options.trace_out.c_str() );
      report.correct = false;
    }
  }

  std::string details = "{\"details\": {\"workload\": " + quoted( options.workload ) +
                        ", \"seed\": " + std::to_string( options.seed ) +
                        ", \"seconds\": " + number( options.seconds ) +
                        ", \"trace\": " + ( options.trace ? "true" : "false" );
  for ( const auto& [key, value] : report.details )
  {
    details += ", " + quoted( key ) + ": " + value;
  }
  details +=
      ", \"process_s\": " + number( ms_between( process_start, clock_type::now() ) / 1000.0 );
  std::printf( "%s}}\n", details.c_str() );

  std::string line = "{\"correct\": " + std::string( report.correct ? "true" : "false" ) +
                     ", \"attempted\": " + std::to_string( report.attempted ) +
                     ", \"failed\": " + std::to_string( report.failed ) + ", \"metrics\": {";
  for ( size_t i = 0u; i < report.metrics.size(); ++i )
  {
    const auto& m = report.metrics[i];
    line += ( i ? ", " : "" ) + quoted( m.name ) + ": {\"value\": " + number( m.value ) +
            ", \"unit\": " + quoted( m.unit ) + "}";
  }
  std::printf( "%s}}\n", line.c_str() );
  std::fflush( stdout );
  return report.correct ? 0 : 1;
}
