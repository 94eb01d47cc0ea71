/*! \file test_telemetry.cpp
 *  \brief Observability subsystem: spans, metrics, exports, and the
 *         pass manager's automatic cost recording.
 */
#include "pipeline/pass_manager.hpp"
#include "simulator/fusion.hpp"
#include "telemetry/metadata.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace
{

using namespace qda;

/*! Enables recording for one test and restores the quiescent default. */
struct telemetry_fixture : ::testing::Test
{
  void SetUp() override
  {
    if ( !telemetry::compiled_in )
    {
      GTEST_SKIP() << "telemetry hooks compiled out (QDA_ENABLE_TELEMETRY=OFF)";
    }
    telemetry::tracer::instance().clear();
    telemetry::metrics_registry::instance().reset();
    telemetry::set_enabled( true );
  }

  void TearDown() override
  {
    telemetry::set_enabled( false );
    telemetry::tracer::instance().clear();
    telemetry::metrics_registry::instance().reset();
  }
};

/* ---- minimal recursive-descent JSON reader: enough to re-parse the
 * Chrome trace export and prove it is well-formed ---- */

struct json_cursor
{
  const std::string& text;
  size_t pos = 0u;

  void skip_ws()
  {
    while ( pos < text.size() && std::isspace( static_cast<unsigned char>( text[pos] ) ) )
    {
      ++pos;
    }
  }

  bool eat( char c )
  {
    skip_ws();
    if ( pos < text.size() && text[pos] == c )
    {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value()
  {
    skip_ws();
    if ( pos >= text.size() )
    {
      return false;
    }
    const char c = text[pos];
    if ( c == '{' )
    {
      return parse_object();
    }
    if ( c == '[' )
    {
      return parse_array();
    }
    if ( c == '"' )
    {
      return parse_string();
    }
    if ( text.compare( pos, 4, "true" ) == 0 )
    {
      pos += 4;
      return true;
    }
    if ( text.compare( pos, 5, "false" ) == 0 )
    {
      pos += 5;
      return true;
    }
    if ( text.compare( pos, 4, "null" ) == 0 )
    {
      pos += 4;
      return true;
    }
    return parse_number();
  }

  bool parse_string()
  {
    if ( !eat( '"' ) )
    {
      return false;
    }
    while ( pos < text.size() && text[pos] != '"' )
    {
      if ( text[pos] == '\\' )
      {
        ++pos;
        if ( pos >= text.size() )
        {
          return false;
        }
      }
      ++pos;
    }
    return eat( '"' );
  }

  bool parse_number()
  {
    const size_t start = pos;
    if ( pos < text.size() && ( text[pos] == '-' || text[pos] == '+' ) )
    {
      ++pos;
    }
    while ( pos < text.size() &&
            ( std::isdigit( static_cast<unsigned char>( text[pos] ) ) || text[pos] == '.' ||
              text[pos] == 'e' || text[pos] == 'E' || text[pos] == '-' || text[pos] == '+' ) )
    {
      ++pos;
    }
    return pos > start;
  }

  bool parse_object()
  {
    if ( !eat( '{' ) )
    {
      return false;
    }
    if ( eat( '}' ) )
    {
      return true;
    }
    do
    {
      if ( !parse_string() || !eat( ':' ) || !parse_value() )
      {
        return false;
      }
    } while ( eat( ',' ) );
    return eat( '}' );
  }

  bool parse_array()
  {
    if ( !eat( '[' ) )
    {
      return false;
    }
    if ( eat( ']' ) )
    {
      return true;
    }
    do
    {
      if ( !parse_value() )
      {
        return false;
      }
    } while ( eat( ',' ) );
    return eat( ']' );
  }

  bool parse_document()
  {
    if ( !parse_value() )
    {
      return false;
    }
    skip_ws();
    return pos == text.size();
  }
};

TEST_F( telemetry_fixture, spans_record_nesting_depth )
{
  {
    QDA_TRACE_SPAN_NAMED( outer, "outer" );
    outer.attr( "answer", int64_t{ 42 } );
    {
      QDA_TRACE_SPAN( "inner" );
      QDA_TRACE_SPAN( "innermost" ); /* same scope: nests under inner */
    }
    {
      QDA_TRACE_SPAN( "inner" );
    }
  }

  const auto events = telemetry::tracer::instance().collect();
  ASSERT_EQ( events.size(), 4u );

  uint32_t roots = 0u;
  for ( const auto& event : events )
  {
    if ( event.name == "outer" )
    {
      EXPECT_EQ( event.depth, 0u );
      ASSERT_EQ( event.attributes.size(), 1u );
      EXPECT_EQ( event.attributes[0].key, "answer" );
      EXPECT_EQ( event.attributes[0].i, 42 );
      ++roots;
    }
    else if ( event.name == "inner" )
    {
      EXPECT_EQ( event.depth, 1u );
    }
    else
    {
      EXPECT_EQ( event.name, "innermost" );
      EXPECT_EQ( event.depth, 2u );
    }
  }
  EXPECT_EQ( roots, 1u );

  /* children close before the parent and fall inside its window */
  const auto outer_it = std::find_if( events.begin(), events.end(),
                                      []( const auto& e ) { return e.name == "outer"; } );
  for ( const auto& event : events )
  {
    if ( event.name != "outer" )
    {
      EXPECT_GE( event.start_ns, outer_it->start_ns );
      EXPECT_LE( event.start_ns + event.duration_ns,
                 outer_it->start_ns + outer_it->duration_ns );
    }
  }
}

TEST_F( telemetry_fixture, collect_merges_events_from_worker_threads )
{
  constexpr uint32_t num_workers = 4u;
  std::vector<std::thread> workers;
  for ( uint32_t w = 0u; w < num_workers; ++w )
  {
    workers.emplace_back( [] { QDA_TRACE_SPAN( "worker.task" ); } );
  }
  {
    QDA_TRACE_SPAN( "main.task" );
  }
  for ( auto& worker : workers )
  {
    worker.join();
  }

  const auto events = telemetry::tracer::instance().collect();
  uint32_t worker_events = 0u;
  std::vector<uint32_t> worker_thread_ids;
  for ( const auto& event : events )
  {
    if ( event.name == "worker.task" )
    {
      ++worker_events;
      worker_thread_ids.push_back( event.thread );
    }
  }
  EXPECT_EQ( worker_events, num_workers );

  /* every worker recorded into its own ring */
  std::sort( worker_thread_ids.begin(), worker_thread_ids.end() );
  worker_thread_ids.erase( std::unique( worker_thread_ids.begin(), worker_thread_ids.end() ),
                           worker_thread_ids.end() );
  EXPECT_EQ( worker_thread_ids.size(), num_workers );
}

TEST_F( telemetry_fixture, counters_are_exact_under_contention )
{
  constexpr uint32_t num_workers = 8u;
  constexpr uint64_t per_worker = 20000u;
  std::vector<std::thread> workers;
  for ( uint32_t w = 0u; w < num_workers; ++w )
  {
    workers.emplace_back( [] {
      for ( uint64_t i = 0u; i < per_worker; ++i )
      {
        QDA_COUNT( "test.contended" );
      }
    } );
  }
  for ( auto& worker : workers )
  {
    worker.join();
  }

  const auto snapshot = telemetry::metrics_registry::instance().snapshot();
  const auto it = std::find_if( snapshot.counters.begin(), snapshot.counters.end(),
                                []( const auto& c ) { return c.first == "test.contended"; } );
  ASSERT_NE( it, snapshot.counters.end() );
  EXPECT_EQ( it->second, num_workers * per_worker );
}

/*! A dense fused block reports its gates and its nonzero matrix
 *  entries, so a trace shows how sparse the fused blocks are: H then CX
 *  on the same pair is one 4x4 block with two nonzeros per column. */
TEST_F( telemetry_fixture, dense_fusion_counts_block_nonzeros )
{
  qcircuit circuit( 3u );
  circuit.h( 0u );
  circuit.cx( 0u, 1u );
  const auto prog = sim::compile( circuit );
  ASSERT_EQ( prog.ops.size(), 1u );
  EXPECT_EQ( prog.ops.front().kind, sim::op_kind::fused_kq );

  const auto snapshot = telemetry::metrics_registry::instance().snapshot();
  const auto counter = [&]( const std::string& name ) -> uint64_t {
    const auto it = std::find_if( snapshot.counters.begin(), snapshot.counters.end(),
                                  [&]( const auto& c ) { return c.first == name; } );
    return it == snapshot.counters.end() ? 0u : it->second;
  };
  EXPECT_EQ( counter( "sim.fusion.dense_blocks" ), 1u );
  EXPECT_EQ( counter( "sim.fusion.dense_block_gates" ), 2u );
  EXPECT_EQ( counter( "sim.fusion.dense_block_nonzeros" ), 8u );
}

TEST_F( telemetry_fixture, histogram_buckets_partition_values )
{
  for ( const double value : { 0.5, 1.0, 3.0, 9.0, 100.0 } )
  {
    QDA_HISTOGRAM( "test.hist", value, { 1.0, 4.0, 16.0 } );
  }
  const auto snapshot = telemetry::metrics_registry::instance().snapshot();
  ASSERT_EQ( snapshot.histograms.size(), 1u );
  const auto& hist = snapshot.histograms[0];
  EXPECT_EQ( hist.name, "test.hist" );
  ASSERT_EQ( hist.bucket_counts.size(), 4u ); /* three bounds + overflow */
  EXPECT_EQ( hist.bucket_counts[0], 2u );     /* 0.5, 1.0 (bounds inclusive) */
  EXPECT_EQ( hist.bucket_counts[1], 1u );     /* 3.0 */
  EXPECT_EQ( hist.bucket_counts[2], 1u );     /* 9.0 */
  EXPECT_EQ( hist.bucket_counts[3], 1u );     /* 100.0 overflow */
  EXPECT_EQ( hist.count, 5u );
  EXPECT_DOUBLE_EQ( hist.sum, 113.5 );
}

TEST_F( telemetry_fixture, chrome_trace_export_is_well_formed_json )
{
  {
    QDA_TRACE_SPAN_NAMED( root, "json.root" );
    root.attr( "text", std::string( "quote \" backslash \\ newline \n tab \t" ) )
        .attr( "ratio", 0.25 )
        .attr( "count", int64_t{ 7 } );
    QDA_TRACE_SPAN( "json.child" );
  }

  std::ostringstream out;
  telemetry::tracer::instance().export_chrome_trace( out );
  const std::string text = out.str();

  json_cursor cursor{ text };
  EXPECT_TRUE( cursor.parse_document() ) << text;

  /* spot-check the trace_event envelope */
  EXPECT_NE( text.find( "\"traceEvents\"" ), std::string::npos );
  EXPECT_NE( text.find( "\"ph\": \"X\"" ), std::string::npos );
  EXPECT_NE( text.find( "json.root" ), std::string::npos );
  EXPECT_NE( text.find( "json.child" ), std::string::npos );
  /* the raw control characters must have been escaped away */
  EXPECT_NE( text.find( "quote \\\" backslash \\\\ newline \\n tab \\t" ), std::string::npos );
}

TEST_F( telemetry_fixture, summary_nests_child_under_parent )
{
  {
    QDA_TRACE_SPAN( "alpha" );
    QDA_TRACE_SPAN( "beta" );
  }
  const std::string summary = telemetry::tracer::instance().summary();
  const auto alpha_pos = summary.find( "alpha" );
  const auto beta_pos = summary.find( "beta" );
  ASSERT_NE( alpha_pos, std::string::npos );
  ASSERT_NE( beta_pos, std::string::npos );
  EXPECT_LT( alpha_pos, beta_pos ); /* parent row first, child indented below */
}

TEST_F( telemetry_fixture, pass_manager_records_cost_deltas_for_hwb4 )
{
  pass_manager manager( /*enable_cache=*/false );
  const auto result = manager.run( "revgen --hwb 4; tbs; revsimp; rptm; tpar" );

  ASSERT_EQ( result.reports.size(), 5u );
  const auto& rptm = result.reports[3];
  const auto& tpar = result.reports[4];
  EXPECT_EQ( rptm.name, "rptm" );
  EXPECT_EQ( tpar.name, "tpar" );

  /* the recorded exit deltas must equal the statistics of the circuit
   * the pipeline actually produced */
  const auto actual = compute_statistics( result.ir.require_quantum().circuit );
  ASSERT_TRUE( tpar.statistics_after.has_value() );
  EXPECT_EQ( tpar.statistics_after->t_count, actual.t_count );
  EXPECT_EQ( tpar.statistics_after->cnot_count, actual.cnot_count );
  EXPECT_EQ( tpar.statistics_after->depth, actual.depth );
  EXPECT_EQ( tpar.statistics_after->num_qubits, actual.num_qubits );

  /* report chaining: tpar's entry stats are rptm's exit stats */
  ASSERT_TRUE( rptm.statistics_after.has_value() );
  ASSERT_TRUE( tpar.statistics_before.has_value() );
  EXPECT_EQ( tpar.statistics_before->t_count, rptm.statistics_after->t_count );
  EXPECT_EQ( tpar.statistics_before->cnot_count, rptm.statistics_after->cnot_count );
  EXPECT_EQ( tpar.gates_before, rptm.gates_after );

  /* tpar reduces T-count on hwb 4 (the paper's Fig. 6 effect) */
  EXPECT_LT( tpar.statistics_after->t_count, tpar.statistics_before->t_count );

  const auto table = format_cost_table( result );
  EXPECT_NE( table.find( "T-count" ), std::string::npos );
  EXPECT_NE( table.find( "tpar" ), std::string::npos );
}

TEST_F( telemetry_fixture, pipeline_run_emits_spans_and_counters )
{
  pass_manager manager( /*enable_cache=*/true );
  manager.run( "revgen --hwb 4; tbs" );
  manager.run( "revgen --hwb 4; tbs" ); /* second run: cache hit */

  const auto events = telemetry::tracer::instance().collect();
  uint32_t pipeline_runs = 0u;
  uint32_t pass_spans = 0u;
  for ( const auto& event : events )
  {
    if ( event.name == "pipeline.run" )
    {
      ++pipeline_runs;
    }
    if ( event.name.rfind( "pass.", 0u ) == 0u )
    {
      ++pass_spans;
      EXPECT_GE( event.depth, 1u ); /* nested under pipeline.run */
    }
  }
  EXPECT_EQ( pipeline_runs, 2u );
  EXPECT_EQ( pass_spans, 2u ); /* the hit run replays no passes */

  const auto snapshot = telemetry::metrics_registry::instance().snapshot();
  const auto counter_value = [&]( const std::string& name ) -> uint64_t {
    const auto it = std::find_if( snapshot.counters.begin(), snapshot.counters.end(),
                                  [&]( const auto& c ) { return c.first == name; } );
    return it == snapshot.counters.end() ? 0u : it->second;
  };
  EXPECT_EQ( counter_value( "pipeline.cache.miss" ), 1u );
  EXPECT_EQ( counter_value( "pipeline.cache.hit" ), 1u );
  EXPECT_EQ( counter_value( "pipeline.passes_run" ), 2u );
}

TEST( telemetry_metadata, bench_metadata_is_populated_and_json_parses )
{
  const auto meta = telemetry::bench_metadata();
  EXPECT_FALSE( meta.git_sha.empty() );
  EXPECT_FALSE( meta.build_type.empty() );
  /* ISO-8601 UTC: 2026-08-07T00:00:00Z */
  ASSERT_EQ( meta.timestamp.size(), 20u );
  EXPECT_EQ( meta.timestamp[4], '-' );
  EXPECT_EQ( meta.timestamp[10], 'T' );
  EXPECT_EQ( meta.timestamp.back(), 'Z' );

  const std::string wrapped = "{ " + telemetry::bench_metadata_json() + " }";
  json_cursor cursor{ wrapped };
  EXPECT_TRUE( cursor.parse_document() ) << wrapped;
}

TEST( telemetry_disabled, hooks_cost_nothing_and_record_nothing )
{
  telemetry::set_enabled( false );
  telemetry::tracer::instance().clear();
  telemetry::metrics_registry::instance().reset();

  {
    QDA_TRACE_SPAN( "disabled.span" );
    QDA_COUNT( "disabled.counter" );
  }

  EXPECT_TRUE( telemetry::tracer::instance().collect().empty() );
  for ( const auto& [name, value] : telemetry::metrics_registry::instance().snapshot().counters )
  {
    if ( name == "disabled.counter" )
    {
      EXPECT_EQ( value, 0u );
    }
  }
}

} // namespace
