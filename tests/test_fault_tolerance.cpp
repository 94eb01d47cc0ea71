/*! \file test_fault_tolerance.cpp
 *  \brief Fault-tolerance layer: typed error taxonomy, deadlines,
 *         cooperative cancellation, degraded-mode compilation, retry
 *         with backoff, resource budgets, and the deterministic
 *         fault-injection harness.
 *
 *  The multi-worker fault-stress test here is a ThreadSanitizer target
 *  of the `sanitize (tsan)` CI job; the failpoint tests additionally
 *  run in the `fault-injection` CI leg (`-DQDA_ENABLE_FAILPOINTS=ON`).
 */
#include "fault/cancel.hpp"
#include "fault/error.hpp"
#include "fault/failpoint.hpp"
#include "mapping/clifford_t.hpp"
#include "optimization/peephole.hpp"
#include "pipeline/spec_parser.hpp"
#include "server/compile_server.hpp"
#include "simulator/unitary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

using namespace qda;
using namespace qda::server;
using namespace std::chrono_literals;

constexpr const char* eq5 = "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps";

/* a spec whose full compile takes multiple seconds (tpar dominates) */
constexpr const char* slow_spec = "revgen --hwb 12; tbs; revsimp; rptm; tpar; ps";

/* ---------------- error taxonomy ---------------- */

TEST( fault_taxonomy_test, codes_have_stable_names )
{
  EXPECT_STREQ( error_code_name( error_code::ok ), "ok" );
  EXPECT_STREQ( error_code_name( error_code::spec_parse ), "spec_parse" );
  EXPECT_STREQ( error_code_name( error_code::pass_failure ), "pass_failure" );
  EXPECT_STREQ( error_code_name( error_code::deadline_exceeded ), "deadline_exceeded" );
  EXPECT_STREQ( error_code_name( error_code::resource_exhausted ), "resource_exhausted" );
  EXPECT_STREQ( error_code_name( error_code::cancelled ), "cancelled" );
  EXPECT_STREQ( error_code_name( error_code::overloaded ), "overloaded" );
  EXPECT_STREQ( error_code_name( error_code::server_shutdown ), "server_shutdown" );
  EXPECT_STREQ( error_code_name( error_code::internal ), "internal" );
}

TEST( fault_taxonomy_test, typed_errors_remain_catchable_as_std_exceptions )
{
  /* the mixin hierarchy keeps every pre-taxonomy catch site working */
  try
  {
    throw qda_error( error_code::pass_failure, "boom", /*transient=*/true );
  }
  catch ( const std::runtime_error& e )
  {
    const auto* typed = dynamic_cast<const error*>( &e );
    ASSERT_NE( typed, nullptr );
    EXPECT_EQ( typed->code(), error_code::pass_failure );
    EXPECT_TRUE( typed->transient() );
  }
  EXPECT_THROW( throw spec_parse_error( "bad", 1u, 0u ), std::invalid_argument );
  EXPECT_THROW( throw spec_stage_error( "bad", 1u ), std::logic_error );
  EXPECT_THROW( throw server_overloaded( "full" ), std::runtime_error );
}

TEST( fault_taxonomy_test, classify_maps_standard_exceptions )
{
  const auto classify = []( auto&& thrown, error_code fallback ) {
    try
    {
      throw thrown;
    }
    catch ( ... )
    {
      return classify_current_exception( fallback );
    }
  };
  EXPECT_EQ( classify( qda_error( error_code::cancelled, "c" ), error_code::internal ),
             error_code::cancelled );
  EXPECT_EQ( classify( std::bad_alloc{}, error_code::internal ),
             error_code::resource_exhausted );
  EXPECT_EQ( classify( std::invalid_argument( "a" ), error_code::internal ),
             error_code::spec_parse );
  EXPECT_EQ( classify( std::runtime_error( "r" ), error_code::pass_failure ),
             error_code::pass_failure );
}

/* ---------------- cancellation primitives ---------------- */

TEST( cancel_test, detached_token_never_stops )
{
  cancel_token token;
  EXPECT_FALSE( token.stop_possible() );
  EXPECT_FALSE( token.stop_requested() );
  EXPECT_NO_THROW( token.check() );
}

TEST( cancel_test, cancel_and_deadline_throw_typed_errors )
{
  cancel_source source;
  auto token = source.token();
  EXPECT_TRUE( token.stop_possible() );
  EXPECT_NO_THROW( token.check() );

  source.set_deadline_after( -1ms ); /* already expired */
  try
  {
    token.check( "tpar" );
    FAIL() << "expired deadline did not throw";
  }
  catch ( const qda_error& e )
  {
    EXPECT_EQ( e.code(), error_code::deadline_exceeded );
    EXPECT_NE( std::string( e.what() ).find( "tpar" ), std::string::npos );
  }

  source.request_cancel(); /* explicit cancel outranks the deadline */
  try
  {
    token.check( "route" );
    FAIL() << "cancel did not throw";
  }
  catch ( const qda_error& e )
  {
    EXPECT_EQ( e.code(), error_code::cancelled );
  }
}

TEST( cancel_test, extend_deadline_keeps_the_later_of_the_two )
{
  cancel_source source;
  source.set_deadline_after( -1ms );
  EXPECT_TRUE( source.token().deadline_expired() );
  source.extend_deadline( fault_clock::now() + 1h );
  EXPECT_FALSE( source.token().deadline_expired() );
  /* extending backwards is a no-op */
  source.extend_deadline( fault_clock::now() - 1h );
  EXPECT_FALSE( source.token().deadline_expired() );
}

TEST( cancel_test, checkpoint_fires_every_stride_iterations )
{
  cancel_checkpoint checkpoint( 8u );
  uint32_t fired = 0u;
  for ( uint32_t i = 0u; i < 64u; ++i )
  {
    if ( checkpoint.due() )
    {
      ++fired;
    }
  }
  EXPECT_EQ( fired, 8u );
}

/* ---------------- spec diagnostics ---------------- */

TEST( spec_diagnostics_test, parse_error_carries_segment_and_offset )
{
  try
  {
    parse_pipeline( "revgen --hwb 4; bad!name --x 1" );
    FAIL() << "invalid pass name accepted";
  }
  catch ( const spec_parse_error& e )
  {
    EXPECT_EQ( e.segment(), 2u );
    EXPECT_EQ( e.offset(), 16u ); /* first char of "bad!name" */
    EXPECT_NE( std::string( e.what() ).find( "segment 2" ), std::string::npos );
  }
}

TEST( spec_diagnostics_test, unknown_pass_reports_its_segment )
{
  const auto spec = parse_pipeline( "revgen --hwb 4; nope" );
  try
  {
    validate_pipeline( spec );
    FAIL() << "unknown pass accepted";
  }
  catch ( const spec_parse_error& e )
  {
    EXPECT_EQ( e.segment(), 2u );
    EXPECT_EQ( e.offset(), 16u );
    EXPECT_NE( std::string( e.what() ).find( "nope" ), std::string::npos );
  }
}

TEST( spec_diagnostics_test, stage_violation_reports_its_segment )
{
  try
  {
    validate_pipeline( parse_pipeline( "revgen --hwb 3; tbs; tbs" ) );
    FAIL() << "illegal stage transition accepted";
  }
  catch ( const spec_stage_error& e )
  {
    EXPECT_EQ( e.code(), error_code::spec_parse );
    EXPECT_EQ( e.segment(), 3u );
  }
}

TEST( spec_diagnostics_test, server_shutdown_submit_is_typed )
{
  compile_server server( { .num_workers = 1u } );
  server.shutdown();
  try
  {
    server.submit( eq5 );
    FAIL() << "submit after shutdown accepted";
  }
  catch ( const qda_error& e )
  {
    EXPECT_EQ( e.code(), error_code::server_shutdown );
  }
}

/* ---------------- deadlines ---------------- */

TEST( deadline_test, short_deadline_fails_a_slow_compile_fast )
{
  server_options options;
  options.num_workers = 1u;
  compile_server server( options );

  const auto started = std::chrono::steady_clock::now();
  auto handle = server.submit( slow_spec, job_options{ .deadline = 50ms } );
  auto response = handle.get();
  const auto elapsed =
      std::chrono::duration<double, std::milli>( std::chrono::steady_clock::now() -
                                                 started )
          .count();

  EXPECT_EQ( response.code, error_code::deadline_exceeded );
  EXPECT_EQ( response.result, nullptr );
  EXPECT_FALSE( response.ok() );
  /* aborted long before the multi-second full compile (generous bound
   * to stay robust under Debug / sanitizer builds) */
  EXPECT_LT( elapsed, 2000.0 );

  /* the worker survived the deadline */
  auto next = server.submit( eq5 ).get();
  EXPECT_EQ( next.code, error_code::ok );
  ASSERT_NE( next.result, nullptr );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.deadline_exceeded, 1u );
  EXPECT_EQ( stats.failed, 0u );
  EXPECT_EQ( stats.compiled, 1u );
}

TEST( deadline_test, cancelled_token_stops_rptm_and_lowering_mid_pass )
{
  /* no timing involved: the token is cancelled before the call, so the
   * first strided poll inside the emission loop must throw */
  pass_manager manager( /*enable_cache=*/false );
  run_plan front_end;
  front_end.use_library = false;
  const auto reversible =
      manager.run( parse_pipeline( "revgen --hwb 10; tbs; revsimp" ), staged_ir{}, front_end )
          .ir.reversible;
  ASSERT_TRUE( reversible.has_value() );

  cancel_source source;
  source.request_cancel();
  clifford_t_options options;
  options.cancel = source.token();
  const auto expect_cancelled = [&]( auto&& run ) {
    try
    {
      run();
      ADD_FAILURE() << "expected a cancelled error";
    }
    catch ( const qda_error& error )
    {
      EXPECT_EQ( error.code(), error_code::cancelled );
    }
  };
  expect_cancelled( [&] { map_to_clifford_t( *reversible, options ); } );

  qcircuit wide( 8u );
  for ( uint32_t i = 0u; i < 200u; ++i )
  {
    wide.mcx( { i % 4u, 4u, 5u }, 6u + i % 2u );
  }
  expect_cancelled( [&] { lower_multi_controlled_gates( wide, options ); } );

  /* the same inputs map fine without the cancel */
  EXPECT_GT( map_to_clifford_t( *reversible ).circuit.num_gates(), 0u );
  EXPECT_GT( lower_multi_controlled_gates( wide ).circuit.num_gates(), 0u );
}

TEST( deadline_test, deadline_interrupts_tpar_mid_pass )
{
  /* self-calibrating: compile to find this build's pass boundary
   * times, then arm a deadline that lands inside the tpar pass.  The
   * boundaries are the fastest of three compiles: a cold first compile
   * (faulting in the heap) or one slowed by a busy host would place
   * the deadline after tpar, and with tpar itself only ~50 ms that
   * margin is thin.  An early deadline still aborts the run (at the
   * next pass boundary).  The subcircuit library must stay out of every
   * run: a library splice would skip the very tpar work the deadline
   * is aimed at. */
  pass_manager manager( /*enable_cache=*/false );
  const auto spec = parse_pipeline( "revgen --hwb 10; tbs; revsimp; rptm; tpar; ps" );
  run_plan reference_plan;
  reference_plan.use_library = false;
  double before_tpar_ms = std::numeric_limits<double>::infinity();
  double tpar_ms = std::numeric_limits<double>::infinity();
  for ( int run = 0; run < 3; ++run )
  {
    const auto reference = manager.run( spec, staged_ir{}, reference_plan );
    double before_ms = 0.0;
    for ( const auto& report : reference.reports )
    {
      if ( report.name == "tpar" )
      {
        tpar_ms = std::min( tpar_ms, report.elapsed_ms );
        break;
      }
      before_ms += report.elapsed_ms;
    }
    before_tpar_ms = std::min( before_tpar_ms, before_ms );
  }
  ASSERT_TRUE( std::isfinite( tpar_ms ) ); /* every compile ran tpar */
  ASSERT_GT( tpar_ms, 0.0 );

  cancel_source source;
  run_plan plan;
  plan.cancel = source.token();
  plan.use_library = false;
  source.set_deadline_after( std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>( before_tpar_ms + tpar_ms / 2.0 ) ) );
  try
  {
    manager.run( spec, staged_ir{}, plan );
    FAIL() << "deadline inside tpar did not abort the run";
  }
  catch ( const qda_error& e )
  {
    EXPECT_EQ( e.code(), error_code::deadline_exceeded );
  }
}

/* ---------------- cancellation through the server ---------------- */

struct gate_control
{
  std::atomic<uint32_t> started{ 0u };
  std::atomic<bool> release{ false };

  void wait_for_start( uint32_t count ) const
  {
    while ( started.load() < count )
    {
      std::this_thread::yield();
    }
  }

  void open()
  {
    release.store( true );
  }
};

/*! Registry with a `spin` pass that blocks until released, polling its
 *  cancel token (the cooperative-cancellation shape of tpar/route), and
 *  a degradable `flaky` pass that always throws. */
pass_registry make_fault_registry( gate_control& gate, std::atomic<int>* flaky_budget = nullptr )
{
  pass_registry registry;
  register_builtin_passes( registry );

  pass_info spin;
  spin.name = "spin";
  spin.summary = "test pass that blocks until released, polling cancellation";
  spin.accepts = { stage::permutation };
  spin.produces = stage::permutation;
  spin.known_options = { "id" };
  spin.run = [&gate]( staged_ir&, const pass_arguments&, const pass_context& context ) {
    gate.started.fetch_add( 1u );
    while ( !gate.release.load() )
    {
      context.cancel.check( "spin" );
      std::this_thread::sleep_for( 50us );
    }
  };
  registry.register_pass( std::move( spin ) );

  pass_info flaky;
  flaky.name = "flaky";
  flaky.summary = "test pass that fails while its budget lasts";
  flaky.accepts = { stage::reversible };
  flaky.produces = stage::reversible;
  flaky.run = [flaky_budget]( staged_ir&, const pass_arguments&, const pass_context& ) {
    if ( !flaky_budget || flaky_budget->fetch_sub( 1 ) > 0 )
    {
      throw qda_error( error_code::pass_failure, "synthetic transient fault",
                       /*transient=*/true );
    }
  };
  flaky.degradable = true;
  registry.register_pass( std::move( flaky ) );
  return registry;
}

TEST( cancel_jobs_test, cancel_while_queued_never_compiles )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto running = server.submit( "revgen --hwb 3; spin --id 1", job_options{} );
  gate.wait_for_start( 1u ); /* worker busy */
  auto queued = server.submit( "revgen --hwb 3; spin --id 2", job_options{} );
  queued.cancel(); /* cancelled before any worker picks it up */
  gate.open();

  auto first = running.get();
  auto second = queued.get();
  EXPECT_EQ( first.code, error_code::ok );
  EXPECT_EQ( second.code, error_code::cancelled );
  EXPECT_EQ( second.result, nullptr );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.cancelled, 1u );
  EXPECT_EQ( stats.compiled, 1u );
}

TEST( cancel_jobs_test, cancel_mid_compile_unwinds_the_pass )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto handle = server.submit( "revgen --hwb 3; spin --id 1", job_options{} );
  gate.wait_for_start( 1u ); /* the worker is inside the spin pass */
  handle.cancel();

  auto response = handle.get(); /* returns without ever opening the gate */
  EXPECT_EQ( response.code, error_code::cancelled );
  EXPECT_EQ( response.result, nullptr );
  EXPECT_NE( response.error_message.find( "spin" ), std::string::npos );

  /* the worker survived the unwound pass */
  auto next = server.submit( eq5 ).get();
  EXPECT_EQ( next.code, error_code::ok );
  EXPECT_EQ( server.statistics().cancelled, 1u );
}

TEST( cancel_jobs_test, coalesced_job_aborts_only_when_every_waiter_cancels )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto first = server.submit( "revgen --hwb 3; spin --id 7", job_options{} );
  gate.wait_for_start( 1u );
  auto second = server.submit( "revgen --hwb 3; spin --id 7", job_options{} );

  first.cancel(); /* one of two waiters: the job must keep running */
  std::this_thread::sleep_for( 5ms );
  gate.open();

  auto r1 = first.get();
  auto r2 = second.get();
  /* the cancelled waiter still receives the shared outcome */
  EXPECT_EQ( r1.code, error_code::ok );
  EXPECT_EQ( r2.code, error_code::ok );
  EXPECT_TRUE( r2.coalesced );
  EXPECT_EQ( server.statistics().cancelled, 0u );
}

TEST( cancel_jobs_test, coalesced_job_aborts_once_all_waiters_cancel )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto first = server.submit( "revgen --hwb 3; spin --id 8", job_options{} );
  gate.wait_for_start( 1u );
  auto second = server.submit( "revgen --hwb 3; spin --id 8", job_options{} );

  first.cancel();
  second.cancel();

  auto r1 = first.get();
  auto r2 = second.get();
  EXPECT_EQ( r1.code, error_code::cancelled );
  EXPECT_EQ( r2.code, error_code::cancelled );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.cancelled, 1u ); /* one shared job */
  EXPECT_EQ( stats.coalesced, 1u );
  EXPECT_EQ( stats.compiled, 0u );
}

/* ---------------- degraded-mode compilation ---------------- */

TEST( degrade_test, degraded_run_rolls_back_and_stays_equivalent )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  const std::string spec = "revgen --hwb 4; tbs; flaky; revsimp; rptm; tpar; ps";

  /* strict: the failing pass fails the job, typed */
  auto strict = server.submit( spec, job_options{} ).get();
  EXPECT_EQ( strict.code, error_code::pass_failure );
  EXPECT_EQ( strict.result, nullptr );

  /* degrade: the failing pass is rolled back and marked, the job
   * completes with the exact circuit of the pipeline without it */
  auto degraded =
      server.submit( spec, job_options{ .policy = failure_policy::degrade } ).get();
  EXPECT_EQ( degraded.code, error_code::ok );
  EXPECT_TRUE( degraded.degraded );
  ASSERT_NE( degraded.result, nullptr );
  EXPECT_TRUE( degraded.result->degraded );
  EXPECT_EQ( degraded.result->degraded_passes, 1u );
  ASSERT_EQ( degraded.result->reports.size(), 7u );
  const auto& report = degraded.result->reports[2];
  EXPECT_EQ( report.name, "flaky" );
  EXPECT_TRUE( report.degraded );
  EXPECT_EQ( report.degraded_reason, "pass_failure" );

  pass_manager reference_manager( /*enable_cache=*/false );
  const auto reference = reference_manager.run( eq5 );
  EXPECT_TRUE( degraded.result->ir.require_quantum().circuit ==
               reference.ir.require_quantum().circuit );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.degraded, 1u );
  EXPECT_EQ( stats.failed, 1u );
}

TEST( degrade_test, degraded_results_never_poison_the_caches )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  const std::string spec = "revgen --hwb 4; tbs; flaky; revsimp; rptm; tpar; ps";
  const job_options degrade{ .policy = failure_policy::degrade };

  auto first = server.submit( spec, degrade ).get();
  ASSERT_EQ( first.code, error_code::ok );
  EXPECT_TRUE( first.degraded );

  /* a later strict client with the same structural key must not be
   * served the degraded result -- it recompiles and fails honestly */
  auto strict = server.submit( spec, job_options{} ).get();
  EXPECT_EQ( strict.code, error_code::pass_failure );

  /* and a later degrade client recompiles too (nothing was cached) */
  auto second = server.submit( spec, degrade ).get();
  EXPECT_EQ( second.code, error_code::ok );
  EXPECT_TRUE( second.degraded );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.cache_hits, 0u );
  EXPECT_EQ( stats.compiled, 2u );
  EXPECT_EQ( stats.failed, 1u );
}

TEST( degrade_test, expired_deadline_skips_degradable_passes_only )
{
  pass_manager manager( /*enable_cache=*/false );
  const auto spec = parse_pipeline( eq5 );

  cancel_source source;
  source.set_deadline_after( -1ms ); /* expired before the run starts */
  run_plan plan;
  plan.cancel = source.token();
  plan.policy = failure_policy::degrade;

  const auto result = manager.run( spec, staged_ir{}, plan );
  EXPECT_TRUE( result.degraded );
  /* revsimp, tpar are degradable (peephole is not in eq5); mandatory
   * synthesis/mapping passes still ran and produced a valid circuit */
  EXPECT_EQ( result.degraded_passes, 2u );
  EXPECT_NO_THROW( result.ir.require_quantum() );
  for ( const auto& report : result.reports )
  {
    if ( report.degraded )
    {
      EXPECT_EQ( report.degraded_reason, "deadline_exceeded" );
    }
  }

  /* the same expired deadline under strict policy aborts instead */
  run_plan strict_plan;
  strict_plan.cancel = source.token();
  try
  {
    manager.run( spec, staged_ir{}, strict_plan );
    FAIL() << "expired deadline accepted under strict policy";
  }
  catch ( const qda_error& e )
  {
    EXPECT_EQ( e.code(), error_code::deadline_exceeded );
  }
}

/* ---------------- resource budgets ---------------- */

TEST( resource_test, gate_budget_exhaustion_is_typed )
{
  compile_server server( { .num_workers = 1u } );
  auto response =
      server.submit( eq5, job_options{ .limits = { .max_gates = 1u } } ).get();
  EXPECT_EQ( response.code, error_code::resource_exhausted );
  EXPECT_EQ( response.result, nullptr );
  EXPECT_NE( response.error_message.find( "budget" ), std::string::npos );
  EXPECT_EQ( server.statistics().failed, 1u );
}

/* ---------------- retry with backoff ---------------- */

TEST( retry_test, transient_failures_retry_until_success )
{
  gate_control gate;
  std::atomic<int> flaky_budget{ 1 }; /* fail once, then succeed */
  const auto registry = make_fault_registry( gate, &flaky_budget );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto response = server.submit( "revgen --hwb 3; tbs; flaky",
                                 job_options{ .max_retries = 2u } )
                      .get();
  EXPECT_EQ( response.code, error_code::ok );
  EXPECT_EQ( response.retries, 1u );
  ASSERT_NE( response.result, nullptr );
  EXPECT_EQ( server.statistics().retried, 1u );
}

TEST( retry_test, transient_failures_without_budget_fail_typed )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate ); /* flaky always fails */
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto response =
      server.submit( "revgen --hwb 3; tbs; flaky", job_options{ .max_retries = 2u } )
          .get();
  EXPECT_EQ( response.code, error_code::pass_failure );
  EXPECT_EQ( response.retries, 2u ); /* budget consumed, still failing */
  EXPECT_EQ( server.statistics().retried, 2u );

  auto no_budget = server.submit( "revgen --hwb 3; tbs; flaky", job_options{} ).get();
  EXPECT_EQ( no_budget.code, error_code::pass_failure );
  EXPECT_EQ( no_budget.retries, 0u );
}

TEST( retry_test, admission_retries_ride_out_a_transient_queue_full )
{
  gate_control gate;
  const auto registry = make_fault_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.max_queue_depth = 1u;
  options.reject_when_full = true;
  options.registry = &registry;
  compile_server server( options );

  auto running = server.submit( "revgen --hwb 3; spin --id 1", job_options{} );
  gate.wait_for_start( 1u );
  auto queued = server.submit( "revgen --hwb 3; spin --id 2", job_options{} );

  /* without a retry budget the third submission bounces immediately */
  EXPECT_THROW( server.submit( "revgen --hwb 3; spin --id 3", job_options{} ),
                server_overloaded );

  /* with one, a release during the backoff lets it through */
  std::thread opener( [&gate] {
    std::this_thread::sleep_for( 10ms );
    gate.open();
  } );
  job_handle third;
  EXPECT_NO_THROW( third = server.submit( "revgen --hwb 3; spin --id 3",
                                          job_options{ .max_retries = 10u } ) );
  opener.join();
  EXPECT_EQ( third.get().code, error_code::ok );
  EXPECT_EQ( queued.get().code, error_code::ok );
  EXPECT_EQ( running.get().code, error_code::ok );
  EXPECT_EQ( server.statistics().rejected, 1u );
}

#if QDA_FAILPOINTS_ENABLED

/* ---------------- deterministic fault injection ---------------- */

/*! Disarms every failpoint on scope exit (the registry is global). */
struct failpoint_guard
{
  ~failpoint_guard()
  {
    failpoint::registry::instance().reset();
  }
};

TEST( failpoint_test, parse_spec_accepts_well_formed_entries )
{
  const auto configs =
      failpoint::parse_spec( "pass.tpar:fail:0.25:42,server.worker:sleep:1:7" );
  ASSERT_EQ( configs.size(), 2u );
  EXPECT_EQ( configs[0].site, "pass.tpar" );
  EXPECT_EQ( configs[0].action, failpoint::kind::fail );
  EXPECT_DOUBLE_EQ( configs[0].probability, 0.25 );
  EXPECT_EQ( configs[0].seed, 42u );
  EXPECT_EQ( configs[1].site, "server.worker" );
  EXPECT_EQ( configs[1].action, failpoint::kind::sleep );
}

TEST( failpoint_test, parse_spec_rejects_malformed_entries )
{
  EXPECT_THROW( failpoint::parse_spec( "site:fail:0.5" ), std::invalid_argument );
  EXPECT_THROW( failpoint::parse_spec( "site:explode:0.5:1" ), std::invalid_argument );
  EXPECT_THROW( failpoint::parse_spec( "site:fail:zzz:1" ), std::invalid_argument );
  EXPECT_THROW( failpoint::parse_spec( "site:fail:1.5:1" ), std::invalid_argument );
  EXPECT_THROW( failpoint::parse_spec( ":fail:0.5:1" ), std::invalid_argument );
}

TEST( failpoint_test, trigger_sequence_is_deterministic_per_seed )
{
  failpoint_guard guard;
  auto& registry = failpoint::registry::instance();

  const auto run_once = [&registry] {
    registry.arm( failpoint::parse_spec( "unit.det:fail:0.5:12345" ) );
    std::vector<bool> pattern;
    for ( uint32_t i = 0u; i < 200u; ++i )
    {
      bool fired = false;
      try
      {
        registry.hit( "unit.det" );
      }
      catch ( const qda_error& e )
      {
        EXPECT_EQ( e.code(), error_code::pass_failure );
        EXPECT_TRUE( e.transient() );
        fired = true;
      }
      pattern.push_back( fired );
    }
    return std::make_pair( pattern, registry.trigger_count( "unit.det" ) );
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ( first.first, second.first );
  EXPECT_EQ( first.second, second.second );
  EXPECT_GT( first.second, 50u ); /* ~100 of 200 at p=0.5 */
  EXPECT_LT( first.second, 150u );
}

TEST( failpoint_test, unarmed_sites_are_free_and_silent )
{
  failpoint_guard guard;
  auto& registry = failpoint::registry::instance();
  registry.reset();
  EXPECT_FALSE( registry.any_armed() );
  EXPECT_NO_THROW( registry.hit( "pass.tpar" ) );
  EXPECT_EQ( registry.trigger_count( "pass.tpar" ), 0u );

  registry.arm( failpoint::parse_spec( "other.site:fail:1:1" ) );
  EXPECT_NO_THROW( registry.hit( "pass.tpar" ) ); /* different site */
}

TEST( failpoint_test, env_arming_is_forgiving )
{
  failpoint_guard guard;
  auto& registry = failpoint::registry::instance();

  ::setenv( "QDA_FAILPOINTS", "unit.env:fail:1:7", 1 );
  registry.arm_from_env();
  EXPECT_TRUE( registry.any_armed() );
  EXPECT_THROW( registry.hit( "unit.env" ), qda_error );

  registry.reset();
  ::setenv( "QDA_FAILPOINTS", "not a failpoint spec", 1 );
  EXPECT_NO_THROW( registry.arm_from_env() ); /* a typo must not crash */
  EXPECT_FALSE( registry.any_armed() );
  ::unsetenv( "QDA_FAILPOINTS" );
}

TEST( failpoint_test, injected_tpar_failure_degrades_with_preserved_semantics )
{
  failpoint_guard guard;
  failpoint::registry::instance().arm( failpoint::parse_spec( "pass.tpar:fail:1:1" ) );

  compile_server server( { .num_workers = 1u } );
  auto response =
      server.submit( eq5, job_options{ .policy = failure_policy::degrade } ).get();
  ASSERT_EQ( response.code, error_code::ok );
  EXPECT_TRUE( response.degraded );
  ASSERT_NE( response.result, nullptr );
  EXPECT_GE( failpoint::registry::instance().trigger_count( "pass.tpar" ), 1u );

  bool tpar_degraded = false;
  for ( const auto& report : response.result->reports )
  {
    if ( report.name == "tpar" )
    {
      tpar_degraded = report.degraded;
      EXPECT_EQ( report.degraded_reason, "pass_failure" );
    }
  }
  EXPECT_TRUE( tpar_degraded );

  /* the degraded circuit computes the same unitary as a clean compile */
  failpoint::registry::instance().reset();
  pass_manager reference_manager( /*enable_cache=*/false );
  const auto reference = reference_manager.run( eq5 );
  EXPECT_TRUE( circuits_equivalent( response.result->ir.require_quantum().circuit,
                                    reference.ir.require_quantum().circuit ) );
}

TEST( failpoint_test, deadline_lands_inside_the_peephole_sweep )
{
  /* the sleep site sits on the sweep's strided cancel poll: the first
   * poll sleeps past the deadline and that same poll throws, so the
   * pass returns after one ~5 ms sleep.  A pass that polled only per
   * round would sleep at each of the ~120 polls of its first sweep. */
  failpoint_guard guard;
  qcircuit circuit( 4u );
  std::mt19937_64 rng( 5u );
  for ( uint32_t g = 0u; g < 120000u; ++g )
  {
    const uint32_t q = static_cast<uint32_t>( rng() % 4u );
    switch ( rng() % 3u )
    {
    case 0u: circuit.h( q ); break;
    case 1u: circuit.t( q ); break;
    default: circuit.cx( q, ( q + 1u ) % 4u ); break;
    }
  }
  failpoint::registry::instance().arm( failpoint::parse_spec( "peephole.sweep:sleep:1:1" ) );
  cancel_source source;
  source.set_deadline_after( 1ms );
  const auto start = std::chrono::steady_clock::now();
  try
  {
    peephole_in_place( circuit, 8u, source.token() );
    ADD_FAILURE() << "expected a deadline_exceeded error";
  }
  catch ( const qda_error& error )
  {
    EXPECT_EQ( error.code(), error_code::deadline_exceeded );
  }
  EXPECT_LT( std::chrono::steady_clock::now() - start, 300ms );
  EXPECT_EQ( failpoint::registry::instance().trigger_count( "peephole.sweep" ), 1u );
}

TEST( failpoint_test, strict_injected_failure_is_typed_and_not_cached )
{
  failpoint_guard guard;
  failpoint::registry::instance().arm( failpoint::parse_spec( "pass.tpar:fail:1:1" ) );

  compile_server server( { .num_workers = 1u } );
  auto failed = server.submit( eq5 ).get();
  EXPECT_EQ( failed.code, error_code::pass_failure );
  EXPECT_EQ( failed.result, nullptr );

  /* no negative caching: disarm and the same spec compiles cleanly on
   * the same server (and the same worker) */
  failpoint::registry::instance().reset();
  auto healthy = server.submit( eq5 ).get();
  EXPECT_EQ( healthy.code, error_code::ok );
  EXPECT_FALSE( healthy.cache_hit );
  ASSERT_NE( healthy.result, nullptr );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.failed, 1u );
  EXPECT_EQ( stats.compiled, 1u );
  EXPECT_EQ( stats.cache_hits, 0u );
}

TEST( failpoint_test, worker_fault_retries_until_success )
{
  /* find a seed whose site-local coin triggers on the first evaluation
   * and passes on the second (replicating registry::hit's rolls) */
  uint64_t seed = 0u;
  for ( uint64_t candidate = 1u; candidate < 4096u; ++candidate )
  {
    std::mt19937_64 rng( candidate );
    const auto roll = [&rng] {
      std::uniform_real_distribution<double> coin( 0.0, 1.0 );
      return coin( rng );
    };
    if ( roll() < 0.5 && roll() >= 0.5 )
    {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE( seed, 0u );

  failpoint_guard guard;
  failpoint::registry::instance().arm( failpoint::parse_spec(
      "server.worker:fail:0.5:" + std::to_string( seed ) ) );

  compile_server server( { .num_workers = 1u } );
  auto response = server.submit( eq5, job_options{ .max_retries = 1u } ).get();
  EXPECT_EQ( response.code, error_code::ok );
  EXPECT_EQ( response.retries, 1u );
  ASSERT_NE( response.result, nullptr );
  EXPECT_EQ( failpoint::registry::instance().trigger_count( "server.worker" ), 1u );
}

TEST( failpoint_test, cache_store_faults_are_contained )
{
  failpoint_guard guard;
  failpoint::registry::instance().arm( failpoint::parse_spec( "cache.store:fail:1:1" ) );

  compile_server server( { .num_workers = 1u } );
  /* the first sighting is not admitted; the second one's store fails */
  server.submit( eq5 ).get();
  auto second = server.submit( eq5 ).get();
  EXPECT_EQ( second.code, error_code::ok ); /* store failure is swallowed */
  ASSERT_NE( second.result, nullptr );

  /* nothing was stored, so the same spec compiles again as a miss */
  auto third = server.submit( eq5 ).get();
  EXPECT_EQ( third.code, error_code::ok );
  EXPECT_FALSE( third.cache_hit );
  EXPECT_EQ( server.statistics().compiled, 3u );
}

/* ---------------- multi-worker fault stress (TSan target) ---------------- */

TEST( fault_stress_test, eight_workers_survive_random_injected_faults )
{
  failpoint_guard guard;
  failpoint::registry::instance().arm( failpoint::parse_spec(
      "pass.tpar:fail:0.3:11,server.worker:fail:0.15:22,"
      "prefix.snapshot:fail:0.5:33,cache.store:fail:0.25:44" ) );

  server_options options;
  options.num_workers = 8u;
  compile_server server( options );

  const std::vector<std::string> specs = {
    "revgen --hwb 3; tbs; revsimp; rptm; tpar; ps",
    "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps",
    "revgen --hwb 4; tbs; rptm; tpar",
    "revgen --hwb 5; tbs; revsimp; rptm; tpar; ps",
  };
  const std::vector<job_options> mixes = {
    job_options{},
    job_options{ .policy = failure_policy::degrade },
    job_options{ .max_retries = 2u },
    job_options{ .policy = failure_policy::degrade, .max_retries = 1u },
  };

  std::vector<job_handle> handles;
  for ( uint32_t i = 0u; i < 64u; ++i )
  {
    handles.push_back(
        server.submit( specs[i % specs.size()], mixes[i % mixes.size()] ) );
  }

  uint64_t succeeded = 0u;
  for ( auto& handle : handles )
  {
    auto response = handle.get(); /* every future resolves: no dead workers */
    EXPECT_TRUE( response.code == error_code::ok ||
                 response.code == error_code::pass_failure )
        << error_code_name( response.code ) << ": " << response.error_message;
    if ( response.code == error_code::ok )
    {
      ASSERT_NE( response.result, nullptr );
      ++succeeded;
    }
    else
    {
      EXPECT_EQ( response.result, nullptr );
    }
  }
  EXPECT_GT( succeeded, 0u );

  /* disarm: the pool is fully healthy afterwards */
  failpoint::registry::instance().reset();
  auto healthy = server.submit( eq5 ).get();
  EXPECT_EQ( healthy.code, error_code::ok );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.submitted, 65u );
  EXPECT_EQ( stats.compiled + stats.failed + stats.cache_hits + stats.coalesced,
             stats.submitted - stats.rejected );
}

#else // !QDA_FAILPOINTS_ENABLED

TEST( failpoint_test, compiled_out_in_this_build )
{
  GTEST_SKIP() << "failpoints compiled out; configure with -DQDA_ENABLE_FAILPOINTS=ON";
}

#endif // QDA_FAILPOINTS_ENABLED

} // namespace
