/*! \file test_compile_server.cpp
 *  \brief Compile server core: sharded LRU storage, the sighting
 *         profile, job queue + admission control, structural-hash
 *         dedup, second-sighting result admission, coalescing,
 *         cross-job prefix reuse, and multi-threaded exactness.
 *
 *  The concurrency tests here are the ThreadSanitizer targets of the
 *  `sanitize (tsan)` CI job.
 */
#include "server/compile_server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace
{

using namespace qda;
using namespace qda::server;

constexpr const char* eq5 = "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps";

structural_key key_of( uint64_t seed )
{
  return structural_key{ seed, ~seed };
}

/* ---------------- sharded LRU primitive ---------------- */

TEST( sharded_lru_test, evicts_least_recently_used_and_counts )
{
  sharded_lru<int> map( /*num_shards=*/1u, /*capacity=*/2u );
  map.insert( key_of( 1u ), std::make_shared<const int>( 1 ) );
  map.insert( key_of( 2u ), std::make_shared<const int>( 2 ) );

  /* touch 1 -> 2 becomes least recently used */
  ASSERT_NE( map.find( key_of( 1u ) ), nullptr );
  EXPECT_EQ( map.insert( key_of( 3u ), std::make_shared<const int>( 3 ) ), 1u );

  EXPECT_NE( map.find( key_of( 1u ) ), nullptr );
  EXPECT_NE( map.find( key_of( 3u ) ), nullptr );
  EXPECT_EQ( map.find( key_of( 2u ) ), nullptr );

  const auto stats = map.statistics();
  EXPECT_EQ( stats.evictions, 1u );
  EXPECT_EQ( stats.entries, 2u );
  EXPECT_EQ( stats.hits, 3u );
  EXPECT_EQ( stats.misses, 1u );
}

TEST( sharded_lru_test, held_bytes_and_gates_follow_inserts_and_evictions )
{
  sharded_lru<int> map( /*num_shards=*/1u, /*capacity=*/2u );
  map.insert( key_of( 1u ), std::make_shared<const int>( 1 ), 100u, 10u );
  map.insert( key_of( 2u ), std::make_shared<const int>( 2 ), 200u, 20u );
  EXPECT_EQ( map.statistics().bytes, 300u );
  EXPECT_EQ( map.statistics().gates, 30u );

  map.insert( key_of( 2u ), std::make_shared<const int>( 2 ), 50u, 5u ); /* refresh */
  EXPECT_EQ( map.statistics().bytes, 150u );
  map.insert( key_of( 3u ), std::make_shared<const int>( 3 ), 7u, 1u ); /* evicts 1 */
  EXPECT_EQ( map.statistics().bytes, 57u );
  EXPECT_EQ( map.statistics().gates, 6u );

  map.clear();
  EXPECT_EQ( map.statistics().bytes, 0u );
  EXPECT_EQ( map.statistics().gates, 0u );
}

TEST( sharded_lru_test, per_shard_counters_sum_to_aggregate )
{
  sharded_lru<int> map( /*num_shards=*/4u, /*capacity=*/64u );
  for ( uint64_t i = 0u; i < 32u; ++i )
  {
    map.insert( key_of( i ), std::make_shared<const int>( static_cast<int>( i ) ) );
  }
  for ( uint64_t i = 0u; i < 32u; ++i )
  {
    EXPECT_NE( map.find( key_of( i ) ), nullptr );
  }
  EXPECT_EQ( map.find( key_of( 1000u ) ), nullptr );

  const auto shards = map.per_shard_statistics();
  ASSERT_EQ( shards.size(), 4u );
  shard_statistics total;
  for ( const auto& shard : shards )
  {
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.entries += shard.entries;
  }
  EXPECT_EQ( total.hits, 32u );
  EXPECT_EQ( total.misses, 1u );
  EXPECT_EQ( total.entries, 32u );

  map.clear();
  EXPECT_EQ( map.statistics().entries, 0u );
}

TEST( sharded_lru_test, mismatched_check_half_is_a_miss )
{
  sharded_lru<int> map( 1u, 4u );
  map.insert( key_of( 7u ), std::make_shared<const int>( 7 ) );
  /* same primary, different check half: must not alias */
  EXPECT_EQ( map.find( structural_key{ 7u, 0u } ), nullptr );
  EXPECT_FALSE( map.contains( structural_key{ 7u, 0u } ) );
  EXPECT_TRUE( map.contains( key_of( 7u ) ) );
}

/* ---------------- result admission rule ---------------- */

TEST( sighting_profile_test, counts_sightings_per_key )
{
  sighting_profile profile;
  EXPECT_EQ( profile.observe( 1u ), 1u );
  EXPECT_EQ( profile.observe( 2u ), 1u );
  EXPECT_EQ( profile.observe( 1u ), 2u );
  EXPECT_EQ( profile.observe( 1u ), 3u );
  EXPECT_EQ( profile.observe( 2u ), 2u );
}

TEST( sighting_profile_test, admits_on_the_second_sighting )
{
  static_assert( sighting_profile::admit_sighting == 2u );
  sighting_profile profile;
  EXPECT_LT( profile.observe( 42u ), sighting_profile::admit_sighting );
  EXPECT_EQ( profile.observe( 42u ), sighting_profile::admit_sighting );
}

TEST( sighting_profile_test, a_full_shard_resets_on_a_new_key )
{
  sighting_profile profile;
  const uint64_t kept = 1u;
  const size_t shard = sighting_profile::shard_index( kept );
  uint64_t other = 2u; /* a key counted in another shard */
  while ( sighting_profile::shard_index( other ) == shard )
  {
    ++other;
  }
  profile.observe( kept );
  profile.observe( kept );
  profile.observe( other );

  /* fill the shard of `kept` to its bound with distinct keys */
  uint64_t key = other;
  for ( size_t held = 1u; held < sighting_profile::max_entries_per_shard; )
  {
    ++key;
    if ( sighting_profile::shard_index( key ) == shard )
    {
      EXPECT_EQ( profile.observe( key ), 1u );
      ++held;
    }
  }
  /* a known key in a full shard still counts on */
  EXPECT_EQ( profile.observe( kept ), 3u );

  /* a new key in the full shard drops every count of that shard only */
  do
  {
    ++key;
  } while ( sighting_profile::shard_index( key ) != shard );
  EXPECT_EQ( profile.observe( key ), 1u );
  EXPECT_EQ( profile.observe( kept ), 1u );
  EXPECT_EQ( profile.observe( other ), 2u );
}

/* ---------------- single-job serving ---------------- */

TEST( compile_server_test, serves_single_job_end_to_end )
{
  server_options options;
  options.num_workers = 2u;
  compile_server server( options );

  auto response = server.submit( eq5 ).get();
  ASSERT_NE( response.result, nullptr );
  EXPECT_FALSE( response.cache_hit );
  EXPECT_FALSE( response.coalesced );
  EXPECT_EQ( response.reused_passes, 0u );

  /* the served compilation equals a direct pass_manager run */
  pass_manager reference( /*enable_cache=*/false );
  const auto expected = reference.run( eq5 );
  ASSERT_TRUE( response.result->ir.last_statistics.has_value() );
  EXPECT_EQ( response.result->ir.last_statistics->t_count,
             expected.ir.last_statistics->t_count );
  EXPECT_TRUE( response.result->ir.require_quantum().circuit ==
               expected.ir.require_quantum().circuit );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.submitted, 1u );
  EXPECT_EQ( stats.completed, 1u );
  EXPECT_EQ( stats.compiled, 1u );
  EXPECT_EQ( stats.cache_hits, 0u );
  EXPECT_EQ( stats.failed, 0u );
}

TEST( compile_server_test, malformed_specs_fail_the_submitter )
{
  compile_server server( { .num_workers = 1u } );
  EXPECT_THROW( server.submit( "rev!gen --hwb 4" ), std::invalid_argument );
  EXPECT_THROW( server.submit( "tbs" ), std::logic_error ); /* wrong start stage */
  EXPECT_THROW( server.submit( "nope --x 1" ), std::invalid_argument );
  EXPECT_EQ( server.statistics().submitted, 0u );
}

/* ---------------- structural dedup ---------------- */

TEST( compile_server_test, equivalent_spellings_dedup_to_one_entry )
{
  compile_server server( { .num_workers = 1u } );
  const auto first = server.submit( "revgen --hwb 4; tbs; revsimp" ).get();
  EXPECT_FALSE( first.cache_hit );

  /* same pipeline, messy spelling: extra whitespace, empty segments.
   * It is the key's second sighting, so it compiles and is admitted */
  const auto messy = server.submit( " revgen  --hwb 4 ;; tbs ;\n revsimp " ).get();
  EXPECT_FALSE( messy.cache_hit );
  EXPECT_EQ( server.statistics().result_cache.entries, 1u );

  /* a third spelling hits the entry all three share */
  const auto third = server.submit( "revgen --hwb 4 ;tbs;revsimp" ).get();
  EXPECT_TRUE( third.cache_hit );
  EXPECT_EQ( third.result->ir.require_reversible().num_gates(),
             first.result->ir.require_reversible().num_gates() );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.cache_hits, 1u );
  EXPECT_EQ( stats.compiled, 2u );
  EXPECT_EQ( stats.result_cache.entries, 1u );
}

TEST( compile_server_test, exact_text_keying_misses_on_respelling )
{
  server_options options;
  options.num_workers = 1u;
  options.keying = key_mode::exact_text;
  compile_server server( options );

  EXPECT_FALSE( server.submit( "revgen --hwb 4; tbs; revsimp" ).get().cache_hit );
  /* identical pipeline, different spelling: the ablation keying cannot
   * see through it, demonstrating why the structural key exists */
  EXPECT_FALSE( server.submit( " revgen  --hwb 4 ;; tbs ;\n revsimp " ).get().cache_hit );
  /* the first spelling's second sighting is admitted, its third hits */
  EXPECT_FALSE( server.submit( "revgen --hwb 4; tbs; revsimp" ).get().cache_hit );
  EXPECT_TRUE( server.submit( "revgen --hwb 4; tbs; revsimp" ).get().cache_hit );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.compiled, 3u );
  EXPECT_EQ( stats.cache_hits, 1u );
}

/* ---------------- cross-job prefix reuse ---------------- */

struct compile_server_telemetry_test : ::testing::Test
{
  void SetUp() override
  {
    if ( !telemetry::compiled_in )
    {
      GTEST_SKIP() << "telemetry hooks compiled out";
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

  static uint64_t counter_value( const std::string& name )
  {
    const auto snapshot = telemetry::metrics_registry::instance().snapshot();
    const auto it = std::find_if( snapshot.counters.begin(), snapshot.counters.end(),
                                  [&]( const auto& c ) { return c.first == name; } );
    return it == snapshot.counters.end() ? 0u : it->second;
  }

  static double gauge_value( const std::string& name )
  {
    const auto snapshot = telemetry::metrics_registry::instance().snapshot();
    const auto it = std::find_if( snapshot.gauges.begin(), snapshot.gauges.end(),
                                  [&]( const auto& g ) { return g.first == name; } );
    return it == snapshot.gauges.end() ? -1.0 : it->second;
  }
};

TEST_F( compile_server_telemetry_test, sibling_pipelines_resume_from_shared_prefix )
{
  compile_server server( { .num_workers = 1u } );

  /* cold run snapshots the IR after every pass prefix */
  const auto cold = server.submit( eq5 ).get();
  EXPECT_EQ( cold.reused_passes, 0u );

  /* sibling spec: same 4-pass prefix, different optimization tail */
  const auto sibling_spec = "revgen --hwb 4; tbs; revsimp; rptm; peephole; ps";
  const auto sibling = server.submit( sibling_spec ).get();
  EXPECT_FALSE( sibling.cache_hit );
  EXPECT_EQ( sibling.reused_passes, 4u ); /* revgen; tbs; revsimp; rptm */
  ASSERT_EQ( sibling.result->reports.size(), 6u );
  EXPECT_TRUE( sibling.result->reports[3].reused );
  EXPECT_FALSE( sibling.result->reports[4].reused );

  /* resumed compilation must equal compiling from scratch */
  pass_manager reference( /*enable_cache=*/false );
  const auto expected = reference.run( sibling_spec );
  ASSERT_TRUE( sibling.result->ir.last_statistics.has_value() );
  EXPECT_EQ( sibling.result->ir.last_statistics->t_count,
             expected.ir.last_statistics->t_count );
  EXPECT_TRUE( sibling.result->ir.require_quantum().circuit ==
               expected.ir.require_quantum().circuit );

  /* prefix savings are observable in the telemetry counters ... */
  EXPECT_EQ( counter_value( "server.prefix.hit" ), 1u );
  EXPECT_EQ( counter_value( "server.prefix.passes_skipped" ), 4u );
  EXPECT_GT( counter_value( "server.prefix.snapshot" ), 0u );

  /* ... and in the server aggregate */
  const auto stats = server.statistics();
  EXPECT_EQ( stats.prefix_hits, 1u );
  EXPECT_EQ( stats.prefix_passes_skipped, 4u );
  EXPECT_GT( stats.prefix_cache.entries, 0u );
  /* 6 cold passes + 2 executed on the resumed run */
  EXPECT_EQ( stats.passes_executed, 8u );

  /* both results were first sightings: deferred, not admitted; the
   * byte gauges track what each cache holds */
  EXPECT_EQ( counter_value( "server.cache.admit_deferred" ), 2u );
  EXPECT_EQ( stats.result_cache.entries, 0u );
  EXPECT_GT( stats.prefix_cache.bytes, 0u );
  EXPECT_EQ( gauge_value( "server.prefix.bytes" ),
             static_cast<double>( stats.prefix_cache.bytes ) );

  server.submit( sibling_spec ).get(); /* second sighting: admitted */
  const auto admitted = server.statistics().result_cache;
  EXPECT_EQ( admitted.entries, 1u );
  EXPECT_GT( admitted.bytes, 0u );
  EXPECT_EQ( gauge_value( "server.result_cache.bytes" ), static_cast<double>( admitted.bytes ) );
  EXPECT_NE( format_server_report( server.statistics() ).find( "KiB" ), std::string::npos );
}

TEST( compile_server_test, prefix_snapshots_share_one_report_chain )
{
  std::vector<pass_report> reports( 3u );
  for ( size_t i = 0u; i < reports.size(); ++i )
  {
    reports[i].name = "pass" + std::to_string( i );
    reports[i].gates_after = i;
  }
  /* extending links only the new reports; older links are shared */
  const auto two = extend_chain( nullptr, { reports[0], reports[1] } );
  const auto three = extend_chain( two, reports );
  EXPECT_EQ( three->previous, two );
  EXPECT_EQ( chain_depth( three ), 3u );
  EXPECT_EQ( extend_chain( three, reports ), three );
  const auto unrolled = unroll_chain( three );
  ASSERT_EQ( unrolled.size(), 3u );
  for ( size_t i = 0u; i < unrolled.size(); ++i )
  {
    EXPECT_EQ( unrolled[i].name, reports[i].name );
    EXPECT_EQ( unrolled[i].gates_after, i );
  }
  EXPECT_TRUE( unroll_chain( nullptr ).empty() );

  /* a resumed job replays exactly the reports of the run that
   * snapshotted its prefix */
  compile_server server( { .num_workers = 1u } );
  const auto cold = server.submit( eq5 ).get();
  const auto sibling = server.submit( "revgen --hwb 4; tbs; revsimp; rptm; peephole; ps" ).get();
  ASSERT_EQ( sibling.reused_passes, 4u );
  for ( size_t i = 0u; i < 4u; ++i )
  {
    const auto& replayed = sibling.result->reports[i];
    const auto& original = cold.result->reports[i];
    EXPECT_TRUE( replayed.reused );
    EXPECT_EQ( replayed.name, original.name );
    EXPECT_EQ( replayed.arguments, original.arguments );
    EXPECT_EQ( replayed.elapsed_ms, original.elapsed_ms );
    EXPECT_EQ( replayed.gates_before, original.gates_before );
    EXPECT_EQ( replayed.gates_after, original.gates_after );
  }
}

TEST( compile_server_test, default_prefix_cache_holds_a_serving_working_set )
{
  /* 300 programs leave four snapshots each (revgen .. rptm); a sibling
   * tail over every one of them must resume after rptm */
  compile_server server( { .num_workers = 1u } );
  constexpr uint32_t programs = 300u;
  const auto program = []( uint32_t seed ) {
    return "revgen --random 4 --seed " + std::to_string( seed ) + "; tbs; revsimp; rptm";
  };
  for ( uint32_t seed = 1u; seed <= programs; ++seed )
  {
    server.submit( program( seed ) + "; ps" ).get();
  }
  for ( uint32_t seed = 1u; seed <= programs; ++seed )
  {
    server.submit( program( seed ) + "; tpar; ps" ).get();
  }
  const auto stats = server.statistics();
  EXPECT_EQ( stats.prefix_hits, programs );
  EXPECT_EQ( stats.prefix_passes_skipped, 4u * programs );
}

TEST( compile_server_test, one_shot_traffic_holds_no_results_and_packed_snapshots )
{
  /* 200 distinct Eq. (5) programs, each seen once: nothing can hit the
   * result cache, so nothing is admitted to it.  The prefix cache keeps
   * every snapshot (first-sighting admission), each frozen.  Both are
   * work counters: what the caches hold, not process RSS. */
  server_options options;
  options.num_workers = 1u;
  compile_server server( options );
  constexpr uint32_t programs = 200u;
  for ( uint32_t seed = 1u; seed <= programs; ++seed )
  {
    ASSERT_TRUE( server.submit( "revgen --random 7 --seed " + std::to_string( seed ) +
                                "; tbs; revsimp; rptm; tpar; ps" )
                     .get()
                     .ok() );
  }

  const auto stats = server.statistics();
  EXPECT_EQ( stats.compiled, programs );
  EXPECT_EQ( stats.result_cache.entries, 0u );
  EXPECT_EQ( stats.result_cache.bytes, 0u );
  EXPECT_EQ( stats.prefix_cache.entries, 5u * programs );
  ASSERT_GT( stats.prefix_cache.gates, 0u );
  EXPECT_LE( static_cast<double>( stats.prefix_cache.bytes ) /
                 static_cast<double>( stats.prefix_cache.gates ),
             3.0 );
}

TEST( compile_server_test, prefix_reuse_can_be_disabled )
{
  server_options options;
  options.num_workers = 1u;
  options.enable_prefix_reuse = false;
  compile_server server( options );
  server.submit( eq5 ).get();
  const auto sibling =
      server.submit( "revgen --hwb 4; tbs; revsimp; rptm; peephole; ps" ).get();
  EXPECT_EQ( sibling.reused_passes, 0u );
  EXPECT_EQ( server.statistics().prefix_hits, 0u );
  EXPECT_EQ( server.statistics().prefix_cache.entries, 0u );
}

/* ---------------- coalescing and admission control ----------------
 *
 * Both tests drive the queue with a gate pass that blocks inside the
 * worker until the test releases it, making queue occupancy
 * deterministic. */

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

pass_registry make_gated_registry( gate_control& gate )
{
  pass_registry registry;
  register_builtin_passes( registry );
  pass_info blocked;
  blocked.name = "gate";
  blocked.summary = "test pass that blocks until released";
  blocked.accepts = { stage::permutation };
  blocked.produces = stage::permutation;
  blocked.known_options = { "id" };
  blocked.run = [&gate]( staged_ir&, const pass_arguments&, const pass_context& ) {
    gate.started.fetch_add( 1u );
    while ( !gate.release.load() )
    {
      std::this_thread::yield();
    }
  };
  registry.register_pass( std::move( blocked ) );
  return registry;
}

TEST( compile_server_test, identical_inflight_jobs_coalesce_into_one_compile )
{
  gate_control gate;
  const auto registry = make_gated_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto first = server.submit( "revgen --hwb 3; gate" );
  gate.wait_for_start( 1u ); /* the worker is now inside the compile */
  auto second = server.submit( "revgen --hwb 3; gate" );
  auto third = server.submit( " revgen  --hwb 3 ; gate " ); /* messy spelling */
  gate.open();

  const auto r1 = first.get();
  const auto r2 = second.get();
  const auto r3 = third.get();
  EXPECT_FALSE( r1.coalesced );
  EXPECT_TRUE( r2.coalesced );
  EXPECT_TRUE( r3.coalesced );
  /* one compilation served all three */
  EXPECT_EQ( r2.result.get(), r1.result.get() );
  EXPECT_EQ( r3.result.get(), r1.result.get() );

  const auto stats = server.statistics();
  EXPECT_EQ( stats.compiled, 1u );
  EXPECT_EQ( stats.coalesced, 2u );
  EXPECT_EQ( stats.completed, 3u );
}

TEST( compile_server_test, coalesced_waiters_are_not_sightings )
{
  gate_control gate;
  const auto registry = make_gated_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  auto first = server.submit( "revgen --hwb 3; gate" );
  gate.wait_for_start( 1u );
  auto second = server.submit( "revgen --hwb 3; gate" );
  auto third = server.submit( " revgen  --hwb 3 ; gate " );
  gate.open();
  first.get();
  EXPECT_TRUE( second.get().coalesced );
  EXPECT_TRUE( third.get().coalesced );
  /* three waiters, one compile: one sighting, nothing admitted */
  EXPECT_EQ( server.statistics().result_cache.entries, 0u );

  /* the next submission is the second sighting: compiled and admitted */
  EXPECT_FALSE( server.submit( "revgen --hwb 3; gate" ).get().cache_hit );
  EXPECT_EQ( server.statistics().result_cache.entries, 1u );
  EXPECT_TRUE( server.submit( "revgen --hwb 3; gate" ).get().cache_hit );
  EXPECT_EQ( server.statistics().compiled, 2u );
}

TEST( compile_server_test, failed_and_degraded_results_are_never_admitted )
{
  pass_registry registry;
  register_builtin_passes( registry );
  pass_info broken;
  broken.name = "broken";
  broken.summary = "degradable test pass that always throws";
  broken.accepts = { stage::permutation };
  broken.produces = stage::permutation;
  broken.degradable = true;
  broken.run = []( staged_ir&, const pass_arguments&, const pass_context& ) {
    throw std::runtime_error( "broken pass" );
  };
  registry.register_pass( std::move( broken ) );

  server_options options;
  options.num_workers = 1u;
  options.registry = &registry;
  compile_server server( options );

  /* failed: a gate budget the circuit exceeds */
  job_options tight;
  tight.limits.max_gates = 1u;
  for ( int round = 0; round < 3; ++round )
  {
    const auto response = server.submit( eq5, tight ).get();
    EXPECT_EQ( response.code, error_code::resource_exhausted );
    EXPECT_FALSE( response.cache_hit );
  }

  /* degraded: the broken pass is skipped under the degrade policy */
  job_options degrade;
  degrade.policy = failure_policy::degrade;
  for ( int round = 0; round < 3; ++round )
  {
    const auto response = server.submit( "revgen --hwb 3; broken", degrade ).get();
    EXPECT_TRUE( response.ok() );
    EXPECT_TRUE( response.degraded );
    EXPECT_FALSE( response.cache_hit );
  }

  const auto stats = server.statistics();
  EXPECT_EQ( stats.cache_hits, 0u );
  EXPECT_EQ( stats.result_cache.entries, 0u );
  EXPECT_EQ( stats.result_cache.bytes, 0u );
}

TEST( compile_server_test, zero_cache_capacity_disables_the_result_cache )
{
  server_options options;
  options.num_workers = 1u;
  options.cache_capacity = 0u;
  compile_server server( options );
  for ( int round = 0; round < 3; ++round )
  {
    EXPECT_FALSE( server.submit( eq5 ).get().cache_hit );
  }
  const auto stats = server.statistics();
  EXPECT_EQ( stats.compiled, 3u );
  EXPECT_EQ( stats.result_cache.entries, 0u );
  EXPECT_EQ( stats.result_cache.hits + stats.result_cache.misses, 0u );
}

TEST( compile_server_test, overfull_queue_rejects_when_configured )
{
  gate_control gate;
  const auto registry = make_gated_registry( gate );
  server_options options;
  options.num_workers = 1u;
  options.max_queue_depth = 1u;
  options.reject_when_full = true;
  options.registry = &registry;
  compile_server server( options );

  auto running = server.submit( "revgen --hwb 3; gate --id 1" );
  gate.wait_for_start( 1u );                                 /* worker busy */
  auto queued = server.submit( "revgen --hwb 3; gate --id 2" ); /* fills the queue */
  EXPECT_EQ( server.queue_depth(), 1u );
  EXPECT_THROW( server.submit( "revgen --hwb 3; gate --id 3" ), server_overloaded );

  gate.open();
  EXPECT_NO_THROW( running.get() );
  EXPECT_NO_THROW( queued.get() );
  const auto stats = server.statistics();
  EXPECT_EQ( stats.rejected, 1u );
  EXPECT_EQ( stats.compiled, 2u );
  EXPECT_EQ( stats.peak_queue_depth, 1u );
}

TEST( compile_server_test, shutdown_drains_admitted_jobs )
{
  server_options options;
  options.num_workers = 2u;
  compile_server server( options );

  std::vector<std::future<compile_response>> futures;
  for ( uint32_t hwb = 3u; hwb <= 5u; ++hwb )
  {
    for ( const char* tail : { "tbs", "tbs; revsimp", "tbs; rptm" } )
    {
      futures.push_back( server.submit( "revgen --hwb " + std::to_string( hwb ) +
                                        "; " + tail ) );
    }
  }
  server.shutdown();
  server.shutdown(); /* idempotent */

  for ( auto& future : futures )
  {
    EXPECT_NE( future.get().result, nullptr ); /* every admitted job completed */
  }
  EXPECT_EQ( server.statistics().completed, futures.size() );
  EXPECT_THROW( server.submit( eq5 ), std::runtime_error );
}

/* ---------------- multi-threaded exactness (TSan targets) ---------------- */

TEST( compile_server_test, stress_eight_submitters_exact_accounting )
{
  const std::vector<std::string> unique = {
    "revgen --hwb 3; tbs",
    "revgen --hwb 3; tbs; revsimp",
    "revgen --hwb 3; tbs; rptm",
    "revgen --hwb 4; tbs",
    "revgen --hwb 4; tbs; revsimp",
    "revgen --hwb 4; tbs; rptm",
  };
  /* equivalent spellings exercised round-robin per submission */
  const auto respell = []( const std::string& spec, size_t variant ) {
    switch ( variant % 3u )
    {
    case 1u:
      return " " + spec + " ;";
    case 2u:
    {
      auto noisy = spec;
      for ( size_t pos = 0u; ( pos = noisy.find( "; ", pos ) ) != std::string::npos; )
      {
        noisy.replace( pos, 2u, " ;; " );
        pos += 4u;
      }
      return noisy;
    }
    default:
      return spec;
    }
  };

  /* single-threaded reference compilations */
  pass_manager reference( /*enable_cache=*/false );
  std::vector<uint64_t> expected_gates;
  expected_gates.reserve( unique.size() );
  for ( const auto& spec : unique )
  {
    const auto result = reference.run( spec );
    expected_gates.push_back( result.ir.current == stage::reversible
                                  ? result.ir.require_reversible().num_gates()
                                  : result.ir.require_quantum().circuit.num_gates() );
  }

  server_options options;
  options.num_workers = 8u;
  options.cache_shards = 4u;
  compile_server server( options );

  constexpr uint32_t num_threads = 8u;
  constexpr uint32_t per_thread = 25u;
  std::atomic<uint32_t> mismatches{ 0u };
  std::vector<std::thread> submitters;
  submitters.reserve( num_threads );
  for ( uint32_t t = 0u; t < num_threads; ++t )
  {
    submitters.emplace_back( [&, t] {
      for ( uint32_t i = 0u; i < per_thread; ++i )
      {
        const auto pick = ( t * per_thread + i ) % unique.size();
        const auto response =
            server.submit( respell( unique[pick], t + i ) ).get();
        const auto& ir = response.result->ir;
        const auto gates = ir.current == stage::reversible
                               ? ir.require_reversible().num_gates()
                               : ir.require_quantum().circuit.num_gates();
        if ( gates != expected_gates[pick] )
        {
          mismatches.fetch_add( 1u );
        }
      }
    } );
  }
  for ( auto& thread : submitters )
  {
    thread.join();
  }
  EXPECT_EQ( mismatches.load(), 0u );

  const auto stats = server.statistics();
  constexpr uint64_t total = num_threads * per_thread;
  EXPECT_EQ( stats.submitted, total );
  EXPECT_EQ( stats.completed, total );
  EXPECT_EQ( stats.failed, 0u );
  EXPECT_EQ( stats.rejected, 0u );

  /* exactness: every unique pipeline compiles exactly twice (its result
   * is admitted on the second sighting) -- racing duplicates either hit
   * the cache or coalesce onto the in-flight job */
  EXPECT_EQ( stats.compiled, 2u * unique.size() );
  EXPECT_EQ( stats.cache_hits + stats.coalesced, total - 2u * unique.size() );

  /* backend accounting: each submission probes the cache exactly once;
   * the probes that miss are the compiles and the coalesced attaches */
  EXPECT_EQ( stats.result_cache.hits, stats.cache_hits );
  EXPECT_EQ( stats.result_cache.misses, stats.compiled + stats.coalesced );
  EXPECT_EQ( stats.result_cache.entries, unique.size() );
}

TEST( compile_server_test, shared_pass_manager_is_thread_safe )
{
  /* the layer below the server: one pass_manager, one shared sharded
   * backend, eight threads driving run() directly */
  auto backend = std::make_shared<sharded_compilation_cache>( 4u, 64u );
  pass_manager manager( backend );

  const std::vector<std::string> specs = {
    "revgen --hwb 3; tbs",
    "revgen --hwb 3; tbs; revsimp",
    "revgen --hwb 4; tbs",
    "revgen --hwb 4; tbs; revsimp",
  };
  constexpr uint32_t num_threads = 8u;
  constexpr uint32_t per_thread = 16u;
  std::atomic<uint32_t> failures{ 0u };
  std::vector<std::thread> threads;
  threads.reserve( num_threads );
  for ( uint32_t t = 0u; t < num_threads; ++t )
  {
    threads.emplace_back( [&, t] {
      for ( uint32_t i = 0u; i < per_thread; ++i )
      {
        const auto& spec = specs[( t + i ) % specs.size()];
        const auto result = manager.run( spec );
        if ( result.ir.require_reversible().num_gates() == 0u )
        {
          failures.fetch_add( 1u );
        }
      }
    } );
  }
  for ( auto& thread : threads )
  {
    thread.join();
  }
  EXPECT_EQ( failures.load(), 0u );

  /* without coalescing a spec may compile more than once (concurrent
   * first misses), but lookups balance and the table stays bounded */
  const auto stats = manager.cache_stats();
  EXPECT_EQ( stats.hits + stats.misses, num_threads * per_thread );
  EXPECT_GE( stats.misses, specs.size() );
  EXPECT_EQ( stats.entries, specs.size() );
}

} // namespace
