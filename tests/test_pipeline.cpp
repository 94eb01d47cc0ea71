#include "core/flow.hpp"
#include "pipeline/pass_manager.hpp"
#include "pipeline/pass_registry.hpp"
#include "pipeline/spec_parser.hpp"
#include "simulator/unitary.hpp"
#include "synthesis/revgen.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <tuple>

namespace qda
{
namespace
{

constexpr const char* eq5 = "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps";

/* ---------------- spec parser ---------------- */

TEST( spec_parser_test, parses_eq5_command_string )
{
  const auto spec = parse_pipeline( "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c" );
  ASSERT_EQ( spec.size(), 6u );
  EXPECT_EQ( spec.passes[0].name, "revgen" );
  EXPECT_EQ( spec.passes[0].args.option( "hwb" ).value_or( "" ), "4" );
  EXPECT_EQ( spec.passes[1].name, "tbs" );
  EXPECT_EQ( spec.passes[4].name, "tpar" );
  EXPECT_EQ( spec.passes[5].name, "ps" );
  EXPECT_TRUE( spec.passes[5].args.has_flag( "c" ) );
}

TEST( spec_parser_test, round_trips_canonical_form )
{
  const auto text = "revgen --hwb 4;  tbs ;revsimp; rptm; tpar;; ps -c";
  const auto spec = parse_pipeline( text );
  const auto canonical = spec.to_string();
  EXPECT_EQ( canonical, "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c" );
  /* parsing the canonical form is a fixed point */
  EXPECT_EQ( parse_pipeline( canonical ).to_string(), canonical );
}

TEST( spec_parser_test, skips_empty_commands_and_newlines )
{
  const auto spec = parse_pipeline( "revgen --hwb 3\n tbs\n\n; rptm;" );
  ASSERT_EQ( spec.size(), 3u );
  EXPECT_EQ( spec.passes[2].name, "rptm" );
}

TEST( spec_parser_test, rejects_invalid_pass_name )
{
  EXPECT_THROW( parse_pipeline( "rev!gen --hwb 4" ), std::invalid_argument );
  EXPECT_THROW( parse_pipeline( "--hwb 4" ), std::invalid_argument );
}

TEST( spec_parser_test, rejects_empty_option_name )
{
  EXPECT_THROW( parse_pipeline( "revgen -- 4" ), std::invalid_argument );
}

TEST( spec_parser_test, long_flags_and_options_distinguished )
{
  const auto spec = parse_pipeline( "tbs --bidirectional; rptm --no-relative-phase" );
  EXPECT_TRUE( spec.passes[0].args.has_flag( "bidirectional" ) );
  EXPECT_TRUE( spec.passes[1].args.has_flag( "no-relative-phase" ) );
  EXPECT_FALSE( spec.passes[1].args.has_option( "no-relative-phase" ) );
}

/* ---------------- validation ---------------- */

TEST( spec_validation_test, unknown_pass_name_is_rejected )
{
  const auto spec = parse_pipeline( "revgen --hwb 4; frobnicate" );
  EXPECT_THROW( validate_pipeline( spec ), std::invalid_argument );
}

TEST( spec_validation_test, wrong_stage_invocation_is_rejected )
{
  /* tbs needs a permutation */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "tbs" ) ), std::logic_error );
  /* rptm before synthesis */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 3; rptm" ) ),
                std::logic_error );
  /* tpar before rptm */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 3; tbs; tpar" ) ),
                std::logic_error );
  /* ps before any circuit */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 3; ps" ) ),
                std::logic_error );
}

TEST( spec_validation_test, malformed_arguments_are_rejected )
{
  /* non-numeric value */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb four; tbs" ) ),
                std::invalid_argument );
  /* unknown argument for the pass */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 4; tbs --frob 3" ) ),
                std::invalid_argument );
  /* option used as flag (missing value) */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb" ) ),
                std::invalid_argument );
  /* stray positional argument */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 4; tbs now" ) ),
                std::invalid_argument );
  /* repeated option */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 4 --hwb 5; tbs" ) ),
                std::invalid_argument );
  /* flags of the retired subcircuit library */
  EXPECT_THROW( validate_pipeline( parse_pipeline( "revgen --hwb 4; tbs; rptm --no-library" ) ),
                std::invalid_argument );
  EXPECT_THROW(
      validate_pipeline( parse_pipeline( "revgen --hwb 4; tbs; rptm; tpar --no-library" ) ),
      std::invalid_argument );
}

TEST( spec_validation_test, revgen_requires_exactly_one_generator )
{
  pass_manager manager( /*enable_cache=*/false );
  EXPECT_THROW( manager.run( "revgen" ), std::invalid_argument );
  EXPECT_THROW( manager.run( "revgen --hwb 4 --gray 3" ), std::invalid_argument );
}

TEST( spec_validation_test, reports_final_stage )
{
  EXPECT_EQ( validate_pipeline( parse_pipeline( "revgen --hwb 4" ) ), stage::permutation );
  EXPECT_EQ( validate_pipeline( parse_pipeline( "revgen --hwb 4; tbs" ) ), stage::reversible );
  EXPECT_EQ( validate_pipeline( parse_pipeline( eq5 ) ), stage::quantum );
  EXPECT_EQ( validate_pipeline(
                 parse_pipeline( "revgen --hwb 4; tbs; rptm; route --device ibm_qx4" ) ),
             stage::mapped );
}

/* ---------------- pass registry ---------------- */

TEST( pass_registry_test, builtin_passes_are_registered )
{
  auto& registry = pass_registry::instance();
  for ( const char* name :
        { "revgen", "tbs", "dbs", "revsimp", "rptm", "tpar", "peephole", "route", "ps" } )
  {
    EXPECT_TRUE( registry.contains( name ) ) << name;
  }
  EXPECT_THROW( registry.at( "nope" ), std::invalid_argument );
}

TEST( pass_registry_test, duplicate_registration_is_rejected )
{
  pass_registry registry;
  register_builtin_passes( registry );
  pass_info duplicate;
  duplicate.name = "tbs";
  duplicate.accepts = { stage::permutation };
  duplicate.produces = stage::reversible;
  duplicate.run = []( staged_ir&, const pass_arguments&, const pass_context& ) {};
  EXPECT_THROW( registry.register_pass( std::move( duplicate ) ), std::invalid_argument );
}

TEST( pass_registry_test, custom_pass_participates_in_pipelines )
{
  pass_registry registry;
  register_builtin_passes( registry );
  pass_info reverse_pass;
  reverse_pass.name = "reverse";
  reverse_pass.summary = "replace the reversible circuit by its inverse";
  reverse_pass.accepts = { stage::reversible };
  reverse_pass.produces = stage::reversible;
  reverse_pass.run = []( staged_ir& ir, const pass_arguments&, const pass_context& ) {
    ir.set_reversible( ir.require_reversible().inverse() );
  };
  registry.register_pass( std::move( reverse_pass ) );

  pass_manager manager( /*enable_cache=*/false, registry );
  const auto result = manager.run( "revgen --hwb 3; tbs; reverse; reverse" );
  EXPECT_EQ( result.ir.require_reversible().to_permutation(),
             hwb_permutation( 3u ) );
}

TEST( pass_registry_test, ps_reuses_the_statistics_the_manager_holds )
{
  const auto fields = []( const circuit_statistics& s ) {
    return std::tuple{ s.num_qubits, s.num_gates,  s.t_count,         s.t_depth,
                       s.h_count,    s.cnot_count, s.two_qubit_count, s.clifford_count,
                       s.depth,      s.num_measurements };
  };
  /* apply_pass hands every pass the statistics it holds for the report */
  pass_registry registry;
  register_builtin_passes( registry );
  std::optional<circuit_statistics> handed;
  pass_info probe;
  probe.name = "probe";
  probe.summary = "record the statistics the pass manager hands over";
  probe.accepts = { stage::quantum };
  probe.run = [&]( staged_ir&, const pass_arguments&, const pass_context& ctx ) {
    if ( ctx.statistics != nullptr )
    {
      handed = *ctx.statistics;
    }
  };
  registry.register_pass( std::move( probe ) );

  pass_manager manager( /*enable_cache=*/false, registry );
  const auto result = manager.run( "revgen --hwb 4; tbs; rptm; probe; ps" );
  const auto expected = compute_statistics( result.ir.require_quantum().circuit );
  ASSERT_TRUE( handed.has_value() );
  EXPECT_EQ( fields( *handed ), fields( expected ) );
  ASSERT_TRUE( result.ir.last_statistics.has_value() );
  EXPECT_EQ( fields( *result.ir.last_statistics ), fields( expected ) );

  /* called without a manager, ps computes them itself */
  auto standalone = result.ir;
  standalone.last_statistics.reset();
  registry.at( "ps" ).run( standalone, pass_arguments{}, pass_context{} );
  ASSERT_TRUE( standalone.last_statistics.has_value() );
  EXPECT_EQ( fields( *standalone.last_statistics ), fields( expected ) );
}

/* ---------------- pass manager ---------------- */

TEST( pass_manager_test, eq5_matches_fluent_flow )
{
  flow fluent;
  const auto fluent_stats = fluent.revgen_hwb( 4u ).tbs().revsimp().rptm().tpar().ps();

  pass_manager manager;
  const auto result = manager.run( eq5 );

  ASSERT_TRUE( result.ir.last_statistics.has_value() );
  const auto& stats = *result.ir.last_statistics;
  EXPECT_EQ( stats.num_qubits, fluent_stats.num_qubits );
  EXPECT_EQ( stats.num_gates, fluent_stats.num_gates );
  EXPECT_EQ( stats.t_count, fluent_stats.t_count );
  EXPECT_EQ( stats.t_depth, fluent_stats.t_depth );
  EXPECT_EQ( stats.cnot_count, fluent_stats.cnot_count );
  EXPECT_EQ( stats.h_count, fluent_stats.h_count );
  EXPECT_EQ( stats.depth, fluent_stats.depth );

  /* the compiled circuit still implements hwb-4 */
  const auto& target = result.ir.require_permutation();
  EXPECT_TRUE( circuit_implements_permutation_with_helpers(
      result.ir.require_quantum().circuit, target.num_vars(), target.images(),
      /*up_to_phase=*/true ) );
}

TEST( pass_manager_test, per_pass_reports_are_recorded )
{
  pass_manager manager( /*enable_cache=*/false );
  const auto result = manager.run( eq5 );
  ASSERT_EQ( result.reports.size(), 6u );
  EXPECT_EQ( result.reports[0].name, "revgen" );
  EXPECT_EQ( result.reports[0].stage_before, stage::empty );
  EXPECT_EQ( result.reports[0].stage_after, stage::permutation );
  EXPECT_EQ( result.reports[1].stage_after, stage::reversible );
  EXPECT_GT( result.reports[1].gates_after, 0u );
  /* revsimp must not grow the circuit */
  EXPECT_LE( result.reports[2].gates_after, result.reports[2].gates_before );
  EXPECT_EQ( result.reports[3].stage_after, stage::quantum );
  ASSERT_TRUE( result.reports[4].statistics_after.has_value() );
  /* tpar must not raise T-count */
  ASSERT_TRUE( result.reports[4].statistics_before.has_value() );
  EXPECT_LE( result.reports[4].statistics_after->t_count,
             result.reports[4].statistics_before->t_count );
  for ( const auto& report : result.reports )
  {
    EXPECT_GE( report.elapsed_ms, 0.0 );
  }
  EXPECT_FALSE( format_report( result ).empty() );
}

TEST( pass_manager_test, tpar_fold_only_keeps_t_count_but_more_cnots )
{
  pass_manager manager( /*enable_cache=*/false );
  const auto fold_only =
      manager.run( "revgen --hwb 5; tbs; revsimp; rptm; tpar --fold-only; ps" );
  const auto full = manager.run( "revgen --hwb 5; tbs; revsimp; rptm; tpar; ps" );
  ASSERT_TRUE( fold_only.ir.quantum.has_value() );
  ASSERT_TRUE( full.ir.quantum.has_value() );
  const auto stats_fold = compute_statistics( fold_only.ir.quantum->circuit );
  const auto stats_full = compute_statistics( full.ir.quantum->circuit );
  /* resynthesis must not cost T gates and should not add CNOTs */
  EXPECT_LE( stats_full.t_count, stats_fold.t_count );
  EXPECT_LE( stats_full.cnot_count, stats_fold.cnot_count );
  /* --no-resynth is an alias for --fold-only */
  const auto alias =
      manager.run( "revgen --hwb 5; tbs; revsimp; rptm; tpar --no-resynth; ps" );
  ASSERT_TRUE( alias.ir.quantum.has_value() );
  EXPECT_TRUE( alias.ir.quantum->circuit == fold_only.ir.quantum->circuit );
}

TEST( pass_manager_test, second_identical_run_hits_cache )
{
  pass_manager manager;
  const auto first = manager.run( eq5 );
  EXPECT_FALSE( first.cache_hit );
  const auto second = manager.run( eq5 );
  EXPECT_TRUE( second.cache_hit );
  EXPECT_EQ( second.cache_key, first.cache_key );
  const auto stats = manager.cache_stats();
  EXPECT_EQ( stats.hits, 1u );
  EXPECT_EQ( stats.misses, 1u );
  EXPECT_EQ( stats.entries, 1u );

  /* the cached result is the same compilation */
  ASSERT_TRUE( second.ir.last_statistics.has_value() );
  EXPECT_EQ( second.ir.last_statistics->t_count, first.ir.last_statistics->t_count );
  EXPECT_EQ( second.ir.require_quantum().circuit.num_gates(),
             first.ir.require_quantum().circuit.num_gates() );
}

TEST( pass_manager_test, different_specs_use_different_cache_entries )
{
  pass_manager manager;
  const auto a = manager.run( "revgen --hwb 4; tbs; rptm" );
  const auto b = manager.run( "revgen --hwb 4; tbs --bidirectional; rptm" );
  EXPECT_NE( a.cache_key, b.cache_key );
  EXPECT_FALSE( b.cache_hit );
  manager.clear_cache();
  EXPECT_EQ( manager.cache_stats().entries, 0u );
  EXPECT_FALSE( manager.run( "revgen --hwb 4; tbs; rptm" ).cache_hit );
}

TEST( pass_manager_test, cache_key_depends_on_initial_ir )
{
  staged_ir a;
  a.set_permutation( permutation::random( 4u, 1u ) );
  staged_ir b;
  b.set_permutation( permutation::random( 4u, 2u ) );
  const auto spec = parse_pipeline( "tbs; rptm" );
  EXPECT_NE( pass_manager::compute_cache_key( spec, a ),
             pass_manager::compute_cache_key( spec, b ) );

  pass_manager manager;
  const auto result = manager.run( spec, a );
  EXPECT_FALSE( result.cache_hit );
  EXPECT_TRUE( manager.run( spec, a ).cache_hit );
  EXPECT_FALSE( manager.run( spec, b ).cache_hit );
}

TEST( pass_manager_test, cache_is_bounded_with_lru_eviction )
{
  pass_manager manager( /*enable_cache=*/true, pass_registry::instance(),
                        /*max_cache_entries=*/2u );
  manager.run( "revgen --hwb 3; tbs" );
  manager.run( "revgen --hwb 4; tbs" );
  EXPECT_EQ( manager.cache_stats().evictions, 0u );

  /* touching hwb-3 refreshes its recency, so inserting hwb-5 evicts
   * hwb-4 (FIFO would evict hwb-3, the oldest insertion) */
  EXPECT_TRUE( manager.run( "revgen --hwb 3; tbs" ).cache_hit );
  manager.run( "revgen --hwb 5; tbs" );
  EXPECT_EQ( manager.cache_stats().evictions, 1u );
  EXPECT_EQ( manager.cache_stats().entries, 2u );

  EXPECT_TRUE( manager.run( "revgen --hwb 3; tbs" ).cache_hit );
  EXPECT_FALSE( manager.run( "revgen --hwb 4; tbs" ).cache_hit ); /* evicts hwb-5 */
  EXPECT_EQ( manager.cache_stats().evictions, 2u );
  EXPECT_EQ( manager.cache_stats().entries, 2u );
}

TEST( spec_parser_test, canonicalizes_flag_and_option_order )
{
  /* parsing is registry-independent, so canonicalization is testable
   * with a made-up vocabulary */
  const auto a = parse_pipeline( "foo -b -a --zeta 1 --eta 2 pos1 pos2" );
  const auto b = parse_pipeline( "foo --eta 2 -a --zeta 1 -b pos1 pos2" );
  EXPECT_EQ( a.to_string(), b.to_string() );
  /* positionals keep their order */
  EXPECT_EQ( a.passes[0].args.positional(), b.passes[0].args.positional() );
}

TEST( spec_parser_test, equivalent_spellings_share_structural_keys )
{
  const auto clean = parse_pipeline( "revgen --hwb 4; tbs; rptm" );
  const auto messy = parse_pipeline( " revgen  --hwb 4 ;; tbs ;\n rptm " );
  EXPECT_EQ( clean.to_string(), messy.to_string() );
  EXPECT_EQ( compute_structural_key( clean, staged_ir{} ),
             compute_structural_key( messy, staged_ir{} ) );
  /* ...so equivalent spellings dedup to one cache entry */
  pass_manager manager;
  EXPECT_FALSE( manager.run( clean ).cache_hit );
  EXPECT_TRUE( manager.run( messy ).cache_hit );
  EXPECT_EQ( manager.cache_stats().entries, 1u );
}

TEST( pass_manager_test, resumes_from_mid_pipeline_snapshot )
{
  const auto spec = parse_pipeline( eq5 );
  pass_manager manager( /*enable_cache=*/false );

  /* harvest the IR after pass 2 (revsimp) through the observer */
  staged_ir snapshot;
  std::vector<pass_report> snapshot_reports;
  run_plan cold;
  const auto observer = [&]( size_t pass_index, const staged_ir& ir,
                             const std::vector<pass_report>& reports ) {
    if ( pass_index == 2u )
    {
      snapshot = ir;
      snapshot_reports = reports;
    }
  };
  const auto full = manager.run( spec, staged_ir{}, cold, observer );
  ASSERT_EQ( snapshot_reports.size(), 3u );

  run_plan plan;
  plan.first_pass = 3u;
  plan.prefix_reports = snapshot_reports;
  plan.cache_key = compute_structural_key( spec, staged_ir{} );
  const auto resumed = manager.run( spec, std::move( snapshot ), plan );

  EXPECT_EQ( resumed.reused_passes, 3u );
  ASSERT_EQ( resumed.reports.size(), full.reports.size() );
  EXPECT_TRUE( resumed.reports[0].reused );
  EXPECT_TRUE( resumed.reports[2].reused );
  EXPECT_FALSE( resumed.reports[3].reused );
  ASSERT_TRUE( resumed.ir.last_statistics.has_value() );
  EXPECT_EQ( resumed.ir.last_statistics->t_count, full.ir.last_statistics->t_count );
  EXPECT_TRUE( resumed.ir.require_quantum().circuit == full.ir.require_quantum().circuit );
}

TEST( pass_manager_test, resume_plan_requires_cache_key )
{
  const auto spec = parse_pipeline( "revgen --hwb 3; tbs" );
  pass_manager manager( /*enable_cache=*/false );
  run_plan plan;
  plan.first_pass = 1u; /* but no cache_key override */
  staged_ir initial;
  initial.set_permutation( permutation::random( 3u, 7u ) );
  EXPECT_THROW( manager.run( spec, std::move( initial ), plan ), std::logic_error );

  run_plan beyond;
  beyond.first_pass = 3u; /* past the end of a 2-pass spec */
  beyond.cache_key = compute_structural_key( spec, staged_ir{} );
  EXPECT_THROW( manager.run( spec, staged_ir{}, beyond ), std::logic_error );
}

TEST( pass_manager_test, disabled_cache_never_hits )
{
  pass_manager manager( /*enable_cache=*/false );
  EXPECT_FALSE( manager.run( eq5 ).cache_hit );
  EXPECT_FALSE( manager.run( eq5 ).cache_hit );
  EXPECT_EQ( manager.cache_stats().hits, 0u );
  EXPECT_EQ( manager.cache_stats().misses, 0u );
}

TEST( pass_manager_test, route_pass_produces_mapped_stage )
{
  pass_manager manager( /*enable_cache=*/false );
  const auto result =
      manager.run( "revgen --hwb 4; tbs; revsimp; rptm; tpar; route --device ibm_qx4; ps" );
  EXPECT_EQ( result.ir.current, stage::mapped );
  const auto& mapped = result.ir.require_mapped();
  EXPECT_EQ( mapped.circuit.num_qubits(), 5u );
  ASSERT_TRUE( result.ir.last_statistics.has_value() );
  /* routed statistics reflect the device circuit, not the logical one */
  EXPECT_EQ( result.ir.last_statistics->num_gates,
             compute_statistics( mapped.circuit ).num_gates );
  EXPECT_GE( result.ir.last_statistics->num_gates,
             compute_statistics( result.ir.require_quantum().circuit ).num_gates );
  EXPECT_THROW( manager.run( "revgen --hwb 4; tbs; rptm; route --device mars" ),
                std::invalid_argument );
  /* conflicting topologies must not silently pick one */
  EXPECT_THROW( manager.run( "revgen --hwb 4; tbs; rptm; route --device ibm_qx5 --linear 3" ),
                std::invalid_argument );
}

TEST( pass_manager_test, stage_errors_surface_as_logic_error )
{
  staged_ir ir;
  EXPECT_THROW( pass_manager::apply_pass( ir, "tbs" ), std::logic_error );
  pass_arguments args;
  args.add_option( "hwb", "3" );
  pass_manager::apply_pass( ir, "revgen", args );
  EXPECT_EQ( ir.current, stage::permutation );
  EXPECT_THROW( pass_manager::apply_pass( ir, "tpar" ), std::logic_error );
}

/* ---------------- flow shim ---------------- */

TEST( flow_shim_test, fluent_flow_records_pass_reports )
{
  flow pipeline;
  pipeline.revgen_hwb( 4u ).tbs().revsimp().rptm().tpar();
  ASSERT_EQ( pipeline.reports().size(), 5u );
  EXPECT_EQ( pipeline.reports()[1].name, "tbs" );
  EXPECT_EQ( pipeline.reports()[4].stage_after, stage::quantum );
  EXPECT_EQ( pipeline.ir().current, stage::quantum );
}

TEST( mapping_flags_test, rptm_strategy_and_cost_target )
{
  pass_manager manager( /*enable_cache=*/false );
  /* forcing the clean chain reproduces the default T-count */
  const auto clean = manager.run( "revgen --hwb 4; tbs; rptm --strategy clean; ps" );
  const auto automatic = manager.run( "revgen --hwb 4; tbs; rptm --strategy auto; ps" );
  ASSERT_TRUE( clean.ir.last_statistics && automatic.ir.last_statistics );
  EXPECT_EQ( clean.ir.last_statistics->t_count, automatic.ir.last_statistics->t_count );

  /* deriving the cost model from a device target caps the qubit budget */
  const auto device_mapped =
      manager.run( "revgen --hwb 4; tbs; rptm --cost-target ibm_qx4; ps" );
  ASSERT_TRUE( device_mapped.ir.last_statistics );
  EXPECT_LE( device_mapped.ir.last_statistics->num_qubits, 5u );

  EXPECT_THROW( manager.run( "revgen --hwb 4; tbs; rptm --strategy vchain" ),
                std::invalid_argument );
  EXPECT_THROW( manager.run( "revgen --hwb 4; tbs; rptm --cost-target nope" ),
                std::invalid_argument );
}

TEST( mapping_flags_test, route_router_selection )
{
  pass_manager manager( /*enable_cache=*/false );
  const auto greedy = manager.run(
      "revgen --hwb 4; tbs; rptm; route --device ibm_qx5 --router greedy" );
  const auto sabre = manager.run(
      "revgen --hwb 4; tbs; rptm; route --device ibm_qx5 --router sabre" );
  ASSERT_TRUE( greedy.ir.mapped && sabre.ir.mapped );
  EXPECT_LE( sabre.ir.mapped->added_swaps, greedy.ir.mapped->added_swaps );
  EXPECT_NO_THROW( manager.run(
      "revgen --hwb 4; tbs; rptm; route --router sabre --lookahead 8 --layout-trials 1" ) );

  /* default router is sabre */
  const auto defaulted = manager.run( "revgen --hwb 4; tbs; rptm; route --device ibm_qx5" );
  ASSERT_TRUE( defaulted.ir.mapped );
  EXPECT_EQ( defaulted.ir.mapped->added_swaps, sabre.ir.mapped->added_swaps );

  EXPECT_THROW( manager.run( "revgen --hwb 4; tbs; rptm; route --router tokyo" ),
                std::invalid_argument );
  EXPECT_THROW( manager.run( "revgen --hwb 4; tbs; rptm; route --lookahead x" ),
                std::invalid_argument );
}

TEST( mapping_flags_test, flow_route_and_strategy_shims )
{
  flow pipeline;
  pipeline.revgen_hwb( 4u ).tbs().rptm_strategy( "clean", "statevector" ).route( "ibm_qx4" );
  EXPECT_EQ( pipeline.ir().current, stage::mapped );
  const auto& mapped = pipeline.mapped();
  EXPECT_EQ( mapped.circuit.num_qubits(), 5u );
  EXPECT_EQ( mapped.initial_layout.size(), 5u );
}

TEST( flow_shim_test, flow_and_spec_pipeline_agree_on_random_permutation )
{
  const auto target = permutation::random( 4u, 99u );

  flow fluent;
  fluent.revgen( target ).tbs().revsimp().rptm().tpar();

  staged_ir initial;
  initial.set_permutation( target );
  pass_manager manager( /*enable_cache=*/false );
  const auto result = manager.run( parse_pipeline( "tbs; revsimp; rptm; tpar" ), initial );

  EXPECT_EQ( result.ir.require_quantum().circuit.num_gates(),
             fluent.quantum().num_gates() );
  EXPECT_TRUE( fluent.verify() );
}


/* ---------------- resuming from frozen snapshots ---------------- */

/*! The perfbench tails: compile-cold's four and serve-zipf's four. */
const std::vector<std::string> snapshot_tails = {
  "tbs; revsimp; rptm; tpar; ps",
  "dbs; revsimp; rptm; tpar; ps",
  "tbs; revsimp; rptm; peephole; ps",
  "tbs; revsimp; rptm --cost-target ibm_qx5; tpar; route --device ibm_qx5; ps",
  "tbs; revsimp; rptm; ps",
  "tbs; revsimp; rptm; tpar; peephole; ps",
};

void expect_same_program( const staged_ir& resumed, const staged_ir& cold )
{
  ASSERT_EQ( resumed.current, cold.current );
  EXPECT_TRUE( resumed.current_circuit() == cold.current_circuit() );
  EXPECT_EQ( resumed.require_quantum().num_helper_qubits,
             cold.require_quantum().num_helper_qubits );
  ASSERT_EQ( resumed.mapped.has_value(), cold.mapped.has_value() );
  if ( cold.mapped )
  {
    EXPECT_EQ( resumed.mapped->initial_layout, cold.mapped->initial_layout );
    EXPECT_EQ( resumed.mapped->final_layout, cold.mapped->final_layout );
    EXPECT_EQ( resumed.mapped->added_swaps, cold.mapped->added_swaps );
  }
  ASSERT_TRUE( resumed.last_statistics && cold.last_statistics );
  EXPECT_EQ( resumed.last_statistics->t_count, cold.last_statistics->t_count );
  EXPECT_EQ( resumed.last_statistics->cnot_count, cold.last_statistics->cnot_count );
}

TEST( frozen_ir_test, resumed_from_every_snapshot_equals_cold_gate_for_gate )
{
  pass_manager manager( /*enable_cache=*/false );
  for ( uint32_t n = 5u; n <= 7u; ++n )
  {
    for ( size_t t = 0u; t < snapshot_tails.size(); ++t )
    {
      const auto spec = parse_pipeline( "revgen --random " + std::to_string( n ) + " --seed " +
                                        std::to_string( 97u * n + t ) + "; " + snapshot_tails[t] );
      SCOPED_TRACE( spec.to_string() );

      /* cold: the reference; snapshots frozen at each proper prefix,
       * as the compile server takes them */
      std::vector<std::pair<frozen_ir, std::vector<pass_report>>> snapshots;
      const auto cold = manager.run( spec, staged_ir{}, run_plan{},
                                     [&]( size_t pass_index, const staged_ir& ir,
                                          const std::vector<pass_report>& reports ) {
                                       if ( pass_index + 1u < spec.size() )
                                       {
                                         snapshots.emplace_back( frozen_ir( ir ), reports );
                                       }
                                     } );
      ASSERT_EQ( snapshots.size(), spec.size() - 1u );

      for ( size_t len = 1u; len < spec.size(); ++len )
      {
        SCOPED_TRACE( "resumed after " + std::to_string( len ) + " passes" );
        run_plan plan;
        plan.first_pass = len;
        plan.cache_key = compute_structural_key( spec, staged_ir{} );
        plan.prefix_reports = snapshots[len - 1u].second;
        const auto resumed = manager.run( spec, snapshots[len - 1u].first.thaw(), plan );
        EXPECT_EQ( resumed.reused_passes, len );
        expect_same_program( resumed.ir, cold.ir );
      }
    }
  }
}

TEST( frozen_ir_test, thaw_restores_every_stage_artifact )
{
  const auto result = pass_manager( false ).run(
      "revgen --random 5 --seed 3; tbs; rptm; route --device ibm_qx5; ps" );
  const frozen_ir frozen( result.ir );
  const auto thawed = frozen.thaw();
  EXPECT_EQ( thawed.current, result.ir.current );
  EXPECT_EQ( thawed.target_permutation, result.ir.target_permutation );
  EXPECT_TRUE( *thawed.reversible == *result.ir.reversible );
  EXPECT_TRUE( thawed.quantum->circuit == result.ir.quantum->circuit );
  EXPECT_TRUE( thawed.mapped->circuit == result.ir.mapped->circuit );
  EXPECT_EQ( thawed.mapped->final_layout, result.ir.mapped->final_layout );
  EXPECT_EQ( frozen.num_gates(), result.ir.reversible->num_gates() +
                                     result.ir.quantum->circuit.num_gates() +
                                     result.ir.mapped->circuit.num_gates() );
  EXPECT_LT( frozen.heap_bytes(), result.ir.heap_bytes() / 8u );
}

} // namespace
} // namespace qda
