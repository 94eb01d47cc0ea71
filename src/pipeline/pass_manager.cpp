#include "pipeline/pass_manager.hpp"

#include "fault/failpoint.hpp"
#include "library/subcircuit_library.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace qda
{

namespace
{

using detail::elapsed_ms_since;
using detail::steady_clock;

} // namespace

pass_manager::pass_manager( bool enable_cache, const pass_registry& registry,
                            size_t max_cache_entries )
    : registry_( registry ),
      cache_( enable_cache && max_cache_entries > 0u
                  ? std::make_shared<lru_compilation_cache>( max_cache_entries )
                  : nullptr )
{
}

pass_manager::pass_manager( std::shared_ptr<compilation_cache> cache,
                            const pass_registry& registry )
    : registry_( registry ), cache_( std::move( cache ) )
{
}

pass_report pass_manager::apply_pass( staged_ir& ir, const pass_invocation& invocation,
                                      const pass_registry& registry,
                                      const std::optional<circuit_statistics>* stats_before,
                                      const pass_context& context )
{
  const auto& info = registry.at( invocation.name );
  info.check_arguments( invocation.args );
  context.cancel.check( invocation.name.c_str() );
  QDA_FAILPOINT( ( "pass." + invocation.name ).c_str() );
  if ( !info.accepts_stage( ir.current ) )
  {
    throw std::logic_error( std::string( "pipeline: pass '" ) + invocation.name +
                            "' cannot run at stage '" + stage_name( ir.current ) + "'" );
  }

  pass_report report;
  report.name = invocation.name;
  report.arguments = invocation.args.to_string();
  report.stage_before = ir.current;
  report.gates_before = ir.current_gate_count();
  report.helpers_before = ir.quantum ? ir.quantum->num_helper_qubits : 0u;
  report.statistics_before = stats_before ? *stats_before : ir.current_statistics();

  QDA_TRACE_SPAN_NAMED( pass_span, std::string( "pass." ) + invocation.name );
  if ( !report.arguments.empty() )
  {
    pass_span.attr( "args", report.arguments );
  }
  pass_span.attr( "stage_in", std::string( stage_name( report.stage_before ) ) );
  pass_span.attr( "gates_in", static_cast<int64_t>( report.gates_before ) );

  pass_context pass_context_with_statistics = context;
  if ( report.statistics_before )
  {
    pass_context_with_statistics.statistics = &*report.statistics_before;
  }
  const auto start = steady_clock::now();
  info.run( ir, invocation.args, pass_context_with_statistics );
  report.elapsed_ms = elapsed_ms_since( start );
  QDA_COUNT( "pipeline.passes_run" );

  const auto expected = info.produces.value_or( report.stage_before );
  if ( ir.current != expected )
  {
    throw std::logic_error( std::string( "pipeline: pass '" ) + invocation.name +
                            "' declared stage '" + stage_name( expected ) +
                            "' but produced '" + stage_name( ir.current ) + "'" );
  }

  report.stage_after = ir.current;
  report.helpers_after = ir.quantum ? ir.quantum->num_helper_qubits : 0u;
  if ( !info.produces )
  {
    /* inspection pass: the circuit is unchanged by contract */
    report.gates_after = report.gates_before;
    report.statistics_after = report.statistics_before;
  }
  else
  {
    report.gates_after = ir.current_gate_count();
    report.statistics_after = ir.current_statistics();
  }
  pass_span.attr( "gates_out", static_cast<int64_t>( report.gates_after ) );
  if ( report.statistics_after )
  {
    pass_span.attr( "t_count", static_cast<int64_t>( report.statistics_after->t_count ) );
    pass_span.attr( "cnot", static_cast<int64_t>( report.statistics_after->cnot_count ) );
    pass_span.attr( "depth", static_cast<int64_t>( report.statistics_after->depth ) );
    pass_span.attr( "qubits", static_cast<int64_t>( report.statistics_after->num_qubits ) );
  }
  return report;
}

pass_report pass_manager::apply_pass( staged_ir& ir, const std::string& name,
                                      const pass_arguments& args,
                                      const pass_registry& registry )
{
  return apply_pass( ir, pass_invocation{ name, args }, registry );
}

uint64_t pass_manager::compute_cache_key( const pipeline_spec& spec, const staged_ir& initial )
{
  return compute_structural_key( spec, initial ).primary;
}

compilation_result pass_manager::run( const std::string& spec_text )
{
  return run( parse_pipeline( spec_text ) );
}

compilation_result pass_manager::run( const pipeline_spec& spec )
{
  return run( spec, staged_ir{} );
}

compilation_result pass_manager::run( const pipeline_spec& spec, staged_ir initial )
{
  return run( spec, std::move( initial ), run_plan{} );
}

compilation_result pass_manager::run( const pipeline_spec& spec, staged_ir initial,
                                      const run_plan& plan, const pass_observer& observer )
{
  const auto start = steady_clock::now();
  if ( plan.first_pass > spec.size() )
  {
    throw std::logic_error( "pipeline: run_plan resumes past the end of the spec" );
  }
  if ( plan.first_pass > 0u && !plan.cache_key )
  {
    throw std::logic_error(
        "pipeline: a resumed run needs the original input's cache key" );
  }
  /* validate the part that will actually execute, from the stage the
   * (possibly mid-pipeline) initial IR is at */
  {
    stage current = initial.current;
    for ( size_t i = plan.first_pass; i < spec.size(); ++i )
    {
      const auto& invocation = spec.passes[i];
      const auto& info = registry_.at( invocation.name ); /* throws if unknown */
      info.check_arguments( invocation.args );
      if ( !info.accepts_stage( current ) )
      {
        throw std::logic_error( std::string( "pipeline spec: pass '" ) + invocation.name +
                                "' cannot run at stage '" + stage_name( current ) + "'" );
      }
      current = info.produces.value_or( current );
    }
  }

  const auto canonical = spec.to_string();
  QDA_TRACE_SPAN_NAMED( run_span, "pipeline.run" );
  run_span.attr( "spec", canonical );

  structural_key key{};
  if ( cache_ || plan.cache_key )
  {
    key = plan.cache_key ? *plan.cache_key : compute_structural_key( spec, initial );
  }
  if ( cache_ )
  {
    std::shared_ptr<const compilation_result> cached;
    try
    {
      cached = cache_->lookup( key );
    }
    catch ( ... )
    {
      /* a failing cache backend degrades to a miss */
      QDA_COUNT( "pipeline.cache.lookup_failed" );
    }
    if ( cached )
    {
      run_span.attr( "cache", std::string( "hit" ) );
      /* deep copy outside any cache lock */
      auto result = *cached;
      result.cache_hit = true;
      result.total_ms = elapsed_ms_since( start );
      return result;
    }
  }

  compilation_result result;
  result.ir = std::move( initial );
  result.spec = canonical;
  result.cache_key = key.primary;
  result.reused_passes = static_cast<uint32_t>( plan.first_pass );
  result.reports.reserve( spec.size() );
  for ( auto report : plan.prefix_reports )
  {
    report.reused = true;
    result.reports.push_back( std::move( report ) );
  }
  if ( result.reused_passes > 0u )
  {
    run_span.attr( "reused_passes", static_cast<int64_t>( result.reused_passes ) );
    QDA_COUNT_N( "pipeline.passes_reused", result.reused_passes );
  }
  pass_context context;
  context.cancel = plan.cancel;
  context.library = plan.use_library
                        ? ( plan.library ? plan.library
                                         : &library::subcircuit_library::instance() )
                        : nullptr;
  /* deadline-blind view for mandatory passes under degrade: an expired
   * budget skips optimizations but must not abort synthesis/mapping */
  pass_context lenient_context;
  lenient_context.cancel = plan.cancel.without_deadline();
  lenient_context.library = context.library;
  for ( size_t i = plan.first_pass; i < spec.size(); ++i )
  {
    const auto& invocation = spec.passes[i];
    const auto& info = registry_.at( invocation.name );
    const bool may_degrade =
        plan.policy == failure_policy::degrade && info.degradable;

    /* an explicit cancel always aborts; an expired deadline only skips
     * the degradable passes (mandatory passes still run: without them
     * there is no valid circuit to return) */
    if ( plan.cancel.cancel_requested() )
    {
      throw qda_error( error_code::cancelled, "compilation cancelled before pass '" +
                                                  invocation.name + "'" );
    }
    const bool expired = plan.cancel.deadline_expired();
    if ( expired && plan.policy == failure_policy::strict )
    {
      throw qda_error( error_code::deadline_exceeded,
                       "deadline exceeded before pass '" + invocation.name + "'" );
    }

    const auto* stats_hint =
        result.reports.empty() ? nullptr : &result.reports.back().statistics_after;
    const auto skip_degraded = [&]( error_code reason ) {
      pass_report report;
      report.name = invocation.name;
      report.arguments = invocation.args.to_string();
      report.stage_before = report.stage_after = result.ir.current;
      report.gates_before = report.gates_after = result.ir.current_gate_count();
      report.helpers_before = report.helpers_after =
          result.ir.quantum ? result.ir.quantum->num_helper_qubits : 0u;
      report.statistics_before = report.statistics_after =
          stats_hint ? *stats_hint : result.ir.current_statistics();
      report.degraded = true;
      report.degraded_reason = error_code_name( reason );
      result.reports.push_back( std::move( report ) );
      result.degraded = true;
      ++result.degraded_passes;
      QDA_COUNT( "pipeline.passes_degraded" );
    };

    if ( !may_degrade )
    {
      result.reports.push_back( apply_pass(
          result.ir, invocation, registry_, stats_hint,
          plan.policy == failure_policy::degrade ? lenient_context : context ) );
    }
    else if ( expired )
    {
      skip_degraded( error_code::deadline_exceeded );
    }
    else
    {
      /* degradable: snapshot the IR so a mid-pass failure (thrown or
       * injected) rolls back to a valid, merely unoptimized circuit */
      staged_ir backup = result.ir;
      const size_t reports_before = result.reports.size();
      try
      {
        result.reports.push_back(
            apply_pass( result.ir, invocation, registry_, stats_hint, context ) );
      }
      catch ( ... )
      {
        const auto code = classify_current_exception( error_code::pass_failure );
        if ( code == error_code::cancelled )
        {
          throw;
        }
        result.ir = std::move( backup );
        result.reports.resize( reports_before );
        skip_degraded( code );
      }
    }

    if ( plan.limits.max_gates != 0u &&
         result.ir.current_gate_count() > plan.limits.max_gates )
    {
      throw qda_error( error_code::resource_exhausted,
                       "pass '" + invocation.name + "' grew the circuit to " +
                           std::to_string( result.ir.current_gate_count() ) +
                           " gates (budget " + std::to_string( plan.limits.max_gates ) +
                           ")" );
    }
    if ( plan.limits.max_helper_qubits != 0u && result.ir.quantum &&
         result.ir.quantum->num_helper_qubits > plan.limits.max_helper_qubits )
    {
      throw qda_error( error_code::resource_exhausted,
                       "pass '" + invocation.name + "' allocated " +
                           std::to_string( result.ir.quantum->num_helper_qubits ) +
                           " helper qubits (budget " +
                           std::to_string( plan.limits.max_helper_qubits ) + ")" );
    }

    /* once any pass degraded, the IR no longer matches what the
     * canonical prefix keys describe -- stop publishing snapshots so a
     * degraded IR can never seed the cross-job prefix cache */
    if ( observer && !result.degraded )
    {
      observer( i, result.ir, result.reports );
    }
  }
  result.total_ms = elapsed_ms_since( start );
  if ( result.degraded )
  {
    run_span.attr( "degraded_passes", static_cast<int64_t>( result.degraded_passes ) );
  }

  /* degraded results are never cached: a later strict client hashing to
   * the same structural key must not receive the unoptimized circuit */
  if ( cache_ && !result.degraded )
  {
    try
    {
      cache_->store( key, std::make_shared<const compilation_result>( result ) );
    }
    catch ( ... )
    {
      /* memoization is an optimization; a failing backend must not
       * fail a compilation that already succeeded */
      QDA_COUNT( "pipeline.cache.store_failed" );
    }
  }
  return result;
}

size_t heap_bytes( const std::vector<pass_report>& reports ) noexcept
{
  size_t bytes = reports.capacity() * sizeof( pass_report );
  for ( const auto& report : reports )
  {
    bytes += report.name.capacity() + report.arguments.capacity() +
             report.degraded_reason.capacity();
  }
  return bytes;
}

size_t compilation_result::heap_bytes() const noexcept
{
  return ir.heap_bytes() + qda::heap_bytes( reports ) + spec.capacity();
}

cache_statistics pass_manager::cache_stats() const
{
  return cache_ ? cache_->statistics() : cache_statistics{};
}

void pass_manager::clear_cache()
{
  if ( cache_ )
  {
    cache_->clear();
  }
}

std::string format_report( const compilation_result& result )
{
  std::ostringstream out;
  out << "pipeline: " << result.spec << "\n";
  char line[192];
  std::snprintf( line, sizeof( line ), "%-10s %-12s %-12s %10s %10s %9s %9s\n", "pass",
                 "stage-in", "stage-out", "gates-in", "gates-out", "T-count", "ms" );
  out << line;
  for ( const auto& report : result.reports )
  {
    const auto t_count =
        report.statistics_after ? std::to_string( report.statistics_after->t_count ) : "-";
    const auto marker = report.degraded
                            ? " (degraded: " + report.degraded_reason + ")"
                            : std::string( report.reused ? " (reused)" : "" );
    std::snprintf( line, sizeof( line ), "%-10s %-12s %-12s %10llu %10llu %9s %9.3f%s\n",
                   report.name.c_str(), stage_name( report.stage_before ),
                   stage_name( report.stage_after ),
                   static_cast<unsigned long long>( report.gates_before ),
                   static_cast<unsigned long long>( report.gates_after ), t_count.c_str(),
                   report.elapsed_ms, marker.c_str() );
    out << line;
  }
  std::snprintf( line, sizeof( line ), "total: %.3f ms%s\n", result.total_ms,
                 result.cache_hit ? " (cache hit)" : "" );
  out << line;
  return out.str();
}

namespace
{

/*! "before -> after" cell, or "-" when the pass saw no such value. */
std::string delta_cell( uint64_t before, uint64_t after, bool have_before, bool have_after )
{
  if ( !have_after )
  {
    return "-";
  }
  if ( !have_before || before == after )
  {
    return std::to_string( after );
  }
  return std::to_string( before ) + "->" + std::to_string( after );
}

} // namespace

std::string format_cost_table( const compilation_result& result )
{
  std::ostringstream out;
  out << "per-pass circuit cost (" << result.spec << ")\n";
  char line[224];
  std::snprintf( line, sizeof( line ), "%-10s %12s %14s %14s %14s %10s %9s %9s\n", "pass",
                 "gates", "T-count", "CNOT", "depth", "qubits", "ancillae", "ms" );
  out << line;
  for ( const auto& report : result.reports )
  {
    const auto& before = report.statistics_before;
    const auto& after = report.statistics_after;
    const auto stat_cell = [&]( auto member ) {
      return delta_cell( before ? static_cast<uint64_t>( ( *before ).*member ) : 0u,
                         after ? static_cast<uint64_t>( ( *after ).*member ) : 0u,
                         before.has_value(), after.has_value() );
    };
    std::snprintf(
        line, sizeof( line ), "%-10s %12s %14s %14s %14s %10s %9s %9.3f\n",
        report.name.c_str(),
        delta_cell( report.gates_before, report.gates_after, true, true ).c_str(),
        stat_cell( &circuit_statistics::t_count ).c_str(),
        stat_cell( &circuit_statistics::cnot_count ).c_str(),
        stat_cell( &circuit_statistics::depth ).c_str(),
        stat_cell( &circuit_statistics::num_qubits ).c_str(),
        delta_cell( report.helpers_before, report.helpers_after, true,
                    report.helpers_after > 0u || report.helpers_before > 0u )
            .c_str(),
        report.elapsed_ms );
    out << line;
  }
  return out.str();
}

} // namespace qda
