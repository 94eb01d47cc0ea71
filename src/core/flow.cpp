#include "core/flow.hpp"

#include "simulator/unitary.hpp"
#include "telemetry/clock.hpp"

#include <stdexcept>

namespace qda
{

flow& flow::apply( const std::string& pass_name, pass_arguments args )
{
  /* the previous report's exit statistics are this pass's entry
   * statistics; reusing them avoids an O(gates) recomputation */
  const auto* stats_hint = reports_.empty() ? nullptr : &reports_.back().statistics_after;
  reports_.push_back( pass_manager::apply_pass(
      ir_, pass_invocation{ pass_name, std::move( args ) }, pass_registry::instance(),
      stats_hint ) );
  return *this;
}

flow& flow::revgen_hwb( uint32_t num_vars )
{
  pass_arguments args;
  args.add_option( "hwb", std::to_string( num_vars ) );
  return apply( "revgen", std::move( args ) );
}

flow& flow::revgen( permutation target )
{
  /* arbitrary permutations have no shell encoding; load the IR directly
   * but record the same report fields apply_pass would */
  pass_report report;
  report.name = "revgen";
  report.stage_before = ir_.current;
  report.gates_before = ir_.current_gate_count();
  report.statistics_before =
      reports_.empty() ? ir_.current_statistics() : reports_.back().statistics_after;
  const auto start = telemetry::steady_clock::now();
  ir_.set_permutation( std::move( target ) );
  report.elapsed_ms = telemetry::elapsed_ms_since( start );
  report.stage_after = stage::permutation;
  reports_.push_back( std::move( report ) );
  return *this;
}

flow& flow::tbs()
{
  return apply( "tbs" );
}

flow& flow::tbs_bidirectional()
{
  pass_arguments args;
  args.add_flag( "bidirectional" );
  return apply( "tbs", std::move( args ) );
}

flow& flow::dbs()
{
  return apply( "dbs" );
}

flow& flow::revsimp()
{
  return apply( "revsimp" );
}

flow& flow::rptm( bool use_relative_phase )
{
  pass_arguments args;
  if ( !use_relative_phase )
  {
    args.add_flag( "no-relative-phase" );
  }
  return apply( "rptm", std::move( args ) );
}

flow& flow::rptm_strategy( const std::string& strategy, const std::string& cost_target )
{
  pass_arguments args;
  args.add_option( "strategy", strategy );
  if ( !cost_target.empty() )
  {
    args.add_option( "cost-target", cost_target );
  }
  return apply( "rptm", std::move( args ) );
}

flow& flow::route( const std::string& device, const std::string& router )
{
  pass_arguments args;
  args.add_option( "device", device );
  args.add_option( "router", router );
  return apply( "route", std::move( args ) );
}

flow& flow::tpar( bool resynth )
{
  pass_arguments args;
  if ( !resynth )
  {
    args.add_flag( "fold-only" );
  }
  return apply( "tpar", std::move( args ) );
}

flow& flow::peephole()
{
  return apply( "peephole" );
}

circuit_statistics flow::ps() const
{
  return compute_statistics( ir_.require_quantum().circuit );
}

std::string flow::ps_line() const
{
  return format_statistics( ps() );
}

const permutation& flow::current_permutation() const
{
  return ir_.require_permutation();
}

const rev_circuit& flow::reversible() const
{
  return ir_.require_reversible();
}

const qcircuit& flow::quantum() const
{
  return ir_.require_quantum().circuit;
}

const routing_result& flow::mapped() const
{
  return ir_.require_mapped();
}

bool flow::verify() const
{
  const auto& target = ir_.require_permutation();
  const auto& result = ir_.require_quantum();
  if ( result.circuit.num_qubits() > 14u )
  {
    throw std::invalid_argument( "flow::verify: circuit too large for explicit verification" );
  }
  return circuit_implements_permutation_with_helpers(
      result.circuit, target.num_vars(), target.images(), /*up_to_phase=*/true );
}

} // namespace qda
