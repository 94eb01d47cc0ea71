#include "pipeline/pass_registry.hpp"

#include "library/subcircuit_library.hpp"
#include "mapping/clifford_t.hpp"
#include "mapping/coupling_map.hpp"
#include "mapping/router.hpp"
#include "pipeline/target.hpp"
#include "optimization/peephole.hpp"
#include "optimization/revsimp.hpp"
#include "phasepoly/phasepoly.hpp"
#include "synthesis/decomposition_based.hpp"
#include "synthesis/revgen.hpp"
#include "synthesis/transformation_based.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace qda
{

/* ---------------------------------------------------------------- */
/* pass_arguments                                                   */
/* ---------------------------------------------------------------- */

void pass_arguments::add_flag( std::string name )
{
  if ( !has_flag( name ) )
  {
    flags_.push_back( std::move( name ) );
  }
}

void pass_arguments::add_option( std::string name, std::string value )
{
  options_.emplace_back( std::move( name ), std::move( value ) );
}

void pass_arguments::add_positional( std::string value )
{
  positional_.push_back( std::move( value ) );
}

void pass_arguments::canonicalize()
{
  std::sort( flags_.begin(), flags_.end() );
  std::stable_sort( options_.begin(), options_.end(),
                    []( const auto& a, const auto& b ) { return a.first < b.first; } );
}

bool pass_arguments::empty() const noexcept
{
  return flags_.empty() && options_.empty() && positional_.empty();
}

bool pass_arguments::has_flag( const std::string& name ) const
{
  return std::find( flags_.begin(), flags_.end(), name ) != flags_.end();
}

bool pass_arguments::has_option( const std::string& name ) const
{
  return option( name ).has_value();
}

std::optional<std::string> pass_arguments::option( const std::string& name ) const
{
  for ( const auto& [key, value] : options_ )
  {
    if ( key == name )
    {
      return value;
    }
  }
  return std::nullopt;
}

uint64_t pass_arguments::option_uint( const std::string& pass, const std::string& name ) const
{
  const auto value = option( name );
  if ( !value )
  {
    throw std::invalid_argument( pass + ": missing required argument --" + name );
  }
  uint64_t parsed = 0u;
  const char* first = value->data();
  const char* last = first + value->size();
  const auto [ptr, ec] = std::from_chars( first, last, parsed );
  if ( ec != std::errc{} || ptr != last || value->empty() )
  {
    throw std::invalid_argument( pass + ": malformed argument --" + name + " " + *value +
                                 " (expected unsigned integer)" );
  }
  return parsed;
}

uint64_t pass_arguments::option_uint_or( const std::string& pass, const std::string& name,
                                         uint64_t fallback ) const
{
  return has_option( name ) ? option_uint( pass, name ) : fallback;
}

std::string pass_arguments::to_string() const
{
  std::string result;
  const auto append = [&result]( const std::string& token ) {
    if ( !result.empty() )
    {
      result += ' ';
    }
    result += token;
  };
  for ( const auto& [key, value] : options_ )
  {
    append( "--" + key );
    append( value );
  }
  for ( const auto& flag : flags_ )
  {
    append( ( flag.size() == 1u ? "-" : "--" ) + flag );
  }
  for ( const auto& value : positional_ )
  {
    append( value );
  }
  return result;
}

/* ---------------------------------------------------------------- */
/* pass_info                                                        */
/* ---------------------------------------------------------------- */

bool pass_info::accepts_stage( stage s ) const
{
  return std::find( accepts.begin(), accepts.end(), s ) != accepts.end();
}

void pass_info::check_arguments( const pass_arguments& args ) const
{
  const auto& options = args.options();
  for ( auto it = options.begin(); it != options.end(); ++it )
  {
    const auto& key = it->first;
    if ( std::find( known_options.begin(), known_options.end(), key ) == known_options.end() )
    {
      throw std::invalid_argument( name + ": unknown argument --" + key );
    }
    for ( auto other = options.begin(); other != it; ++other )
    {
      if ( other->first == key )
      {
        throw std::invalid_argument( name + ": argument --" + key + " given more than once" );
      }
    }
    if ( std::find( uint_options.begin(), uint_options.end(), key ) != uint_options.end() )
    {
      args.option_uint( name, key ); /* throws on malformed values */
    }
  }
  for ( const auto& flag : args.flags() )
  {
    /* a long flag may also be a value-less use of a known option name */
    if ( std::find( known_flags.begin(), known_flags.end(), flag ) == known_flags.end() )
    {
      if ( std::find( known_options.begin(), known_options.end(), flag ) !=
           known_options.end() )
      {
        throw std::invalid_argument( name + ": argument --" + flag + " requires a value" );
      }
      throw std::invalid_argument( name + ": unknown argument " +
                                   ( flag.size() == 1u ? "-" : "--" ) + flag );
    }
  }
  if ( !args.positional().empty() )
  {
    throw std::invalid_argument( name + ": unexpected argument '" + args.positional().front() +
                                 "'" );
  }
}

/* ---------------------------------------------------------------- */
/* pass_registry                                                    */
/* ---------------------------------------------------------------- */

pass_registry& pass_registry::instance()
{
  static pass_registry registry = [] {
    pass_registry r;
    register_builtin_passes( r );
    return r;
  }();
  return registry;
}

void pass_registry::register_pass( pass_info info )
{
  if ( info.name.empty() )
  {
    throw std::invalid_argument( "pass_registry: pass name must not be empty" );
  }
  if ( passes_.count( info.name ) != 0u )
  {
    throw std::invalid_argument( "pass_registry: duplicate pass '" + info.name + "'" );
  }
  passes_.emplace( info.name, std::move( info ) );
}

bool pass_registry::contains( const std::string& name ) const
{
  return passes_.count( name ) != 0u;
}

const pass_info& pass_registry::at( const std::string& name ) const
{
  const auto it = passes_.find( name );
  if ( it == passes_.end() )
  {
    throw std::invalid_argument( "pass_registry: unknown pass '" + name + "'" );
  }
  return it->second;
}

std::vector<std::string> pass_registry::names() const
{
  std::vector<std::string> result;
  result.reserve( passes_.size() );
  for ( const auto& [name, info] : passes_ )
  {
    result.push_back( name );
  }
  return result;
}

/* ---------------------------------------------------------------- */
/* built-in passes                                                  */
/* ---------------------------------------------------------------- */

namespace
{

permutation run_revgen( const pass_arguments& args )
{
  uint32_t generators = 0u;
  for ( const char* name : { "hwb", "adder", "rotl", "gray", "mult", "random" } )
  {
    generators += args.has_option( name ) ? 1u : 0u;
  }
  generators += args.has_flag( "fig7" ) ? 1u : 0u;
  if ( generators != 1u )
  {
    throw std::invalid_argument(
        "revgen: exactly one generator expected "
        "(--hwb N, --adder N, --rotl N, --gray N, --mult N, --random N, --fig7)" );
  }

  if ( args.has_flag( "fig7" ) )
  {
    return paper_fig7_permutation();
  }
  if ( args.has_option( "hwb" ) )
  {
    return hwb_permutation(
        static_cast<uint32_t>( args.option_uint( "revgen", "hwb" ) ) );
  }
  if ( args.has_option( "adder" ) )
  {
    return modular_adder_permutation(
        static_cast<uint32_t>( args.option_uint( "revgen", "adder" ) ),
        args.option_uint_or( "revgen", "addend", 1u ) );
  }
  if ( args.has_option( "rotl" ) )
  {
    return rotation_permutation(
        static_cast<uint32_t>( args.option_uint( "revgen", "rotl" ) ),
        static_cast<uint32_t>( args.option_uint_or( "revgen", "shift", 1u ) ) );
  }
  if ( args.has_option( "gray" ) )
  {
    return gray_code_permutation(
        static_cast<uint32_t>( args.option_uint( "revgen", "gray" ) ) );
  }
  if ( args.has_option( "mult" ) )
  {
    return modular_multiplier_permutation(
        static_cast<uint32_t>( args.option_uint( "revgen", "mult" ) ),
        args.option_uint_or( "revgen", "factor", 3u ) );
  }
  return permutation::random(
      static_cast<uint32_t>( args.option_uint( "revgen", "random" ) ),
      args.option_uint_or( "revgen", "seed", 1u ) );
}

coupling_map resolve_device( const pass_arguments& args )
{
  uint32_t topologies = 0u;
  for ( const char* name : { "device", "linear", "ring" } )
  {
    topologies += args.has_option( name ) ? 1u : 0u;
  }
  if ( topologies > 1u )
  {
    throw std::invalid_argument(
        "route: at most one topology expected (--device NAME, --linear N, --ring N)" );
  }
  if ( args.has_option( "linear" ) )
  {
    return coupling_map::linear(
        static_cast<uint32_t>( args.option_uint( "route", "linear" ) ) );
  }
  if ( args.has_option( "ring" ) )
  {
    return coupling_map::ring(
        static_cast<uint32_t>( args.option_uint( "route", "ring" ) ) );
  }
  const auto device = args.option( "device" ).value_or( "ibm_qx4" );
  if ( device == "ibm_qx2" )
  {
    return coupling_map::ibm_qx2();
  }
  if ( device == "ibm_qx4" )
  {
    return coupling_map::ibm_qx4();
  }
  if ( device == "ibm_qx5" )
  {
    return coupling_map::ibm_qx5();
  }
  throw std::invalid_argument( "route: unknown device '" + device +
                               "' (known: ibm_qx2, ibm_qx4, ibm_qx5)" );
}

} // namespace

void register_builtin_passes( pass_registry& registry )
{
  registry.register_pass( pass_info{
      "revgen",
      "generate a benchmark permutation (hwb, adder, rotl, gray, mult, random, fig7)",
      { stage::empty, stage::permutation, stage::reversible, stage::quantum, stage::mapped },
      stage::permutation,
      { "hwb", "adder", "addend", "rotl", "shift", "gray", "mult", "factor", "random", "seed" },
      { "fig7" },
      { "hwb", "adder", "addend", "rotl", "shift", "gray", "mult", "factor", "random", "seed" },
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ) {
        ir.set_permutation( run_revgen( args ) );
      } } );

  registry.register_pass( pass_info{
      "tbs",
      "transformation-based synthesis (Miller-Maslov-Dueck)",
      { stage::permutation },
      stage::reversible,
      {},
      { "bidirectional" },
      {},
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ) {
        const auto& target = ir.require_permutation();
        ir.set_reversible( args.has_flag( "bidirectional" )
                               ? transformation_based_synthesis_bidirectional( target )
                               : transformation_based_synthesis( target ) );
      } } );

  registry.register_pass( pass_info{
      "dbs",
      "decomposition-based synthesis (Van Rentergem et al.)",
      { stage::permutation },
      stage::reversible,
      {},
      {},
      {},
      []( staged_ir& ir, const pass_arguments&, const pass_context& ) {
        ir.set_reversible( decomposition_based_synthesis( ir.require_permutation() ) );
      } } );

  registry.register_pass( pass_info{
      "revsimp",
      "reversible circuit simplification",
      { stage::reversible },
      stage::reversible,
      { "max-rounds" },
      {},
      { "max-rounds" },
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ctx ) {
        const auto rounds = static_cast<uint32_t>(
            args.option_uint_or( "revsimp", "max-rounds", 16u ) );
        ir.require_reversible();
        auto circuit = std::move( *ir.reversible );
        revsimp_in_place( circuit, rounds, ctx.cancel );
        ir.set_reversible( std::move( circuit ) );
      },
      /*degradable=*/true } );

  registry.register_pass( pass_info{
      "rptm",
      "map MCT gates to Clifford+T (strategy-dispatched lowering, relative-phase by default)",
      { stage::reversible },
      stage::quantum,
      { "strategy", "cost-target" },
      { "no-relative-phase", "keep-toffoli", "no-library" },
      {},
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ctx ) {
        clifford_t_options options;
        options.use_relative_phase = !args.has_flag( "no-relative-phase" );
        options.keep_toffoli = args.has_flag( "keep-toffoli" );
        options.cancel = ctx.cancel;
        if ( !args.has_flag( "no-library" ) )
        {
          options.library = ctx.library;
        }
        if ( const auto name = args.option( "strategy" ) )
        {
          const auto strategy = parse_mct_strategy( *name );
          if ( !strategy )
          {
            throw std::invalid_argument( "rptm: unknown strategy '" + *name +
                                         "' (known: auto, clean, dirty, recursive)" );
          }
          options.strategy = *strategy;
        }
        if ( const auto name = args.option( "cost-target" ) )
        {
          /* derive the cost model from the execution target's declared
           * weights; constrained targets also cap the qubit budget */
          const auto& backend = target_registry::instance().at( *name );
          options.weights = backend.cost_weights();
          if ( backend.constrained() )
          {
            options.max_qubits = backend.device()->num_qubits();
          }
        }
        ir.set_quantum(
            circuit_cast<clifford_t_result>( ir.require_reversible(), options ) );
      } } );

  registry.register_pass( pass_info{
      "tpar",
      "phase-polynomial T-count optimization (fold + parity-network resynthesis)",
      { stage::quantum },
      stage::quantum,
      {},
      { "fold-only", "no-resynth", "no-library" },
      {},
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ctx ) {
        phasepoly::tpar_options options;
        options.resynthesize =
            !args.has_flag( "fold-only" ) && !args.has_flag( "no-resynth" );
        options.resynthesis.cancel = ctx.cancel;
        if ( !args.has_flag( "no-library" ) )
        {
          options.library = ctx.library;
        }
        ir.require_quantum();
        auto result = std::move( *ir.quantum );
        phasepoly::tpar_in_place( result.circuit, options );
        ir.set_quantum( std::move( result ) );
      },
      /*degradable=*/true } );

  registry.register_pass( pass_info{
      "peephole",
      "cancel inverse gate pairs that meet across disjoint wires "
      "(--max-rounds 0 disables; any positive value sweeps to a fixed point)",
      { stage::quantum },
      stage::quantum,
      { "max-rounds" },
      {},
      { "max-rounds" },
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ctx ) {
        const auto rounds = static_cast<uint32_t>(
            args.option_uint_or( "peephole", "max-rounds", 8u ) );
        ir.require_quantum();
        auto result = std::move( *ir.quantum );
        peephole_in_place( result.circuit, rounds, ctx.cancel );
        ir.set_quantum( std::move( result ) );
      },
      /*degradable=*/true } );

  registry.register_pass( pass_info{
      "route",
      "legalize for a device coupling map (SABRE lookahead router by default)",
      { stage::quantum },
      stage::mapped,
      { "device", "linear", "ring", "router", "lookahead", "layout-trials" },
      {},
      { "linear", "ring", "lookahead", "layout-trials" },
      []( staged_ir& ir, const pass_arguments& args, const pass_context& ctx ) {
        router_options options;
        if ( const auto name = args.option( "router" ) )
        {
          const auto kind = parse_router_kind( *name );
          if ( !kind )
          {
            throw std::invalid_argument( "route: unknown router '" + *name +
                                         "' (known: greedy, sabre)" );
          }
          options.kind = *kind;
        }
        options.extended_set_size = static_cast<uint32_t>(
            args.option_uint_or( "route", "lookahead", options.extended_set_size ) );
        options.layout_iterations = static_cast<uint32_t>(
            args.option_uint_or( "route", "layout-trials", options.layout_iterations ) );
        options.cancel = ctx.cancel;
        ir.set_mapped(
            route_circuit( ir.require_quantum().circuit, resolve_device( args ), options ) );
      } } );

  registry.register_pass( pass_info{
      "ps",
      "record circuit statistics of the current stage (`ps -c`)",
      { stage::quantum, stage::mapped },
      std::nullopt,
      {},
      { "c" },
      {},
      []( staged_ir& ir, const pass_arguments&, const pass_context& ctx ) {
        ir.last_statistics =
            ctx.statistics ? *ctx.statistics : compute_statistics( ir.current_circuit() );
      } } );
}

} // namespace qda
