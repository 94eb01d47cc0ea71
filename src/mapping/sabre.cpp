#include "mapping/sabre.hpp"

#include "mapping/physical_emitter.hpp"
#include "quantum/dag.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

namespace qda
{

namespace
{

/*! Physical operand pair of a routing-relevant two-qubit gate. */
std::pair<uint32_t, uint32_t> operands_of( const qgate_view& gate )
{
  if ( gate.kind == gate_kind::swap )
  {
    return { gate.target, gate.target2 };
  }
  return { gate.controls[0], gate.target };
}

/*! Device facts every SWAP decision reads, built once per route call:
 *  the flat all-pairs distance table and the SWAP candidates, one per
 *  coupled pair as `(lo, hi)` in `edges()` order (ties go to the
 *  earliest, so the order is part of the output).
 */
struct device_tables
{
  explicit device_tables( const coupling_map& device )
      : num_qubits( device.num_qubits() ), dist( device.all_distances() )
  {
    std::vector<char> seen( static_cast<size_t>( num_qubits ) * num_qubits, 0 );
    for ( const auto& [a, b] : device.edges() )
    {
      if ( a > b && device.has_directed_edge( b, a ) )
      {
        continue; /* bidirected pair: already listed via the (b, a) entry */
      }
      const uint32_t lo = std::min( a, b );
      const uint32_t hi = std::max( a, b );
      if ( !std::exchange( seen[static_cast<size_t>( lo ) * num_qubits + hi], 1 ) )
      {
        candidates.emplace_back( lo, hi );
      }
    }
  }

  uint32_t distance( uint32_t a, uint32_t b ) const
  {
    return dist[static_cast<size_t>( a ) * num_qubits + b];
  }

  uint32_t num_qubits;
  std::vector<uint32_t> dist;
  std::vector<std::pair<uint32_t, uint32_t>> candidates;
};

/*! The dependency DAG plus each gate's logical operand pair and
 *  whether it belongs in the lookahead (extended) set, read once.
 */
struct routing_dag
{
  explicit routing_dag( const qcircuit& circuit )
      : dag( circuit ), pairs( dag.size() ), lookahead( dag.size(), 0 )
  {
    for ( uint32_t index = 0u; index < dag.size(); ++index )
    {
      if ( dag.is_two_qubit( index ) )
      {
        pairs[index] = operands_of( dag.gate( index ) );
        lookahead[index] = dag.gate( index ).kind != gate_kind::swap;
      }
    }
  }

  gate_dag dag;
  std::vector<std::pair<uint32_t, uint32_t>> pairs; /* two-qubit gates only */
  std::vector<char> lookahead;
};

struct sabre_run
{
  const routing_dag& routing;
  const gate_dag& dag;
  const coupling_map& device;
  const device_tables& tables;
  const router_options& options;

  /* empty in layout-search runs, which only need their exit layout */
  std::optional<detail::physical_emitter> emitter;
  std::vector<uint32_t> layout;  /* logical -> physical */
  std::vector<uint32_t> inverse; /* physical -> logical */
  std::vector<uint32_t> indegree;
  std::vector<uint32_t> front; /* ready gates, circuit order */
  std::vector<double> decay;
  uint32_t executed = 0u;
  uint32_t stalled_swaps = 0u;

  /* reused by every SWAP decision */
  std::vector<uint32_t> extended; /* lookahead gates beyond the front */
  std::vector<uint32_t> queue;    /* BFS frontier of extended_set() */
  std::vector<char> involved;     /* physical qubits of blocked gates */
  /* physical operand pairs of the front and extended gates */
  std::vector<std::pair<uint32_t, uint32_t>> front_places;
  std::vector<std::pair<uint32_t, uint32_t>> extended_places;

  /* epoch-stamped lazy view of `indegree` for extended_set(), so each
   * SWAP decision only touches the gates its BFS visits */
  std::vector<uint32_t> scratch_remaining;
  std::vector<uint32_t> scratch_stamp;
  uint32_t scratch_epoch = 0u;

  sabre_run( const routing_dag& routing_, const coupling_map& device_,
             const device_tables& tables_, const router_options& options_,
             std::vector<uint32_t> initial_layout, bool emit )
      : routing( routing_ ), dag( routing_.dag ), device( device_ ), tables( tables_ ),
        options( options_ ), layout( std::move( initial_layout ) ),
        inverse( device_.num_qubits() ), indegree( dag.size() ),
        decay( device_.num_qubits(), 1.0 ), involved( device_.num_qubits(), 0 ),
        scratch_remaining( dag.size() ), scratch_stamp( dag.size(), 0u )
  {
    if ( emit )
    {
      emitter.emplace( device_, options_.use_native_swap );
    }
    for ( uint32_t logical = 0u; logical < layout.size(); ++logical )
    {
      inverse[layout[logical]] = logical;
    }
    for ( uint32_t index = 0u; index < dag.size(); ++index )
    {
      indegree[index] = dag.num_predecessors( index );
    }
    front = dag.roots();
  }

  uint64_t added_swaps() const { return emitter->added_swaps(); }

  bool executable( uint32_t index ) const
  {
    if ( !dag.is_two_qubit( index ) || dag.gate( index ).kind == gate_kind::swap )
    {
      return true; /* a logical SWAP is absorbed into the layout */
    }
    const auto [a, b] = routing.pairs[index];
    return device.are_adjacent( layout[a], layout[b] );
  }

  void execute( uint32_t index )
  {
    const auto& gate = dag.gate( index );
    switch ( gate.kind )
    {
    case gate_kind::cx:
      if ( emitter )
      {
        emitter->cx( layout[gate.controls[0]], layout[gate.target] );
      }
      break;
    case gate_kind::cz:
      if ( emitter )
      {
        emitter->cz( layout[gate.controls[0]], layout[gate.target] );
      }
      break;
    case gate_kind::swap:
      /* a logical SWAP needs no gates at all: relabel the layout */
      relabel_swapped( layout, inverse, layout[gate.target], layout[gate.target2] );
      break;
    case gate_kind::mcx:
    case gate_kind::mcz:
      throw std::invalid_argument( "router: map multi-controlled gates to Clifford+T first" );
    case gate_kind::barrier:
    case gate_kind::global_phase:
      if ( emitter )
      {
        emitter->passthrough( gate );
      }
      break;
    default:
      if ( emitter )
      {
        emitter->passthrough( qgate_view( gate.kind, gate.controls, layout[gate.target],
                                          gate.target2, gate.angle ) );
      }
      break;
    }
    ++executed;
    for ( const auto successor : dag.successors( index ) )
    {
      if ( --indegree[successor] == 0u )
      {
        front.push_back( successor );
      }
    }
  }

  /*! Executes every executable front gate; true if any gate ran. */
  bool drain()
  {
    bool any = false;
    bool progress = true;
    while ( progress )
    {
      progress = false;
      for ( size_t i = 0u; i < front.size(); )
      {
        const uint32_t index = front[i];
        if ( executable( index ) )
        {
          front.erase( front.begin() + static_cast<int64_t>( i ) );
          execute( index );
          progress = true;
          any = true;
        }
        else
        {
          ++i;
        }
      }
    }
    if ( any )
    {
      std::fill( decay.begin(), decay.end(), 1.0 );
      stalled_swaps = 0u;
      QDA_COUNT( "sabre.decay_resets" );
    }
    return any;
  }

  /*! Fills `extended` with the upcoming two-qubit gates beyond the
   *  front layer (BFS over the DAG).
   */
  void extended_set()
  {
    extended.clear();
    if ( options.extended_set_size == 0u )
    {
      return;
    }
    ++scratch_epoch;
    const auto residual = [&]( uint32_t index ) -> uint32_t& {
      if ( scratch_stamp[index] != scratch_epoch )
      {
        scratch_stamp[index] = scratch_epoch;
        scratch_remaining[index] = indegree[index];
      }
      return scratch_remaining[index];
    };
    queue.assign( front.begin(), front.end() );
    for ( size_t i = 0u; i < queue.size() && extended.size() < options.extended_set_size; ++i )
    {
      for ( const auto successor : dag.successors( queue[i] ) )
      {
        if ( --residual( successor ) == 0u )
        {
          queue.push_back( successor );
          if ( routing.lookahead[successor] )
          {
            extended.push_back( successor );
            if ( extended.size() >= options.extended_set_size )
            {
              break;
            }
          }
        }
      }
    }
  }

  /*! Physical operand pairs of `gates` under the current layout. */
  void collect_places( const std::vector<uint32_t>& gates,
                       std::vector<std::pair<uint32_t, uint32_t>>& places ) const
  {
    places.clear();
    for ( const auto index : gates )
    {
      const auto [la, lb] = routing.pairs[index];
      places.emplace_back( layout[la], layout[lb] );
    }
  }

  /*! Summed distance of `places` after swapping physical `a` and `b`.
   *  Distances are small integers, so the integer sum converts to the
   *  same double as summing them one by one in double.
   */
  uint64_t swapped_distance( const std::vector<std::pair<uint32_t, uint32_t>>& places,
                             uint32_t a, uint32_t b ) const
  {
    const auto place = [&]( uint32_t physical ) {
      return physical == a ? b : physical == b ? a : physical;
    };
    uint64_t sum = 0u;
    for ( const auto& [pa, pb] : places )
    {
      sum += tables.distance( place( pa ), place( pb ) );
    }
    return sum;
  }

  double score_swap( uint32_t a, uint32_t b ) const
  {
    const double front_cost = static_cast<double>( swapped_distance( front_places, a, b ) ) /
                              static_cast<double>( front_places.size() );
    double extended_cost = 0.0;
    if ( !extended_places.empty() )
    {
      extended_cost = static_cast<double>( swapped_distance( extended_places, a, b ) ) *
                      ( options.extended_weight /
                        static_cast<double>( extended_places.size() ) );
    }
    return std::max( decay[a], decay[b] ) * ( front_cost + extended_cost );
  }

  void apply_swap( uint32_t a, uint32_t b )
  {
    if ( emitter )
    {
      emitter->swap( a, b );
    }
    relabel_swapped( layout, inverse, a, b );
    decay[a] += options.decay_increment;
    decay[b] += options.decay_increment;
    ++stalled_swaps;
  }

  /*! Fallback when heuristic SWAPs fail to unblock anything for too
   *  long: walk the first blocked gate's operands together (greedy).
   */
  void force_route_first()
  {
    QDA_COUNT( "sabre.force_routes" );
    const auto [la, lb] = routing.pairs[front.front()];
    const auto path = device.shortest_path( layout[la], layout[lb] );
    if ( path.empty() )
    {
      throw std::invalid_argument( "router: device graph is disconnected" );
    }
    for ( size_t step = 0u; step + 2u < path.size(); ++step )
    {
      apply_swap( path[step], path[step + 1u] );
    }
  }

  void choose_and_apply_swap()
  {
    /* every remaining front gate is a blocked two-qubit gate */
    QDA_HISTOGRAM( "sabre.front_layer", static_cast<double>( front.size() ),
                   { 1.0, 2.0, 4.0, 8.0, 16.0, 32.0 } );

    const uint32_t stall_limit = 2u * device.num_qubits() * device.num_qubits() + 16u;
    if ( stalled_swaps > stall_limit )
    {
      force_route_first();
      return;
    }
    extended_set();
    collect_places( front, front_places );
    collect_places( extended, extended_places );

    /* candidate SWAPs: coupled pairs touching a qubit of a blocked gate */
    for ( const auto& [pa, pb] : front_places )
    {
      involved[pa] = 1;
      involved[pb] = 1;
    }
    double best_score = 0.0;
    uint32_t best_a = 0u;
    uint32_t best_b = 0u;
    uint64_t scored = 0u;
    for ( const auto& [lo, hi] : tables.candidates )
    {
      if ( !involved[lo] && !involved[hi] )
      {
        continue;
      }
      ++scored;
      const double score = score_swap( lo, hi );
      if ( scored == 1u || score < best_score )
      {
        best_score = score;
        best_a = lo;
        best_b = hi;
      }
    }
    for ( const auto& [pa, pb] : front_places )
    {
      involved[pa] = 0;
      involved[pb] = 0;
    }
    QDA_COUNT_N( "sabre.swap_candidates", scored );
    if ( scored == 0u )
    {
      force_route_first();
      return;
    }
    apply_swap( best_a, best_b );
  }

  void run()
  {
    /* a swap choice scores every candidate edge, so a poll every few
     * iterations keeps cancellation latency small even on big devices */
    cancel_checkpoint checkpoint( 64u );
    drain();
    while ( executed < dag.size() )
    {
      if ( checkpoint.due() )
      {
        options.cancel.check( "route" );
      }
      choose_and_apply_swap();
      drain();
    }
  }
};

/*! Reversed interaction pattern of `circuit` for the layout search
 *  (measurements, barriers and global phases dropped; gate adjoints are
 *  irrelevant to routing).
 */
qcircuit reverse_for_layout( const qcircuit& circuit )
{
  std::vector<qgate_view> views;
  for ( const auto& gate : circuit.gates() )
  {
    if ( gate.is_unitary() && gate.kind != gate_kind::global_phase )
    {
      views.push_back( gate );
    }
  }
  qcircuit reversed( circuit.num_qubits() );
  for ( auto it = views.rbegin(); it != views.rend(); ++it )
  {
    reversed.add_gate( *it );
  }
  return reversed;
}

routing_result finish( sabre_run&& run, std::vector<uint32_t> initial_layout )
{
  return { run.emitter->take_circuit(), std::move( initial_layout ), std::move( run.layout ),
           run.emitter->added_swaps(), run.emitter->added_direction_fixes() };
}

} // namespace

routing_result sabre_route( const qcircuit& source, const coupling_map& device,
                            const router_options& options )
{
  if ( source.num_qubits() > device.num_qubits() )
  {
    throw std::invalid_argument( "route_circuit: circuit needs more qubits than the device has" );
  }
  QDA_TRACE_SPAN_NAMED( route_span, "sabre.route" );
  route_span.attr( "gates", static_cast<int64_t>( source.num_gates() ) )
      .attr( "logical_qubits", static_cast<int64_t>( source.num_qubits() ) )
      .attr( "physical_qubits", static_cast<int64_t>( device.num_qubits() ) )
      .attr( "layout_iterations", static_cast<int64_t>( options.layout_iterations ) );
  const device_tables tables( device );
  const routing_dag dag( source );

  std::vector<uint32_t> layout( device.num_qubits() );
  std::iota( layout.begin(), layout.end(), 0u );

  if ( options.initial_layout )
  {
    layout = *options.initial_layout;
    validate_layout( layout, device.num_qubits() );
  }
  else if ( options.layout_iterations > 0u )
  {
    /* reverse-traversal refinement: route forward, use the final layout
     * to route the reversed circuit, whose final layout becomes the next
     * forward initial layout.  Routing is deterministic, so the best
     * forward trial's output is kept and returned directly instead of
     * re-routing its layout; backward runs only need their exit layout
     * and emit nothing. */
    const routing_dag reversed_dag( reverse_for_layout( source ) );
    std::vector<uint32_t> best_layout = layout;
    uint64_t best_swaps = ~uint64_t{ 0 };
    std::optional<sabre_run> best_run;
    auto current = layout;
    for ( uint32_t iteration = 0u; iteration <= options.layout_iterations; ++iteration )
    {
      sabre_run forward( dag, device, tables, options, current, /*emit=*/true );
      forward.run();
      const auto forward_exit_layout = forward.layout;
      if ( forward.added_swaps() < best_swaps )
      {
        best_swaps = forward.added_swaps();
        best_layout = current;
        best_run.emplace( std::move( forward ) );
      }
      if ( iteration == options.layout_iterations )
      {
        break;
      }
      sabre_run backward( reversed_dag, device, tables, options, forward_exit_layout,
                          /*emit=*/false );
      backward.run();
      current = backward.layout;
    }
    auto best = finish( std::move( *best_run ), std::move( best_layout ) );
    route_span.attr( "swaps", best.added_swaps );
    return best;
  }

  sabre_run final_run( dag, device, tables, options, layout, /*emit=*/true );
  final_run.run();
  auto result = finish( std::move( final_run ), std::move( layout ) );
  route_span.attr( "swaps", result.added_swaps );
  return result;
}

} // namespace qda
