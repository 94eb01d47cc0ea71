#include "mapping/mct_lowering.hpp"

#include "quantum/qcircuit.hpp"

#include <stdexcept>
#include <vector>

namespace qda
{

const char* mct_strategy_name( mct_strategy strategy )
{
  switch ( strategy )
  {
  case mct_strategy::automatic: return "auto";
  case mct_strategy::clean: return "clean";
  case mct_strategy::dirty: return "dirty";
  case mct_strategy::recursive: return "recursive";
  }
  return "unknown";
}

std::optional<mct_strategy> parse_mct_strategy( const std::string& name )
{
  if ( name == "auto" || name == "automatic" )
  {
    return mct_strategy::automatic;
  }
  if ( name == "clean" )
  {
    return mct_strategy::clean;
  }
  if ( name == "dirty" )
  {
    return mct_strategy::dirty;
  }
  if ( name == "recursive" )
  {
    return mct_strategy::recursive;
  }
  return std::nullopt;
}

namespace
{

/* resource vectors of the emission primitives */
constexpr mct_cost cost_x{ 0u, 0u, 0u, 1u, 0u, 0u };
constexpr mct_cost cost_cx{ 0u, 1u, 0u, 1u, 0u, 0u };
constexpr mct_cost cost_ccx{ 7u, 6u, 2u, 15u, 0u, 0u };  /* 15-gate 7-T network */
constexpr mct_cost cost_rccx{ 4u, 3u, 2u, 9u, 0u, 0u };  /* 9-gate Maslov RCCX */

mct_cost accumulate( mct_cost total, const mct_cost& part, uint64_t times = 1u )
{
  total.t_count += times * part.t_count;
  total.cnot_count += times * part.cnot_count;
  total.h_count += times * part.h_count;
  total.depth += times * part.depth;
  return total;
}

/*! Single source of truth for ancilla requirements (chain = k - 2). */
bool strategy_feasible( mct_strategy strategy, uint32_t chain, uint32_t clean_available,
                        uint32_t idle_available )
{
  switch ( strategy )
  {
  case mct_strategy::clean: return clean_available >= chain;
  case mct_strategy::dirty: return idle_available >= chain;
  case mct_strategy::recursive: return idle_available >= 1u;
  default: return false;
  }
}

/* cost of Λ_j lowered through the dirty chain (j >= 3) or directly */
mct_cost dirty_or_direct_cost( uint32_t num_controls )
{
  if ( num_controls == 0u )
  {
    return cost_x;
  }
  if ( num_controls == 1u )
  {
    return cost_cx;
  }
  if ( num_controls == 2u )
  {
    return cost_ccx;
  }
  mct_cost cost = accumulate( {}, cost_ccx, 4u * ( num_controls - 2u ) );
  cost.dirty_ancillas = num_controls - 2u;
  return cost;
}

} // namespace

mct_cost mct_lowering_cost( uint32_t num_controls, mct_strategy strategy,
                            bool use_relative_phase )
{
  if ( strategy == mct_strategy::automatic )
  {
    throw std::invalid_argument( "mct_lowering_cost: strategy must be concrete" );
  }
  if ( num_controls <= 2u )
  {
    return dirty_or_direct_cost( num_controls );
  }
  const uint32_t chain = num_controls - 2u;
  switch ( strategy )
  {
  case mct_strategy::clean:
  {
    mct_cost cost = accumulate( {}, cost_ccx );
    cost = accumulate( cost, use_relative_phase ? cost_rccx : cost_ccx, 2u * chain );
    cost.clean_ancillas = chain;
    return cost;
  }
  case mct_strategy::dirty:
    return dirty_or_direct_cost( num_controls );
  case mct_strategy::recursive:
  {
    const uint32_t m = ( num_controls + 1u ) / 2u;
    mct_cost cost = accumulate( {}, dirty_or_direct_cost( m ), 2u );
    cost = accumulate( cost, dirty_or_direct_cost( num_controls - m + 1u ), 2u );
    cost.dirty_ancillas = 1u;
    return cost;
  }
  default:
    throw std::invalid_argument( "mct_lowering_cost: unknown strategy" );
  }
}

std::optional<mct_strategy> select_mct_strategy( uint32_t num_controls, uint32_t clean_available,
                                                 uint32_t idle_available,
                                                 const mapping_cost_weights& weights,
                                                 bool use_relative_phase )
{
  if ( num_controls <= 2u )
  {
    return mct_strategy::clean; /* no scratch needed; all strategies coincide */
  }
  const uint32_t chain = num_controls - 2u;
  std::optional<mct_strategy> best;
  double best_cost = 0.0;
  for ( const auto strategy :
        { mct_strategy::clean, mct_strategy::dirty, mct_strategy::recursive } )
  {
    if ( !strategy_feasible( strategy, chain, clean_available, idle_available ) )
    {
      continue;
    }
    const double cost =
        mct_lowering_cost( num_controls, strategy, use_relative_phase ).weighted( weights );
    if ( !best || cost < best_cost )
    {
      best = strategy;
      best_cost = cost;
    }
  }
  return best;
}

/* ---------------------------------------------------------------- */
/* primitives                                                       */
/* ---------------------------------------------------------------- */

namespace
{

using circuit_core = qcircuit::core_type;

void push1( circuit_core& out, gate_kind kind, uint32_t target )
{
  out.emplace( kind, std::span<const uint32_t>{}, target, 0u, 0.0 );
}

void push_cx( circuit_core& out, uint32_t control, uint32_t target )
{
  out.emplace( gate_kind::cx, std::span<const uint32_t>( &control, 1u ), target, 0u, 0.0 );
}

/* standard 7-T decomposition (Nielsen-Chuang Fig. 4.9) */
void toffoli_rows( circuit_core& out, uint32_t c0, uint32_t c1, uint32_t target )
{
  push1( out, gate_kind::h, target );
  push_cx( out, c1, target );
  push1( out, gate_kind::tdg, target );
  push_cx( out, c0, target );
  push1( out, gate_kind::t, target );
  push_cx( out, c1, target );
  push1( out, gate_kind::tdg, target );
  push_cx( out, c0, target );
  push1( out, gate_kind::t, c1 );
  push1( out, gate_kind::t, target );
  push1( out, gate_kind::h, target );
  push_cx( out, c0, c1 );
  push1( out, gate_kind::t, c0 );
  push1( out, gate_kind::tdg, c1 );
  push_cx( out, c0, c1 );
}

/* Maslov [42]: RCCX with 4 T gates; a palindrome under inversion, so
 * compute and uncompute emit the identical cascade. */
void relative_phase_toffoli_rows( circuit_core& out, uint32_t c0, uint32_t c1, uint32_t target )
{
  push1( out, gate_kind::h, target );
  push1( out, gate_kind::t, target );
  push_cx( out, c1, target );
  push1( out, gate_kind::tdg, target );
  push_cx( out, c0, target );
  push1( out, gate_kind::t, target );
  push_cx( out, c1, target );
  push1( out, gate_kind::tdg, target );
  push1( out, gate_kind::h, target );
}

/* the emitters below pass valid operands by construction; only the
 * public appenders check theirs, as a Toffoli added to the circuit */
void check_toffoli( const qcircuit& circuit, uint32_t c0, uint32_t c1, uint32_t target )
{
  const uint32_t controls[2] = { c0, c1 };
  circuit.check_operands(
      qgate_view( gate_kind::mcx, std::span<const uint32_t>( controls ), target, 0u, 0.0 ) );
}

} // namespace

void append_toffoli_clifford_t( qcircuit& circuit, uint32_t c0, uint32_t c1, uint32_t target )
{
  check_toffoli( circuit, c0, c1, target );
  toffoli_rows( circuit.core(), c0, c1, target );
}

void append_relative_phase_toffoli( qcircuit& circuit, uint32_t c0, uint32_t c1, uint32_t target,
                                    bool adjoint )
{
  (void)adjoint; /* the cascade is its own adjoint */
  check_toffoli( circuit, c0, c1, target );
  relative_phase_toffoli_rows( circuit.core(), c0, c1, target );
}

/* ---------------------------------------------------------------- */
/* strategy emitters                                                */
/* ---------------------------------------------------------------- */

namespace
{

struct mct_emitter
{
  qcircuit& out;
  const mct_emit_options& options;

  void toffoli( uint32_t c0, uint32_t c1, uint32_t target ) const
  {
    if ( options.keep_toffoli )
    {
      const uint32_t controls[2] = { c0, c1 };
      out.core().emplace( gate_kind::mcx, std::span<const uint32_t>( controls ), target, 0u,
                          0.0 );
    }
    else
    {
      toffoli_rows( out.core(), c0, c1, target );
    }
  }

  /* compute/uncompute Toffoli of the clean chain: relative-phase safe */
  void chain_toffoli( uint32_t c0, uint32_t c1, uint32_t target ) const
  {
    if ( options.use_relative_phase && !options.keep_toffoli )
    {
      relative_phase_toffoli_rows( out.core(), c0, c1, target );
    }
    else
    {
      toffoli( c0, c1, target );
    }
  }

  /*! V-chain over clean helpers a0..a_{k-3}:
   *    a0 = c0 & c1;  a_i = c_{i+1} & a_{i-1};  target ^= c_{k-1} & a_{k-3}
   *  computed upwards, then uncomputed in reverse order.
   */
  void clean_chain( std::span<const uint32_t> controls, uint32_t target,
                    std::span<const uint32_t> helpers ) const
  {
    const uint32_t k = static_cast<uint32_t>( controls.size() );
    chain_toffoli( controls[0], controls[1], helpers[0] );
    for ( uint32_t i = 2u; i + 1u < k; ++i )
    {
      chain_toffoli( controls[i], helpers[i - 2u], helpers[i - 1u] );
    }
    toffoli( controls[k - 1u], helpers[k - 3u], target );
    for ( uint32_t i = k - 2u; i >= 2u; --i )
    {
      chain_toffoli( controls[i], helpers[i - 2u], helpers[i - 1u] );
    }
    chain_toffoli( controls[0], controls[1], helpers[0] );
  }

  /*! Barenco borrowed-ancilla chain (Lemma 7.2): two halves of a
   *  Toffoli staircase over k-2 dirty wires; every ancilla is toggled
   *  an even number of times and ends in its input state.
   */
  void dirty_chain( std::span<const uint32_t> controls, uint32_t target,
                    std::span<const uint32_t> dirty ) const
  {
    const uint32_t k = static_cast<uint32_t>( controls.size() );
    const auto ladder_down = [&]( bool with_target ) {
      if ( with_target )
      {
        toffoli( controls[k - 1u], dirty[k - 3u], target );
      }
      for ( uint32_t i = k - 2u; i >= 2u; --i )
      {
        toffoli( controls[i], dirty[i - 2u], dirty[i - 1u] );
      }
    };
    const auto ladder_up = [&]( bool with_target ) {
      for ( uint32_t i = 2u; i <= k - 2u; ++i )
      {
        toffoli( controls[i], dirty[i - 2u], dirty[i - 1u] );
      }
      if ( with_target )
      {
        toffoli( controls[k - 1u], dirty[k - 3u], target );
      }
    };
    ladder_down( true );
    toffoli( controls[0], controls[1], dirty[0] );
    ladder_up( true );
    ladder_down( false );
    toffoli( controls[0], controls[1], dirty[0] );
    ladder_up( false );
  }

  /*! Λ over `controls` onto `target`, borrowing scratch from `pool`
   *  (wires guaranteed disjoint from controls and target).
   */
  void lambda_with_pool( std::span<const uint32_t> controls, uint32_t target,
                         std::span<const uint32_t> pool ) const
  {
    const uint32_t k = static_cast<uint32_t>( controls.size() );
    if ( k == 1u )
    {
      push_cx( out.core(), controls[0], target );
      return;
    }
    if ( k == 2u )
    {
      toffoli( controls[0], controls[1], target );
      return;
    }
    dirty_chain( controls, target, pool.subspan( 0u, k - 2u ) );
  }

  /*! Ancilla-free split (Lemma 7.3): Λ_k = T1 T2 T1 T2 with
   *  T1 = Λ_m(C1 -> a), T2 = Λ_{k-m+1}(C2 + a -> t); the halves borrow
   *  their scratch from each other's controls (and the target).
   */
  void recursive_split( std::span<const uint32_t> controls, uint32_t target,
                        uint32_t borrowed ) const
  {
    const uint32_t k = static_cast<uint32_t>( controls.size() );
    const uint32_t m = ( k + 1u ) / 2u;
    const auto first = controls.subspan( 0u, m );
    const auto second = controls.subspan( m );

    std::vector<uint32_t> pool1( second.begin(), second.end() );
    pool1.push_back( target );
    std::vector<uint32_t> controls2( second.begin(), second.end() );
    controls2.push_back( borrowed );

    for ( uint32_t round = 0u; round < 2u; ++round )
    {
      lambda_with_pool( first, borrowed, pool1 );
      lambda_with_pool( controls2, target, first );
    }
  }
};

} // namespace

void emit_mct_gate( qcircuit& out, ancilla_manager& ancillas,
                    std::span<const uint32_t> controls, uint32_t target,
                    const mct_emit_options& options )
{
  const uint32_t k = static_cast<uint32_t>( controls.size() );
  const mct_emitter emitter{ out, options };
  if ( k == 0u )
  {
    push1( out.core(), gate_kind::x, target );
    return;
  }
  if ( k == 1u )
  {
    push_cx( out.core(), controls[0], target );
    return;
  }
  if ( k == 2u )
  {
    emitter.toffoli( controls[0], controls[1], target );
    return;
  }

  std::vector<uint32_t> busy( controls.begin(), controls.end() );
  busy.push_back( target );
  const uint32_t chain = k - 2u;
  const uint32_t clean_available = ancillas.clean_capacity();
  const uint32_t idle_available = ancillas.num_idle( busy );

  std::optional<mct_strategy> chosen;
  if ( options.strategy != mct_strategy::automatic &&
       strategy_feasible( options.strategy, chain, clean_available, idle_available ) )
  {
    chosen = options.strategy;
  }
  else
  {
    chosen = select_mct_strategy( k, clean_available, idle_available, options.weights,
                                  options.use_relative_phase );
  }
  if ( !chosen )
  {
    throw std::invalid_argument(
        "emit_mct_gate: no lowering strategy fits the qubit budget (gate with " +
        std::to_string( k ) + " controls, no clean helpers or idle wires available)" );
  }

  switch ( *chosen )
  {
  case mct_strategy::clean:
  {
    const auto helpers = ancillas.acquire_clean( chain );
    out.core().grow_wires( ancillas.num_wires() );
    emitter.clean_chain( controls, target, helpers );
    ancillas.release_clean( helpers );
    break;
  }
  case mct_strategy::dirty:
  {
    const auto borrowed = ancillas.borrow_dirty( chain, busy );
    emitter.dirty_chain( controls, target, borrowed );
    break;
  }
  case mct_strategy::recursive:
  {
    const auto borrowed = ancillas.borrow_dirty( 1u, busy );
    emitter.recursive_split( controls, target, borrowed[0] );
    break;
  }
  default:
    throw std::logic_error( "emit_mct_gate: unreachable strategy" );
  }
}

} // namespace qda
