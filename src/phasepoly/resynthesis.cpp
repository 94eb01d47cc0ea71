#include "phasepoly/resynthesis.hpp"

#include "phasepoly/linear_synthesis.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace qda::phasepoly
{

namespace
{

constexpr double pi = std::numbers::pi;

/*! True when `angle` is a multiple of 2 pi (no phase to place). */
bool angle_is_trivial( double angle )
{
  const double folded = std::abs( std::fmod( angle, 2.0 * pi ) );
  return folded < 1e-12 || std::abs( folded - 2.0 * pi ) < 1e-12;
}

qgate make_cx( uint32_t control, uint32_t target )
{
  qgate gate;
  gate.kind = gate_kind::cx;
  gate.controls = { control };
  gate.target = target;
  return gate;
}

qgate make_x( uint32_t target )
{
  qgate gate;
  gate.kind = gate_kind::x;
  gate.target = target;
  return gate;
}

/*! Kinds a parity region may contain (diagonal phases and affine gates). */
bool is_region_kind( gate_kind kind )
{
  switch ( kind )
  {
  case gate_kind::x:
  case gate_kind::cx:
  case gate_kind::swap:
  case gate_kind::z:
  case gate_kind::s:
  case gate_kind::sdg:
  case gate_kind::t:
  case gate_kind::tdg:
  case gate_kind::rz:
  case gate_kind::global_phase:
    return true;
  default:
    return false;
  }
}

} // namespace

parity_network synthesize_parity_network( const phase_polynomial& poly,
                                          uint32_t section_size,
                                          cancel_token cancel )
{
  const uint32_t m = poly.num_vars;
  parity_network network;
  if ( m == 0u )
  {
    network.global_phase = poly.global_phase;
    return network;
  }

  /* current frame: wire k holds parity row[k] of the region inputs;
   * inv_col[k] is column k of the inverse, so the wire combination
   * reaching parity p has coefficients c_k = <p, inv_col[k]>     */
  std::vector<bitvec> rows( m );
  std::vector<bitvec> inv_cols( m );
  for ( uint32_t k = 0u; k < m; ++k )
  {
    rows[k].set( k );
    inv_cols[k].set( k );
  }

  std::vector<uint32_t> remaining;
  remaining.reserve( poly.terms.size() );
  for ( uint32_t index = 0u; index < poly.terms.size(); ++index )
  {
    const auto& term = poly.terms[index];
    if ( term.parity.any() && !angle_is_trivial( term.angle ) )
    {
      remaining.push_back( index );
    }
  }

  bitvec coefficients, best_coefficients;
  while ( !remaining.empty() )
  {
    /* each placement scans every remaining term, so one poll per
     * placement bounds the cancellation latency at O(terms * wires) */
    cancel.check( "tpar" );
    /* greedy Gray-order stand-in: place the parity that is cheapest in
     * the current frame, so consecutive placements share CNOT chains */
    size_t best_position = 0u;
    uint32_t best_weight = 0xffffffffu;
    for ( size_t position = 0u; position < remaining.size(); ++position )
    {
      const bitvec& parity = poly.terms[remaining[position]].parity;
      coefficients.clear();
      uint32_t weight = 0u;
      for ( uint32_t k = 0u; k < m; ++k )
      {
        if ( inner_parity( parity, inv_cols[k] ) )
        {
          coefficients.set( k );
          ++weight;
        }
      }
      if ( weight < best_weight )
      {
        best_weight = weight;
        best_position = position;
        best_coefficients = coefficients;
        if ( weight <= 1u )
        {
          break; /* already sitting on a wire */
        }
      }
    }

    const uint32_t term_index = remaining[best_position];
    remaining[best_position] = remaining.back();
    remaining.pop_back();

    /* fold the contributing wires into the target wire */
    const uint32_t target = best_coefficients.top_bit();
    best_coefficients.for_each_set_bit( [&]( uint32_t wire ) {
      if ( wire == target )
      {
        return;
      }
      network.gates.push_back( make_cx( wire, target ) );
      rows[target] ^= rows[wire];
      inv_cols[wire] ^= inv_cols[target];
    } );

    network.global_phase +=
        emit_phase_gates( network.gates, target, poly.terms[term_index].angle );
  }

  /* PMH epilogue: close the residual map M = F A^{-1}, so that the
   * appended network takes the current frame A to the region's F */
  linear_matrix residual( m );
  bool is_identity = true;
  for ( uint32_t i = 0u; i < m; ++i )
  {
    for ( uint32_t k = 0u; k < m; ++k )
    {
      if ( inner_parity( poly.output_linear[i], inv_cols[k] ) )
      {
        residual[i].set( k );
      }
    }
    bitvec expected;
    expected.set( i );
    is_identity = is_identity && residual[i] == expected;
  }
  if ( !is_identity )
  {
    for ( const auto& [control, target] : detail::pmh_cnot_ops( residual, section_size ) )
    {
      network.gates.push_back( make_cx( control, target ) );
    }
  }

  poly.output_constants.for_each_set_bit( [&]( uint32_t wire ) {
    network.gates.push_back( make_x( wire ) );
  } );

  network.global_phase += poly.global_phase;
  return network;
}

namespace
{

/*! One region shape, memoized: mapped circuits repeat the same local
 *  gate pattern (e.g. the relative-phase Toffoli block) thousands of
 *  times over different qubits, so each pattern is synthesized once
 *  and replayed through a wire remap.
 */
struct cached_network
{
  std::vector<qgate> gates;  /*!< region-local replacement, empty if no win */
  double global_phase = 0.0;
  bool improves = false;
};

void append_key_byte( std::string& key, uint8_t byte )
{
  key.push_back( static_cast<char>( byte ) );
}

void append_key_angle( std::string& key, double angle )
{
  char bytes[sizeof( double )];
  std::memcpy( bytes, &angle, sizeof( double ) );
  key.append( bytes, sizeof( double ) );
}

} // namespace

void resynthesize_parity_regions_in_place( qcircuit& circuit,
                                           const resynthesis_options& options )
{
  QDA_TRACE_SPAN_NAMED( resynth_span, "tpar.resynth" );
  resynth_span.attr( "gates", static_cast<int64_t>( circuit.num_gates() ) );
  auto& core = circuit.core();
  core.compact(); /* region bounds are slot ranges; start dense */

  const auto& cols = core.columns();
  const uint32_t num_slots = core.num_slots();
  auto rewriter = circuit.rewrite();
  double global_phase_total = 0.0;

  std::vector<uint32_t> touched; /* first-touch order; index = local wire */
  std::vector<uint32_t> local_of( circuit.num_qubits(), 0u );
  std::vector<uint8_t> seen( circuit.num_qubits(), 0u );
  std::string key;
  std::unordered_map<std::string, cached_network> patterns;

  uint32_t begin = 0u;
  cancel_checkpoint checkpoint( 256u );
  while ( begin < num_slots )
  {
    if ( checkpoint.due() )
    {
      options.cancel.check( "tpar" );
    }
    if ( !is_region_kind( cols.kind[begin] ) )
    {
      ++begin;
      continue;
    }
    uint32_t end = begin;
    uint32_t linear_count = 0u;
    uint32_t phase_count = 0u;
    for ( const uint32_t qubit : touched )
    {
      seen[qubit] = 0u;
    }
    touched.clear();
    key.clear();
    const auto local = [&]( uint32_t qubit ) {
      if ( seen[qubit] == 0u )
      {
        seen[qubit] = 1u;
        local_of[qubit] = static_cast<uint32_t>( touched.size() );
        touched.push_back( qubit );
      }
      return local_of[qubit];
    };
    while ( end < num_slots && is_region_kind( cols.kind[end] ) )
    {
      const auto kind = cols.kind[end];
      append_key_byte( key, static_cast<uint8_t>( kind ) );
      if ( kind == gate_kind::cx )
      {
        ++linear_count;
        append_key_byte( key, static_cast<uint8_t>( local( cols.controls_of( end )[0] ) ) );
        append_key_byte( key, static_cast<uint8_t>( local( cols.target[end] ) ) );
      }
      else if ( kind == gate_kind::swap )
      {
        ++linear_count;
        append_key_byte( key, static_cast<uint8_t>( local( cols.target[end] ) ) );
        append_key_byte( key, static_cast<uint8_t>( local( cols.target2[end] ) ) );
      }
      else if ( kind == gate_kind::global_phase )
      {
        append_key_angle( key, cols.angle_of( end ) );
      }
      else
      {
        if ( kind != gate_kind::x )
        {
          ++phase_count;
        }
        append_key_byte( key, static_cast<uint8_t>( local( cols.target[end] ) ) );
        if ( kind == gate_kind::rz )
        {
          append_key_angle( key, cols.angle_of( end ) );
        }
      }
      ++end;
    }

    /* a region with no linear gates has nothing to restructure; wide
     * regions would overflow the one-byte local ids in the pattern key */
    if ( ( linear_count >= 2u || ( linear_count >= 1u && phase_count >= 1u ) ) &&
         touched.size() <= 256u )
    {
      QDA_COUNT( "tpar.regions_extracted" );
      auto [cache_it, fresh] = patterns.try_emplace( key );
      cached_network& cached = cache_it->second;
      if ( !fresh )
      {
        QDA_COUNT( "tpar.memo_hits" );
      }
      if ( fresh )
      {
        const auto poly = extract_phase_polynomial( circuit, begin, end, touched );
        if ( poly.terms.size() <= options.max_region_terms )
        {
          auto network =
              synthesize_parity_network( poly, options.section_size, options.cancel );
          if ( network.gates.size() < static_cast<size_t>( end - begin ) )
          {
            cached.gates = std::move( network.gates );
            cached.global_phase = network.global_phase;
            cached.improves = true;
          }
        }
      }
      if ( cached.improves )
      {
        QDA_COUNT( "tpar.regions_resynthesized" );
        for ( uint32_t slot = begin; slot < end; ++slot )
        {
          rewriter.erase_slot( slot );
        }
        for ( const auto& gate : cached.gates )
        {
          qgate mapped = gate;
          mapped.target = touched[mapped.target];
          for ( auto& control : mapped.controls )
          {
            control = touched[control];
          }
          rewriter.insert_before_slot( begin, std::move( mapped ) );
        }
        global_phase_total += cached.global_phase;
      }
    }
    begin = end;
  }

  global_phase_total = std::fmod( global_phase_total, 2.0 * pi );
  if ( std::abs( global_phase_total ) > 1e-12 )
  {
    qgate phase;
    phase.kind = gate_kind::global_phase;
    phase.angle = global_phase_total;
    rewriter.append( phase );
  }
  rewriter.commit();
}

} // namespace qda::phasepoly
