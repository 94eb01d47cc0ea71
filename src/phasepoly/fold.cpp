#include "phasepoly/fold.hpp"

#include "phasepoly/parity_table.hpp"
#include "phasepoly/phase_polynomial.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <vector>

namespace qda::phasepoly
{

namespace
{

constexpr double pi = std::numbers::pi;

/*! \brief Parity label of one qubit: the sorted set of the variables
 *         whose XOR the qubit carries.
 *
 *  Variables are introduced one per non-affine gate, so an hwb-8 input
 *  numbers ~9K of them, yet almost every label holds at most three.
 *  A `bitvec` spanning ids 40 and 9000 walks (and heap-allocates) the
 *  whole word range between them; this set stores up to
 *  `inline_capacity` ids in place and spills to the heap only beyond.
 *  Invariant: `spill_` is empty while the ids are inline, so copying a
 *  small label never allocates.
 */
class fold_label
{
public:
  static constexpr uint32_t inline_capacity = 4u;

  bool empty() const noexcept { return size_ == 0u; }

  const uint32_t* begin() const noexcept
  {
    return size_ <= inline_capacity ? ids_.data() : spill_.data();
  }
  const uint32_t* end() const noexcept { return begin() + size_; }

  void assign_variable( uint32_t variable ) noexcept
  {
    ids_[0] = variable;
    size_ = 1u;
    spill_.clear();
  }

  /*! GF(2) sum of two labels: the symmetric difference of their sets. */
  fold_label& operator^=( const fold_label& other )
  {
    std::array<uint32_t, 2u * inline_capacity> small;
    std::vector<uint32_t> large;
    uint32_t* sum = small.data();
    if ( size_ + other.size_ > small.size() )
    {
      large.resize( size_ + other.size_ );
      sum = large.data();
    }
    const auto last =
        std::set_symmetric_difference( begin(), end(), other.begin(), other.end(), sum );
    assign( sum, static_cast<uint32_t>( last - sum ) );
    return *this;
  }

  bool operator==( const fold_label& other ) const noexcept
  {
    return size_ == other.size_ && std::equal( begin(), end(), other.begin() );
  }

  size_t hash() const noexcept
  {
    uint64_t state = size_;
    for ( const uint32_t id : *this )
    {
      state = ( state ^ id ) * 0x9e3779b97f4a7c15ull;
    }
    /* splitmix64 finalizer: the table masks the low bits */
    state = ( state ^ ( state >> 30u ) ) * 0xbf58476d1ce4e5b9ull;
    state = ( state ^ ( state >> 27u ) ) * 0x94d049bb133111ebull;
    return static_cast<size_t>( state ^ ( state >> 31u ) );
  }

private:
  void assign( const uint32_t* ids, uint32_t count )
  {
    size_ = count;
    if ( count <= inline_capacity )
    {
      std::copy( ids, ids + count, ids_.begin() );
      spill_.clear();
    }
    else
    {
      spill_.assign( ids, ids + count );
    }
  }

  uint32_t size_ = 0u;
  std::array<uint32_t, inline_capacity> ids_{};
  std::vector<uint32_t> spill_;
};

struct fold_term
{
  double angle = 0.0; /*!< accumulated parity-phase coefficient */
  bool anchor_constant = false;
};

} // namespace

void fold_phases_in_place( qcircuit& circuit )
{
  QDA_TRACE_SPAN_NAMED( fold_span, "tpar.fold" );
  fold_span.attr( "gates", static_cast<int64_t>( circuit.num_gates() ) );
  const uint32_t num_qubits = circuit.num_qubits();
  auto& core = circuit.core();
  core.compact(); /* pass 1 records slots; start from dense storage */

  /* affine label per qubit: parity of introduced variables + complement */
  std::vector<fold_label> labels( num_qubits );
  std::vector<uint8_t> constants( num_qubits, 0u );
  uint32_t next_variable = 0u;

  const auto fresh_label = [&]( uint32_t qubit ) {
    labels[qubit].assign_variable( next_variable++ );
    constants[qubit] = 0u;
  };

  for ( uint32_t qubit = 0u; qubit < num_qubits; ++qubit )
  {
    fresh_label( qubit );
  }

  /* pass 1: collect phase terms keyed by parity label */
  constexpr uint32_t not_phase = 0xffffffffu;
  constexpr uint32_t folded = 0xfffffffeu;
  /* Clifford+T inputs are about half phase gates, nearly all on fresh
   * parities: sizing for that up front skips the whole rehash chain */
  basic_parity_table<fold_label> table( core.num_slots() / 2u );
  std::vector<fold_term> terms;
  /* slot -> anchored term; `folded` for a phase gate merged into an
   * earlier anchor or into the global phase */
  std::vector<uint32_t> anchor_of( core.num_slots(), not_phase );
  double global_phase_total = 0.0;
  uint64_t parities_folded = 0u;

  const auto& cols = core.columns();
  for ( uint32_t slot = 0u; slot < core.num_slots(); ++slot )
  {
    const auto kind = cols.kind[slot];
    const uint32_t target = cols.target[slot];
    if ( const auto angle = phase_angle_of( kind, cols.angle_of( slot ) ) )
    {
      if ( kind == gate_kind::rz )
      {
        global_phase_total -= *angle / 2.0; /* Rz carries a global factor */
      }
      anchor_of[slot] = folded;
      if ( labels[target].empty() )
      {
        /* phase on a constant value: pure global phase */
        if ( constants[target] )
        {
          global_phase_total += *angle;
        }
        continue;
      }
      const auto [index, inserted] = table.find_or_insert( labels[target] );
      if ( inserted )
      {
        terms.push_back( { 0.0, constants[target] != 0u } );
        anchor_of[slot] = index;
      }
      else
      {
        ++parities_folded;
      }
      if ( constants[target] != 0u )
      {
        terms[index].angle -= *angle;
        global_phase_total += *angle;
      }
      else
      {
        terms[index].angle += *angle;
      }
      continue;
    }

    switch ( kind )
    {
    case gate_kind::x:
      constants[target] ^= 1u;
      break;
    case gate_kind::cx:
    {
      const uint32_t control = cols.controls_of( slot )[0];
      labels[target] ^= labels[control];
      constants[target] ^= constants[control];
      break;
    }
    case gate_kind::swap:
    {
      const uint32_t other = cols.target2[slot];
      std::swap( labels[target], labels[other] );
      std::swap( constants[target], constants[other] );
      break;
    }
    case gate_kind::cz:
    case gate_kind::mcz:
    case gate_kind::barrier:
    case gate_kind::global_phase:
      break; /* diagonal or neutral: labels unchanged */
    default:
      /* h, y, rx, ry, mcx, measure: value no longer tracked */
      fresh_label( target );
      break;
    }
  }

  QDA_COUNT_N( "tpar.parities_folded", parities_folded );

  /* pass 2: rewrite in place, emitting merged phases at their anchors */
  auto rewriter = circuit.rewrite();
  std::vector<qgate> merged;
  for ( uint32_t slot = 0u; slot < core.num_slots(); ++slot )
  {
    if ( anchor_of[slot] == not_phase )
    {
      continue;
    }
    if ( anchor_of[slot] == folded )
    {
      rewriter.erase_slot( slot );
      continue;
    }
    const uint32_t target = cols.target[slot];
    const auto& term = terms[anchor_of[slot]];
    double alpha = term.angle;
    if ( term.anchor_constant )
    {
      /* gate acts on the complemented value: emit -alpha, compensate */
      global_phase_total += alpha;
      alpha = -alpha;
    }
    /* Rz(alpha) carries an extra e^{-i alpha/2}; compensate so the
     * rewritten circuit equals the original exactly */
    merged.clear();
    global_phase_total += emit_phase_gates( merged, target, alpha );
    if ( merged.size() == 1u )
    {
      rewriter.replace_slot( slot, merged.front() ); /* the common case: no insert */
      continue;
    }
    rewriter.erase_slot( slot );
    for ( const auto& gate : merged )
    {
      rewriter.insert_before_slot( slot, gate );
    }
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
