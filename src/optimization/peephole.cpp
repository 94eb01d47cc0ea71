#include "optimization/peephole.hpp"

#include "fault/failpoint.hpp"

#include <algorithm>
#include <limits>

namespace qda
{

namespace
{

using ct_columns = ir::cliffordt_policy::columns;

constexpr uint32_t none = std::numeric_limits<uint32_t>::max();

bool same_operands( const ct_columns& cols, uint32_t i, uint32_t j )
{
  if ( cols.kind[i] != cols.kind[j] || cols.target[i] != cols.target[j] ||
       cols.target2[i] != cols.target2[j] )
  {
    return false;
  }
  const auto ci = cols.controls_of( i );
  const auto cj = cols.controls_of( j );
  return std::equal( ci.begin(), ci.end(), cj.begin(), cj.end() );
}

/*! True for self-inverse gate kinds where an identical adjacent pair
 *  cancels.
 */
bool is_self_inverse( gate_kind kind )
{
  switch ( kind )
  {
  case gate_kind::h:
  case gate_kind::x:
  case gate_kind::y:
  case gate_kind::z:
  case gate_kind::cx:
  case gate_kind::cz:
  case gate_kind::swap:
  case gate_kind::mcx:
  case gate_kind::mcz:
    return true;
  default:
    return false;
  }
}

/*! True for pairs like (s, sdg) and (t, tdg). */
bool are_adjoint_kinds( gate_kind a, gate_kind b )
{
  return ( a == gate_kind::s && b == gate_kind::sdg ) ||
         ( a == gate_kind::sdg && b == gate_kind::s ) ||
         ( a == gate_kind::t && b == gate_kind::tdg ) ||
         ( a == gate_kind::tdg && b == gate_kind::t );
}

/*! Per wire, the alive gates that touch it, in slot order.  An
 *  *occurrence* is one (gate, wire) pair; a gate's occurrences are
 *  contiguous, so the first later gate touching gate `i` is the
 *  smallest successor owner over `i`'s occurrences.  Barriers touch no
 *  wire list: they fence every wire, so `next_barrier` answers for
 *  them.  Global phases touch nothing.  Cancelling a gate unlinks its
 *  occurrences in O(its wires).
 */
class wire_links
{
public:
  explicit wire_links( const qcircuit::core_type& core )
  {
    const auto& cols = core.columns();
    const uint32_t num_slots = core.num_slots();
    first_occ_.resize( num_slots + 1u );
    occ_.reserve( num_slots + cols.operands.size() + 1u );
    std::vector<uint32_t> last_on_wire( core.num_wires(), none );
    std::vector<uint32_t> barriers;
    for ( uint32_t slot = 0u; slot < num_slots; ++slot )
    {
      first_occ_[slot] = static_cast<uint32_t>( occ_.size() );
      const auto kind = cols.kind[slot];
      if ( !core.slot_alive( slot ) || kind == gate_kind::global_phase )
      {
        continue;
      }
      if ( kind == gate_kind::barrier )
      {
        barriers.push_back( slot );
        continue;
      }
      const auto link = [&]( uint32_t wire ) {
        if ( wire >= last_on_wire.size() )
        {
          last_on_wire.resize( wire + 1u, none );
        }
        uint32_t& last = last_on_wire[wire];
        if ( last != none && occ_[last].owner == slot )
        {
          return; /* a wire named twice by one gate occurs once */
        }
        const auto occ = static_cast<uint32_t>( occ_.size() );
        occ_.push_back( { slot, last, none } );
        if ( last != none )
        {
          occ_[last].next = occ;
        }
        last = occ;
      };
      for ( const auto control : cols.controls_of( slot ) )
      {
        link( control );
      }
      link( cols.target[slot] );
      if ( kind == gate_kind::swap )
      {
        link( cols.target2[slot] );
      }
    }
    first_occ_[num_slots] = static_cast<uint32_t>( occ_.size() );

    /* barriers are never cancelled, so the next one is fixed per slot */
    if ( !barriers.empty() )
    {
      next_barrier_.assign( num_slots, none );
      for ( uint32_t slot = 0u, b = 0u; slot < num_slots; ++slot )
      {
        while ( b < barriers.size() && barriers[b] <= slot )
        {
          ++b;
        }
        if ( b < barriers.size() )
        {
          next_barrier_[slot] = barriers[b];
        }
      }
    }
  }

  /*! First alive gate after `slot` that touches one of its wires or
   *  is a barrier; `none` if there is none.
   */
  uint32_t first_blocker( uint32_t slot ) const noexcept
  {
    uint32_t first = next_barrier_.empty() ? none : next_barrier_[slot];
    for ( uint32_t o = first_occ_[slot]; o < first_occ_[slot + 1u]; ++o )
    {
      const uint32_t successor = occ_[o].next;
      if ( successor != none )
      {
        first = std::min( first, occ_[successor].owner );
      }
    }
    return first;
  }

  void unlink( uint32_t slot ) noexcept
  {
    for ( uint32_t o = first_occ_[slot]; o < first_occ_[slot + 1u]; ++o )
    {
      const auto [owner, prev, next] = occ_[o];
      if ( prev != none )
      {
        occ_[prev].next = next;
      }
      if ( next != none )
      {
        occ_[next].prev = prev;
      }
    }
  }

private:
  struct occurrence
  {
    uint32_t owner, prev, next;
  };

  std::vector<uint32_t> first_occ_; /* slot -> its first occurrence */
  std::vector<occurrence> occ_;
  std::vector<uint32_t> next_barrier_; /* empty when there is no barrier */
};

/*! One slot-order pass; after a cancellation it steps back one alive
 *  gate, whose partner may have just been exposed.
 */
bool one_sweep( const qcircuit::core_type& core, wire_links& links,
                qcircuit::rewriter& rewriter, const cancel_token& cancel,
                cancel_checkpoint& checkpoint )
{
  const auto& cols = core.columns();
  const uint32_t num_slots = core.num_slots();
  bool changed = false;
  uint32_t i = 0u;
  while ( i < num_slots )
  {
    if ( checkpoint.due() )
    {
      QDA_FAILPOINT( "peephole.sweep" );
      cancel.check( "peephole" );
    }
    const auto kind = cols.kind[i];
    if ( !core.slot_alive( i ) || kind == gate_kind::barrier ||
         kind == gate_kind::global_phase || kind == gate_kind::measure )
    {
      ++i;
      continue;
    }
    /* the first interacting gate is the only candidate partner */
    const uint32_t j = links.first_blocker( i );
    const bool cancel_pair =
        j != none &&
        ( ( is_self_inverse( kind ) && same_operands( cols, i, j ) ) ||
          ( are_adjoint_kinds( kind, cols.kind[j] ) && cols.target[i] == cols.target[j] ) );
    if ( !cancel_pair )
    {
      ++i;
      continue;
    }
    rewriter.erase_slot( i );
    rewriter.erase_slot( j );
    links.unlink( i );
    links.unlink( j );
    changed = true;
    i = core.previous_alive( i );
  }
  return changed;
}

} // namespace

void peephole_in_place( qcircuit& circuit, uint32_t max_rounds, cancel_token cancel )
{
  /* phase fusion (t t -> s etc.) is delegated to phase folding, which
   * merges phase gates globally; this pass handles the non-diagonal
   * cancellations it cannot see */
  auto rewriter = circuit.rewrite();
  if ( max_rounds > 0u )
  {
    cancel.check( "peephole" );
    const auto& core = circuit.core();
    wire_links links( core );
    cancel_checkpoint checkpoint;
    while ( one_sweep( core, links, rewriter, cancel, checkpoint ) )
    {
    }
  }
  rewriter.commit();
}

qcircuit peephole_optimize( const qcircuit& circuit, uint32_t max_rounds )
{
  qcircuit result( circuit );
  peephole_in_place( result, max_rounds );
  return result;
}

} // namespace qda
