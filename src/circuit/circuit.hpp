/*! \file circuit.hpp
 *  \brief The unified gate-graph core shared by all circuit levels.
 *
 *  `qda::ir::circuit<Policy>` is the single container behind the
 *  reversible (`rev_circuit`, MCT policy) and quantum (`qcircuit`,
 *  Clifford+T policy) facades of the paper's Eq. (5) flow.  The policy
 *  supplies struct-of-arrays gate storage (its `columns` type); the
 *  core supplies everything a pass needs and no facade should
 *  re-implement:
 *
 *   - stable `gate_handle`s that survive erasure of other gates and
 *     storage compaction,
 *   - O(1) tombstone erasure with deferred compaction, so erase-heavy
 *     passes never pay the O(n) vector-erase memmove of the old split
 *     containers,
 *   - zero-copy `gates_view` iteration yielding the policy's view type
 *     (a POD row for MCT gates, a span-backed `qgate_view` for
 *     Clifford+T gates),
 *   - a batching `rewriter` (`erase`, `replace`, `insert_before/after`,
 *     `append`, `commit`) so passes mutate in place instead of
 *     copy-rebuilding whole gate vectors.
 *
 *  Invalidation rules: tombstone erasure and in-place replacement keep
 *  iterators and slot indices valid; pending rewriter inserts are not
 *  visible until `commit()`, which compacts storage and invalidates
 *  slots/iterators (handles stay valid).  Appending may reallocate the
 *  operand slab, so span-backed views must not be kept across any
 *  mutation.
 */
#pragma once

#include "circuit/gate_handle.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qda::ir
{

/*! \brief Unified circuit container parameterized by a gate policy.
 *
 *  The policy provides:
 *   - `gate_type`: the materialized value type (e.g. `rev_gate`),
 *   - `view_type`: what iteration yields (value or zero-copy proxy),
 *   - `columns`: SoA storage with `size/reserve/push_back/set_row/
 *     copy_row_from/prepend/get`,
 *   - `view_at(columns, slot)` and `rows_equal(a, sa, b, sb)`.
 */
template<typename Policy>
class circuit
{
public:
  using policy_type = Policy;
  using gate_type = typename Policy::gate_type;
  using view_type = typename Policy::view_type;
  using columns_type = typename Policy::columns;

  explicit circuit( uint32_t num_wires ) : num_wires_( num_wires ) {}

  /*! \brief Adopts fully built columns as a compacted circuit: every
   *         row is alive and gate `i` gets slot `i` and handle `i`.
   *         Snapshot decoders (`frozen_circuit::thaw`) fill the columns
   *         in bulk and hand them over here, with no per-row emplace.
   */
  circuit( uint32_t num_wires, columns_type cols )
      : num_wires_( num_wires ), cols_( std::move( cols ) ), dead_( cols_.size(), 0u ),
        id_of_( cols_.size() ), slot_of_( cols_.size() )
  {
    for ( uint32_t slot = 0u; slot < num_slots(); ++slot )
    {
      id_of_[slot] = slot;
      slot_of_[slot] = slot;
    }
  }

  uint32_t num_wires() const noexcept { return num_wires_; }

  /*! \brief Widens the circuit to `num_wires` (never narrows): lowering
   *         passes acquire helper wires while they emit.
   */
  void grow_wires( uint32_t num_wires ) noexcept
  {
    num_wires_ = std::max( num_wires_, num_wires );
  }

  /*! \brief Number of alive (non-tombstoned) gates. */
  size_t num_gates() const noexcept { return cols_.size() - num_dead_; }
  bool empty() const noexcept { return num_gates() == 0u; }

  /* ---- slot-level access (hot-path passes read columns directly) ---- */

  /*! \brief Number of storage slots, dead ones included. */
  uint32_t num_slots() const noexcept { return static_cast<uint32_t>( cols_.size() ); }
  bool slot_alive( uint32_t slot ) const noexcept { return dead_[slot] == 0u; }
  uint32_t num_tombstones() const noexcept { return num_dead_; }

  /*! \brief Nearest alive slot strictly before `slot`, or 0 if none
   *         (callers skipping dead slots tolerate a dead slot 0).
   *         Lets erase-heavy passes step back after a cancellation so
   *         newly-adjacent pairs collapse within the same sweep.
   */
  uint32_t previous_alive( uint32_t slot ) const noexcept
  {
    while ( slot-- > 0u )
    {
      if ( dead_[slot] == 0u )
      {
        return slot;
      }
    }
    return 0u;
  }
  const columns_type& columns() const noexcept { return cols_; }

  view_type view_at_slot( uint32_t slot ) const { return Policy::view_at( cols_, slot ); }

  /* ---- stable handles ---- */

  gate_handle handle_at_slot( uint32_t slot ) const noexcept { return { id_of_[slot] }; }

  bool alive( gate_handle handle ) const noexcept
  {
    return handle.id < slot_of_.size() && slot_of_[handle.id] != npos;
  }

  /*! \brief Current slot of a handle (npos when erased). */
  uint32_t slot_of( gate_handle handle ) const noexcept { return slot_of_[handle.id]; }

  /*! \brief Gate named by `handle`; throws std::out_of_range if erased. */
  view_type operator[]( gate_handle handle ) const
  {
    return Policy::view_at( cols_, checked_slot( handle ) );
  }

  /* ---- construction ---- */

  gate_handle append( const gate_type& gate )
  {
    cols_.push_back( gate );
    return register_new_row();
  }

  /*! \brief In-place row construction from policy-specific parts,
   *         skipping `gate_type` materialization on builder hot paths.
   */
  template<typename... Args>
  gate_handle emplace( Args&&... args )
  {
    cols_.emplace_row( std::forward<Args>( args )... );
    return register_new_row();
  }

  /*! \brief O(n) front insertion (rare; bidirectional synthesis). */
  gate_handle prepend( const gate_type& gate )
  {
    cols_.prepend( gate );
    dead_.insert( dead_.begin(), 0u );
    const uint32_t id = static_cast<uint32_t>( slot_of_.size() );
    id_of_.insert( id_of_.begin(), id );
    slot_of_.push_back( 0u );
    reindex_slots();
    return { id };
  }

  /*! \brief Appends every alive gate of `other` without materializing.
   *         Self-append is supported (the slot count is snapshotted).
   */
  void append_from( const circuit& other )
  {
    const uint32_t count = other.num_slots();
    for ( uint32_t slot = 0u; slot < count; ++slot )
    {
      if ( other.dead_[slot] == 0u )
      {
        cols_.copy_row_from( other.cols_, slot );
        register_new_row();
      }
    }
  }

  /*! \brief Heap bytes held: the policy columns plus the handle and
   *         tombstone bookkeeping, by capacity.
   */
  size_t heap_bytes() const noexcept
  {
    return cols_.heap_bytes() + dead_.capacity() * sizeof( uint8_t ) +
           ( id_of_.capacity() + slot_of_.capacity() ) * sizeof( uint32_t );
  }

  /*! \brief Reserves room for `n` rows in every per-row vector. */
  void reserve( size_t n )
  {
    cols_.reserve( n );
    dead_.reserve( n );
    id_of_.reserve( n );
    slot_of_.reserve( n );
  }

  /* ---- views ---- */

  class const_iterator
  {
  public:
    using iterator_category = std::input_iterator_tag;
    using value_type = view_type;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = view_type;

    const_iterator() = default;

    view_type operator*() const { return Policy::view_at( c_->cols_, slot_ ); }
    gate_handle handle() const { return c_->handle_at_slot( slot_ ); }
    uint32_t slot() const noexcept { return slot_; }

    const_iterator& operator++()
    {
      slot_ = c_->next_alive( slot_ + 1u );
      return *this;
    }
    const_iterator operator++( int )
    {
      auto copy = *this;
      ++*this;
      return copy;
    }
    bool operator==( const const_iterator& other ) const noexcept { return slot_ == other.slot_; }

  private:
    friend class circuit;
    const_iterator( const circuit* c, uint32_t slot ) : c_( c ), slot_( slot ) {}

    const circuit* c_ = nullptr;
    uint32_t slot_ = npos;
  };

  /*! \brief Zero-copy range over the alive gates, in circuit order. */
  class gates_view
  {
  public:
    const_iterator begin() const { return { c_, c_->next_alive( 0u ) }; }
    const_iterator end() const { return { c_, c_->num_slots() }; }
    size_t size() const noexcept { return c_->num_gates(); }
    bool empty() const noexcept { return size() == 0u; }
    view_type operator[]( size_t index ) const { return c_->gate_at( index ); }

    friend bool operator==( const gates_view& a, const gates_view& b )
    {
      if ( a.size() != b.size() )
      {
        return false;
      }
      auto ia = a.begin();
      auto ib = b.begin();
      for ( ; ia != a.end(); ++ia, ++ib )
      {
        if ( !Policy::rows_equal( a.c_->columns(), ia.slot(), b.c_->columns(), ib.slot() ) )
        {
          return false;
        }
      }
      return true;
    }

  private:
    friend class circuit;
    explicit gates_view( const circuit* c ) : c_( c ) {}
    const circuit* c_;
  };

  gates_view gates() const noexcept { return gates_view( this ); }

  /*! \brief Alive gate by position; O(1) when storage is compacted. */
  view_type gate_at( size_t index ) const
  {
    if ( num_dead_ == 0u )
    {
      return Policy::view_at( cols_, static_cast<uint32_t>( index ) );
    }
    uint32_t slot = next_alive( 0u );
    for ( size_t i = 0u; i < index; ++i )
    {
      slot = next_alive( slot + 1u );
    }
    return Policy::view_at( cols_, slot );
  }

  bool equal( const circuit& other ) const
  {
    return num_wires_ == other.num_wires_ && gates() == other.gates();
  }

  /* ---- in-place rewriting ---- */

  /*! \brief Batched mutator.  Erase/replace act immediately (slots stay
   *         stable); inserts are queued and applied by `commit()`, which
   *         also compacts tombstones.  The destructor commits.
   */
  class rewriter
  {
  public:
    rewriter( const rewriter& ) = delete;
    rewriter& operator=( const rewriter& ) = delete;
    rewriter( rewriter&& other ) noexcept
        : c_( other.c_ ), pending_( std::move( other.pending_ ) )
    {
      other.c_ = nullptr;
    }

    ~rewriter()
    {
      if ( c_ != nullptr )
      {
        commit();
      }
    }

    bool slot_alive( uint32_t slot ) const noexcept { return c_->slot_alive( slot ); }

    /*! \brief O(1) tombstone erasure; the slot keeps its index.
     *         Idempotent, both by slot and by handle.
     */
    void erase_slot( uint32_t slot ) { c_->erase_slot_impl( slot ); }
    void erase( gate_handle handle )
    {
      const uint32_t slot = c_->slot_of_[handle.id];
      if ( slot != npos )
      {
        erase_slot( slot );
      }
    }

    /*! \brief In-place overwrite; the gate keeps slot and handle.
     *         Throws std::out_of_range for an erased handle.
     */
    void replace_slot( uint32_t slot, const gate_type& gate ) { c_->cols_.set_row( slot, gate ); }
    void replace( gate_handle handle, const gate_type& gate )
    {
      replace_slot( c_->checked_slot( handle ), gate );
    }

    /*! \brief Queues `gate` before/after `slot`; visible after commit().
     *         Handle forms throw std::out_of_range for an erased handle.
     */
    gate_handle insert_before_slot( uint32_t slot, const gate_type& gate )
    {
      return queue( slot * 2u, gate );
    }
    gate_handle insert_before_slot( uint32_t slot, gate_type&& gate )
    {
      return queue( slot * 2u, std::move( gate ) );
    }
    gate_handle insert_after_slot( uint32_t slot, const gate_type& gate )
    {
      return queue( slot * 2u + 1u, gate );
    }
    gate_handle insert_before( gate_handle handle, const gate_type& gate )
    {
      return insert_before_slot( c_->checked_slot( handle ), gate );
    }
    gate_handle insert_after( gate_handle handle, const gate_type& gate )
    {
      return insert_after_slot( c_->checked_slot( handle ), gate );
    }

    /*! \brief Queues `gate` at the end of the circuit. */
    gate_handle append( const gate_type& gate ) { return queue( npos, gate ); }

    /*! \brief Applies queued inserts and compacts tombstones.  Slot
     *         indices and iterators are invalidated; handles survive.
     */
    void commit() { c_->commit_rewrites( pending_ ); }

  private:
    friend class circuit;
    explicit rewriter( circuit* c ) : c_( c ) {}

    template<typename Gate>
    gate_handle queue( uint32_t key, Gate&& gate )
    {
      const uint32_t id = static_cast<uint32_t>( c_->slot_of_.size() );
      c_->slot_of_.push_back( npos );
      pending_.push_back( { key, id, std::forward<Gate>( gate ) } );
      return { id };
    }

    circuit* c_;
    std::vector<typename circuit::pending_insert> pending_;
  };

  rewriter rewrite() { return rewriter( this ); }

  /*! \brief Removes tombstoned rows; handles are remapped, slots shift. */
  void compact()
  {
    if ( num_dead_ == 0u )
    {
      return;
    }
    std::vector<pending_insert> none;
    commit_rewrites( none );
  }

private:
  struct pending_insert
  {
    uint32_t key; /*!< 2*slot = before slot, 2*slot+1 = after slot, npos = end */
    uint32_t id;  /*!< handle id reserved at queue time */
    gate_type gate;
  };

  uint32_t checked_slot( gate_handle handle ) const
  {
    if ( handle.id >= slot_of_.size() || slot_of_[handle.id] == npos )
    {
      throw std::out_of_range( "ir::circuit: handle names an erased or unknown gate" );
    }
    return slot_of_[handle.id];
  }

  gate_handle register_new_row()
  {
    const uint32_t slot = static_cast<uint32_t>( dead_.size() );
    const uint32_t id = static_cast<uint32_t>( slot_of_.size() );
    slot_of_.push_back( slot );
    id_of_.push_back( id );
    dead_.push_back( 0u );
    return { id };
  }

  uint32_t next_alive( uint32_t slot ) const noexcept
  {
    const uint32_t size = num_slots();
    while ( slot < size && dead_[slot] != 0u )
    {
      ++slot;
    }
    return slot < size ? slot : size;
  }

  void erase_slot_impl( uint32_t slot )
  {
    if ( dead_[slot] != 0u )
    {
      return;
    }
    dead_[slot] = 1u;
    ++num_dead_;
    slot_of_[id_of_[slot]] = npos;
  }

  void reindex_slots()
  {
    for ( uint32_t slot = 0u; slot < num_slots(); ++slot )
    {
      if ( dead_[slot] == 0u )
      {
        slot_of_[id_of_[slot]] = slot;
      }
    }
  }

  void commit_rewrites( std::vector<pending_insert>& pending )
  {
    if ( pending.empty() && num_dead_ == 0u )
    {
      return;
    }
    /* stable by key keeps the queueing order of same-anchor inserts */
    std::stable_sort( pending.begin(), pending.end(),
                      []( const pending_insert& a, const pending_insert& b ) {
                        return a.key < b.key;
                      } );

    columns_type fresh;
    fresh.reserve( num_gates() + pending.size() );
    std::vector<uint32_t> fresh_ids;
    fresh_ids.reserve( num_gates() + pending.size() );

    size_t next = 0u;
    const auto emit_pending_up_to = [&]( uint32_t key ) {
      while ( next < pending.size() && pending[next].key <= key )
      {
        fresh.push_back( pending[next].gate );
        slot_of_[pending[next].id] = static_cast<uint32_t>( fresh_ids.size() );
        fresh_ids.push_back( pending[next].id );
        ++next;
      }
    };

    for ( uint32_t slot = 0u; slot < num_slots(); ++slot )
    {
      emit_pending_up_to( slot * 2u );
      if ( dead_[slot] == 0u )
      {
        const uint32_t id = id_of_[slot];
        slot_of_[id] = static_cast<uint32_t>( fresh_ids.size() );
        fresh.copy_row_from( cols_, slot );
        fresh_ids.push_back( id );
      }
    }
    emit_pending_up_to( npos );

    cols_ = std::move( fresh );
    id_of_ = std::move( fresh_ids );
    dead_.assign( id_of_.size(), 0u );
    num_dead_ = 0u;
    pending.clear();
  }

  uint32_t num_wires_;
  columns_type cols_;
  std::vector<uint8_t> dead_;     /*!< tombstone flags per slot */
  std::vector<uint32_t> id_of_;   /*!< slot -> handle id */
  std::vector<uint32_t> slot_of_; /*!< handle id -> slot (npos = erased) */
  uint32_t num_dead_ = 0u;
};

} // namespace qda::ir
