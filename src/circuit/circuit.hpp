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
 *   - O(1) tombstone erasure with deferred compaction, so erase-heavy
 *     passes never pay the O(n) vector-erase memmove of the old split
 *     containers,
 *   - zero-copy `gates_view` iteration yielding the policy's view type
 *     (a POD row for MCT gates, a span-backed `qgate_view` for
 *     Clifford+T gates),
 *   - a batching `rewriter` (`erase_slot`, `replace_slot`,
 *     `insert_before/after_slot`, `append`, `commit`) so passes mutate
 *     in place instead of copy-rebuilding whole gate vectors.
 *
 *  A gate is named by its slot; there are no stable ids, so a row costs
 *  its columns plus one tombstone byte.  Invalidation rules: tombstone
 *  erasure and in-place replacement keep iterators and slot indices
 *  valid; pending rewriter inserts are not visible until `commit()`,
 *  which compacts storage column by column and invalidates slots and
 *  iterators.  Appending may reallocate the operand slab, so
 *  span-backed views must not be kept across any mutation.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

namespace qda::ir
{

/*! \brief Sentinel for "no slot / no pool entry". */
inline constexpr uint32_t npos = 0xFFFFFFFFu;

/*! \brief Rebuilds `column` as its entries `rows[0], rows[1], ...`.
 *
 *  With `in_place`, `rows` must ascend (an erase-only commit): each
 *  survivor slides down over a row already read, and the capacity is
 *  kept unless more than 1/8 of it would stay empty (a cached result
 *  should not hold a pass's erased rows).  Otherwise the gather fills
 *  a fresh, exactly sized vector.
 */
template<typename T>
void gather_column( std::vector<T>& column, std::span<const uint32_t> rows, bool in_place )
{
  if ( in_place )
  {
    for ( size_t i = 0u; i < rows.size(); ++i )
    {
      column[i] = column[rows[i]];
    }
    column.resize( rows.size() );
    if ( column.capacity() - column.size() > column.size() / 8u )
    {
      column.shrink_to_fit();
    }
    return;
  }
  std::vector<T> out( rows.size() );
  for ( size_t i = 0u; i < rows.size(); ++i )
  {
    out[i] = column[rows[i]];
  }
  column = std::move( out );
}

/*! \brief Unified circuit container parameterized by a gate policy.
 *
 *  The policy provides:
 *   - `gate_type`: the materialized value type (e.g. `rev_gate`),
 *   - `view_type`: what iteration yields (value or zero-copy proxy),
 *   - `columns`: SoA storage with `size/reserve/push_back/set_row/
 *     copy_row_from/prepend/gather/get`,
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
   *         row is alive and gate `i` sits at slot `i`.  Snapshot
   *         decoders (`frozen_circuit::thaw`) fill the columns in bulk
   *         and hand them over here, with no per-row emplace.
   */
  circuit( uint32_t num_wires, columns_type cols )
      : num_wires_( num_wires ), cols_( std::move( cols ) ), dead_( cols_.size(), 0u )
  {
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

  /* ---- construction ---- */

  void append( const gate_type& gate )
  {
    cols_.push_back( gate );
    dead_.push_back( 0u );
  }

  /*! \brief In-place row construction from policy-specific parts,
   *         skipping `gate_type` materialization on builder hot paths.
   */
  template<typename... Args>
  void emplace( Args&&... args )
  {
    cols_.emplace_row( std::forward<Args>( args )... );
    dead_.push_back( 0u );
  }

  /*! \brief O(n) front insertion (rare; bidirectional synthesis); every
   *         existing gate moves up one slot.
   */
  void prepend( const gate_type& gate )
  {
    cols_.prepend( gate );
    dead_.insert( dead_.begin(), 0u );
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
        dead_.push_back( 0u );
      }
    }
  }

  /*! \brief Heap bytes held: the policy columns plus the tombstone
   *         flags, by capacity.
   */
  size_t heap_bytes() const noexcept
  {
    return cols_.heap_bytes() + dead_.capacity() * sizeof( uint8_t );
  }

  /*! \brief Reserves room for `n` rows in every per-row vector. */
  void reserve( size_t n )
  {
    cols_.reserve( n );
    dead_.reserve( n );
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
     *         Idempotent.
     */
    void erase_slot( uint32_t slot ) { c_->erase_slot_impl( slot ); }

    /*! \brief In-place overwrite; the gate keeps its slot. */
    void replace_slot( uint32_t slot, const gate_type& gate ) { c_->cols_.set_row( slot, gate ); }

    /*! \brief Queues `gate` before/after `slot`; visible after commit().
     *         Inserts at one anchor keep their queueing order.
     */
    void insert_before_slot( uint32_t slot, const gate_type& gate ) { queue( slot * 2u, gate ); }
    void insert_before_slot( uint32_t slot, gate_type&& gate )
    {
      queue( slot * 2u, std::move( gate ) );
    }
    void insert_after_slot( uint32_t slot, const gate_type& gate )
    {
      queue( slot * 2u + 1u, gate );
    }

    /*! \brief Queues `gate` at the end of the circuit. */
    void append( const gate_type& gate ) { queue( npos, gate ); }

    /*! \brief Applies queued inserts and compacts tombstones.  Slot
     *         indices and iterators are invalidated.
     */
    void commit() { c_->commit_rewrites( pending_ ); }

  private:
    friend class circuit;
    explicit rewriter( circuit* c ) : c_( c ) {}

    template<typename Gate>
    void queue( uint32_t key, Gate&& gate )
    {
      pending_.push_back( { key, std::forward<Gate>( gate ) } );
    }

    circuit* c_;
    std::vector<typename circuit::pending_insert> pending_;
  };

  rewriter rewrite() { return rewriter( this ); }

  /*! \brief Removes tombstoned rows; later slots shift down. */
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
    gate_type gate;
  };

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
  }

  /*! Compacts tombstones and splices queued inserts column by column.
   *  An erase-only batch slides the survivors down in place.  Otherwise
   *  the inserts are appended as rows and one gather in final order
   *  builds fresh columns.  Survivors keep their order, and the policy
   *  leaves its shared pools dense.
   */
  void commit_rewrites( std::vector<pending_insert>& pending )
  {
    if ( pending.empty() && num_dead_ == 0u )
    {
      return;
    }
    const uint32_t slots = num_slots();
    std::vector<uint32_t> rows;
    rows.reserve( num_gates() + pending.size() );
    if ( pending.empty() )
    {
      for ( uint32_t slot = 0u; slot < slots; ++slot )
      {
        if ( dead_[slot] == 0u )
        {
          rows.push_back( slot );
        }
      }
      cols_.gather( rows, true );
    }
    else
    {
      /* stable by key keeps the queueing order of same-anchor inserts */
      std::stable_sort( pending.begin(), pending.end(),
                        []( const pending_insert& a, const pending_insert& b ) {
                          return a.key < b.key;
                        } );
      for ( const auto& insert : pending )
      {
        cols_.push_back( insert.gate ); /* row slots + i is pending[i] */
      }
      uint32_t next = 0u;
      const auto emit_pending_up_to = [&]( uint32_t key ) {
        for ( ; next < pending.size() && pending[next].key <= key; ++next )
        {
          rows.push_back( slots + next );
        }
      };
      for ( uint32_t slot = 0u; slot < slots; ++slot )
      {
        emit_pending_up_to( slot * 2u );
        if ( dead_[slot] == 0u )
        {
          rows.push_back( slot );
        }
      }
      emit_pending_up_to( npos );
      cols_.gather( rows, false );
    }
    dead_.assign( rows.size(), 0u );
    num_dead_ = 0u;
    pending.clear();
  }

  uint32_t num_wires_;
  columns_type cols_;
  std::vector<uint8_t> dead_; /*!< tombstone flags per slot */
  uint32_t num_dead_ = 0u;
};

} // namespace qda::ir
