/*! \file cliffordt_policy.hpp
 *  \brief Gate policy of the quantum (Clifford+T) circuit level.
 *
 *  Variable-size gate data lives out of line: control qubits go into a
 *  shared operand slab (per-row offset/count), rotation angles into a
 *  deduplicated angle pool (per-row index, `npos` when the gate has no
 *  angle).  Rows are therefore fixed-size and cache-friendly, and the
 *  view type (`qgate_view`) spans the slab instead of copying it.
 *  Replacing a row may strand old slab entries; compaction (`gather`,
 *  driven by the core on rewriter commit) leaves the slab and the pool
 *  dense, in row order.  Columns decoded from a snapshot
 *  (circuit/frozen_circuit.hpp) hold one pool entry per angle row and
 *  an empty lookup until their first compaction, so interning before it
 *  may duplicate a pool value; row values are unaffected.
 */
#pragma once

#include "circuit/circuit.hpp"
#include "quantum/qgate.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

namespace qda::ir
{

struct cliffordt_policy
{
  using gate_type = qgate;
  using view_type = qgate_view;

  struct columns
  {
    std::vector<gate_kind> kind;
    std::vector<uint32_t> target;
    std::vector<uint32_t> target2;
    std::vector<uint32_t> op_offset;   /*!< first control in the slab */
    std::vector<uint32_t> op_count;    /*!< number of controls */
    std::vector<uint32_t> angle_index; /*!< pool index, npos = no angle */

    std::vector<uint32_t> operands; /*!< shared control-qubit slab */
    std::vector<double> angles;     /*!< deduplicated angle pool */

    size_t size() const noexcept { return kind.size(); }

    size_t heap_bytes() const noexcept
    {
      /* hash nodes: key, value and a next pointer, plus the bucket array */
      constexpr size_t node_bytes = sizeof( uint64_t ) + sizeof( uint32_t ) + 2u * sizeof( void* );
      return kind.capacity() * sizeof( gate_kind ) +
             ( target.capacity() + target2.capacity() + op_offset.capacity() +
               op_count.capacity() + angle_index.capacity() + operands.capacity() ) *
                 sizeof( uint32_t ) +
             angles.capacity() * sizeof( double ) + angle_lookup_.size() * node_bytes +
             angle_lookup_.bucket_count() * sizeof( void* );
    }

    void reserve( size_t n )
    {
      kind.reserve( n );
      target.reserve( n );
      target2.reserve( n );
      op_offset.reserve( n );
      op_count.reserve( n );
      angle_index.reserve( n );
    }

    void push_back( const qgate& gate )
    {
      emplace_row( gate.kind, std::span<const uint32_t>( gate.controls ), gate.target,
                   gate.target2, gate.angle );
    }

    void emplace_row( gate_kind kind_, std::span<const uint32_t> controls_, uint32_t target_,
                      uint32_t target2_, double angle_ )
    {
      kind.push_back( kind_ );
      target.push_back( target_ );
      target2.push_back( target2_ );
      op_offset.push_back( static_cast<uint32_t>( operands.size() ) );
      op_count.push_back( static_cast<uint32_t>( controls_.size() ) );
      append_operands( controls_ );
      angle_index.push_back( angle_slot( kind_, angle_ ) );
    }

    void prepend( const qgate& gate )
    {
      kind.insert( kind.begin(), gate.kind );
      target.insert( target.begin(), gate.target );
      target2.insert( target2.begin(), gate.target2 );
      /* slab entries always append; offsets are order-independent */
      op_offset.insert( op_offset.begin(), static_cast<uint32_t>( operands.size() ) );
      op_count.insert( op_count.begin(), static_cast<uint32_t>( gate.controls.size() ) );
      append_operands( std::span<const uint32_t>( gate.controls ) );
      angle_index.insert( angle_index.begin(), angle_slot( gate.kind, gate.angle ) );
    }

    void set_row( uint32_t slot, const qgate& gate )
    {
      kind[slot] = gate.kind;
      target[slot] = gate.target;
      target2[slot] = gate.target2;
      if ( gate.controls.size() <= op_count[slot] )
      {
        /* reuse the row's slab range in place (shrink strands entries
         * until the next compaction) */
        std::copy( gate.controls.begin(), gate.controls.end(),
                   operands.begin() + op_offset[slot] );
      }
      else
      {
        op_offset[slot] = static_cast<uint32_t>( operands.size() );
        operands.insert( operands.end(), gate.controls.begin(), gate.controls.end() );
      }
      op_count[slot] = static_cast<uint32_t>( gate.controls.size() );
      angle_index[slot] = angle_slot( gate.kind, gate.angle );
    }

    void copy_row_from( const columns& src, uint32_t slot )
    {
      kind.push_back( src.kind[slot] );
      target.push_back( src.target[slot] );
      target2.push_back( src.target2[slot] );
      op_offset.push_back( static_cast<uint32_t>( operands.size() ) );
      op_count.push_back( src.op_count[slot] );
      append_operands( src.controls_of( slot ) );
      angle_index.push_back( src.angle_index[slot] == npos
                                 ? npos
                                 : intern_angle( angles, src.angles[src.angle_index[slot]] ) );
    }

    /*! \brief Keeps rows `rows`, in that order (see `gather_column`).
     *  The slab and the pool are rebuilt dense in the new row order, so
     *  stranded controls and unused angles go.
     */
    void gather( std::span<const uint32_t> rows, bool in_place )
    {
      std::vector<uint32_t> offsets( rows.size() );
      uint32_t slab_size = 0u;
      for ( size_t i = 0u; i < rows.size(); ++i )
      {
        offsets[i] = slab_size;
        slab_size += op_count[rows[i]];
      }
      std::vector<uint32_t> slab( slab_size );
      for ( size_t i = 0u; i < rows.size(); ++i )
      {
        const auto from = controls_of( rows[i] );
        std::copy( from.begin(), from.end(), slab.begin() + offsets[i] );
      }
      operands = std::move( slab );
      op_offset = std::move( offsets );
      gather_column( kind, rows, in_place );
      gather_column( target, rows, in_place );
      gather_column( target2, rows, in_place );
      gather_column( op_count, rows, in_place );
      gather_column( angle_index, rows, in_place );
      if ( !angles.empty() )
      {
        std::vector<double> pool;
        angle_lookup_.clear();
        for ( uint32_t& index : angle_index )
        {
          index = index == npos ? npos : intern_angle( pool, angles[index] );
        }
        angles = std::move( pool );
      }
    }

    std::span<const uint32_t> controls_of( uint32_t slot ) const
    {
      return { operands.data() + op_offset[slot], op_count[slot] };
    }

    double angle_of( uint32_t slot ) const
    {
      return angle_index[slot] == npos ? 0.0 : angles[angle_index[slot]];
    }

    qgate_view view( uint32_t slot ) const
    {
      return { kind[slot], controls_of( slot ), target[slot], target2[slot], angle_of( slot ) };
    }

    qgate get( uint32_t slot ) const { return view( slot ).materialize(); }

  private:
    /*! Appends controls to the slab; safe when `controls_` is a view
     *  into this very slab (e.g. `c.add_gate(c.gate(i))` or
     *  self-append), where a plain insert would be UB on reallocation.
     */
    void append_operands( std::span<const uint32_t> controls_ )
    {
      if ( controls_.empty() )
      {
        return;
      }
      const std::less<const uint32_t*> before;
      const bool aliases = !operands.empty() &&
                           !before( controls_.data(), operands.data() ) &&
                           before( controls_.data(), operands.data() + operands.size() );
      if ( aliases )
      {
        const size_t src = static_cast<size_t>( controls_.data() - operands.data() );
        const size_t old_size = operands.size();
        operands.resize( old_size + controls_.size() );
        std::copy( operands.begin() + static_cast<ptrdiff_t>( src ),
                   operands.begin() + static_cast<ptrdiff_t>( src + controls_.size() ),
                   operands.begin() + static_cast<ptrdiff_t>( old_size ) );
        return;
      }
      operands.insert( operands.end(), controls_.begin(), controls_.end() );
    }

    uint32_t angle_slot( gate_kind kind_, double angle_ )
    {
      const bool has_angle = angle_ != 0.0 || kind_ == gate_kind::rx ||
                             kind_ == gate_kind::ry || kind_ == gate_kind::rz ||
                             kind_ == gate_kind::global_phase;
      return has_angle ? intern_angle( angles, angle_ ) : npos;
    }

    /*! Pool index of `angle_` in `pool`, appending it on first sight;
     *  `angle_lookup_` must describe `pool`. */
    uint32_t intern_angle( std::vector<double>& pool, double angle_ )
    {
      uint64_t bits;
      std::memcpy( &bits, &angle_, sizeof( bits ) );
      const auto [it, inserted] =
          angle_lookup_.try_emplace( bits, static_cast<uint32_t>( pool.size() ) );
      if ( inserted )
      {
        pool.push_back( angle_ );
      }
      return it->second;
    }

    std::unordered_map<uint64_t, uint32_t> angle_lookup_; /*!< bit pattern -> pool index */
  };

  static view_type view_at( const columns& cols, uint32_t slot ) { return cols.view( slot ); }

  static bool rows_equal( const columns& a, uint32_t sa, const columns& b, uint32_t sb )
  {
    if ( a.kind[sa] != b.kind[sb] || a.target[sa] != b.target[sb] ||
         a.target2[sa] != b.target2[sb] || a.op_count[sa] != b.op_count[sb] ||
         a.angle_of( sa ) != b.angle_of( sb ) )
    {
      return false;
    }
    const auto ca = a.controls_of( sa );
    const auto cb = b.controls_of( sb );
    return std::equal( ca.begin(), ca.end(), cb.begin() );
  }
};

} // namespace qda::ir
