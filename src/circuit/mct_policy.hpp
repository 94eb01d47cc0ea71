/*! \file mct_policy.hpp
 *  \brief Gate policy of the reversible (MCT) circuit level.
 *
 *  Rows are fixed-size (control mask, polarity mask, target line), so
 *  the struct-of-arrays columns need no operand slab: each field is one
 *  dense vector, mask comparisons stay O(1), and the view type is the
 *  materialized `rev_gate` itself (a 3-word POD copy, no allocation).
 */
#pragma once

#include "circuit/circuit.hpp"
#include "reversible/rev_gate.hpp"

#include <cstdint>
#include <vector>

namespace qda::ir
{

struct mct_policy
{
  using gate_type = rev_gate;
  using view_type = rev_gate; /* POD row: "view" is a trivial copy */

  struct columns
  {
    std::vector<uint64_t> controls;
    std::vector<uint64_t> polarity;
    std::vector<uint32_t> target;

    size_t size() const noexcept { return target.size(); }

    size_t heap_bytes() const noexcept
    {
      return ( controls.capacity() + polarity.capacity() ) * sizeof( uint64_t ) +
             target.capacity() * sizeof( uint32_t );
    }

    void reserve( size_t n )
    {
      controls.reserve( n );
      polarity.reserve( n );
      target.reserve( n );
    }

    void push_back( const rev_gate& gate )
    {
      emplace_row( gate.controls, gate.polarity, gate.target );
    }

    void emplace_row( uint64_t controls_, uint64_t polarity_, uint32_t target_ )
    {
      controls.push_back( controls_ );
      polarity.push_back( polarity_ );
      target.push_back( target_ );
    }

    void prepend( const rev_gate& gate )
    {
      controls.insert( controls.begin(), gate.controls );
      polarity.insert( polarity.begin(), gate.polarity );
      target.insert( target.begin(), gate.target );
    }

    void set_row( uint32_t slot, const rev_gate& gate )
    {
      controls[slot] = gate.controls;
      polarity[slot] = gate.polarity;
      target[slot] = gate.target;
    }

    void copy_row_from( const columns& src, uint32_t slot )
    {
      emplace_row( src.controls[slot], src.polarity[slot], src.target[slot] );
    }

    /*! \brief Keeps rows `rows`, in that order (see `gather_column`). */
    void gather( std::span<const uint32_t> rows, bool in_place )
    {
      gather_column( controls, rows, in_place );
      gather_column( polarity, rows, in_place );
      gather_column( target, rows, in_place );
    }

    rev_gate get( uint32_t slot ) const
    {
      rev_gate gate;
      gate.controls = controls[slot];
      gate.polarity = polarity[slot];
      gate.target = target[slot];
      return gate;
    }
  };

  static view_type view_at( const columns& cols, uint32_t slot ) { return cols.get( slot ); }

  static bool rows_equal( const columns& a, uint32_t sa, const columns& b, uint32_t sb )
  {
    return a.controls[sa] == b.controls[sb] && a.polarity[sa] == b.polarity[sb] &&
           a.target[sa] == b.target[sb];
  }
};

} // namespace qda::ir
