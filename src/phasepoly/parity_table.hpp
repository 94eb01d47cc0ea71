/*! \file parity_table.hpp
 *  \brief Flat open-addressing hash table keyed by parity labels.
 *
 *  The term-accumulation hot path of the phase-polynomial subsystem:
 *  every phase gate looks up its qubit's parity label and either merges
 *  into an existing term or allocates a fresh one.  The previous
 *  stand-in used `std::map<std::pair<u64,u64>, ...>`, whose node
 *  allocations and O(log n) pointer chases dominated `tpar` wall time
 *  (67% of hwb-8 compile time).  This table stores buckets flat
 *  (cached hash + dense term index), probes linearly, and keeps the
 *  keys in a dense side vector whose indices double as term ids.
 *
 *  The key type is a parameter: region extraction keys on `bitvec`
 *  (`parity_table`), whole-circuit folding on its inline sorted
 *  variable-id sets (fold.cpp).  A key needs `hash()` and `==`.
 */
#pragma once

#include "kernel/bits.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace qda::phasepoly
{

/*! \brief Maps parity labels to dense indices 0..size()-1. */
template<typename Key>
class basic_parity_table
{
public:
  static constexpr uint32_t npos = 0xffffffffu;

  explicit basic_parity_table( uint32_t expected_terms = 16u )
  {
    size_t capacity = 16u;
    while ( capacity < 2u * static_cast<size_t>( expected_terms ) )
    {
      capacity *= 2u;
    }
    buckets_.assign( capacity, bucket{ 0u, npos } );
    keys_.reserve( expected_terms );
  }

  uint32_t size() const noexcept { return static_cast<uint32_t>( keys_.size() ); }

  const Key& key( uint32_t index ) const noexcept { return keys_[index]; }

  /*! \brief Index of `key`, or npos when absent. */
  uint32_t find( const Key& key ) const noexcept
  {
    const auto hash = static_cast<uint32_t>( key.hash() );
    const size_t mask = buckets_.size() - 1u;
    for ( size_t probe = hash & mask;; probe = ( probe + 1u ) & mask )
    {
      const bucket& b = buckets_[probe];
      if ( b.index == npos )
      {
        return npos;
      }
      if ( b.hash == hash && keys_[b.index] == key )
      {
        return b.index;
      }
    }
  }

  /*! \brief Index of `key`, inserting it when absent; second is true on
   *         insertion (the new index is size()-1).
   */
  std::pair<uint32_t, bool> find_or_insert( const Key& key )
  {
    if ( 2u * ( keys_.size() + 1u ) > buckets_.size() )
    {
      grow();
    }
    const auto hash = static_cast<uint32_t>( key.hash() );
    const size_t mask = buckets_.size() - 1u;
    for ( size_t probe = hash & mask;; probe = ( probe + 1u ) & mask )
    {
      bucket& b = buckets_[probe];
      if ( b.index == npos )
      {
        b.hash = hash;
        b.index = static_cast<uint32_t>( keys_.size() );
        keys_.push_back( key );
        return { b.index, true };
      }
      if ( b.hash == hash && keys_[b.index] == key )
      {
        return { b.index, false };
      }
    }
  }

private:
  struct bucket
  {
    uint32_t hash;  /*!< cached low hash bits of the key (probes start there) */
    uint32_t index; /*!< dense key index, npos = empty */
  };

  void grow()
  {
    std::vector<bucket> old = std::move( buckets_ );
    buckets_.assign( old.size() * 2u, bucket{ 0u, npos } );
    const size_t mask = buckets_.size() - 1u;
    for ( const bucket& b : old )
    {
      if ( b.index == npos )
      {
        continue;
      }
      size_t probe = b.hash & mask;
      while ( buckets_[probe].index != npos )
      {
        probe = ( probe + 1u ) & mask;
      }
      buckets_[probe] = b;
    }
  }

  std::vector<bucket> buckets_;
  std::vector<Key> keys_;
};

/*! \brief The table over dynamic-width `bitvec` parities. */
using parity_table = basic_parity_table<bitvec>;

} // namespace qda::phasepoly
