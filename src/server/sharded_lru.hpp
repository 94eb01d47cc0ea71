/*! \file sharded_lru.hpp
 *  \brief Sharded, mutex-per-shard LRU map keyed on structural keys.
 *
 *  The concurrency primitive under both halves of the compile server's
 *  caching (server/sharded_cache.hpp for whole results,
 *  server/prefix_cache.hpp for mid-pipeline snapshots): the key space
 *  is partitioned over independent shards so concurrent workers only
 *  contend when they touch the same partition, and each shard keeps a
 *  true-LRU recency list (touch-on-hit) with its own hit/miss/eviction
 *  counters.
 */
#pragma once

#include "pipeline/compilation_cache.hpp"

#include <algorithm>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace qda::server
{

/*! \brief Counters of one shard (also used as the aggregate view). */
struct shard_statistics
{
  uint64_t hits = 0u;
  uint64_t misses = 0u;
  uint64_t evictions = 0u;
  uint64_t entries = 0u;
  uint64_t bytes = 0u; /*!< heap bytes the held values reported at insert */
  uint64_t gates = 0u; /*!< gates the held values reported at insert */
};

/*! \brief Sharded LRU map from `structural_key` to shared values. */
template<typename Value>
class sharded_lru
{
public:
  /*! \brief `num_shards` partitions (rounded up to at least 1);
   *         `capacity` entries in total, distributed evenly (each shard
   *         holds at least one).
   */
  sharded_lru( size_t num_shards, size_t capacity )
      : shards_( std::max<size_t>( num_shards, 1u ) )
  {
    const auto per_shard = std::max<size_t>( ( capacity + shards_.size() - 1u ) / shards_.size(), 1u );
    for ( auto& shard : shards_ )
    {
      shard.capacity = capacity == 0u ? 0u : per_shard;
    }
  }

  /*! \brief Returns the value, or nullptr; a hit refreshes recency and
   *         counts on the owning shard.
   */
  std::shared_ptr<const Value> find( const structural_key& key )
  {
    auto& shard = shard_of( key );
    std::lock_guard<std::mutex> guard( shard.mutex );
    const auto it = shard.index.find( key.primary );
    if ( it == shard.index.end() || !( it->second->key == key ) )
    {
      ++shard.stats.misses;
      return nullptr;
    }
    ++shard.stats.hits;
    shard.order.splice( shard.order.begin(), shard.order, it->second );
    return it->second->value;
  }

  /*! \brief True when `key` is present; counts nothing, touches nothing
   *         (used to skip redundant snapshot copies).
   */
  bool contains( const structural_key& key ) const
  {
    const auto& shard = shard_of( key );
    std::lock_guard<std::mutex> guard( shard.mutex );
    const auto it = shard.index.find( key.primary );
    return it != shard.index.end() && it->second->key == key;
  }

  /*! \brief Inserts (or refreshes) `value`, evicting LRU entries beyond
   *         the shard capacity.  `bytes` and `gates` are what the
   *         value holds; the shard sums them into its statistics.
   *         Returns how many entries were evicted.
   */
  size_t insert( const structural_key& key, std::shared_ptr<const Value> value,
                 uint64_t bytes = 0u, uint64_t gates = 0u )
  {
    auto& shard = shard_of( key );
    std::lock_guard<std::mutex> guard( shard.mutex );
    if ( shard.capacity == 0u )
    {
      return 0u;
    }
    const auto it = shard.index.find( key.primary );
    if ( it != shard.index.end() )
    {
      shard.stats.bytes += bytes - it->second->bytes;
      shard.stats.gates += gates - it->second->gates;
      *it->second = { key, std::move( value ), bytes, gates };
      shard.order.splice( shard.order.begin(), shard.order, it->second );
      return 0u;
    }
    shard.order.push_front( { key, std::move( value ), bytes, gates } );
    shard.index.emplace( key.primary, shard.order.begin() );
    shard.stats.bytes += bytes;
    shard.stats.gates += gates;
    size_t evicted = 0u;
    while ( shard.order.size() > shard.capacity )
    {
      shard.index.erase( shard.order.back().key.primary );
      shard.stats.bytes -= shard.order.back().bytes;
      shard.stats.gates -= shard.order.back().gates;
      shard.order.pop_back();
      ++shard.stats.evictions;
      ++evicted;
    }
    return evicted;
  }

  /*! \brief Per-shard counter snapshot. */
  std::vector<shard_statistics> per_shard_statistics() const
  {
    std::vector<shard_statistics> out;
    out.reserve( shards_.size() );
    for ( const auto& shard : shards_ )
    {
      std::lock_guard<std::mutex> guard( shard.mutex );
      auto stats = shard.stats;
      stats.entries = shard.order.size();
      out.push_back( stats );
    }
    return out;
  }

  /*! \brief Counters summed over every shard. */
  shard_statistics statistics() const
  {
    shard_statistics total;
    for ( const auto& stats : per_shard_statistics() )
    {
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.evictions += stats.evictions;
      total.entries += stats.entries;
      total.bytes += stats.bytes;
      total.gates += stats.gates;
    }
    return total;
  }

  size_t num_shards() const noexcept { return shards_.size(); }

  void clear()
  {
    for ( auto& shard : shards_ )
    {
      std::lock_guard<std::mutex> guard( shard.mutex );
      shard.order.clear();
      shard.index.clear();
      shard.stats = shard_statistics{};
    }
  }

private:
  struct entry
  {
    structural_key key;
    std::shared_ptr<const Value> value;
    uint64_t bytes = 0u;
    uint64_t gates = 0u;
  };

  struct shard
  {
    mutable std::mutex mutex;
    size_t capacity = 0u;
    std::list<entry> order;
    std::unordered_map<uint64_t, typename decltype( order )::iterator> index;
    shard_statistics stats;
  };

  shard& shard_of( const structural_key& key )
  {
    /* mix the high bits so sequential primaries spread over shards */
    return shards_[( key.primary * 0x9e3779b97f4a7c15ull >> 32u ) % shards_.size()];
  }
  const shard& shard_of( const structural_key& key ) const
  {
    return const_cast<sharded_lru*>( this )->shard_of( key );
  }

  std::vector<shard> shards_;
};

} // namespace qda::server
