/*! \file sighting_profile.hpp
 *  \brief Admission rule of the compile server's result cache.
 *
 *  A result is stored on its key's second compile, never its first.  A
 *  key compiled once has saved nothing, so one-shot compiles never pay
 *  for holding their outputs.  The rule is a count, not a measured
 *  cost, so the cache's contents are a function of the request stream
 *  alone and not of host speed.  The profile tracks compiles per key
 *  (sharded, mutex per shard).
 */
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace qda::server
{

/*! \brief Sharded sighting counter. */
class sighting_profile
{
public:
  static constexpr size_t num_shards = 8u;
  /*! Per-shard entry bound; a full shard is reset (the profile is a
   *  heuristic -- losing counts costs re-observation, never safety). */
  static constexpr size_t max_entries_per_shard = 1u << 14u;
  /*! The sighting on which a key is admitted. */
  static constexpr uint64_t admit_sighting = 2u;

  /*! \brief The shard that counts `key`. */
  static size_t shard_index( uint64_t key ) noexcept
  {
    return ( key * 0x9e3779b97f4a7c15ull >> 32u ) % num_shards;
  }

  /*! \brief Records one sighting of `key`; returns its count. */
  uint64_t observe( uint64_t key )
  {
    auto& shard = shards_[shard_index( key )];
    std::lock_guard<std::mutex> guard( shard.mutex );
    if ( shard.sightings.size() >= max_entries_per_shard &&
         shard.sightings.find( key ) == shard.sightings.end() )
    {
      shard.sightings.clear();
    }
    return ++shard.sightings[key];
  }

private:
  struct shard
  {
    std::mutex mutex;
    std::unordered_map<uint64_t, uint64_t> sightings;
  };

  std::array<shard, num_shards> shards_;
};

} // namespace qda::server
