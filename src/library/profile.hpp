/*! \file profile.hpp
 *  \brief TraceAtlas-style hotness profile of the subcircuit library.
 *
 *  Admission into the library is profile-gated: a shape is stored on
 *  its second sighting, never its first.  A shape seen once has saved
 *  nothing, so one-shot compiles never pay for copying their outputs
 *  into the library.  The gate is a count, not a measured cost, so the
 *  library's contents are a function of the request stream alone and
 *  not of host speed.  The profile tracks sightings per fingerprint
 *  (sharded, mutex per shard).
 */
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace qda::library
{

/*! \brief Sharded sighting counter. */
class sighting_profile
{
public:
  static constexpr size_t num_shards = 8u;
  /*! Per-shard entry bound; a full shard is reset (the profile is a
   *  heuristic -- losing counts costs re-observation, never safety). */
  static constexpr size_t max_entries_per_shard = 1u << 14u;
  /*! The sighting on which a shape is admitted. */
  static constexpr uint64_t admit_sighting = 2u;

  /*! \brief Records one sighting of shape `key`; returns its count. */
  uint64_t observe( uint64_t key );

  void clear();

private:
  struct shard
  {
    std::mutex mutex;
    std::unordered_map<uint64_t, uint64_t> sightings;
  };

  shard& shard_of( uint64_t key )
  {
    return shards_[( key * 0x9e3779b97f4a7c15ull >> 32u ) % num_shards];
  }

  std::array<shard, num_shards> shards_;
};

} // namespace qda::library
