/*! \file profile.hpp
 *  \brief TraceAtlas-style hotness profile of the subcircuit library.
 *
 *  Admission into the library is profile-gated: a shape is only worth
 *  storing when the saving its repeats have demonstrated -- repeat
 *  sightings times the mean cost of optimizing it once -- clears a
 *  threshold.  A shape seen once has saved nothing, so one-shot
 *  compiles never pay for copying their outputs into the library.  The
 *  profile tracks sightings and cumulative cost per fingerprint
 *  (sharded, mutex per shard), plus an aggregate per-pass cost table
 *  fed by the pass manager so the serving layer can report where
 *  compile time goes and which passes the library is amortizing.
 */
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace qda::library
{

/*! \brief Sightings and cumulative optimization cost of one shape. */
struct shape_hotness
{
  uint64_t sightings = 0u;
  double total_cost_ms = 0.0;
};

/*! \brief Aggregate cost of one pass across profiled compilations. */
struct pass_cost
{
  uint64_t runs = 0u;
  double total_ms = 0.0;
};

/*! \brief Sharded frequency-times-cost profile. */
class region_profile
{
public:
  static constexpr size_t num_shards = 8u;
  /*! Per-shard entry bound; a full shard is reset (the profile is a
   *  heuristic -- losing counts costs re-observation, never safety). */
  static constexpr size_t max_entries_per_shard = 1u << 14u;

  /*! \brief Records one sighting of shape `key` costing `cost_ms`. */
  void observe( uint64_t key, double cost_ms );

  /*! \brief Hotness snapshot of shape `key` (zeros when unseen). */
  shape_hotness hotness( uint64_t key ) const;

  /*! \brief True when `(sightings - 1) x mean cost` has cleared
   *         `threshold_ms`; a zero threshold admits the first sighting. */
  bool is_hot( uint64_t key, double threshold_ms ) const;

  /*! \brief Records one executed pass (pass-manager hook). */
  void observe_pass( const std::string& name, double elapsed_ms );

  /*! \brief Pass-name -> aggregate cost, sorted by name. */
  std::map<std::string, pass_cost> pass_costs() const;

  void clear();

private:
  struct shard
  {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, shape_hotness> shapes;
  };

  shard& shard_of( uint64_t key ) const
  {
    return shards_[( key * 0x9e3779b97f4a7c15ull >> 32u ) % num_shards];
  }

  mutable std::array<shard, num_shards> shards_;
  mutable std::mutex pass_mutex_;
  std::unordered_map<std::string, pass_cost> passes_;
};

} // namespace qda::library
