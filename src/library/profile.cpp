#include "library/profile.hpp"

namespace qda::library
{

void region_profile::observe( uint64_t key, double cost_ms )
{
  auto& shard = shard_of( key );
  std::lock_guard<std::mutex> guard( shard.mutex );
  if ( shard.shapes.size() >= max_entries_per_shard &&
       shard.shapes.find( key ) == shard.shapes.end() )
  {
    shard.shapes.clear();
  }
  auto& hotness = shard.shapes[key];
  ++hotness.sightings;
  hotness.total_cost_ms += cost_ms;
}

shape_hotness region_profile::hotness( uint64_t key ) const
{
  auto& shard = shard_of( key );
  std::lock_guard<std::mutex> guard( shard.mutex );
  const auto it = shard.shapes.find( key );
  return it == shard.shapes.end() ? shape_hotness{} : it->second;
}

bool region_profile::is_hot( uint64_t key, double threshold_ms ) const
{
  /* only repeats count: the saving a shape has demonstrated is
   * (sightings - 1) x its mean cost, so the first sighting alone never
   * clears a positive threshold */
  const auto snapshot = hotness( key );
  if ( snapshot.sightings == 0u )
  {
    return false;
  }
  const double mean_ms = snapshot.total_cost_ms / static_cast<double>( snapshot.sightings );
  return static_cast<double>( snapshot.sightings - 1u ) * mean_ms >= threshold_ms;
}

void region_profile::observe_pass( const std::string& name, double elapsed_ms )
{
  std::lock_guard<std::mutex> guard( pass_mutex_ );
  auto& cost = passes_[name];
  ++cost.runs;
  cost.total_ms += elapsed_ms;
}

std::map<std::string, pass_cost> region_profile::pass_costs() const
{
  std::lock_guard<std::mutex> guard( pass_mutex_ );
  return { passes_.begin(), passes_.end() };
}

void region_profile::clear()
{
  for ( auto& shard : shards_ )
  {
    std::lock_guard<std::mutex> guard( shard.mutex );
    shard.shapes.clear();
  }
  std::lock_guard<std::mutex> guard( pass_mutex_ );
  passes_.clear();
}

} // namespace qda::library
