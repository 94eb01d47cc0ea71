#include "library/profile.hpp"

namespace qda::library
{

uint64_t sighting_profile::observe( uint64_t key )
{
  auto& shard = shard_of( key );
  std::lock_guard<std::mutex> guard( shard.mutex );
  if ( shard.sightings.size() >= max_entries_per_shard &&
       shard.sightings.find( key ) == shard.sightings.end() )
  {
    shard.sightings.clear();
  }
  return ++shard.sightings[key];
}

void sighting_profile::clear()
{
  for ( auto& shard : shards_ )
  {
    std::lock_guard<std::mutex> guard( shard.mutex );
    shard.sightings.clear();
  }
}

} // namespace qda::library
