#include "server/sharded_cache.hpp"

#include "fault/failpoint.hpp"
#include "pipeline/pass_manager.hpp"
#include "telemetry/metrics.hpp"

namespace qda::server
{

sharded_compilation_cache::sharded_compilation_cache( size_t num_shards, size_t capacity )
    : map_( num_shards, capacity )
{
}

std::shared_ptr<const compilation_result>
sharded_compilation_cache::lookup( const structural_key& key )
{
  QDA_FAILPOINT( "cache.lookup" );
  auto result = map_.find( key );
  if ( result )
  {
    QDA_COUNT( "pipeline.cache.hit" );
    QDA_COUNT( "server.cache.hit" );
  }
  else
  {
    QDA_COUNT( "pipeline.cache.miss" );
    QDA_COUNT( "server.cache.miss" );
  }
  return result;
}

void sharded_compilation_cache::store( const structural_key& key,
                                       std::shared_ptr<const compilation_result> result )
{
  QDA_FAILPOINT( "cache.store" );
  const auto bytes = result->heap_bytes();
  const auto gates = result->ir.num_gates();
  const auto evicted = map_.insert( key, std::move( result ), bytes, gates );
  QDA_COUNT_N( "pipeline.cache.evict", evicted );
}

cache_statistics sharded_compilation_cache::statistics() const
{
  const auto total = map_.statistics();
  return { total.hits, total.misses, total.evictions, total.entries, total.bytes };
}

void sharded_compilation_cache::clear()
{
  map_.clear();
}

} // namespace qda::server
