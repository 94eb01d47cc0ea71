/*! \file prefix_cache.hpp
 *  \brief Cross-job cache of mid-pipeline IR snapshots.
 *
 *  Every compilation the server executes snapshots its staged IR after
 *  each pass, keyed by the structural hash of (pipeline prefix, input).
 *  A later job whose spec shares a leading pass sequence with any prior
 *  job -- `revgen --hwb 6; tbs; revsimp; rptm; tpar` after
 *  `revgen --hwb 6; tbs; revsimp; rptm; peephole` -- resumes from the
 *  deepest cached snapshot instead of recompiling the shared prefix
 *  from scratch.  Storage is a `sharded_lru`, so snapshot harvesting
 *  and probing scale with the worker pool.
 *
 *  Snapshots are admitted on first sighting, so they must be cheap to
 *  hold: each is a `frozen_ir` (pipeline/ir.hpp) whose circuits are
 *  byte-packed into immutable allocations (2.4 bytes per Clifford+T gate),
 *  not a live `staged_ir` copy with tombstones and per-row columns
 *  (about 25).  The pass reports of a prefix are a shared, immutable
 *  chain: snapshot k of a job links one report to snapshot k-1's chain
 *  instead of copying all k.  A resumed job thaws its snapshot, unrolls
 *  the chain into the report vector `pass_manager` replays, and
 *  compiles exactly as a cold job does.
 */
#pragma once

#include "pipeline/pass_manager.hpp"
#include "server/sharded_lru.hpp"

#include <memory>
#include <vector>

namespace qda::server
{

/*! \brief One link of a report chain: a pass's report after the chain
 *         of the passes before it.  Links are immutable and shared by
 *         every snapshot (and every resumed job) whose prefix they
 *         start. */
struct report_link
{
  pass_report report;
  std::shared_ptr<const report_link> previous;
  size_t depth = 1u; /*!< reports on the chain, this one included */
};

/*! \brief The reports of a pipeline prefix, newest last (null = none). */
using report_chain = std::shared_ptr<const report_link>;

inline size_t chain_depth( const report_chain& chain ) noexcept
{
  return chain ? chain->depth : 0u;
}

/*! \brief `chain` followed by `reports[chain_depth( chain ) ..]`. */
inline report_chain extend_chain( report_chain chain, const std::vector<pass_report>& reports )
{
  for ( size_t i = chain_depth( chain ); i < reports.size(); ++i )
  {
    chain = std::make_shared<const report_link>(
        report_link{ reports[i], std::move( chain ), i + 1u } );
  }
  return chain;
}

/*! \brief The reports of `chain`, oldest first. */
inline std::vector<pass_report> unroll_chain( const report_chain& chain )
{
  std::vector<pass_report> reports( chain_depth( chain ) );
  for ( const report_link* link = chain.get(); link != nullptr; link = link->previous.get() )
  {
    reports[link->depth - 1u] = link->report;
  }
  return reports;
}

/*! \brief One resumable snapshot: the IR after a pipeline prefix plus
 *         the chain of the reports of the passes that produced it. */
struct prefix_entry
{
  frozen_ir ir;
  report_chain reports;

  /*! \brief Heap bytes held: the snapshot plus the chain's newest link.
   *         Older links are shared, and each is counted by the
   *         snapshot that added it. */
  size_t heap_bytes() const noexcept
  {
    size_t bytes = ir.heap_bytes();
    if ( reports )
    {
      const auto& report = reports->report;
      bytes += sizeof( report_link ) + report.name.capacity() + report.arguments.capacity() +
               report.degraded_reason.capacity();
    }
    return bytes;
  }
};

/*! \brief What a prefix probe found. */
struct prefix_match
{
  size_t passes = 0u; /*!< length of the cached prefix; 0 = no match */
  std::shared_ptr<const prefix_entry> entry;
};

class prefix_cache
{
public:
  prefix_cache( size_t num_shards, size_t capacity ) : map_( num_shards, capacity ) {}

  /*! \brief Probes for the *deepest* cached prefix of `spec` (over the
   *         given input keys), longest first.  `prefix_keys[i]` must be
   *         the structural key of the first `i` passes; only indexes
   *         `1 .. spec.size()-1` are probed (a full match is the result
   *         cache's job).
   */
  prefix_match find_longest( const std::vector<structural_key>& prefix_keys )
  {
    if ( prefix_keys.size() < 2u )
    {
      return {};
    }
    for ( size_t len = prefix_keys.size() - 1u; len >= 1u; --len )
    {
      if ( auto entry = map_.find( prefix_keys[len] ) )
      {
        return { len, std::move( entry ) };
      }
    }
    return {};
  }

  /*! \brief Stores a snapshot for the prefix of length `passes` (no-op
   *         if an entry already exists -- snapshots of one prefix are
   *         interchangeable).
   */
  void store( const structural_key& key, prefix_entry entry )
  {
    if ( map_.contains( key ) )
    {
      return;
    }
    const auto bytes = entry.heap_bytes();
    const auto gates = entry.ir.num_gates();
    map_.insert( key, std::make_shared<const prefix_entry>( std::move( entry ) ), bytes, gates );
  }

  bool contains( const structural_key& key ) const { return map_.contains( key ); }

  shard_statistics statistics() const { return map_.statistics(); }
  std::vector<shard_statistics> per_shard_statistics() const
  {
    return map_.per_shard_statistics();
  }
  void clear() { map_.clear(); }

private:
  sharded_lru<prefix_entry> map_;
};

} // namespace qda::server
