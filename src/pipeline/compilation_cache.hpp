/*! \file compilation_cache.hpp
 *  \brief Structural compilation keys and pluggable result-cache backends.
 *
 *  The pass manager memoizes whole compilations keyed on a *structural*
 *  fingerprint of the post-parse input: the canonical `pipeline_spec`
 *  (whitespace, empty segments and argument order are normalized away
 *  by the parser) plus the content of the initial `staged_ir`.  Two
 *  spec strings that parse to the same pipeline over the same input
 *  therefore share one cache entry -- `"revgen --hwb 6;tbs"` and
 *  `" revgen  --hwb 6 ; tbs "` dedup, as do reordered equivalent
 *  flags.
 *
 *  The cache itself is a backend interface so callers can swap the
 *  storage policy: `lru_compilation_cache` is the built-in single-lock
 *  true-LRU backend (touch-on-hit), and the compile server provides a
 *  sharded variant (`server/sharded_cache.hpp`) for concurrent
 *  workloads.
 */
#pragma once

#include "pipeline/ir.hpp"
#include "pipeline/spec_parser.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace qda
{

struct compilation_result; /* pipeline/pass_manager.hpp */

/*! \brief 128-bit structural fingerprint of one compilation input.
 *
 *  Two independently seeded 64-bit FNV-1a hashes over the same byte
 *  stream; a stale cache hit requires both halves to collide at once.
 */
struct structural_key
{
  uint64_t primary = 0u; /*!< shard/bucket selector */
  uint64_t check = 0u;   /*!< independent collision check */

  bool operator==( const structural_key& other ) const noexcept
  {
    return primary == other.primary && check == other.check;
  }
  bool operator!=( const structural_key& other ) const noexcept
  {
    return !( *this == other );
  }
};

/*! \brief Hash functor for keying containers on `structural_key`. */
struct structural_key_hash
{
  size_t operator()( const structural_key& key ) const noexcept
  {
    return static_cast<size_t>( key.primary ^ ( key.check * 0x9e3779b97f4a7c15ull ) );
  }
};

/*! \brief Structural fingerprint of (canonical spec, initial IR). */
structural_key compute_structural_key( const pipeline_spec& spec, const staged_ir& initial );

/*! \brief Fingerprint of a raw spec string with no normalization; the
 *         pre-server exact-text keying, kept as an ablation baseline
 *         (`bench_serve` measures the hit-rate gap against structural
 *         keying).
 */
structural_key compute_text_key( const std::string& raw_spec_text );

/*! \brief Compilation cache counters.
 *
 *  `hits`/`misses` count lookups, `evictions` counts entries dropped by
 *  the capacity bound, `entries` is the current size and `bytes` what
 *  the entries hold.
 */
struct cache_statistics
{
  uint64_t hits = 0u;
  uint64_t misses = 0u;
  uint64_t evictions = 0u;
  uint64_t entries = 0u;
  uint64_t bytes = 0u; /*!< heap bytes held by the entries (0 if untracked) */
};

/*! \brief Pluggable memoization backend of the pass manager.
 *
 *  Implementations must be safe for concurrent use: one pass manager
 *  (and the compile server built on it) calls `lookup`/`store` from
 *  many worker threads at once.
 */
class compilation_cache
{
public:
  virtual ~compilation_cache() = default;

  /*! \brief Returns the cached result, or nullptr; a hit refreshes the
   *         entry's recency.  Counts one hit or one miss.
   */
  virtual std::shared_ptr<const compilation_result> lookup( const structural_key& key ) = 0;

  /*! \brief Inserts (or refreshes) `result` under `key`, evicting the
   *         least-recently-used entries beyond capacity.
   */
  virtual void store( const structural_key& key,
                      std::shared_ptr<const compilation_result> result ) = 0;

  virtual cache_statistics statistics() const = 0;

  /*! \brief Drops every entry and zeroes the counters. */
  virtual void clear() = 0;
};

/*! \brief Built-in single-mutex true-LRU backend.
 *
 *  Replaces the original FIFO `std::map` + insertion-order deque: a
 *  hit moves the entry to the front of the recency list, so hot
 *  entries survive capacity pressure regardless of insertion order.
 */
class lru_compilation_cache final : public compilation_cache
{
public:
  explicit lru_compilation_cache( size_t max_entries );

  std::shared_ptr<const compilation_result> lookup( const structural_key& key ) override;
  void store( const structural_key& key,
              std::shared_ptr<const compilation_result> result ) override;
  cache_statistics statistics() const override;
  void clear() override;

private:
  using entry = std::pair<structural_key, std::shared_ptr<const compilation_result>>;

  size_t max_entries_;
  mutable std::mutex mutex_;
  std::list<entry> order_; /*!< front = most recently used */
  std::unordered_map<uint64_t, std::list<entry>::iterator> index_; /*!< by key.primary */
  cache_statistics stats_;
};

} // namespace qda
