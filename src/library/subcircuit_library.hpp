/*! \file subcircuit_library.hpp
 *  \brief Persistent cross-compilation library of optimized subcircuits.
 *
 *  ROADMAP item 2: the middle tier between tpar's per-call memo (one
 *  circuit) and the compile server's whole-compilation result cache
 *  (one exact pipeline).  Recurring whole rptm and tpar pass inputs
 *  are keyed on their exact spelling (library/fingerprint.hpp),
 *  admitted on their second sighting (library/profile.hpp), and
 *  spliced back on later sightings instead of re-running the pass.
 *  A splice is an exact replay of what a miss would emit, so a
 *  compile's output never depends on what ran before it.  Storage is
 *  two-tier:
 *
 *   - in-memory: `server::sharded_lru` keyed on the dual-seed
 *     fingerprint, shared by every pass manager in the process;
 *   - on disk (`QDA_LIBRARY_PATH`): a versioned append-only record
 *     file loaded at startup, giving warm starts across processes.
 *     Loads are contained: a truncated tail keeps the valid prefix, a
 *     corrupt or version-mismatched file cold-starts with a telemetry
 *     counter, and failpoint site `library.load` injects both.
 *
 *  Every hit is verified byte-exactly against the stored spelling
 *  before splicing; the hash only buckets.
 */
#pragma once

#include "library/fingerprint.hpp"
#include "library/profile.hpp"
#include "phasepoly/splice.hpp"
#include "quantum/qcircuit.hpp"
#include "reversible/rev_circuit.hpp"
#include "server/sharded_lru.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qda::library
{

/*! \brief What one library entry replaces. */
enum class entry_kind : uint32_t
{
  tpar_circuit = 2u, /*!< a whole tpar input */
  rptm_circuit = 3u  /*!< a whole rptm input (helpers after the lines) */
};

/*! \brief Cost metadata of one entry (before -> after the stored form). */
struct entry_costs
{
  uint64_t gates_before = 0u;
  uint64_t gates_after = 0u;
  uint64_t t_after = 0u;
  uint64_t cnot_after = 0u;
  uint64_t depth_after = 0u;
};

/*! \brief One stored optimized form, gates over the output's wires. */
struct library_entry
{
  entry_kind kind = entry_kind::tpar_circuit;
  uint32_t num_wires = 0u; /*!< qubits of the output circuit */
  uint32_t aux = 0u;       /*!< rptm: helper count */
  std::string verify;      /*!< exact input spelling, compared on every hit */
  std::vector<qgate> gates;
  entry_costs costs;
};

/*! \brief Counter snapshot of one library. */
struct library_statistics
{
  uint64_t hits = 0u;
  uint64_t misses = 0u;
  uint64_t verify_mismatches = 0u; /*!< bucket hit, spelling differed */
  uint64_t admits = 0u;
  uint64_t rejected_cold = 0u; /*!< first-sighting offers, not stored */
  uint64_t unsplicable = 0u;   /*!< offers/hits dropped defensively */
  uint64_t entries = 0u;
  uint64_t evictions = 0u;
  uint64_t loaded_entries = 0u;
  uint64_t load_failures = 0u;   /*!< corrupt header / injected fault */
  uint64_t load_truncated = 0u;  /*!< torn tail dropped, prefix kept */
  uint64_t version_mismatches = 0u;
  uint64_t store_failures = 0u;
};

/*! \brief Configuration of a subcircuit library. */
struct library_options
{
  size_t shards = 8u;
  size_t capacity = 4096u; /*!< in-memory entries; 0 disables storage */
  std::string path; /*!< append-only store; empty = memory only */
};

/*! \brief The subcircuit library; implements the tpar splice hook. */
class subcircuit_library final : public phasepoly::splice_provider
{
public:
  explicit subcircuit_library( library_options options = {} );

  /*! \brief Process-wide library, configured from `QDA_LIBRARY_PATH`
   *         and `QDA_LIBRARY_CAPACITY`.
   */
  static subcircuit_library& instance();

  /* ---- core keyed access ---- */

  /*! \brief Verified lookup: nullptr on miss or spelling mismatch. */
  std::shared_ptr<const library_entry> lookup( const std::array<uint64_t, 2>& key,
                                               entry_kind kind,
                                               std::string_view verify );

  /*! \brief Stores `entry` (memory tier + disk append when persistent).
   *         Not profile-gated; callers gate via `note_miss`.
   */
  void admit( const std::array<uint64_t, 2>& key, library_entry entry );

  /*! \brief Records a sighting of a missed shape and reports whether
   *         it is now due for admission (its second sighting).
   */
  bool note_miss( const std::array<uint64_t, 2>& key );

  /* ---- phasepoly::splice_provider ---- */

  bool splice_circuit( const qcircuit& in, std::string_view tag,
                       phasepoly::splice_probe& probe, qcircuit& out ) override;
  void offer_circuit( const phasepoly::splice_probe& probe, const qcircuit& out ) override;

  /* ---- mapping-level splices (rptm) ---- */

  /*! \brief Whole-rptm-input splice: on a verified hit of the exact
   *         input rebuilds the mapped circuit (helpers after
   *         `in.num_lines()`) and returns true.
   */
  bool splice_rev_mapping( const rev_circuit& in, std::string_view tag,
                           phasepoly::splice_probe& probe, qcircuit& out,
                           uint32_t& num_helpers );
  void offer_rev_mapping( const phasepoly::splice_probe& probe, const qcircuit& mapped,
                          uint32_t num_helpers );

  /* ---- persistence ---- */

  /*! \brief Points the library at `path` and loads whatever valid
   *         prefix it holds (contained: never throws for file damage).
   *         Returns the number of entries loaded.
   */
  size_t set_path( std::string path );

  /*! \brief Re-reads the store (e.g. after another process appended). */
  size_t load_from_disk();

  const std::string& path() const noexcept { return options_.path; }

  /* ---- introspection ---- */

  library_statistics statistics() const;
  void clear(); /*!< memory tier + profile + counters; disk untouched */

private:
  std::shared_ptr<const library_entry> find_verified( const std::array<uint64_t, 2>& key,
                                                      entry_kind kind,
                                                      std::string_view verify );
  void append_to_disk( const std::array<uint64_t, 2>& key, const library_entry& entry );
  bool rebuild( const library_entry& entry, qcircuit& out );

  library_options options_;
  server::sharded_lru<library_entry> entries_;
  sighting_profile profile_;
  std::mutex file_mutex_;

  std::atomic<uint64_t> hits_{ 0u };
  std::atomic<uint64_t> misses_{ 0u };
  std::atomic<uint64_t> verify_mismatches_{ 0u };
  std::atomic<uint64_t> admits_{ 0u };
  std::atomic<uint64_t> rejected_cold_{ 0u };
  std::atomic<uint64_t> unsplicable_{ 0u };
  std::atomic<uint64_t> loaded_entries_{ 0u };
  std::atomic<uint64_t> load_failures_{ 0u };
  std::atomic<uint64_t> load_truncated_{ 0u };
  std::atomic<uint64_t> version_mismatches_{ 0u };
  std::atomic<uint64_t> store_failures_{ 0u };
};

/*! \brief One-line human-readable summary (hits / misses / admits). */
std::string format_library_report( const library_statistics& stats );

} // namespace qda::library
