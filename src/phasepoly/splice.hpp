/*! \file splice.hpp
 *  \brief Abstract subcircuit-library hook of the tpar engine.
 *
 *  The phasepoly subsystem exposes two splice points to an external
 *  library of optimized forms (implemented by
 *  `library::subcircuit_library`, which this layer must not depend on):
 *
 *   - the *circuit* level: the whole tpar input is the largest
 *     candidate region; on a fingerprint hit the stored optimized
 *     circuit is spliced back (relabeled) and both phase folding and
 *     resynthesis are skipped entirely;
 *   - the *region* level: one maximal {CNOT, X, SWAP, phase} region's
 *     phase polynomial; on a hit the stored parity network is spliced
 *     instead of re-running GraySynth.
 *
 *  A `splice_probe` carries the fingerprint computed during the lookup
 *  to the matching offer, so a miss never fingerprints twice.  Hits
 *  are verified byte-exactly against the stored canonical spelling
 *  before splicing -- the hash only buckets, equality decides.
 */
#pragma once

#include "quantum/qcircuit.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qda::phasepoly
{

struct phase_polynomial;
struct parity_network;

/*! \brief Fingerprint state carried from a lookup to its offer.
 *
 *  `key` is the two-seed `fingerprint_bytes` pair over `bytes` (the
 *  canonical spelling).  The wire vectors depend on the level: at the
 *  circuit level `wires[local]` is the circuit qubit of first-touch label
 *  `local`; at the region level `wires[c]` is the region-local
 *  variable of canonical label `c` and `perm[v]` the canonical label
 *  of region-local variable `v`.
 */
struct splice_probe
{
  std::array<uint64_t, 2> key{};
  std::string bytes;
  std::vector<uint32_t> wires;
  std::vector<uint32_t> perm;
  /*! Pre-optimization {gates, T, CNOT} counted during the scan (cost
   *  metadata of an admitted entry). */
  std::array<uint64_t, 3> before{};
  bool valid = false;
};

/*! \brief Interface of a cross-compilation library of optimized forms. */
class splice_provider
{
public:
  virtual ~splice_provider() = default;

  /*! \brief Fingerprints the whole tpar input under `tag` (the option
   *         spelling -- entries produced under different tpar options
   *         never alias).  On a verified hit writes the stored
   *         optimized circuit (relabeled back) into `out` and returns
   *         true; otherwise fills `probe` for a later offer.
   */
  virtual bool splice_circuit( const qcircuit& in, std::string_view tag,
                               splice_probe& probe, qcircuit& out ) = 0;

  /*! \brief Offers the optimized form of a previously probed circuit
   *         (admission is gated by the provider's profile).
   */
  virtual void offer_circuit( const splice_probe& probe, const qcircuit& out,
                              double cost_ms ) = 0;

  /*! \brief Canonicalizes `poly` (qubit relabeling + commuting reorder
   *         collapse to one fingerprint) under `tag`.  On a verified
   *         hit writes the stored parity network -- relabeled back to
   *         the poly's variable space -- into `out` and returns true.
   */
  virtual bool lookup_region( const phase_polynomial& poly, std::string_view tag,
                              splice_probe& probe, parity_network& out ) = 0;

  /*! \brief Offers a freshly synthesized region network. */
  virtual void offer_region( const splice_probe& probe, const parity_network& network,
                             double cost_ms ) = 0;
};

} // namespace qda::phasepoly
