/*! \file splice.hpp
 *  \brief Abstract subcircuit-library hook of the tpar engine.
 *
 *  The phasepoly subsystem exposes one splice point to an external
 *  library of optimized forms (implemented by
 *  `library::subcircuit_library`, which this layer must not depend on):
 *  the whole tpar input, keyed on its exact spelling.  On a verified
 *  hit the stored optimized circuit is spliced back as is, and both
 *  phase folding and resynthesis are skipped.  Since the key is the
 *  exact input under the exact options, a hit emits what a miss would.
 *
 *  A `splice_probe` carries the fingerprint computed during the lookup
 *  to the matching offer, so a miss never fingerprints twice.  Hits
 *  are verified byte-exactly against the stored spelling before
 *  splicing -- the hash only buckets, equality decides.
 */
#pragma once

#include "quantum/qcircuit.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace qda::phasepoly
{

/*! \brief Fingerprint state carried from a lookup to its offer.
 *
 *  `key` is the two-seed `fingerprint_bytes` pair over `bytes` (the
 *  exact spelling of the input).
 */
struct splice_probe
{
  std::array<uint64_t, 2> key{};
  std::string bytes;
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
   *         optimized circuit into `out` and returns true; otherwise
   *         fills `probe` for a later offer.
   */
  virtual bool splice_circuit( const qcircuit& in, std::string_view tag,
                               splice_probe& probe, qcircuit& out ) = 0;

  /*! \brief Offers the optimized form of a previously probed circuit
   *         (admitted on the shape's second sighting).
   */
  virtual void offer_circuit( const splice_probe& probe, const qcircuit& out ) = 0;
};

} // namespace qda::phasepoly
