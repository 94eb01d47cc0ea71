/*! \file resynthesis.hpp
 *  \brief Parity-network resynthesis of phase-polynomial regions.
 *
 *  The second half of a real T-par (Amy-Maslov-Mosca, paper ref [69]):
 *  after folding merges phase terms, each maximal {CNOT, X, SWAP,
 *  phase} region is rebuilt from its phase polynomial instead of
 *  keeping the original gate skeleton.  A GraySynth-style greedy pass
 *  (Amy-Azimzadeh-Mosca) steers every remaining parity onto a wire
 *  with the cheapest CNOT chain in the current frame and drops the
 *  merged phase gate there; a Patel-Markov-Hayes epilogue then closes
 *  the residual linear map, and X gates re-apply the affine constants.
 *  A region is only replaced when the rebuilt network is strictly
 *  smaller, so resynthesis never degrades a circuit.
 */
#pragma once

#include "fault/cancel.hpp"
#include "phasepoly/phase_polynomial.hpp"
#include "quantum/qcircuit.hpp"

#include <cstdint>
#include <vector>

namespace qda::phasepoly
{

struct resynthesis_options
{
  uint32_t section_size = 2u;       /*!< PMH epilogue block width */
  uint32_t max_region_terms = 512u; /*!< skip regions with more terms (greedy is O(T^2 n)) */
  cancel_token cancel;              /*!< polled between regions and parity placements */
};

/*! \brief A synthesized parity network over `poly.num_vars` wires. */
struct parity_network
{
  std::vector<qgate> gates;  /*!< wire indices are region-local */
  double global_phase = 0.0; /*!< e^{i g} needed for exact equality */
};

/*! \brief Rebuilds a circuit for `poly`: phase gates placed along a
 *         greedy parity network, PMH linear epilogue, X constants.
 */
parity_network synthesize_parity_network( const phase_polynomial& poly,
                                          uint32_t section_size = 2u,
                                          cancel_token cancel = {} );

/*! \brief Carves maximal {CNOT, X, SWAP, phase} regions out of the
 *         circuit and replaces each with its resynthesized parity
 *         network when that network is strictly smaller.  Regions
 *         spelled alike up to a wire remap are synthesized once per
 *         call and replayed.  Equivalent up to the explicitly
 *         appended global phase.
 */
void resynthesize_parity_regions_in_place( qcircuit& circuit,
                                           const resynthesis_options& options = {} );

} // namespace qda::phasepoly
