/*! \file phasepoly.hpp
 *  \brief The phase-polynomial subsystem: the real `tpar` engine.
 *
 *  Umbrella header of `src/phasepoly/`, the mid-level IR of the
 *  Eq. (5) pipeline's quality stage:
 *
 *   - phase_polynomial.hpp : the phase-polynomial IR and its region
 *     extractor (dynamic-width parities, no 64-variable cap),
 *   - fold.hpp             : whole-circuit phase folding over
 *     unbounded parity labels,
 *   - resynthesis.hpp      : GraySynth-style parity-network rebuild
 *     with a Patel-Markov-Hayes linear epilogue,
 *   - linear_synthesis.hpp : PMH CNOT synthesis and affine maps,
 *   - parity_table.hpp     : the flat-hash term accumulator.
 *
 *  `tpar_in_place` is what the pipeline's `tpar` pass runs: fold, then
 *  (unless disabled) region resynthesis.  `optimization/phase_folding`
 *  is a thin fold-only client of this subsystem.
 */
#pragma once

#include "phasepoly/fold.hpp"
#include "phasepoly/linear_synthesis.hpp"
#include "phasepoly/parity_table.hpp"
#include "phasepoly/phase_polynomial.hpp"
#include "phasepoly/resynthesis.hpp"
#include "quantum/qcircuit.hpp"

namespace qda::phasepoly
{

struct tpar_options
{
  bool resynthesize = true; /*!< rebuild region CNOT skeletons after folding */
  resynthesis_options resynthesis;
};

/*! \brief The T-count optimization stage: phase folding followed by
 *         parity-network resynthesis (unless `options.resynthesize` is
 *         false).  Equivalent up to the explicitly tracked global phase.
 */
void tpar_in_place( qcircuit& circuit, const tpar_options& options = {} );

/*! \brief Optimized copy of `circuit`. */
qcircuit tpar( const qcircuit& circuit, const tpar_options& options = {} );

} // namespace qda::phasepoly
