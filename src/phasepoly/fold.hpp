/*! \file fold.hpp
 *  \brief Whole-circuit phase folding over unbounded parity labels.
 *
 *  Walks the circuit once, tracking for every qubit an affine label
 *  (parity of introduced variables plus a complement bit).  Phase gates
 *  applied to the same label merge into a single gate at the first
 *  occurrence.  Non-affine gates (h, y, rx, ry, mcx, measure) re-seed
 *  the touched qubit with a fresh variable; a label is a sorted set of
 *  32-bit variable ids (inline up to a few, heap beyond), so the walk
 *  never runs out of label space (the former stand-in recycled 64 mask
 *  bits in "epochs", silently refusing to merge across an epoch
 *  boundary).  Folding preserves the circuit structure; it moves and
 *  merges phase gates only.
 */
#pragma once

#include "quantum/qcircuit.hpp"

namespace qda::phasepoly
{

/*! \brief Folds mergeable phase gates in place through the IR rewriter
 *         (each anchor is overwritten by its merged gate, folded phase
 *         gates erase as tombstones, and only multi-gate merges insert,
 *         in one batched commit); the result is equivalent up to the
 *         explicitly appended global phase.
 */
void fold_phases_in_place( qcircuit& circuit );

} // namespace qda::phasepoly
