/*! \file peephole.hpp
 *  \brief Local cancellation of inverse gate pairs on quantum circuits.
 *
 *  A gate cancels against the first later gate that shares a wire with
 *  it when the two are inverses: identical self-inverse gates (H H,
 *  X X, CNOT CNOT, SWAP SWAP, MCX MCX with the same operands) or an
 *  adjoint phase pair on one wire (S S-dagger, T T-dagger).  Gates on
 *  disjoint wires in between are skipped, so pairs that drift apart in
 *  lowering or routing still meet; barriers fence every wire, and
 *  measurements block theirs.  Phase fusion (T T = S) is left to phase
 *  folding (`tpar`), which merges phase gates globally.
 *
 *  Sweeps run in slot order.  After a cancellation the sweep steps back
 *  one alive gate, whose partner may just have been exposed, and whole
 *  sweeps repeat until one changes nothing.  The first interacting gate
 *  comes from per-wire next-gate links built once per call, so finding
 *  it costs O(wires of the gate) instead of a forward rescan.  Erasures
 *  are tombstones, compacted once when the pass ends.
 */
#pragma once

#include "fault/cancel.hpp"
#include "quantum/qcircuit.hpp"

namespace qda
{

/*! \brief Cancels inverse pairs in place; the result is equivalent
 *         to the input.  Sweeps always run to a fixed point, so
 *         `max_rounds` only tells 0 (nothing cancels) from any
 *         positive value.  `cancel` is polled every 1024 gates a sweep
 *         visits (failpoint site `peephole.sweep` sits on that poll).
 */
void peephole_in_place( qcircuit& circuit, uint32_t max_rounds = 8u,
                        cancel_token cancel = {} );

/*! \brief Optimized copy of `circuit`. */
qcircuit peephole_optimize( const qcircuit& circuit, uint32_t max_rounds = 8u );

} // namespace qda
