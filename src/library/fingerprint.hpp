/*! \file fingerprint.hpp
 *  \brief Canonical region fingerprints for the subcircuit library.
 *
 *  Three fingerprint levels, each a canonical byte spelling hashed by
 *  `fingerprint_bytes` into a two-word key (its own word-at-a-time
 *  scheme, not `structural_key`'s byte-wise FNV-1a):
 *
 *   - `fingerprint_phase_polynomial`: the semantic region fingerprint.
 *     A region's phase polynomial is already invariant under commuting
 *     gate reorder (extraction accumulates terms, not gate order); the
 *     remaining freedom is the labeling of the region's wires, removed
 *     by Weisfeiler-Lehman-style invariant partition refinement over
 *     the term/output-row hypergraph with budgeted individualization
 *     for refinement-stable ties.  Ties that survive the budget fall
 *     back to input order (a missed hit, never a wrong one).
 *   - `fingerprint_circuit`: the fast syntactic fingerprint of a whole
 *     quantum circuit (the largest candidate region: the full tpar
 *     input).  One scan over the IR columns with first-touch wire
 *     relabeling; canonical under any qubit relabeling that preserves
 *     first-touch order.  Local wire ids are 16-bit for circuits of up
 *     to 65536 qubits and 32-bit beyond (the width is in the header).
 *   - `fingerprint_rev_circuit`: the exact spelling of a reversible
 *     MCT circuit (the rptm input): line count and raw gate rows.  It
 *     is not relabeling-invariant on purpose, because rptm's output
 *     follows the line order.
 *
 *  Angles enter the canonical *ordering* quantized (pi/4 / 2^20
 *  buckets, robust to ulp noise) but the verified spelling keeps the
 *  exact bit patterns: a hash collision or a nearby-angle bucket match
 *  is rejected by the byte-exact verify, so splices reproduce the
 *  stored form bit-for-bit or not at all.
 */
#pragma once

#include "phasepoly/phase_polynomial.hpp"
#include "phasepoly/splice.hpp"
#include "quantum/qcircuit.hpp"
#include "reversible/rev_circuit.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace qda::library
{

/*! \brief Two-seed 64-bit hash of `bytes`, 8 bytes per step: an
 *         FNV-style xor-multiply with a xor-shift fold per word, the
 *         length mixed in last.  Also the store's record checksum.
 */
std::array<uint64_t, 2> fingerprint_bytes( std::string_view bytes ) noexcept;

/*! \brief Angle bucket used for canonical ordering (pi/4 / 2^20). */
int64_t quantize_angle( double angle ) noexcept;

/*! \brief Canonical fingerprint of a region's phase polynomial.
 *
 *  Fills `probe` with the canonical spelling (`bytes`, `key`), the
 *  canonical-to-local map (`wires`) and the local-to-canonical map
 *  (`perm`); `tag` is prepended to the spelling so entries produced
 *  under different synthesis options never alias.
 */
void fingerprint_phase_polynomial( const phasepoly::phase_polynomial& poly,
                                   std::string_view tag, phasepoly::splice_probe& probe );

/*! \brief First-touch-canonical fingerprint of a quantum circuit.
 *         `probe.wires[local]` is the circuit qubit of label `local`.
 */
void fingerprint_circuit( const qcircuit& circuit, std::string_view tag,
                          phasepoly::splice_probe& probe );

/*! \brief Exact fingerprint of a reversible circuit (no relabeling:
 *         `probe.wires` stays empty).
 */
void fingerprint_rev_circuit( const rev_circuit& circuit, std::string_view tag,
                              phasepoly::splice_probe& probe );

} // namespace qda::library
