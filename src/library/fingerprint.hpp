/*! \file fingerprint.hpp
 *  \brief Exact input fingerprints for the subcircuit library.
 *
 *  Both fingerprints are the exact byte spelling of a whole pass
 *  input, hashed by `fingerprint_bytes` into a two-word key (its own
 *  word-at-a-time scheme, not `structural_key`'s byte-wise FNV-1a).
 *  Neither is invariant under qubit relabeling or gate reorder, on
 *  purpose: rptm's and tpar's outputs follow wire and gate order, so
 *  two inputs share an entry only when a miss would emit the same.
 *
 *   - `fingerprint_circuit`: a whole quantum circuit (the tpar input).
 *     One scan over the IR columns; wire ids are 16-bit for circuits
 *     of up to 65536 qubits and 32-bit beyond (the width is in the
 *     header).  Angles keep their exact bit patterns.
 *   - `fingerprint_rev_circuit`: a reversible MCT circuit (the rptm
 *     input): line count and raw gate rows.
 *
 *  A hash collision is rejected by the byte-exact verify, so splices
 *  reproduce the stored form bit-for-bit or not at all.
 */
#pragma once

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

/*! \brief Exact fingerprint of a quantum circuit. */
void fingerprint_circuit( const qcircuit& circuit, std::string_view tag,
                          phasepoly::splice_probe& probe );

/*! \brief Exact fingerprint of a reversible circuit. */
void fingerprint_rev_circuit( const rev_circuit& circuit, std::string_view tag,
                              phasepoly::splice_probe& probe );

} // namespace qda::library
