/*! \file kernels.hpp
 *  \brief Specialized state-vector kernels and the simulator thread pool.
 *
 *  The low layer of the high-throughput simulation engine: free
 *  functions that act directly on an amplitude array.  Three kernel
 *  families replace the one-size-fits-all complex 2x2 matmul:
 *
 *   - diagonal kernels (Z/S/T/RZ/CZ/MCZ and fused phase tables) touch
 *     each amplitude once and never pair amplitudes;
 *   - permutation kernels (X/CX/MCX/SWAP) swap amplitudes without any
 *     complex arithmetic;
 *   - controlled kernels enumerate only the 2^(n-k) control-satisfying
 *     indices via bit-deposit iteration instead of scanning all 2^n
 *     and skipping.
 *
 *  All kernels are parallelized over contiguous amplitude chunks with a
 *  small std::thread pool (QDA_SIM_THREADS environment variable or
 *  `set_num_threads`).  Every kernel writes disjoint elements and every
 *  reduction sums fixed-size blocks in index order, so results are
 *  bit-identical regardless of the thread count.
 *
 *  The contiguous inner loops dispatch to the runtime-selected SIMD
 *  primitive table (simd.hpp: scalar / AVX2 / AVX-512, override with
 *  QDA_SIM_ISA); this file owns the masked index iteration, the thread
 *  split, and the term plan of each dense fused block.
 */
#pragma once

#include "simulator/simd.hpp"

#include <array>
#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace qda::sim
{

using amplitude = std::complex<double>;

/* ---- threading ---- */

/*! \brief Number of worker threads kernels may use (>= 1).
 *         Initialized from QDA_SIM_THREADS (0/unset = hardware
 *         concurrency); overridable with `set_num_threads`.
 */
uint32_t num_threads();

/*! \brief Overrides the thread count; 0 restores the automatic choice. */
void set_num_threads( uint32_t count );

/*! \brief Runs `body(begin, end)` over a partition of [0, n).  Small
 *         jobs run inline on the calling thread: the threshold compares
 *         n * work_per_item, so callers iterating few-but-heavy items
 *         (reduction blocks, unitary columns) still parallelize.
 *         Chunks are disjoint, so element-wise bodies are deterministic
 *         for any thread count.
 */
void parallel_for( uint64_t n, const std::function<void( uint64_t, uint64_t )>& body,
                   uint64_t work_per_item = 1u );

/*! \brief Deterministic parallel sum: `block(begin, end)` partials are
 *         computed over fixed-size index blocks and combined in block
 *         order, so the result is bit-identical for any thread count.
 */
double blocked_sum( uint64_t n, const std::function<double( uint64_t, uint64_t )>& block );

/* ---- kernels ---- */

/*! \brief General single-qubit 2x2 kernel (amplitude pairing). */
void apply_1q( amplitude* state, uint64_t dim, uint32_t qubit,
               const std::array<amplitude, 4>& m );

/*! \brief Diagonal single-qubit kernel diag(p0, p1): one multiply per
 *         amplitude, no pairing.  p0 == 1 touches only the set half.
 */
void apply_1q_diag( amplitude* state, uint64_t dim, uint32_t qubit, amplitude p0, amplitude p1 );

/*! \brief Antidiagonal kernel [[0, p01], [p10, 0]] (X, Y and fusions). */
void apply_1q_antidiag( amplitude* state, uint64_t dim, uint32_t qubit, amplitude p01,
                        amplitude p10 );

/*! \brief Multiplies by `phase` every amplitude with all `mask` bits set
 *         (Z/CZ/MCZ family); enumerates only the 2^(n-k) matching indices.
 */
void apply_phase_masked( amplitude* state, uint64_t dim, uint64_t mask, amplitude phase );

/*! \brief X on `target` conditioned on all `control_mask` bits
 *         (X/CX/MCX): pure amplitude swaps over matching indices.
 */
void apply_mcx( amplitude* state, uint64_t dim, uint64_t control_mask, uint32_t target );

/*! \brief General controlled single-qubit kernel over the
 *         control-satisfying subspace only.
 */
void apply_mc1q( amplitude* state, uint64_t dim, uint64_t control_mask, uint32_t target,
                 const std::array<amplitude, 4>& m );

/*! \brief SWAP(a, b): swaps the 2^(n-2) amplitude pairs that differ. */
void apply_swap( amplitude* state, uint64_t dim, uint32_t a, uint32_t b );

/*! \brief Multiplies every amplitude by `factor` (global phase). */
void apply_scalar( amplitude* state, uint64_t dim, amplitude factor );

/*! \brief Fused-diagonal kernel: multiplies amplitude i by
 *         table[key(i)], where key gathers the bits of `qubits`
 *         (qubits[j] becomes bit j of the key).
 */
void apply_diag_table( amplitude* state, uint64_t dim, std::span<const uint32_t> qubits,
                       std::span<const amplitude> table );

/*! \brief Dense fused-block kernel: applies the 2^k x 2^k `matrix`
 *         (row-major; qubits[j] = bit j of the local index, ascending)
 *         to every group of 2^k amplitudes sharing the non-support bits.
 *         One primitive call per thread chunk walks the block's bases
 *         and applies only the matrix's nonzero terms (exact zeros are
 *         skipped), so cost follows the nonzero count, not 4^k.  Blocks
 *         up to `max_register_block_qubits` run on the active ISA;
 *         wider ones (k <= `max_block_qubits`) on the scalar table.
 */
void apply_fused_kq( amplitude* state, uint64_t dim, std::span<const uint32_t> qubits,
                     std::span<const amplitude> matrix );

/* ---- reductions and measurement helpers ---- */

/*! \brief Sum of |amplitude|^2 (deterministic blocked reduction). */
double norm_sum( const amplitude* state, uint64_t dim );

/*! \brief Probability that `qubit` reads 1 (deterministic reduction). */
double prob_one( const amplitude* state, uint64_t dim, uint32_t qubit );

/*! \brief Projects onto `qubit` == outcome and rescales by `renorm`. */
void collapse( amplitude* state, uint64_t dim, uint32_t qubit, bool outcome, double renorm );

/*! \brief Writes |state[i]|^2 into out[i] (single parallel pass). */
void probabilities_into( const amplitude* state, uint64_t dim, double* out );

} // namespace qda::sim
