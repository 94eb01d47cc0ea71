/*! \file simd.hpp
 *  \brief Runtime-dispatched SIMD primitives for the statevector kernels.
 *
 *  The bottom layer of the simulation engine: a table of primitives
 *  (complex scale, amplitude-pair 2x2, antidiagonal, range swap, fused
 *  diagonal table over contiguous ranges, and the dense fused-block
 *  apply) with one implementation per instruction set:
 *
 *   - scalar: portable C++, compiled with the baseline flags;
 *   - avx2:   256-bit paths (2 amplitudes per vector) using FMA with
 *             the interleaved-complex shuffle/fmadd idiom;
 *   - avx512: 512-bit paths (4 amplitudes per vector).
 *
 *  The active table is chosen once at startup via cpuid and can be
 *  overridden with `QDA_SIM_ISA=scalar|avx2|avx512` or `set_isa`
 *  (requests are clamped to what the CPU and the build support).
 *
 *  Determinism contract: within one ISA, every primitive computes each
 *  element with a fixed per-element formula -- the scalar tails of the
 *  vector paths replicate the vector-lane rounding (same FMA order) --
 *  so results are bit-identical no matter how a range is chunked across
 *  threads.  Different ISAs round differently (FMA vs separate
 *  multiply/add) and agree to ~1 ulp per operation, well inside the
 *  engine-wide 1e-12 cross-check tolerance.
 */
#pragma once

#include <complex>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace qda::sim
{

using amplitude = std::complex<double>;

/*! \brief Instruction sets the kernel layer can dispatch to. */
enum class isa_kind : uint8_t
{
  scalar = 0,
  avx2 = 1,
  avx512 = 2
};

/*! \brief Lower-case name of an ISA ("scalar", "avx2", "avx512"). */
const char* isa_name( isa_kind isa ) noexcept;

/*! \brief Parses an ISA name; returns false on an unknown string. */
bool isa_from_name( const char* name, isa_kind& out ) noexcept;

/*! \brief Best ISA the CPU *and* this build support. */
isa_kind detected_isa() noexcept;

/*! \brief True when `isa` is usable on this CPU with this build. */
bool isa_available( isa_kind isa ) noexcept;

/*! \brief ISA the kernels currently dispatch to: `detected_isa()`
 *         unless overridden by QDA_SIM_ISA or `set_isa`.
 */
isa_kind active_isa() noexcept;

/*! \brief Requests an ISA (clamped to `detected_isa()` when the CPU or
 *         build lacks it); returns the ISA actually activated.
 */
isa_kind set_isa( isa_kind isa ) noexcept;

/*! \brief Random-access enumeration of the indices i in [0, dim) with
 *         (i & set_mask) == set_mask and (i & clear_mask) == 0.
 *         `nth` deposits a free-bit pattern (random access for chunk
 *         starts); `next` advances in O(1) with a masked carry.
 */
struct masked_range
{
  uint64_t set_mask = 0u;
  uint64_t free_mask = 0u; /*!< bits allowed to vary */
  uint64_t count = 0u;     /*!< number of enumerated indices */

  masked_range() = default;

  masked_range( uint64_t dim, uint64_t set, uint64_t clear )
      : set_mask( set ), free_mask( ( dim - 1u ) & ~( set | clear ) )
  {
    count = dim >> __builtin_popcountll( set | clear );
  }

  /*! \brief The j-th enumerated index (deposit j into the free bits). */
  uint64_t nth( uint64_t j ) const
  {
    uint64_t result = set_mask;
    uint64_t free = free_mask;
    while ( j != 0u && free != 0u )
    {
      const uint64_t low = free & ( ~free + 1u );
      if ( j & 1u )
      {
        result |= low;
      }
      free &= free - 1u;
      j >>= 1u;
    }
    return result;
  }

  /*! \brief The enumerated index following `index` (carry across fixed bits). */
  uint64_t next( uint64_t index ) const
  {
    return ( ( ( index | ~free_mask ) + 1u ) & free_mask ) | set_mask;
  }
};

/*! \brief Widest dense block the fused-block apply accepts. */
constexpr uint32_t max_block_qubits = 10u;

/*! \brief Widest dense block a vector ISA keeps in registers; wider
 *         blocks run through the scalar table's instance.
 */
constexpr uint32_t max_register_block_qubits = 3u;

/*! \brief Term plan of one dense fused block for one vector width.
 *
 *  A pure function of (matrix, support, lane width), built once per op
 *  and shared by every thread chunk.  A *base* is an index whose support
 *  bits and lane bits (the low log2(lanes) bits) are all clear; at each
 *  base the block owns the 2^h vectors of `lanes` amplitudes (the
 *  simd_ops::lanes of the table the plan is built for) at
 *  base + offsets[c], where c enumerates the h support qubits above the
 *  lanes.  Support qubits inside a vector (`lane_mask`) are reached
 *  through lane-permuted copies of each input: shift s (a subset of
 *  `lane_mask`, enumerated by the deposit of 0 .. 2^popcount - 1)
 *  swaps lane l with lane l ^ s.  Output vector r then accumulates, for
 *  every (input c, shift s), the lane-wise product of that permuted
 *  input with the coefficient vector of term (c, s, r).
 *
 *  Only terms whose coefficient vector has a nonzero lane are applied;
 *  a term is skipped only when all its coefficients are exactly zero,
 *  so no tolerance enters.  For k <= max_register_block_qubits the
 *  term tables below are filled; wider blocks read `matrix` directly.
 */
struct block_plan
{
  uint32_t k = 0u;                   /*!< support size */
  uint32_t h = 0u;                   /*!< support qubits above the lanes */
  uint32_t lane_mask = 0u;           /*!< support bits inside a vector */
  const amplitude* matrix = nullptr; /*!< row-major 2^k x 2^k */
  masked_range bases;                /*!< the block's base indices */
  uint64_t offsets[uint64_t{ 1 } << max_block_qubits]; /*!< per input vector */
  /*! bit t is set when term t has a nonzero coefficient, with terms
   *  numbered t = (c * 2^popcount(lane_mask) + s) * 2^h + r */
  uint64_t nonzero = 0u;
  /*! per term t, in that order: `lanes` coefficients as
   *  2 * lanes doubles of duplicated real parts, then 2 * lanes doubles
   *  of sign-alternated imaginary parts (-im, +im) -- the two operands
   *  of the interleaved-complex FMA pair */
  alignas( 64 ) double coef[( uint64_t{ 1 } << ( 2u * max_register_block_qubits ) ) * 16u];
};

/*! \brief Per-ISA table of kernel primitives.  The elementwise ones act
 *         on dense ranges, with the masked-run iteration above them in
 *         kernels.cpp; the fused-block apply walks its own bases.
 */
struct simd_ops
{
  isa_kind isa = isa_kind::scalar;

  /*! Amplitudes per vector register (1, 2 or 4). */
  uint32_t lanes = 1u;

  /*! amp[i] *= w for i in [0, n). */
  void ( *scale )( amplitude* amp, uint64_t n, amplitude w );

  /*! amp[2i] *= p0, amp[2i+1] *= p1 for i in [0, n_pairs): the
   *  qubit-0 diagonal (and bit-0 masked phase, with p0 = 1). */
  void ( *scale_pairs )( amplitude* amp, uint64_t n_pairs, amplitude p0, amplitude p1 );

  /*! Generic 2x2 over split halves: (lo[i], hi[i]) pairs, m row-major. */
  void ( *pair_2x2 )( amplitude* lo, amplitude* hi, uint64_t n, const amplitude* m );

  /*! Generic 2x2 over adjacent pairs (amp[2i], amp[2i+1]): qubit 0. */
  void ( *pair_2x2_interleaved )( amplitude* amp, uint64_t n_pairs, const amplitude* m );

  /*! lo[i] = m01 * hi[i]; hi[i] = m10 * lo_old[i]. */
  void ( *pair_antidiag )( amplitude* lo, amplitude* hi, uint64_t n, amplitude m01,
                           amplitude m10 );

  /*! a[i] <-> b[i] (X / CX / MCX runs with target above bit 0). */
  void ( *swap_ranges )( amplitude* a, amplitude* b, uint64_t n );

  /*! amp[2i] <-> amp[2i+1] (X runs with target bit 0). */
  void ( *swap_adjacent )( amplitude* amp, uint64_t n_pairs );

  /*! Dense fused block over the bases [begin, end) of `plan.bases`, in
   *  place; `plan` must be built for this table's `lanes`.  Each base
   *  is computed with one fixed formula (nonzero terms in (c, s, r)
   *  order), so any chunking of the bases is bit-identical. */
  void ( *fused_block )( amplitude* state, const block_plan& plan, uint64_t begin,
                         uint64_t end );

  /*! Fused diagonal table over a contiguous index window: multiplies
   *  amp[i] by table[key(base + i)] where key gathers the bits of
   *  `qubits` (qubits[j] -> bit j, ascending).  Exploits constant keys
   *  across stretches below qubits[0]. */
  void ( *diag_table )( amplitude* amp, uint64_t base, uint64_t n, const uint32_t* qubits,
                        uint32_t k, const amplitude* table );
};

/*! \brief The primitive table for `active_isa()`. */
const simd_ops& active_ops() noexcept;

/*! \brief The primitive table for a specific ISA (falls back to scalar
 *         when unavailable).
 */
const simd_ops& ops_for( isa_kind isa ) noexcept;

namespace detail
{
/*! Calls f(std::integral_constant<int, I>{}) for I = 0 .. N-1, unrolled
 *  at compile time: the fused-block instances index their accumulator
 *  arrays with constants only, so the arrays stay in registers. */
template<int N, typename F>
[[gnu::always_inline]] inline void static_for( F&& f )
{
  [&]<int... I>( std::integer_sequence<int, I...> ) {
    ( f( std::integral_constant<int, I>{} ), ... );
  }( std::make_integer_sequence<int, N>{} );
}

/*! Per-ISA tables; nullptr when the build or CPU lacks the ISA.  The
 *  AVX TUs are always compiled -- without their -m flags they compile
 *  to a stub returning nullptr. */
const simd_ops* scalar_ops() noexcept;
const simd_ops* avx2_ops() noexcept;
const simd_ops* avx512_ops() noexcept;
} // namespace detail

} // namespace qda::sim
