/*! \file simd_avx2.cpp
 *  \brief AVX2+FMA primitive table (2 amplitudes per 256-bit vector).
 *
 *  This TU is always part of the build; without QDA_SIMD_BUILD_AVX2
 *  (set by CMake when -mavx2 -mfma are accepted) it compiles to a stub
 *  returning nullptr.  Scalar tails replicate the vector-lane rounding
 *  exactly (std::fma compiles to vfmadd here) so any chunk split across
 *  threads lands on the same bits.
 */
#include "simulator/simd.hpp"

#if defined( QDA_SIMD_BUILD_AVX2 ) && ( defined( __x86_64__ ) || defined( __i386__ ) )

#include <cmath>
#include <immintrin.h>

namespace qda::sim
{

namespace
{

/* Interleaved-complex coefficient: broadcast real part plus the
 * sign-alternated imaginary part, so x*w is two fmadds with no
 * fmaddsub sign surprises when accumulating. */
struct coeff
{
  __m256d re;
  __m256d im_alt;
  double wr;
  double wi;
};

inline coeff make_coeff( amplitude w ) noexcept
{
  coeff c;
  c.wr = w.real();
  c.wi = w.imag();
  c.re = _mm256_set1_pd( c.wr );
  c.im_alt = _mm256_setr_pd( -c.wi, c.wi, -c.wi, c.wi );
  return c;
}

inline __m256d swap_reim( __m256d x ) noexcept
{
  return _mm256_permute_pd( x, 0x5 );
}

/* [x0*w, x1*w] for two interleaved complex amplitudes. */
inline __m256d cmul( __m256d x, const coeff& w ) noexcept
{
  return _mm256_fmadd_pd( swap_reim( x ), w.im_alt, _mm256_mul_pd( x, w.re ) );
}

/* acc + x*w, matching cmul's rounding structure. */
inline __m256d cmul_acc( __m256d acc, __m256d x, const coeff& w ) noexcept
{
  return _mm256_fmadd_pd( swap_reim( x ), w.im_alt, _mm256_fmadd_pd( x, w.re, acc ) );
}

/* Scalar replicas of the vector lanes -- same FMA placement, same bits. */
inline amplitude cmul1( amplitude x, const coeff& w ) noexcept
{
  const double xr = x.real(), xi = x.imag();
  return { std::fma( xi, -w.wi, xr * w.wr ), std::fma( xr, w.wi, xi * w.wr ) };
}

inline amplitude cmul_acc1( amplitude acc, amplitude x, const coeff& w ) noexcept
{
  const double xr = x.real(), xi = x.imag();
  return { std::fma( xi, -w.wi, std::fma( xr, w.wr, acc.real() ) ),
           std::fma( xr, w.wi, std::fma( xi, w.wr, acc.imag() ) ) };
}

void scale_avx2( amplitude* amp, uint64_t n, amplitude w )
{
  const coeff c = make_coeff( w );
  double* p = reinterpret_cast<double*>( amp );
  uint64_t i = 0u;
  for ( ; i + 2u <= n; i += 2u )
  {
    _mm256_storeu_pd( p + 2u * i, cmul( _mm256_loadu_pd( p + 2u * i ), c ) );
  }
  for ( ; i < n; ++i )
  {
    amp[i] = cmul1( amp[i], c );
  }
}

void scale_pairs_avx2( amplitude* amp, uint64_t n_pairs, amplitude p0, amplitude p1 )
{
  /* one vector holds exactly one (even, odd) pair */
  const __m256d re = _mm256_setr_pd( p0.real(), p0.real(), p1.real(), p1.real() );
  const __m256d im_alt = _mm256_setr_pd( -p0.imag(), p0.imag(), -p1.imag(), p1.imag() );
  double* p = reinterpret_cast<double*>( amp );
  for ( uint64_t i = 0u; i < n_pairs; ++i )
  {
    const __m256d x = _mm256_loadu_pd( p + 4u * i );
    _mm256_storeu_pd( p + 4u * i,
                      _mm256_fmadd_pd( swap_reim( x ), im_alt, _mm256_mul_pd( x, re ) ) );
  }
}

void pair_2x2_avx2( amplitude* lo, amplitude* hi, uint64_t n, const amplitude* m )
{
  const coeff c0 = make_coeff( m[0] ), c1 = make_coeff( m[1] );
  const coeff c2 = make_coeff( m[2] ), c3 = make_coeff( m[3] );
  double* plo = reinterpret_cast<double*>( lo );
  double* phi = reinterpret_cast<double*>( hi );
  uint64_t i = 0u;
  for ( ; i + 2u <= n; i += 2u )
  {
    const __m256d a0 = _mm256_loadu_pd( plo + 2u * i );
    const __m256d a1 = _mm256_loadu_pd( phi + 2u * i );
    _mm256_storeu_pd( plo + 2u * i, cmul_acc( cmul( a0, c0 ), a1, c1 ) );
    _mm256_storeu_pd( phi + 2u * i, cmul_acc( cmul( a0, c2 ), a1, c3 ) );
  }
  for ( ; i < n; ++i )
  {
    const amplitude a0 = lo[i];
    const amplitude a1 = hi[i];
    lo[i] = cmul_acc1( cmul1( a0, c0 ), a1, c1 );
    hi[i] = cmul_acc1( cmul1( a0, c2 ), a1, c3 );
  }
}

void pair_2x2_interleaved_avx2( amplitude* amp, uint64_t n_pairs, const amplitude* m )
{
  /* one vector = one (a0, a1) pair; low 128 computes a0' with (m0, m1),
   * high 128 computes a1' with (m3, m2) against the half-swapped copy */
  const __m256d re_a = _mm256_setr_pd( m[0].real(), m[0].real(), m[3].real(), m[3].real() );
  const __m256d im_a =
      _mm256_setr_pd( -m[0].imag(), m[0].imag(), -m[3].imag(), m[3].imag() );
  const __m256d re_b = _mm256_setr_pd( m[1].real(), m[1].real(), m[2].real(), m[2].real() );
  const __m256d im_b =
      _mm256_setr_pd( -m[1].imag(), m[1].imag(), -m[2].imag(), m[2].imag() );
  double* p = reinterpret_cast<double*>( amp );
  for ( uint64_t i = 0u; i < n_pairs; ++i )
  {
    const __m256d x = _mm256_loadu_pd( p + 4u * i );
    const __m256d y = _mm256_permute2f128_pd( x, x, 0x01 );
    const __m256d t = _mm256_fmadd_pd( swap_reim( x ), im_a, _mm256_mul_pd( x, re_a ) );
    const __m256d r =
        _mm256_fmadd_pd( swap_reim( y ), im_b, _mm256_fmadd_pd( y, re_b, t ) );
    _mm256_storeu_pd( p + 4u * i, r );
  }
}

void pair_antidiag_avx2( amplitude* lo, amplitude* hi, uint64_t n, amplitude m01,
                         amplitude m10 )
{
  const coeff c01 = make_coeff( m01 ), c10 = make_coeff( m10 );
  double* plo = reinterpret_cast<double*>( lo );
  double* phi = reinterpret_cast<double*>( hi );
  uint64_t i = 0u;
  for ( ; i + 2u <= n; i += 2u )
  {
    const __m256d a0 = _mm256_loadu_pd( plo + 2u * i );
    const __m256d a1 = _mm256_loadu_pd( phi + 2u * i );
    _mm256_storeu_pd( plo + 2u * i, cmul( a1, c01 ) );
    _mm256_storeu_pd( phi + 2u * i, cmul( a0, c10 ) );
  }
  for ( ; i < n; ++i )
  {
    const amplitude a0 = lo[i];
    lo[i] = cmul1( hi[i], c01 );
    hi[i] = cmul1( a0, c10 );
  }
}

void swap_ranges_avx2( amplitude* a, amplitude* b, uint64_t n )
{
  double* pa = reinterpret_cast<double*>( a );
  double* pb = reinterpret_cast<double*>( b );
  uint64_t i = 0u;
  for ( ; i + 2u <= n; i += 2u )
  {
    const __m256d va = _mm256_loadu_pd( pa + 2u * i );
    const __m256d vb = _mm256_loadu_pd( pb + 2u * i );
    _mm256_storeu_pd( pa + 2u * i, vb );
    _mm256_storeu_pd( pb + 2u * i, va );
  }
  for ( ; i < n; ++i )
  {
    const amplitude tmp = a[i];
    a[i] = b[i];
    b[i] = tmp;
  }
}

void swap_adjacent_avx2( amplitude* amp, uint64_t n_pairs )
{
  double* p = reinterpret_cast<double*>( amp );
  for ( uint64_t i = 0u; i < n_pairs; ++i )
  {
    const __m256d x = _mm256_loadu_pd( p + 4u * i );
    _mm256_storeu_pd( p + 4u * i, _mm256_permute2f128_pd( x, x, 0x01 ) );
  }
}

/*! One fused-block instance per (h, in-lane support mask LM), as in
 *  simd_avx512.cpp: constant-indexed register accumulators, and with
 *  two lanes the only lane shift swaps the 128-bit halves. */
template<int H, int LM>
[[gnu::flatten]] void fused_block_impl_avx2( amplitude* state, const block_plan& plan,
                                             uint64_t begin, uint64_t end )
{
  constexpr int R = 1 << H;
  constexpr int S = LM == 0 ? 1 : 2;
  uint64_t offsets[R];
  for ( int c = 0; c < R; ++c )
  {
    offsets[c] = 2u * plan.offsets[c];
  }
  uint64_t nonzero = plan.nonzero;
  const double* coef = plan.coef;
  double* p = reinterpret_cast<double*>( state );
  uint64_t base = plan.bases.nth( begin );
  for ( uint64_t j = begin; j < end; ++j, base = plan.bases.next( base ) )
  {
    double* b = p + 2u * base;
    /* keeps the term mask in a register: hoisted out of the loop, each
     * bit test would become a stack load per term */
    asm( "" : "+r"( nonzero ) );
    __m256d acc[R];
    detail::static_for<R>( [&]( auto ri ) { acc[decltype( ri )::value] = _mm256_setzero_pd(); } );
    detail::static_for<R>( [&]( auto ci ) {
      constexpr int c = decltype( ci )::value;
      const __m256d x = _mm256_loadu_pd( b + offsets[c] );
      detail::static_for<S>( [&]( auto si ) {
        constexpr int s = decltype( si )::value;
        constexpr int first = ( c * S + s ) * R;
        if ( ( nonzero & ( ( ( uint64_t{ 1 } << R ) - 1u ) << first ) ) == 0u )
        {
          return;
        }
        const __m256d xs = s == 0 ? x : _mm256_permute2f128_pd( x, x, 0x01 );
        const __m256d xw = swap_reim( xs );
        detail::static_for<R>( [&]( auto ri ) {
          constexpr int r = decltype( ri )::value;
          if ( ( nonzero >> ( first + r ) ) & 1u )
          {
            const double* t = coef + 8 * ( first + r );
            acc[r] = _mm256_fmadd_pd( xw, _mm256_load_pd( t + 4 ),
                                      _mm256_fmadd_pd( xs, _mm256_load_pd( t ), acc[r] ) );
          }
        } );
      } );
    } );
    detail::static_for<R>( [&]( auto ri ) {
      constexpr int r = decltype( ri )::value;
      _mm256_storeu_pd( b + offsets[r], acc[r] );
    } );
  }
}

using block_fn = void ( * )( amplitude*, const block_plan&, uint64_t, uint64_t );

/* [lane_mask][h]: every block of at most max_register_block_qubits */
constexpr block_fn fused_block_instances[2][4] = {
  { fused_block_impl_avx2<0, 0>, fused_block_impl_avx2<1, 0>, fused_block_impl_avx2<2, 0>,
    fused_block_impl_avx2<3, 0> },
  { fused_block_impl_avx2<0, 1>, fused_block_impl_avx2<1, 1>, fused_block_impl_avx2<2, 1>,
    nullptr },
};

void fused_block_avx2( amplitude* state, const block_plan& plan, uint64_t begin, uint64_t end )
{
  fused_block_instances[plan.lane_mask][plan.h]( state, plan, begin, end );
}

void diag_table_avx2( amplitude* amp, uint64_t base, uint64_t n, const uint32_t* qubits,
                      uint32_t k, const amplitude* table )
{
  const uint64_t stretch_len = uint64_t{ 1 } << qubits[0];
  const uint64_t end = base + n;
  uint64_t i = base;
  while ( i < end )
  {
    uint64_t key = 0u;
    for ( uint32_t j = 0u; j < k; ++j )
    {
      key |= ( ( i >> qubits[j] ) & 1u ) << j;
    }
    const uint64_t stretch = std::min( end, ( i | ( stretch_len - 1u ) ) + 1u );
    scale_avx2( amp + ( i - base ), stretch - i, table[key] );
    i = stretch;
  }
}

const simd_ops avx2_table = {
  isa_kind::avx2,     2u,
  scale_avx2,         scale_pairs_avx2,
  pair_2x2_avx2,      pair_2x2_interleaved_avx2,
  pair_antidiag_avx2, swap_ranges_avx2,
  swap_adjacent_avx2, fused_block_avx2,
  diag_table_avx2,
};

} // namespace

namespace detail
{

const simd_ops* avx2_ops() noexcept
{
  return &avx2_table;
}

} // namespace detail

} // namespace qda::sim

#else

namespace qda::sim::detail
{

const simd_ops* avx2_ops() noexcept
{
  return nullptr;
}

} // namespace qda::sim::detail

#endif
