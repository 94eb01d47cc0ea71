/*! \file simd_avx512.cpp
 *  \brief AVX-512F primitive table (4 amplitudes per 512-bit vector).
 *
 *  Same contract as simd_avx2.cpp: always compiled, stubs to nullptr
 *  without QDA_SIMD_BUILD_AVX512, and every scalar tail replicates the
 *  vector-lane FMA rounding so thread-chunk splits stay bit-identical.
 *  Only AVX-512F intrinsics are used (no VL/DQ dependence).
 */
#include "simulator/simd.hpp"

#if defined( QDA_SIMD_BUILD_AVX512 ) && ( defined( __x86_64__ ) || defined( __i386__ ) )

#include <bit>
#include <cmath>
#include <immintrin.h>

namespace qda::sim
{

namespace
{

struct coeff
{
  __m512d re;
  __m512d im_alt;
  double wr;
  double wi;
};

inline coeff make_coeff( amplitude w ) noexcept
{
  coeff c;
  c.wr = w.real();
  c.wi = w.imag();
  c.re = _mm512_set1_pd( c.wr );
  c.im_alt = _mm512_setr_pd( -c.wi, c.wi, -c.wi, c.wi, -c.wi, c.wi, -c.wi, c.wi );
  return c;
}

inline __m512d swap_reim( __m512d x ) noexcept
{
  return _mm512_permute_pd( x, 0x55 );
}

/* swap the two 128-bit complex slots inside each 256-bit half */
inline __m512d swap_pairs( __m512d x ) noexcept
{
  return _mm512_shuffle_f64x2( x, x, _MM_SHUFFLE( 2, 3, 0, 1 ) );
}

inline __m512d cmul( __m512d x, const coeff& w ) noexcept
{
  return _mm512_fmadd_pd( swap_reim( x ), w.im_alt, _mm512_mul_pd( x, w.re ) );
}

inline __m512d cmul_acc( __m512d acc, __m512d x, const coeff& w ) noexcept
{
  return _mm512_fmadd_pd( swap_reim( x ), w.im_alt, _mm512_fmadd_pd( x, w.re, acc ) );
}

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

void scale_avx512( amplitude* amp, uint64_t n, amplitude w )
{
  const coeff c = make_coeff( w );
  double* p = reinterpret_cast<double*>( amp );
  uint64_t i = 0u;
  for ( ; i + 4u <= n; i += 4u )
  {
    _mm512_storeu_pd( p + 2u * i, cmul( _mm512_loadu_pd( p + 2u * i ), c ) );
  }
  for ( ; i < n; ++i )
  {
    amp[i] = cmul1( amp[i], c );
  }
}

void scale_pairs_avx512( amplitude* amp, uint64_t n_pairs, amplitude p0, amplitude p1 )
{
  const __m512d re = _mm512_setr_pd( p0.real(), p0.real(), p1.real(), p1.real(), p0.real(),
                                     p0.real(), p1.real(), p1.real() );
  const __m512d im_alt = _mm512_setr_pd( -p0.imag(), p0.imag(), -p1.imag(), p1.imag(),
                                         -p0.imag(), p0.imag(), -p1.imag(), p1.imag() );
  const coeff c0 = make_coeff( p0 ), c1 = make_coeff( p1 );
  double* p = reinterpret_cast<double*>( amp );
  uint64_t i = 0u;
  for ( ; i + 2u <= n_pairs; i += 2u )
  {
    const __m512d x = _mm512_loadu_pd( p + 4u * i );
    _mm512_storeu_pd( p + 4u * i,
                      _mm512_fmadd_pd( swap_reim( x ), im_alt, _mm512_mul_pd( x, re ) ) );
  }
  for ( ; i < n_pairs; ++i )
  {
    amp[2u * i] = cmul1( amp[2u * i], c0 );
    amp[2u * i + 1u] = cmul1( amp[2u * i + 1u], c1 );
  }
}

void pair_2x2_avx512( amplitude* lo, amplitude* hi, uint64_t n, const amplitude* m )
{
  const coeff c0 = make_coeff( m[0] ), c1 = make_coeff( m[1] );
  const coeff c2 = make_coeff( m[2] ), c3 = make_coeff( m[3] );
  double* plo = reinterpret_cast<double*>( lo );
  double* phi = reinterpret_cast<double*>( hi );
  uint64_t i = 0u;
  for ( ; i + 4u <= n; i += 4u )
  {
    const __m512d a0 = _mm512_loadu_pd( plo + 2u * i );
    const __m512d a1 = _mm512_loadu_pd( phi + 2u * i );
    _mm512_storeu_pd( plo + 2u * i, cmul_acc( cmul( a0, c0 ), a1, c1 ) );
    _mm512_storeu_pd( phi + 2u * i, cmul_acc( cmul( a0, c2 ), a1, c3 ) );
  }
  for ( ; i < n; ++i )
  {
    const amplitude a0 = lo[i];
    const amplitude a1 = hi[i];
    lo[i] = cmul_acc1( cmul1( a0, c0 ), a1, c1 );
    hi[i] = cmul_acc1( cmul1( a0, c2 ), a1, c3 );
  }
}

void pair_2x2_interleaved_avx512( amplitude* amp, uint64_t n_pairs, const amplitude* m )
{
  const __m512d re_a = _mm512_setr_pd( m[0].real(), m[0].real(), m[3].real(), m[3].real(),
                                       m[0].real(), m[0].real(), m[3].real(), m[3].real() );
  const __m512d im_a = _mm512_setr_pd( -m[0].imag(), m[0].imag(), -m[3].imag(), m[3].imag(),
                                       -m[0].imag(), m[0].imag(), -m[3].imag(), m[3].imag() );
  const __m512d re_b = _mm512_setr_pd( m[1].real(), m[1].real(), m[2].real(), m[2].real(),
                                       m[1].real(), m[1].real(), m[2].real(), m[2].real() );
  const __m512d im_b = _mm512_setr_pd( -m[1].imag(), m[1].imag(), -m[2].imag(), m[2].imag(),
                                       -m[1].imag(), m[1].imag(), -m[2].imag(), m[2].imag() );
  const coeff c0 = make_coeff( m[0] ), c1 = make_coeff( m[1] );
  const coeff c2 = make_coeff( m[2] ), c3 = make_coeff( m[3] );
  double* p = reinterpret_cast<double*>( amp );
  uint64_t i = 0u;
  for ( ; i + 2u <= n_pairs; i += 2u )
  {
    const __m512d x = _mm512_loadu_pd( p + 4u * i );
    const __m512d y = swap_pairs( x );
    const __m512d t = _mm512_fmadd_pd( swap_reim( x ), im_a, _mm512_mul_pd( x, re_a ) );
    const __m512d r = _mm512_fmadd_pd( swap_reim( y ), im_b, _mm512_fmadd_pd( y, re_b, t ) );
    _mm512_storeu_pd( p + 4u * i, r );
  }
  for ( ; i < n_pairs; ++i )
  {
    const amplitude a0 = amp[2u * i];
    const amplitude a1 = amp[2u * i + 1u];
    amp[2u * i] = cmul_acc1( cmul1( a0, c0 ), a1, c1 );
    amp[2u * i + 1u] = cmul_acc1( cmul1( a1, c3 ), a0, c2 );
  }
}

void pair_antidiag_avx512( amplitude* lo, amplitude* hi, uint64_t n, amplitude m01,
                           amplitude m10 )
{
  const coeff c01 = make_coeff( m01 ), c10 = make_coeff( m10 );
  double* plo = reinterpret_cast<double*>( lo );
  double* phi = reinterpret_cast<double*>( hi );
  uint64_t i = 0u;
  for ( ; i + 4u <= n; i += 4u )
  {
    const __m512d a0 = _mm512_loadu_pd( plo + 2u * i );
    const __m512d a1 = _mm512_loadu_pd( phi + 2u * i );
    _mm512_storeu_pd( plo + 2u * i, cmul( a1, c01 ) );
    _mm512_storeu_pd( phi + 2u * i, cmul( a0, c10 ) );
  }
  for ( ; i < n; ++i )
  {
    const amplitude a0 = lo[i];
    lo[i] = cmul1( hi[i], c01 );
    hi[i] = cmul1( a0, c10 );
  }
}

void swap_ranges_avx512( amplitude* a, amplitude* b, uint64_t n )
{
  double* pa = reinterpret_cast<double*>( a );
  double* pb = reinterpret_cast<double*>( b );
  uint64_t i = 0u;
  for ( ; i + 4u <= n; i += 4u )
  {
    const __m512d va = _mm512_loadu_pd( pa + 2u * i );
    const __m512d vb = _mm512_loadu_pd( pb + 2u * i );
    _mm512_storeu_pd( pa + 2u * i, vb );
    _mm512_storeu_pd( pb + 2u * i, va );
  }
  for ( ; i < n; ++i )
  {
    const amplitude tmp = a[i];
    a[i] = b[i];
    b[i] = tmp;
  }
}

void swap_adjacent_avx512( amplitude* amp, uint64_t n_pairs )
{
  double* p = reinterpret_cast<double*>( amp );
  uint64_t i = 0u;
  for ( ; i + 2u <= n_pairs; i += 2u )
  {
    const __m512d x = _mm512_loadu_pd( p + 4u * i );
    _mm512_storeu_pd( p + 4u * i, swap_pairs( x ) );
  }
  for ( ; i < n_pairs; ++i )
  {
    const amplitude tmp = amp[2u * i];
    amp[2u * i] = amp[2u * i + 1u];
    amp[2u * i + 1u] = tmp;
  }
}

/* lane l <- lane l ^ S of the four complex lanes */
template<int S>
inline __m512d lane_xor( __m512d x ) noexcept
{
  if constexpr ( S == 0 )
  {
    return x;
  }
  else if constexpr ( S == 1 )
  {
    return _mm512_shuffle_f64x2( x, x, _MM_SHUFFLE( 2, 3, 0, 1 ) );
  }
  else if constexpr ( S == 2 )
  {
    return _mm512_shuffle_f64x2( x, x, _MM_SHUFFLE( 1, 0, 3, 2 ) );
  }
  else
  {
    return _mm512_shuffle_f64x2( x, x, _MM_SHUFFLE( 0, 1, 2, 3 ) );
  }
}

/*! One fused-block instance per (h, in-lane support mask LM): 2^h input
 *  and accumulator vectors indexed by constants, so both stay in
 *  registers; shift s runs over the subsets of LM (deposit order).
 *  Each nonzero term is the cmul_acc FMA pair on precomputed operands. */
template<int H, int LM>
[[gnu::flatten]] void fused_block_impl_avx512( amplitude* state, const block_plan& plan,
                                               uint64_t begin, uint64_t end )
{
  constexpr int R = 1 << H;
  constexpr int S = 1 << std::popcount( static_cast<unsigned>( LM ) );
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
    __m512d acc[R];
    detail::static_for<R>( [&]( auto ri ) { acc[decltype( ri )::value] = _mm512_setzero_pd(); } );
    detail::static_for<R>( [&]( auto ci ) {
      constexpr int c = decltype( ci )::value;
      const __m512d x = _mm512_loadu_pd( b + offsets[c] );
      detail::static_for<S>( [&]( auto si ) {
        constexpr int s = decltype( si )::value;
        constexpr int first = ( c * S + s ) * R;
        if ( ( nonzero & ( ( ( uint64_t{ 1 } << R ) - 1u ) << first ) ) == 0u )
        {
          return;
        }
        const __m512d xs = lane_xor<LM == 2 ? 2 * s : s>( x );
        const __m512d xw = swap_reim( xs );
        detail::static_for<R>( [&]( auto ri ) {
          constexpr int r = decltype( ri )::value;
          if ( ( nonzero >> ( first + r ) ) & 1u )
          {
            const double* t = coef + 16 * ( first + r );
            acc[r] = _mm512_fmadd_pd( xw, _mm512_load_pd( t + 8 ),
                                      _mm512_fmadd_pd( xs, _mm512_load_pd( t ), acc[r] ) );
          }
        } );
      } );
    } );
    detail::static_for<R>( [&]( auto ri ) {
      constexpr int r = decltype( ri )::value;
      _mm512_storeu_pd( b + offsets[r], acc[r] );
    } );
  }
}

using block_fn = void ( * )( amplitude*, const block_plan&, uint64_t, uint64_t );

/* [lane_mask][h]: every block of at most max_register_block_qubits */
constexpr block_fn fused_block_instances[4][4] = {
  { fused_block_impl_avx512<0, 0>, fused_block_impl_avx512<1, 0>,
    fused_block_impl_avx512<2, 0>, fused_block_impl_avx512<3, 0> },
  { fused_block_impl_avx512<0, 1>, fused_block_impl_avx512<1, 1>,
    fused_block_impl_avx512<2, 1>, nullptr },
  { fused_block_impl_avx512<0, 2>, fused_block_impl_avx512<1, 2>,
    fused_block_impl_avx512<2, 2>, nullptr },
  { fused_block_impl_avx512<0, 3>, fused_block_impl_avx512<1, 3>, nullptr, nullptr },
};

void fused_block_avx512( amplitude* state, const block_plan& plan, uint64_t begin,
                         uint64_t end )
{
  fused_block_instances[plan.lane_mask][plan.h]( state, plan, begin, end );
}

void diag_table_avx512( amplitude* amp, uint64_t base, uint64_t n, const uint32_t* qubits,
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
    scale_avx512( amp + ( i - base ), stretch - i, table[key] );
    i = stretch;
  }
}

const simd_ops avx512_table = {
  isa_kind::avx512,     4u,
  scale_avx512,         scale_pairs_avx512,
  pair_2x2_avx512,      pair_2x2_interleaved_avx512,
  pair_antidiag_avx512, swap_ranges_avx512,
  swap_adjacent_avx512, fused_block_avx512,
  diag_table_avx512,
};

} // namespace

namespace detail
{

const simd_ops* avx512_ops() noexcept
{
  return &avx512_table;
}

} // namespace detail

} // namespace qda::sim

#else

namespace qda::sim::detail
{

const simd_ops* avx512_ops() noexcept
{
  return nullptr;
}

} // namespace qda::sim::detail

#endif
