/*! \file simd.cpp
 *  \brief Portable scalar primitives and the runtime ISA dispatcher.
 *
 *  The scalar fused-block instance also serves every ISA for blocks
 *  wider than max_register_block_qubits and for state vectors smaller
 *  than one vector register.
 */
#include "simulator/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace qda::sim
{

namespace
{

/* ---- scalar primitives (baseline flags, plain complex math) ---- */

void scale_scalar( amplitude* amp, uint64_t n, amplitude w )
{
  for ( uint64_t i = 0u; i < n; ++i )
  {
    amp[i] *= w;
  }
}

void scale_pairs_scalar( amplitude* amp, uint64_t n_pairs, amplitude p0, amplitude p1 )
{
  for ( uint64_t i = 0u; i < n_pairs; ++i )
  {
    amp[2u * i] *= p0;
    amp[2u * i + 1u] *= p1;
  }
}

void pair_2x2_scalar( amplitude* lo, amplitude* hi, uint64_t n, const amplitude* m )
{
  const amplitude m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  for ( uint64_t i = 0u; i < n; ++i )
  {
    const amplitude a0 = lo[i];
    const amplitude a1 = hi[i];
    lo[i] = m0 * a0 + m1 * a1;
    hi[i] = m2 * a0 + m3 * a1;
  }
}

void pair_2x2_interleaved_scalar( amplitude* amp, uint64_t n_pairs, const amplitude* m )
{
  const amplitude m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  for ( uint64_t i = 0u; i < n_pairs; ++i )
  {
    const amplitude a0 = amp[2u * i];
    const amplitude a1 = amp[2u * i + 1u];
    amp[2u * i] = m0 * a0 + m1 * a1;
    amp[2u * i + 1u] = m2 * a0 + m3 * a1;
  }
}

void pair_antidiag_scalar( amplitude* lo, amplitude* hi, uint64_t n, amplitude m01,
                           amplitude m10 )
{
  for ( uint64_t i = 0u; i < n; ++i )
  {
    const amplitude a0 = lo[i];
    lo[i] = m01 * hi[i];
    hi[i] = m10 * a0;
  }
}

void swap_ranges_scalar( amplitude* a, amplitude* b, uint64_t n )
{
  for ( uint64_t i = 0u; i < n; ++i )
  {
    const amplitude tmp = a[i];
    a[i] = b[i];
    b[i] = tmp;
  }
}

void swap_adjacent_scalar( amplitude* amp, uint64_t n_pairs )
{
  for ( uint64_t i = 0u; i < n_pairs; ++i )
  {
    const amplitude tmp = amp[2u * i];
    amp[2u * i] = amp[2u * i + 1u];
    amp[2u * i + 1u] = tmp;
  }
}

/*! Blocks up to max_register_block_qubits: 2^H accumulators in
 *  registers, coefficients read straight from the matrix (one lane, so
 *  no lane shifts: term (c, r) is matrix[r][c]). */
template<int H>
void fused_block_small_scalar( amplitude* state, const block_plan& plan, uint64_t begin,
                               uint64_t end )
{
  constexpr int R = 1 << H;
  uint64_t offsets[R];
  for ( int c = 0; c < R; ++c )
  {
    offsets[c] = plan.offsets[c];
  }
  uint64_t nonzero = plan.nonzero;
  const amplitude* m = plan.matrix;
  uint64_t base = plan.bases.nth( begin );
  for ( uint64_t j = begin; j < end; ++j, base = plan.bases.next( base ) )
  {
    amplitude* b = state + base;
    /* keeps the term mask in a register (see simd_avx512.cpp) */
    asm( "" : "+r"( nonzero ) );
    double re[R] = {};
    double im[R] = {};
    detail::static_for<R>( [&]( auto ci ) {
      constexpr int c = decltype( ci )::value;
      const double xr = b[offsets[c]].real();
      const double xi = b[offsets[c]].imag();
      detail::static_for<R>( [&]( auto ri ) {
        constexpr int r = decltype( ri )::value;
        if ( ( nonzero >> ( c * R + r ) ) & 1u )
        {
          const amplitude w = m[r * R + c];
          re[r] += xr * w.real() - xi * w.imag();
          im[r] += xr * w.imag() + xi * w.real();
        }
      } );
    } );
    detail::static_for<R>( [&]( auto ri ) {
      constexpr int r = decltype( ri )::value;
      b[offsets[r]] = { re[r], im[r] };
    } );
  }
}

/*! Wider blocks: gather the 2^k inputs, then one row at a time. */
void fused_block_wide_scalar( amplitude* state, const block_plan& plan, uint64_t begin,
                              uint64_t end )
{
  const uint64_t block = uint64_t{ 1 } << plan.k;
  amplitude x[uint64_t{ 1 } << max_block_qubits];
  uint64_t base = plan.bases.nth( begin );
  for ( uint64_t j = begin; j < end; ++j, base = plan.bases.next( base ) )
  {
    amplitude* b = state + base;
    for ( uint64_t c = 0u; c < block; ++c )
    {
      x[c] = b[plan.offsets[c]];
    }
    for ( uint64_t r = 0u; r < block; ++r )
    {
      const amplitude* row = plan.matrix + r * block;
      double re = 0.0;
      double im = 0.0;
      for ( uint64_t c = 0u; c < block; ++c )
      {
        if ( row[c] != amplitude{ 0.0 } )
        {
          re += x[c].real() * row[c].real() - x[c].imag() * row[c].imag();
          im += x[c].real() * row[c].imag() + x[c].imag() * row[c].real();
        }
      }
      b[plan.offsets[r]] = { re, im };
    }
  }
}

void fused_block_scalar( amplitude* state, const block_plan& plan, uint64_t begin,
                         uint64_t end )
{
  switch ( plan.k )
  {
  case 0u:
    fused_block_small_scalar<0>( state, plan, begin, end );
    break;
  case 1u:
    fused_block_small_scalar<1>( state, plan, begin, end );
    break;
  case 2u:
    fused_block_small_scalar<2>( state, plan, begin, end );
    break;
  case 3u:
    fused_block_small_scalar<3>( state, plan, begin, end );
    break;
  default:
    fused_block_wide_scalar( state, plan, begin, end );
    break;
  }
}

void diag_table_scalar( amplitude* amp, uint64_t base, uint64_t n, const uint32_t* qubits,
                        uint32_t k, const amplitude* table )
{
  /* keys are constant across stretches below the lowest table qubit */
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
    const amplitude phase = table[key];
    const uint64_t stretch = std::min( end, ( i | ( stretch_len - 1u ) ) + 1u );
    amplitude* p = amp + ( i - base );
    const uint64_t len = stretch - i;
    for ( uint64_t s = 0u; s < len; ++s )
    {
      p[s] *= phase;
    }
    i = stretch;
  }
}

const simd_ops scalar_table = {
  isa_kind::scalar,     1u,
  scale_scalar,         scale_pairs_scalar,
  pair_2x2_scalar,      pair_2x2_interleaved_scalar,
  pair_antidiag_scalar, swap_ranges_scalar,
  swap_adjacent_scalar, fused_block_scalar,
  diag_table_scalar,
};

/* ---- dispatch ---- */

bool cpu_supports( isa_kind isa ) noexcept
{
#if defined( __x86_64__ ) || defined( __i386__ )
  switch ( isa )
  {
  case isa_kind::scalar:
    return true;
  case isa_kind::avx2:
    return __builtin_cpu_supports( "avx2" ) && __builtin_cpu_supports( "fma" );
  case isa_kind::avx512:
    return __builtin_cpu_supports( "avx512f" );
  }
  return false;
#else
  return isa == isa_kind::scalar;
#endif
}

const simd_ops* table_of( isa_kind isa ) noexcept
{
  switch ( isa )
  {
  case isa_kind::avx512:
    return detail::avx512_ops();
  case isa_kind::avx2:
    return detail::avx2_ops();
  case isa_kind::scalar:
    break;
  }
  return detail::scalar_ops();
}

isa_kind clamp_to_available( isa_kind requested ) noexcept
{
  for ( int candidate = static_cast<int>( requested ); candidate > 0; --candidate )
  {
    const auto isa = static_cast<isa_kind>( candidate );
    if ( cpu_supports( isa ) && table_of( isa ) != nullptr && table_of( isa )->isa == isa )
    {
      return isa;
    }
  }
  return isa_kind::scalar;
}

isa_kind initial_isa() noexcept
{
  isa_kind requested = clamp_to_available( isa_kind::avx512 );
  if ( const char* env = std::getenv( "QDA_SIM_ISA" ) )
  {
    isa_kind parsed = isa_kind::scalar;
    if ( isa_from_name( env, parsed ) )
    {
      requested = clamp_to_available( parsed );
    }
  }
  return requested;
}

std::atomic<uint8_t>& active_isa_slot() noexcept
{
  static std::atomic<uint8_t> slot{ static_cast<uint8_t>( initial_isa() ) };
  return slot;
}

} // namespace

namespace detail
{

const simd_ops* scalar_ops() noexcept
{
  return &scalar_table;
}

} // namespace detail

const char* isa_name( isa_kind isa ) noexcept
{
  switch ( isa )
  {
  case isa_kind::avx512:
    return "avx512";
  case isa_kind::avx2:
    return "avx2";
  case isa_kind::scalar:
    break;
  }
  return "scalar";
}

bool isa_from_name( const char* name, isa_kind& out ) noexcept
{
  if ( name == nullptr )
  {
    return false;
  }
  if ( std::strcmp( name, "scalar" ) == 0 )
  {
    out = isa_kind::scalar;
    return true;
  }
  if ( std::strcmp( name, "avx2" ) == 0 )
  {
    out = isa_kind::avx2;
    return true;
  }
  if ( std::strcmp( name, "avx512" ) == 0 )
  {
    out = isa_kind::avx512;
    return true;
  }
  return false;
}

isa_kind detected_isa() noexcept
{
  static const isa_kind detected = clamp_to_available( isa_kind::avx512 );
  return detected;
}

bool isa_available( isa_kind isa ) noexcept
{
  return clamp_to_available( isa ) == isa;
}

isa_kind active_isa() noexcept
{
  return static_cast<isa_kind>( active_isa_slot().load( std::memory_order_relaxed ) );
}

isa_kind set_isa( isa_kind isa ) noexcept
{
  const isa_kind actual = clamp_to_available( isa );
  active_isa_slot().store( static_cast<uint8_t>( actual ), std::memory_order_relaxed );
  return actual;
}

const simd_ops& ops_for( isa_kind isa ) noexcept
{
  const simd_ops* table = table_of( clamp_to_available( isa ) );
  return table != nullptr ? *table : scalar_table;
}

const simd_ops& active_ops() noexcept
{
  return ops_for( active_isa() );
}

} // namespace qda::sim
