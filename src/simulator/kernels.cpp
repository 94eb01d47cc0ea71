#include "simulator/kernels.hpp"

#include "simulator/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace qda::sim
{

namespace
{

/*! Below this many iterations a kernel runs inline: thread hand-off
 *  costs more than the work itself on small state vectors. */
constexpr uint64_t min_parallel_work = uint64_t{ 1 } << 16u;

/*! Fixed reduction block: partials are always computed over the same
 *  index blocks, so sums do not depend on the thread count. */
constexpr uint64_t reduction_block = uint64_t{ 1 } << 15u;

/*! True while this thread executes inside a parallel_for body. */
thread_local bool inside_parallel_region = false;

uint32_t env_thread_count()
{
  const char* env = std::getenv( "QDA_SIM_THREADS" );
  if ( env != nullptr )
  {
    const long parsed = std::strtol( env, nullptr, 10 );
    if ( parsed > 0 )
    {
      return static_cast<uint32_t>( std::min( parsed, 256l ) );
    }
  }
  const uint32_t hardware = std::thread::hardware_concurrency();
  return hardware == 0u ? 1u : hardware;
}

/*! \brief Persistent worker pool (workers = threads - 1; the calling
 *         thread always participates).  One job runs at a time.
 */
class worker_pool
{
public:
  static worker_pool& instance()
  {
    static worker_pool pool;
    return pool;
  }

  uint32_t threads()
  {
    std::lock_guard<std::mutex> lock( config_mutex_ );
    return resolved_count();
  }

  void set_threads( uint32_t count )
  {
    std::lock_guard<std::mutex> lock( config_mutex_ );
    override_ = count;
  }

  void run( uint64_t n, const std::function<void( uint64_t, uint64_t )>& body,
            uint64_t work_per_item )
  {
    uint32_t threads = 0u;
    {
      std::lock_guard<std::mutex> lock( config_mutex_ );
      threads = resolved_count();
    }
    /* nested parallel_for (e.g. per-column kernels inside a parallel
     * column sweep) runs inline: the pool is not re-entrant */
    if ( threads <= 1u || n * work_per_item < min_parallel_work || inside_parallel_region )
    {
      body( 0u, n );
      return;
    }
    std::lock_guard<std::mutex> job_lock( job_mutex_ ); /* one job at a time */
    ensure_workers( threads - 1u );

    /* contiguous chunks; over-decompose 4x for load balance, with a
     * minimum chunk worth ~2^12 units of work */
    const uint64_t min_chunk =
        std::max<uint64_t>( 1u, ( uint64_t{ 1 } << 12u ) / std::max<uint64_t>( work_per_item, 1u ) );
    const uint64_t chunk =
        std::max<uint64_t>( ( n + threads * 4u - 1u ) / ( threads * 4u ), min_chunk );
    chunks_.clear();
    for ( uint64_t begin = 0u; begin < n; begin += chunk )
    {
      chunks_.emplace_back( begin, std::min( n, begin + chunk ) );
    }
    next_chunk_.store( 0u, std::memory_order_relaxed );

    {
      std::unique_lock<std::mutex> lock( state_mutex_ );
      body_ = &body;
      active_ = workers_.size();
      ++epoch_;
      start_cv_.notify_all();
    }
    inside_parallel_region = true;
    process( body ); /* the caller is a worker too; never throws */
    inside_parallel_region = false;
    std::exception_ptr pending;
    {
      std::unique_lock<std::mutex> lock( state_mutex_ );
      done_cv_.wait( lock, [this] { return active_ == 0u; } );
      body_ = nullptr;
      pending = std::exchange( pending_exception_, nullptr );
    }
    if ( pending )
    {
      std::rethrow_exception( pending );
    }
  }

private:
  worker_pool() = default;

  ~worker_pool() { shutdown(); }

  uint32_t resolved_count()
  {
    if ( override_ != 0u )
    {
      return override_;
    }
    if ( auto_count_ == 0u )
    {
      auto_count_ = env_thread_count();
    }
    return auto_count_;
  }

  void ensure_workers( uint32_t desired )
  {
    if ( workers_.size() == desired )
    {
      return;
    }
    shutdown();
    std::lock_guard<std::mutex> lock( state_mutex_ );
    stop_ = false;
    workers_.reserve( desired );
    /* a new worker starts at the current epoch: seeing an old epoch as
     * new would wake it before run() publishes the next job's body */
    const uint64_t epoch = epoch_;
    for ( uint32_t i = 0u; i < desired; ++i )
    {
      workers_.emplace_back( [this, epoch] { worker_loop( epoch ); } );
    }
  }

  void shutdown()
  {
    {
      std::lock_guard<std::mutex> lock( state_mutex_ );
      if ( workers_.empty() )
      {
        return;
      }
      stop_ = true;
      start_cv_.notify_all();
    }
    for ( auto& worker : workers_ )
    {
      worker.join();
    }
    workers_.clear();
  }

  void worker_loop( uint64_t seen_epoch )
  {
    inside_parallel_region = true; /* workers never orchestrate nested jobs */
    std::unique_lock<std::mutex> lock( state_mutex_ );
    for ( ;; )
    {
      start_cv_.wait( lock, [&] { return stop_ || epoch_ != seen_epoch; } );
      if ( stop_ )
      {
        return;
      }
      seen_epoch = epoch_;
      const auto* body = body_;
      lock.unlock();
      process( *body );
      lock.lock();
      if ( --active_ == 0u )
      {
        done_cv_.notify_all();
      }
    }
  }

  void process( const std::function<void( uint64_t, uint64_t )>& body )
  {
    for ( ;; )
    {
      const size_t index = next_chunk_.fetch_add( 1u, std::memory_order_relaxed );
      if ( index >= chunks_.size() )
      {
        return;
      }
      try
      {
        body( chunks_[index].first, chunks_[index].second );
      }
      catch ( ... )
      {
        /* record the first exception, drain the remaining chunks, and
         * let run() rethrow after every worker has stopped -- a throw
         * must never unwind through a worker (std::terminate) or leave
         * the job running while the caller's frame dies */
        {
          std::lock_guard<std::mutex> lock( state_mutex_ );
          if ( !pending_exception_ )
          {
            pending_exception_ = std::current_exception();
          }
        }
        next_chunk_.store( chunks_.size(), std::memory_order_relaxed );
        return;
      }
    }
  }

  std::mutex config_mutex_;
  uint32_t override_ = 0u;
  uint32_t auto_count_ = 0u;

  std::mutex job_mutex_;
  std::mutex state_mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::vector<std::pair<uint64_t, uint64_t>> chunks_;
  std::atomic<size_t> next_chunk_{ 0u };
  const std::function<void( uint64_t, uint64_t )>* body_ = nullptr;
  std::exception_ptr pending_exception_;
  size_t active_ = 0u;
  uint64_t epoch_ = 0u;
  bool stop_ = false;
};

/*! Applies `f(start, length)` over maximal CONTIGUOUS runs of the
 *  indices with the given set/clear bits: all free bits below the
 *  lowest fixed bit form one run, so the hot inner loops stay
 *  vectorizable; the masked carry only advances between runs.
 *  Parallelized by matching-element count, not run count. */
template <typename F>
void for_each_masked_run( uint64_t dim, uint64_t set_mask, uint64_t clear_mask, F&& f )
{
  const uint64_t fixed = set_mask | clear_mask;
  if ( fixed == 0u )
  {
    parallel_for( dim, [&]( uint64_t begin, uint64_t end ) { f( begin, end - begin ); } );
    return;
  }
  const uint64_t run = uint64_t{ 1 } << std::countr_zero( fixed );
  /* enumerate run starts: low run bits pinned to zero */
  const masked_range range( dim, set_mask, clear_mask | ( run - 1u ) );
  const uint64_t total = range.count * run; /* matching elements */
  if ( total == 0u )
  {
    return;
  }
  if ( run == 1u )
  {
    /* bit 0 is fixed: no contiguous runs, skip the run bookkeeping */
    parallel_for( total, [&]( uint64_t begin, uint64_t end ) {
      uint64_t index = range.nth( begin );
      for ( uint64_t j = begin; j < end; ++j )
      {
        f( index, 1u );
        index = range.next( index );
      }
    } );
    return;
  }
  parallel_for( total, [&]( uint64_t begin, uint64_t end ) {
    uint64_t offset = begin % run;
    uint64_t base = range.nth( begin / run );
    uint64_t remaining = end - begin;
    while ( remaining != 0u )
    {
      const uint64_t length = std::min( run - offset, remaining );
      f( base + offset, length );
      remaining -= length;
      offset = 0u;
      base = range.next( base );
    }
  } );
}

/*! Packs the bits of `value` selected by `mask` into the low bits. */
uint64_t compress_bits( uint64_t value, uint64_t mask )
{
  uint64_t packed = 0u;
  for ( uint32_t j = 0u; mask != 0u; mask &= mask - 1u, ++j )
  {
    packed |= ( ( value >> std::countr_zero( mask ) ) & 1u ) << j;
  }
  return packed;
}

/*! Spreads the low bits of `value` over the bits of `mask`. */
uint64_t deposit_bits( uint64_t value, uint64_t mask )
{
  uint64_t spread = 0u;
  for ( ; mask != 0u && value != 0u; mask &= mask - 1u, value >>= 1u )
  {
    spread |= ( value & 1u ) * ( mask & ( ~mask + 1u ) );
  }
  return spread;
}

/*! Builds the term plan of a dense block for vectors of `lanes`
 *  amplitudes (see block_plan).  Support qubits are ascending, so the
 *  ones inside the lanes are the low local bits: local index =
 *  (high pattern << in-lane count) | in-lane pattern. */
void build_block_plan( block_plan& plan, uint64_t dim, std::span<const uint32_t> qubits,
                       const amplitude* matrix, uint32_t lanes )
{
  const uint32_t k = static_cast<uint32_t>( qubits.size() );
  uint64_t support = 0u;
  for ( const auto q : qubits )
  {
    support |= uint64_t{ 1 } << q;
  }
  plan.k = k;
  plan.matrix = matrix;
  plan.lane_mask = static_cast<uint32_t>( support & ( lanes - 1u ) );
  const uint32_t in_lane = static_cast<uint32_t>( std::popcount( plan.lane_mask ) );
  plan.h = k - in_lane;
  plan.bases = masked_range( dim, 0u, support | ( lanes - 1u ) );
  const uint64_t high_support = support & ~uint64_t{ plan.lane_mask };
  const uint64_t inputs = uint64_t{ 1 } << plan.h;
  for ( uint64_t c = 0u; c < inputs; ++c )
  {
    plan.offsets[c] = deposit_bits( c, high_support );
  }
  if ( k > max_register_block_qubits )
  {
    return;
  }
  const uint64_t block = uint64_t{ 1 } << k;
  const uint64_t shifts = uint64_t{ 1 } << in_lane;
  plan.nonzero = 0u;
  uint64_t t = 0u;
  for ( uint64_t c = 0u; c < inputs; ++c )
  {
    for ( uint64_t si = 0u; si < shifts; ++si )
    {
      const uint64_t shift = deposit_bits( si, plan.lane_mask );
      for ( uint64_t r = 0u; r < inputs; ++r, ++t )
      {
        double* term = plan.coef + t * 4u * lanes;
        for ( uint64_t l = 0u; l < lanes; ++l )
        {
          const uint64_t row = ( r << in_lane ) | compress_bits( l, plan.lane_mask );
          const uint64_t col = ( c << in_lane ) | compress_bits( l ^ shift, plan.lane_mask );
          const amplitude m = matrix[row * block + col];
          term[2u * l] = term[2u * l + 1u] = m.real();
          term[2u * lanes + 2u * l] = -m.imag();
          term[2u * lanes + 2u * l + 1u] = m.imag();
          if ( m != amplitude{ 0.0 } )
          {
            plan.nonzero |= uint64_t{ 1 } << t;
          }
        }
      }
    }
  }
}

} // namespace

uint32_t num_threads()
{
  return worker_pool::instance().threads();
}

void set_num_threads( uint32_t count )
{
  worker_pool::instance().set_threads( count );
}

void parallel_for( uint64_t n, const std::function<void( uint64_t, uint64_t )>& body,
                   uint64_t work_per_item )
{
  if ( n == 0u )
  {
    return;
  }
  worker_pool::instance().run( n, body, work_per_item );
}

double blocked_sum( uint64_t n, const std::function<double( uint64_t, uint64_t )>& block )
{
  if ( n == 0u )
  {
    return 0.0;
  }
  const uint64_t num_blocks = ( n + reduction_block - 1u ) / reduction_block;
  if ( num_blocks == 1u )
  {
    return block( 0u, n );
  }
  std::vector<double> partials( num_blocks );
  parallel_for(
      num_blocks,
      [&]( uint64_t begin, uint64_t end ) {
        for ( uint64_t b = begin; b < end; ++b )
        {
          partials[b] = block( b * reduction_block, std::min( n, ( b + 1u ) * reduction_block ) );
        }
      },
      reduction_block );
  double total = 0.0;
  for ( const double partial : partials )
  {
    total += partial; /* fixed block order: thread-count independent */
  }
  return total;
}

void apply_1q( amplitude* state, uint64_t dim, uint32_t qubit,
               const std::array<amplitude, 4>& m )
{
  const simd_ops& ops = active_ops();
  if ( qubit == 0u )
  {
    /* pairs are adjacent in memory: chunk at pair granularity */
    parallel_for(
        dim >> 1u,
        [&]( uint64_t begin, uint64_t end ) {
          ops.pair_2x2_interleaved( state + 2u * begin, end - begin, m.data() );
        },
        2u );
    return;
  }
  const uint64_t bit = uint64_t{ 1 } << qubit;
  for_each_masked_run( dim, 0u, bit, [&]( uint64_t start, uint64_t length ) {
    ops.pair_2x2( state + start, state + start + bit, length, m.data() );
  } );
}

void apply_1q_diag( amplitude* state, uint64_t dim, uint32_t qubit, amplitude p0, amplitude p1 )
{
  const simd_ops& ops = active_ops();
  if ( qubit == 0u )
  {
    /* adjacent pairs: one contiguous pass, even/odd lanes carry p0/p1 */
    parallel_for(
        dim >> 1u,
        [&]( uint64_t begin, uint64_t end ) {
          ops.scale_pairs( state + 2u * begin, end - begin, p0, p1 );
        },
        2u );
    return;
  }
  const uint64_t bit = uint64_t{ 1 } << qubit;
  if ( p0 == amplitude{ 1.0 } )
  {
    for_each_masked_run( dim, bit, 0u, [&]( uint64_t start, uint64_t length ) {
      ops.scale( state + start, length, p1 );
    } );
    return;
  }
  if ( p1 == amplitude{ 1.0 } )
  {
    for_each_masked_run( dim, 0u, bit, [&]( uint64_t start, uint64_t length ) {
      ops.scale( state + start, length, p0 );
    } );
    return;
  }
  /* both phases non-trivial (e.g. rz): one pass over the pairs */
  for_each_masked_run( dim, 0u, bit, [&]( uint64_t start, uint64_t length ) {
    ops.scale( state + start, length, p0 );
    ops.scale( state + start + bit, length, p1 );
  } );
}

void apply_1q_antidiag( amplitude* state, uint64_t dim, uint32_t qubit, amplitude p01,
                        amplitude p10 )
{
  const simd_ops& ops = active_ops();
  if ( qubit == 0u )
  {
    const amplitude m[4] = { amplitude{ 0.0 }, p01, p10, amplitude{ 0.0 } };
    parallel_for(
        dim >> 1u,
        [&]( uint64_t begin, uint64_t end ) {
          ops.pair_2x2_interleaved( state + 2u * begin, end - begin, m );
        },
        2u );
    return;
  }
  const uint64_t bit = uint64_t{ 1 } << qubit;
  for_each_masked_run( dim, 0u, bit, [&]( uint64_t start, uint64_t length ) {
    ops.pair_antidiag( state + start, state + start + bit, length, p01, p10 );
  } );
}

void apply_phase_masked( amplitude* state, uint64_t dim, uint64_t mask, amplitude phase )
{
  const simd_ops& ops = active_ops();
  if ( mask & 1u )
  {
    /* bit 0 in the mask: iterate pair space (even base indices) so the
     * inner pass stays contiguous; the even lane multiplies by one */
    for_each_masked_run( dim >> 1u, mask >> 1u, 0u, [&]( uint64_t start, uint64_t length ) {
      ops.scale_pairs( state + 2u * start, length, amplitude{ 1.0 }, phase );
    } );
    return;
  }
  for_each_masked_run( dim, mask, 0u, [&]( uint64_t start, uint64_t length ) {
    ops.scale( state + start, length, phase );
  } );
}

void apply_mcx( amplitude* state, uint64_t dim, uint64_t control_mask, uint32_t target )
{
  const simd_ops& ops = active_ops();
  if ( target == 0u )
  {
    for_each_masked_run( dim >> 1u, control_mask >> 1u, 0u,
                         [&]( uint64_t start, uint64_t length ) {
                           ops.swap_adjacent( state + 2u * start, length );
                         } );
    return;
  }
  const uint64_t bit = uint64_t{ 1 } << target;
  for_each_masked_run( dim, control_mask, bit, [&]( uint64_t start, uint64_t length ) {
    ops.swap_ranges( state + start, state + start + bit, length );
  } );
}

void apply_mc1q( amplitude* state, uint64_t dim, uint64_t control_mask, uint32_t target,
                 const std::array<amplitude, 4>& m )
{
  const simd_ops& ops = active_ops();
  if ( target == 0u )
  {
    for_each_masked_run( dim >> 1u, control_mask >> 1u, 0u,
                         [&]( uint64_t start, uint64_t length ) {
                           ops.pair_2x2_interleaved( state + 2u * start, length, m.data() );
                         } );
    return;
  }
  const uint64_t bit = uint64_t{ 1 } << target;
  for_each_masked_run( dim, control_mask, bit, [&]( uint64_t start, uint64_t length ) {
    ops.pair_2x2( state + start, state + start + bit, length, m.data() );
  } );
}

void apply_swap( amplitude* state, uint64_t dim, uint32_t a, uint32_t b )
{
  const uint64_t bit_a = uint64_t{ 1 } << a;
  const uint64_t bit_b = uint64_t{ 1 } << b;
  const uint64_t both = bit_a | bit_b;
  const simd_ops& ops = active_ops();
  /* runs vary only bits below min(a, b), so the XOR partner of a run is
   * itself a contiguous run at a fixed offset */
  for_each_masked_run( dim, bit_a, bit_b, [&]( uint64_t start, uint64_t length ) {
    ops.swap_ranges( state + start, state + ( start ^ both ), length );
  } );
}

void apply_scalar( amplitude* state, uint64_t dim, amplitude factor )
{
  const simd_ops& ops = active_ops();
  parallel_for( dim, [&]( uint64_t begin, uint64_t end ) {
    ops.scale( state + begin, end - begin, factor );
  } );
}

void apply_diag_table( amplitude* state, uint64_t dim, std::span<const uint32_t> qubits,
                       std::span<const amplitude> table )
{
  const uint32_t k = static_cast<uint32_t>( qubits.size() );
  const simd_ops& ops = active_ops();
  /* the primitive exploits constant keys on stretches below qubits[0] */
  parallel_for( dim, [&]( uint64_t begin, uint64_t end ) {
    ops.diag_table( state + begin, begin, end - begin, qubits.data(), k, table.data() );
  } );
}

void apply_fused_kq( amplitude* state, uint64_t dim, std::span<const uint32_t> qubits,
                     std::span<const amplitude> matrix )
{
  const uint32_t k = static_cast<uint32_t>( qubits.size() );
  if ( k > max_block_qubits )
  {
    throw std::invalid_argument( "apply_fused_kq: dense blocks support at most 10 qubits" );
  }
  /* the choice depends only on (k, dim), never on chunk bounds, so
   * thread splits stay bit-identical */
  const simd_ops& active = active_ops();
  const simd_ops& ops = k <= max_register_block_qubits && dim >= active.lanes
                            ? active
                            : ops_for( isa_kind::scalar );
  block_plan plan;
  build_block_plan( plan, dim, qubits, matrix.data(), ops.lanes );
  parallel_for(
      plan.bases.count,
      [&]( uint64_t begin, uint64_t end ) { ops.fused_block( state, plan, begin, end ); },
      ( uint64_t{ 1 } << plan.h ) * ops.lanes );
}

double norm_sum( const amplitude* state, uint64_t dim )
{
  return blocked_sum( dim, [&]( uint64_t begin, uint64_t end ) {
    double sum = 0.0;
    for ( uint64_t i = begin; i < end; ++i )
    {
      sum += std::norm( state[i] );
    }
    return sum;
  } );
}

double prob_one( const amplitude* state, uint64_t dim, uint32_t qubit )
{
  const uint64_t bit = uint64_t{ 1 } << qubit;
  const masked_range range( dim, bit, 0u );
  return blocked_sum( range.count, [&]( uint64_t begin, uint64_t end ) {
    double sum = 0.0;
    uint64_t index = range.nth( begin );
    for ( uint64_t j = begin; j < end; ++j )
    {
      sum += std::norm( state[index] );
      index = range.next( index );
    }
    return sum;
  } );
}

void collapse( amplitude* state, uint64_t dim, uint32_t qubit, bool outcome, double renorm )
{
  const uint64_t bit = uint64_t{ 1 } << qubit;
  /* keep the outcome half (rescaled), zero the other half */
  for_each_masked_run( dim, outcome ? bit : 0u, outcome ? 0u : bit,
                       [&]( uint64_t start, uint64_t length ) {
                         const double w = renorm;
                         amplitude* amp = state + start;
                         for ( uint64_t i = 0u; i < length; ++i )
                         {
                           amp[i] *= w;
                         }
                       } );
  for_each_masked_run( dim, outcome ? 0u : bit, outcome ? bit : 0u,
                       [&]( uint64_t start, uint64_t length ) {
                         amplitude* amp = state + start;
                         for ( uint64_t i = 0u; i < length; ++i )
                         {
                           amp[i] = 0.0;
                         }
                       } );
}

void probabilities_into( const amplitude* state, uint64_t dim, double* out )
{
  parallel_for( dim, [&]( uint64_t begin, uint64_t end ) {
    for ( uint64_t i = begin; i < end; ++i )
    {
      out[i] = std::norm( state[i] );
    }
  } );
}

} // namespace qda::sim
