#include "simulator/fusion.hpp"

#include "simulator/schedule.hpp"
#include "simulator/simd.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace qda::sim
{

namespace
{

using matrix2 = std::array<amplitude, 4>;

constexpr matrix2 identity2{ amplitude{ 1.0 }, amplitude{ 0.0 }, amplitude{ 0.0 },
                             amplitude{ 1.0 } };

/*! Open fused groups beyond this are flushed front-first: bounds both
 *  compile memory and the backward commutation walk. */
constexpr size_t max_open_blocks = 64u;

/*! a * b (apply b first, then a). */
matrix2 mul( const matrix2& a, const matrix2& b )
{
  return { a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
           a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3] };
}

bool is_exact_diag( const matrix2& m )
{
  return m[1] == amplitude{ 0.0 } && m[2] == amplitude{ 0.0 };
}

bool is_exact_antidiag( const matrix2& m )
{
  return m[0] == amplitude{ 0.0 } && m[3] == amplitude{ 0.0 };
}

bool is_near_identity( const matrix2& m )
{
  return is_exact_diag( m ) && std::abs( m[0] - amplitude{ 1.0 } ) <= 1e-14 &&
         std::abs( m[3] - amplitude{ 1.0 } ) <= 1e-14;
}

bool is_single_qubit_kind( gate_kind kind )
{
  switch ( kind )
  {
  case gate_kind::h:
  case gate_kind::x:
  case gate_kind::y:
  case gate_kind::z:
  case gate_kind::s:
  case gate_kind::sdg:
  case gate_kind::t:
  case gate_kind::tdg:
  case gate_kind::rx:
  case gate_kind::ry:
  case gate_kind::rz:
    return true;
  default:
    return false;
  }
}

/*! Left-multiplies the row-major `block` x `block` matrix by the op
 *  `o` (qubit indices already local).  Each column is a local state the
 *  op acts on, so the op's action on amplitude r becomes the same
 *  action on row r, applied to the whole row at once. */
void apply_to_rows( const op& o, amplitude* matrix, uint64_t block )
{
  const auto row = [&]( uint64_t r ) { return matrix + r * block; };
  const uint64_t bit = uint64_t{ 1 } << o.qubit;
  for ( uint64_t r = 0u; r < block; ++r )
  {
    switch ( o.kind )
    {
    case op_kind::unitary_1q:
    case op_kind::diag_1q:
    case op_kind::antidiag_1q:
      if ( ( r & bit ) == 0u )
      {
        amplitude* lo = row( r );
        amplitude* hi = row( r | bit );
        for ( uint64_t c = 0u; c < block; ++c )
        {
          const amplitude a0 = lo[c];
          const amplitude a1 = hi[c];
          lo[c] = o.m[0] * a0 + o.m[1] * a1;
          hi[c] = o.m[2] * a0 + o.m[3] * a1;
        }
      }
      break;
    case op_kind::phase_masked:
    case op_kind::scalar: /* mask 0: every row */
      if ( ( r & o.mask ) == o.mask )
      {
        std::transform( row( r ), row( r ) + block, row( r ),
                        [&]( amplitude a ) { return a * o.m[0]; } );
      }
      break;
    case op_kind::mcx:
      if ( ( r & o.mask ) == o.mask && ( r & bit ) == 0u )
      {
        std::swap_ranges( row( r ), row( r ) + block, row( r | bit ) );
      }
      break;
    case op_kind::swap_2q:
    {
      const uint64_t other = uint64_t{ 1 } << o.qubit2;
      if ( ( r & bit ) != 0u && ( r & other ) == 0u )
      {
        std::swap_ranges( row( r ), row( r ) + block, row( r ^ ( bit | other ) ) );
      }
      break;
    }
    default:
      throw std::logic_error( "sim::compile: op kind not valid inside a dense block" );
    }
  }
}

/*! Streaming three-layer compiler.  Layer A fuses per-qubit
 *  single-qubit runs.  Layers B/C keep a list of open fused groups
 *  ("blocks"), diagonal or dense: an arriving op walks the open list
 *  back to front, passing blocks it commutes with (disjoint support,
 *  or diagonal past diagonal) and joining the first block it fits
 *  into; otherwise it opens a new block at the end.  Blocks flush in
 *  creation order, which by construction is a valid execution order. */
class compiler
{
public:
  compiler( uint32_t num_qubits, const compile_options& options )
      : options_( options ), pending_( num_qubits )
  {
    /* apply_fused_kq's block plan caps k */
    options_.max_dense_fusion_qubits =
        std::min( options_.max_dense_fusion_qubits, max_block_qubits );
    options_.max_diag_table_qubits = std::min( options_.max_diag_table_qubits, 24u );
    result_.num_qubits = num_qubits;
  }

  void add_gate( const qgate_view& gate, std::vector<uint32_t>* measured )
  {
    if ( gate.kind == gate_kind::barrier )
    {
      return; /* scheduling only */
    }
    ++result_.source_gate_count;

    if ( is_single_qubit_kind( gate.kind ) )
    {
      const matrix2 m = single_qubit_matrix( gate.kind, gate.angle );
      if ( options_.fuse_single_qubit )
      {
        auto& slot = pending_[gate.target];
        slot.m = slot.count == 0u ? m : mul( m, slot.m );
        ++slot.count;
      }
      else
      {
        emit_1q( gate.target, m, 1u );
      }
      return;
    }

    switch ( gate.kind )
    {
    case gate_kind::cx:
    case gate_kind::mcx:
    {
      uint64_t control_mask = 0u;
      for ( const auto control : gate.controls )
      {
        flush_pending( control );
        control_mask |= uint64_t{ 1 } << control;
      }
      flush_pending( gate.target );
      op o;
      o.kind = op_kind::mcx;
      o.qubit = gate.target;
      o.mask = control_mask;
      emit( std::move( o ) );
      break;
    }
    case gate_kind::cz:
    case gate_kind::mcz:
    {
      uint64_t mask = uint64_t{ 1 } << gate.target;
      for ( const auto control : gate.controls )
      {
        flush_pending( control );
        mask |= uint64_t{ 1 } << control;
      }
      flush_pending( gate.target );
      op o;
      o.kind = op_kind::phase_masked;
      o.mask = mask;
      o.m[0] = amplitude{ -1.0 };
      emit( std::move( o ) );
      break;
    }
    case gate_kind::swap:
    {
      flush_pending( gate.target );
      flush_pending( gate.target2 );
      op o;
      o.kind = op_kind::swap_2q;
      o.qubit = gate.target;
      o.qubit2 = gate.target2;
      emit( std::move( o ) );
      break;
    }
    case gate_kind::measure:
    {
      flush_pending( gate.target );
      if ( measured != nullptr )
      {
        measured->push_back( gate.target );
        break;
      }
      flush_all_blocks();
      op o;
      o.kind = op_kind::measure;
      o.qubit = gate.target;
      result_.ops.push_back( std::move( o ) );
      break;
    }
    case gate_kind::global_phase:
    {
      op o;
      o.kind = op_kind::scalar;
      o.m[0] = std::exp( amplitude( 0.0, gate.angle ) );
      emit( std::move( o ) );
      break;
    }
    default:
      throw std::logic_error( "sim::compile: unhandled gate kind" );
    }
  }

  program finish()
  {
    for ( uint32_t q = 0u; q < pending_.size(); ++q )
    {
      flush_pending( q );
    }
    flush_all_blocks();
    return std::move( result_ );
  }

private:
  struct pending_1q
  {
    matrix2 m = identity2;
    uint32_t count = 0u;
  };

  /*! An open fused group: either a diagonal accumulator (qubit/masked
   *  phase factors + scalar) or a dense op list. */
  struct block
  {
    bool diagonal = false;
    uint64_t support = 0u;
    std::vector<op> ops;       /*!< dense payload (in arrival order) */
    amplitude scalar{ 1.0 };   /*!< diagonal payload ... */
    std::vector<std::pair<uint32_t, std::pair<amplitude, amplitude>>> qubit_factors;
    std::vector<std::pair<uint64_t, amplitude>> masked_factors;
    uint32_t sources = 0u;
  };

  /* ---- layer A: per-qubit single-qubit run fusion ---- */

  void flush_pending( uint32_t qubit )
  {
    auto& slot = pending_[qubit];
    if ( slot.count == 0u )
    {
      return;
    }
    const matrix2 m = slot.m;
    const uint32_t count = slot.count;
    slot.m = identity2;
    slot.count = 0u;
    emit_1q( qubit, m, count );
  }

  void emit_1q( uint32_t qubit, const matrix2& m, uint32_t source_gates )
  {
    if ( is_near_identity( m ) )
    {
      QDA_COUNT_N( "sim.fusion.identity_dropped_gates", source_gates );
      return; /* e.g. H H or X X runs cancel entirely */
    }
    op o;
    o.qubit = qubit;
    o.m = m;
    o.source_gates = source_gates;
    if ( is_exact_diag( m ) )
    {
      o.kind = op_kind::diag_1q;
    }
    else if ( is_exact_antidiag( m ) )
    {
      o.kind = op_kind::antidiag_1q;
    }
    else
    {
      o.kind = op_kind::unitary_1q;
    }
    emit( std::move( o ) );
  }

  /* ---- layers B/C: open fused groups ---- */

  void emit( op o )
  {
    const uint64_t support = op_support( o );
    const bool diagonal = op_is_diagonal( o );

    if ( diagonal && !options_.fuse_diagonals )
    {
      place_in_new_block( std::move( o ), support, diagonal );
      return;
    }

    /* walk the open blocks back to front; pass what we commute with */
    for ( size_t i = open_.size(); i-- > 0u; )
    {
      block& candidate = open_[i];
      if ( diagonal )
      {
        if ( candidate.diagonal )
        {
          if ( fits_diag( candidate, support ) )
          {
            join_diag( candidate, o );
            return;
          }
          continue; /* diagonal past diagonal: always commutes */
        }
        if ( ( support & candidate.support ) == 0u )
        {
          continue;
        }
        if ( fits_dense( candidate, support ) )
        {
          join_dense( candidate, std::move( o ), support );
          return;
        }
        break;
      }
      /* non-diagonal op */
      if ( ( support & candidate.support ) == 0u )
      {
        continue;
      }
      if ( !candidate.diagonal && fits_dense( candidate, support ) )
      {
        join_dense( candidate, std::move( o ), support );
        return;
      }
      break;
    }
    place_in_new_block( std::move( o ), support, diagonal );
  }

  bool fits_diag( const block& candidate, uint64_t support ) const
  {
    return static_cast<uint32_t>( std::popcount( candidate.support | support ) ) <=
           options_.max_diag_table_qubits;
  }

  bool fits_dense( const block& candidate, uint64_t support ) const
  {
    if ( options_.max_dense_fusion_qubits == 0u )
    {
      return false;
    }
    return static_cast<uint32_t>( std::popcount( candidate.support | support ) ) <=
           options_.max_dense_fusion_qubits;
  }

  void join_diag( block& candidate, const op& o )
  {
    candidate.support |= op_support( o );
    candidate.sources += o.source_gates;
    switch ( o.kind )
    {
    case op_kind::diag_1q:
      candidate.qubit_factors.push_back( { o.qubit, { o.m[0], o.m[3] } } );
      break;
    case op_kind::phase_masked:
      candidate.masked_factors.push_back( { o.mask, o.m[0] } );
      break;
    case op_kind::scalar:
      candidate.scalar *= o.m[0];
      break;
    default:
      throw std::logic_error( "sim::compile: op kind not valid inside a diagonal block" );
    }
  }

  void join_dense( block& candidate, op o, uint64_t support )
  {
    candidate.support |= support;
    candidate.sources += o.source_gates;
    candidate.ops.push_back( std::move( o ) );
  }

  void place_in_new_block( op o, uint64_t support, bool diagonal )
  {
    block fresh;
    fresh.diagonal = diagonal;
    fresh.support = support;
    fresh.sources = o.source_gates;
    if ( diagonal )
    {
      join_diag( fresh, o );
      fresh.sources = o.source_gates; /* join_diag added it again */
    }
    else
    {
      fresh.ops.push_back( std::move( o ) );
    }
    open_.push_back( std::move( fresh ) );
    if ( open_.size() > max_open_blocks )
    {
      flush_block( open_.front() );
      open_.pop_front();
    }
  }

  void flush_all_blocks()
  {
    for ( auto& blk : open_ )
    {
      flush_block( blk );
    }
    open_.clear();
  }

  void flush_block( block& blk )
  {
    if ( blk.diagonal )
    {
      flush_diag_block( blk );
    }
    else
    {
      flush_dense_block( blk );
    }
  }

  void flush_diag_block( block& blk )
  {
    op o;
    o.source_gates = blk.sources;
    if ( blk.support == 0u )
    {
      if ( blk.scalar == amplitude{ 1.0 } )
      {
        return; /* phases cancelled exactly */
      }
      o.kind = op_kind::scalar;
      o.m[0] = blk.scalar;
      result_.ops.push_back( std::move( o ) );
      return;
    }
    if ( blk.qubit_factors.size() == 1u && blk.masked_factors.empty() )
    {
      const auto& [qubit, phases] = blk.qubit_factors.front();
      o.kind = op_kind::diag_1q;
      o.qubit = qubit;
      o.m[0] = phases.first * blk.scalar;
      o.m[3] = phases.second * blk.scalar;
      result_.ops.push_back( std::move( o ) );
      return;
    }
    if ( blk.masked_factors.size() == 1u && blk.qubit_factors.empty() &&
         blk.scalar == amplitude{ 1.0 } )
    {
      o.kind = op_kind::phase_masked;
      o.mask = blk.masked_factors.front().first;
      o.m[0] = blk.masked_factors.front().second;
      result_.ops.push_back( std::move( o ) );
      return;
    }
    /* one phase table over the involved qubits */
    std::vector<uint32_t> qubits;
    for ( uint32_t q = 0u; q < 64u; ++q )
    {
      if ( ( blk.support >> q ) & 1u )
      {
        qubits.push_back( q );
      }
    }
    const uint32_t k = static_cast<uint32_t>( qubits.size() );
    std::vector<amplitude> table( uint64_t{ 1 } << k, blk.scalar );
    for ( const auto& [qubit, phases] : blk.qubit_factors )
    {
      uint32_t position = 0u;
      while ( qubits[position] != qubit )
      {
        ++position;
      }
      for ( uint64_t key = 0u; key < table.size(); ++key )
      {
        table[key] *= ( ( key >> position ) & 1u ) != 0u ? phases.second : phases.first;
      }
    }
    for ( const auto& [mask, phase] : blk.masked_factors )
    {
      uint64_t compressed = 0u;
      for ( uint32_t j = 0u; j < k; ++j )
      {
        if ( ( mask >> qubits[j] ) & 1u )
        {
          compressed |= uint64_t{ 1 } << j;
        }
      }
      for ( uint64_t key = 0u; key < table.size(); ++key )
      {
        if ( ( key & compressed ) == compressed )
        {
          table[key] *= phase;
        }
      }
    }
    o.kind = op_kind::diag_table;
    o.table_qubits = std::move( qubits );
    o.table = std::move( table );
    QDA_COUNT( "sim.fusion.diag_tables" );
    QDA_COUNT_N( "sim.fusion.diag_table_gates", o.source_gates );
    result_.ops.push_back( std::move( o ) );
  }

  void flush_dense_block( block& blk )
  {
    if ( blk.ops.empty() )
    {
      return;
    }
    if ( blk.ops.size() == 1u )
    {
      blk.ops.front().source_gates = blk.sources;
      result_.ops.push_back( std::move( blk.ops.front() ) );
      return;
    }
    /* compose the block into one dense 2^k x 2^k matrix: remap every op
     * to local qubit indices, then apply it to the rows of the identity */
    std::vector<uint32_t> qubits;
    for ( uint32_t q = 0u; q < 64u; ++q )
    {
      if ( ( blk.support >> q ) & 1u )
      {
        qubits.push_back( q );
      }
    }
    const uint32_t k = static_cast<uint32_t>( qubits.size() );
    const uint64_t block_dim = uint64_t{ 1 } << k;
    std::vector<uint32_t> local_of( qubits.back() + 1u, 0u );
    for ( uint32_t j = 0u; j < k; ++j )
    {
      local_of[qubits[j]] = j;
    }
    const auto localize_mask = [&]( uint64_t mask ) {
      uint64_t local = 0u;
      for ( uint32_t j = 0u; j < k; ++j )
      {
        if ( ( mask >> qubits[j] ) & 1u )
        {
          local |= uint64_t{ 1 } << j;
        }
      }
      return local;
    };
    std::vector<amplitude> matrix( block_dim * block_dim, amplitude{ 0.0 } );
    for ( uint64_t r = 0u; r < block_dim; ++r )
    {
      matrix[r * block_dim + r] = 1.0;
    }
    for ( auto& o : blk.ops )
    {
      /* remap to local coordinates */
      op local = std::move( o );
      switch ( local.kind )
      {
      case op_kind::unitary_1q:
      case op_kind::diag_1q:
      case op_kind::antidiag_1q:
        local.qubit = local_of[local.qubit];
        break;
      case op_kind::phase_masked:
        local.mask = localize_mask( local.mask );
        break;
      case op_kind::mcx:
        local.mask = localize_mask( local.mask );
        local.qubit = local_of[local.qubit];
        break;
      case op_kind::swap_2q:
        local.qubit = local_of[local.qubit];
        local.qubit2 = local_of[local.qubit2];
        break;
      case op_kind::scalar:
        break;
      default:
        throw std::logic_error( "sim::compile: op kind not valid inside a dense block" );
      }
      apply_to_rows( local, matrix.data(), block_dim );
    }
    QDA_COUNT( "sim.fusion.dense_blocks" );
    QDA_COUNT_N( "sim.fusion.dense_block_gates", blk.sources );
    QDA_COUNT_N( "sim.fusion.dense_block_nonzeros",
                 std::count_if( matrix.begin(), matrix.end(),
                                []( amplitude a ) { return a != amplitude{ 0.0 }; } ) );
    op fused;
    fused.kind = op_kind::fused_kq;
    fused.source_gates = blk.sources;
    fused.table_qubits = std::move( qubits );
    fused.table = std::move( matrix );
    result_.ops.push_back( std::move( fused ) );
  }

  compile_options options_;
  std::vector<pending_1q> pending_;
  std::deque<block> open_; /*!< creation order; front flushes first */
  program result_;
};

program compile_impl( const qcircuit& circuit, std::vector<uint32_t>* measured,
                      const compile_options& options )
{
  QDA_TRACE_SPAN_NAMED( compile_span, "sim.compile" );
  compiler c( circuit.num_qubits(), options );
  cancel_checkpoint checkpoint( 4096u );
  for ( const auto& gate : circuit.gates() )
  {
    if ( checkpoint.due() )
    {
      options.cancel.check( "sim.compile" );
    }
    c.add_gate( gate, measured );
  }
  auto prog = c.finish();
  if ( options.tile_scheduling )
  {
    schedule_options tiling;
    tiling.tile_qubits = options.tile_qubits;
    schedule_tiles( prog, tiling );
  }
  int64_t tiled_segments = 0;
  for ( const auto& seg : prog.segments )
  {
    tiled_segments += seg.tiled ? 1 : 0;
  }
  compile_span.attr( "gates", prog.source_gate_count )
      .attr( "ops", static_cast<int64_t>( prog.ops.size() ) )
      .attr( "tiled_segments", tiled_segments );
  return prog;
}

/*! Telemetry of one kernel dispatch: per-kind invocation counts and the
 *  amplitudes each kernel actually walks (masked kernels enumerate only
 *  the control-satisfying subspace).  One relaxed atomic add per op --
 *  ops are already fused, so this is far off the per-amplitude path.
 */
void record_dispatch( const op& o, uint64_t dim )
{
  struct instrument
  {
    telemetry::counter* calls;
    telemetry::counter* amplitudes;
  };
  static const std::array<const char*, 10> names = {
    "unitary_1q", "diag_1q",  "antidiag_1q", "phase_masked", "diag_table",
    "fused_kq",   "mcx",      "swap_2q",     "scalar",       "measure" };
  static std::array<instrument, 10> instruments = [] {
    std::array<instrument, 10> table{};
    auto& registry = telemetry::metrics_registry::instance();
    for ( size_t i = 0u; i < table.size(); ++i )
    {
      table[i].calls =
          &registry.get_counter( std::string( "sim.kernel." ) + names[i] + ".calls" );
      table[i].amplitudes =
          &registry.get_counter( std::string( "sim.kernel." ) + names[i] + ".amplitudes" );
    }
    return table;
  }();

  /* which primitive table served this dispatch */
  static std::array<telemetry::counter*, 3> isa_counters = [] {
    auto& registry = telemetry::metrics_registry::instance();
    return std::array<telemetry::counter*, 3>{
      &registry.get_counter( "sim.kernel.isa.scalar" ),
      &registry.get_counter( "sim.kernel.isa.avx2" ),
      &registry.get_counter( "sim.kernel.isa.avx512" ),
    };
  }();

  uint64_t touched = dim;
  switch ( o.kind )
  {
  case op_kind::phase_masked:
    touched = dim >> std::popcount( o.mask );
    break;
  case op_kind::mcx:
    touched = dim >> std::popcount( o.mask );
    break;
  case op_kind::swap_2q:
    touched = dim / 2u;
    break;
  default:
    break;
  }
  const auto index = static_cast<size_t>( o.kind );
  instruments[index].calls->add( 1u );
  instruments[index].amplitudes->add( touched );
  isa_counters[static_cast<size_t>( active_isa() )]->add( 1u );
}

} // namespace

uint64_t op_support( const op& o )
{
  switch ( o.kind )
  {
  case op_kind::unitary_1q:
  case op_kind::diag_1q:
  case op_kind::antidiag_1q:
  case op_kind::measure:
    return uint64_t{ 1 } << o.qubit;
  case op_kind::phase_masked:
    return o.mask;
  case op_kind::mcx:
    return o.mask | ( uint64_t{ 1 } << o.qubit );
  case op_kind::swap_2q:
    return ( uint64_t{ 1 } << o.qubit ) | ( uint64_t{ 1 } << o.qubit2 );
  case op_kind::diag_table:
  case op_kind::fused_kq:
  {
    uint64_t mask = 0u;
    for ( const auto qubit : o.table_qubits )
    {
      mask |= uint64_t{ 1 } << qubit;
    }
    return mask;
  }
  case op_kind::scalar:
    return 0u;
  }
  return 0u;
}

bool op_is_diagonal( const op& o )
{
  return o.kind == op_kind::diag_1q || o.kind == op_kind::phase_masked ||
         o.kind == op_kind::scalar || o.kind == op_kind::diag_table;
}

void apply_op( const op& o, amplitude* state, uint64_t dim )
{
  switch ( o.kind )
  {
  case op_kind::unitary_1q:
    apply_1q( state, dim, o.qubit, o.m );
    break;
  case op_kind::diag_1q:
    apply_1q_diag( state, dim, o.qubit, o.m[0], o.m[3] );
    break;
  case op_kind::antidiag_1q:
    if ( o.m[1] == amplitude{ 1.0 } && o.m[2] == amplitude{ 1.0 } )
    {
      apply_mcx( state, dim, 0u, o.qubit ); /* plain X: pure swaps */
    }
    else
    {
      apply_1q_antidiag( state, dim, o.qubit, o.m[1], o.m[2] );
    }
    break;
  case op_kind::phase_masked:
    apply_phase_masked( state, dim, o.mask, o.m[0] );
    break;
  case op_kind::diag_table:
    apply_diag_table( state, dim, o.table_qubits, o.table );
    break;
  case op_kind::fused_kq:
    apply_fused_kq( state, dim, o.table_qubits, o.table );
    break;
  case op_kind::mcx:
    apply_mcx( state, dim, o.mask, o.qubit );
    break;
  case op_kind::swap_2q:
    apply_swap( state, dim, o.qubit, o.qubit2 );
    break;
  case op_kind::scalar:
    apply_scalar( state, dim, o.m[0] );
    break;
  case op_kind::measure:
    throw std::logic_error( "sim::apply_op: measure ops need the executor's callback" );
  }
}

program compile( const qcircuit& circuit, const compile_options& options )
{
  return compile_impl( circuit, nullptr, options );
}

program compile_unitary_prefix( const qcircuit& circuit, std::vector<uint32_t>& measured,
                                const compile_options& options )
{
  return compile_impl( circuit, &measured, options );
}

void execute( const program& prog, amplitude* state, uint64_t dim )
{
  execute( prog, state, dim, []( uint32_t ) -> bool {
    throw std::logic_error( "sim::execute: measure op without a measurement callback" );
  } );
}

namespace
{

void execute_one( const op& o, amplitude* state, uint64_t dim,
                  const std::function<bool( uint32_t )>& measure_cb )
{
  if constexpr ( telemetry::compiled_in )
  {
    if ( telemetry::enabled() )
    {
      record_dispatch( o, dim );
    }
  }
  if ( o.kind == op_kind::measure )
  {
    measure_cb( o.qubit );
    return;
  }
  apply_op( o, state, dim );
}

} // namespace

void execute( const program& prog, amplitude* state, uint64_t dim,
              const std::function<bool( uint32_t )>& measure_cb )
{
  if ( prog.segments.empty() )
  {
    for ( const auto& o : prog.ops )
    {
      execute_one( o, state, dim, measure_cb );
    }
    return;
  }
  const uint32_t tq = prog.tile_qubits;
  const uint64_t tile_dim = uint64_t{ 1 } << tq;
  for ( const auto& seg : prog.segments )
  {
    if ( !seg.tiled )
    {
      for ( const auto index : seg.op_indices )
      {
        execute_one( prog.ops[index], state, dim, measure_cb );
      }
      continue;
    }
    if constexpr ( telemetry::compiled_in )
    {
      if ( telemetry::enabled() )
      {
        for ( const auto index : seg.op_indices )
        {
          record_dispatch( prog.ops[index], dim );
        }
        QDA_COUNT( "sim.schedule.tiled_segments" );
        QDA_COUNT_N( "sim.schedule.tiled_ops", seg.op_indices.size() );
        QDA_COUNT_N( "sim.schedule.tiles_swept", dim >> tq );
        QDA_HISTOGRAM( "sim.schedule.ops_per_tile_sweep",
                       static_cast<double>( seg.op_indices.size() ),
                       { 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0 } );
      }
    }
    /* sweep each cache-resident tile once for the whole segment; tiles
     * are disjoint windows, so the usual deterministic chunking holds */
    parallel_for(
        dim >> tq,
        [&]( uint64_t begin, uint64_t end ) {
          for ( uint64_t tile = begin; tile < end; ++tile )
          {
            amplitude* window = state + ( tile << tq );
            for ( const auto index : seg.op_indices )
            {
              apply_op( prog.ops[index], window, tile_dim );
            }
          }
        },
        tile_dim * seg.op_indices.size() );
  }
}

} // namespace qda::sim
