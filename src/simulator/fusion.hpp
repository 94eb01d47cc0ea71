/*! \file fusion.hpp
 *  \brief Gate fusion: compiles gate streams into fused kernel programs.
 *
 *  The middle layer of the high-throughput simulation engine.  A
 *  `program` is a sequence of kernel ops compiled from a circuit's gate
 *  view in one forward pass:
 *
 *   1. runs of single-qubit gates on the same qubit -- even when
 *      interleaved with gates on other qubits -- collapse into one 2x2
 *      matrix product (classified diagonal / antidiagonal / general at
 *      flush time; identities are dropped);
 *   2. adjacent diagonal ops (fused diagonal 2x2s, CZ/MCZ masks, global
 *      phases) merge into a single phase table over their involved
 *      qubits, applied in one pass;
 *   3. non-diagonal ops whose combined support stays within
 *      `max_dense_fusion_qubits` merge into one dense 2^k x 2^k matrix,
 *      composed by applying each op to the rows of the identity, and
 *      applied in one pass that skips the matrix's exact-zero terms.
 *
 *  Fused groups are kept open as long as newly arriving ops commute
 *  past them (disjoint support, or diagonal past diagonal), so e.g. a
 *  brick of layered gates on one qubit pair keeps folding into the same
 *  dense block across layers.  All rewrites are exact: an op only ever
 *  moves past ops it commutes with, so the compiled program implements
 *  the same unitary as the gate-by-gate walk.
 */
#pragma once

#include "fault/cancel.hpp"
#include "quantum/qcircuit.hpp"
#include "simulator/kernels.hpp"

#include <cstdint>
#include <vector>

namespace qda::sim
{

/*! \brief Kernel selector of one compiled op. */
enum class op_kind : uint8_t
{
  unitary_1q,   /*!< general 2x2 on `qubit` */
  diag_1q,      /*!< diag(m[0], m[3]) on `qubit` */
  antidiag_1q,  /*!< [[0, m[1]], [m[2], 0]] on `qubit` */
  phase_masked, /*!< multiply m[0] where all `mask` bits set (Z/CZ/MCZ) */
  diag_table,   /*!< fused diagonal: phase table over `table_qubits` */
  fused_kq,     /*!< dense 2^k x 2^k matrix (`table`, row-major) over
                 *   `table_qubits`: one pass over its nonzero terms */
  mcx,          /*!< X on `qubit` where all `mask` control bits set */
  swap_2q,      /*!< SWAP(qubit, qubit2) */
  scalar,       /*!< multiply every amplitude by m[0] (global phase) */
  measure       /*!< collapse `qubit` (handled by the executor's callback) */
};

/*! \brief One compiled kernel invocation. */
struct op
{
  op_kind kind = op_kind::unitary_1q;
  uint32_t qubit = 0u;
  uint32_t qubit2 = 0u;
  uint64_t mask = 0u;
  std::array<amplitude, 4> m{};
  std::vector<uint32_t> table_qubits; /*!< diag_table / fused_kq, ascending */
  std::vector<amplitude> table;       /*!< 2^k phases, or 2^k x 2^k matrix */
  uint32_t source_gates = 1u;         /*!< original gates fused into this op */
};

/*! \brief Fusion knobs (defaults = full fusion). */
struct compile_options
{
  bool fuse_single_qubit = true;
  bool fuse_diagonals = true;
  /*! \brief Cap on phase-table width: tables hold 2^k amplitudes. */
  uint32_t max_diag_table_qubits = 12u;
  /*! \brief Cap on dense-block width (0 disables dense fusion); small
   *         by design: a block costs one complex multiply-add per
   *         nonzero matrix entry per group (up to 2^k per amplitude for
   *         a dense block), so wide dense blocks stop being
   *         memory-bound.  Blocks above 3 qubits run on the scalar
   *         primitive (simd.hpp, max_register_block_qubits).
   */
  uint32_t max_dense_fusion_qubits = 3u;
  /*! \brief Cache-blocked tile scheduling (schedule.hpp): group ops
   *         whose support fits in the low tile qubits into per-tile
   *         sweeps so each L2-sized amplitude tile is loaded once per
   *         group instead of once per op.
   */
  bool tile_scheduling = true;
  /*! \brief Amplitude tile size as a qubit count; 0 = automatic
   *         (QDA_SIM_TILE_QUBITS environment variable, else 16: 2^16
   *         amplitudes = 1 MiB, sized for L2).
   */
  uint32_t tile_qubits = 0u;
  /*! \brief Cooperative cancellation, polled in the gate-fusion loop. */
  cancel_token cancel{};
};

/*! \brief A run of consecutive ops in execution order.  A tiled segment
 *         only references ops supported on the low tile qubits and is
 *         executed tile by tile (all ops back to back per tile); a
 *         non-tiled segment is a single full-sweep op.
 */
struct tile_segment
{
  bool tiled = false;
  std::vector<uint32_t> op_indices; /*!< indices into program::ops */
};

/*! \brief A compiled kernel program over a fixed qubit count. */
struct program
{
  uint32_t num_qubits = 0u;
  std::vector<op> ops;
  uint64_t source_gate_count = 0u; /*!< gates consumed (barriers excluded) */

  /*! \brief Cache-blocked schedule (schedule_tiles).  Empty = execute
   *         `ops` front to back with full-dimension sweeps. */
  std::vector<tile_segment> segments;
  uint32_t tile_qubits = 0u; /*!< tile size backing `segments` */

  uint64_t dimension() const noexcept { return uint64_t{ 1 } << num_qubits; }
};

/*! \brief Compiles all gates of `circuit` (including measures). */
program compile( const qcircuit& circuit, const compile_options& options = {} );

/*! \brief Compiles only the unitary gates, recording measured qubits in
 *         gate order into `measured` -- the sampler walks the gate view
 *         directly instead of copying the circuit.
 */
program compile_unitary_prefix( const qcircuit& circuit, std::vector<uint32_t>& measured,
                                const compile_options& options = {} );

/*! \brief Qubits an op touches, as a bit mask (scalar ops: 0). */
uint64_t op_support( const op& o );

/*! \brief True for ops that are diagonal in the computational basis. */
bool op_is_diagonal( const op& o );

/*! \brief Applies one compiled op to an amplitude window.  `dim` may be
 *         a tile-sized window smaller than the program dimension when
 *         the op's support fits inside it; measure ops are rejected
 *         with std::logic_error.
 */
void apply_op( const op& o, amplitude* state, uint64_t dim );

/*! \brief Executes a measurement-free program on `state` (throws
 *         std::logic_error on a measure op).
 */
void execute( const program& prog, amplitude* state, uint64_t dim );

/*! \brief Executes a program; measure ops invoke `measure_cb(qubit)`,
 *         which must collapse the state and return the outcome.
 */
void execute( const program& prog, amplitude* state, uint64_t dim,
              const std::function<bool( uint32_t )>& measure_cb );

} // namespace qda::sim
