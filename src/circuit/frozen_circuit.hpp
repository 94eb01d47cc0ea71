/*! \file frozen_circuit.hpp
 *  \brief Immutable, byte-packed snapshots of circuits.
 *
 *  A live `ir::circuit` carries what in-place passes need: tombstones
 *  and per-row columns -- for the Clifford+T policy also an operand
 *  slab and an angle pool with a hash lookup, about 25 bytes per
 *  gate.  A cache that only ever hands a circuit back needs none of it.
 *  `frozen_circuit<Policy>` keeps the alive rows in one allocation and
 *  `thaw`s them into a compacted circuit whose rows equal the frozen
 *  circuit's alive rows.
 *
 *  Clifford+T rows (`frozen_circuit<cliffordt_policy>`) are a header
 *  byte -- gate kind in bits 0-4; bits 5-6 say no control, one
 *  control, or an explicit count; bit 7 says the row has an extra flag
 *  byte (bit 0 = angle, bit 1 = target2) -- plus narrow operands.  The
 *  slab stores the row fields section by section, so that `thaw` fills
 *  most columns with straight bulk loops:
 *
 *      headers | targets | counts | controls | extra flags | target2s | angles
 *
 *  `counts` holds only the rows with two or more controls, `controls`
 *  every control in row order, and the last three sections only the
 *  rows that have them.  Operands are `width` bytes, chosen once per
 *  snapshot from the largest one: one byte for circuits of up to 256
 *  wires, two up to 65536, else four.  A rotation-free Clifford+T
 *  circuit costs 2 bytes per single-qubit gate and 3 per CNOT.  There
 *  are no tombstones and no angle hash map; angles thaw bit for bit.
 *
 *  MCT rows (`frozen_circuit<mct_policy>`) are fixed-size: the target,
 *  then the control and polarity masks, each cut to the bytes the
 *  widest mask needs -- 3 bytes per gate up to 8 lines.
 */
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/cliffordt_policy.hpp"
#include "circuit/mct_policy.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

namespace qda::ir
{

template<typename Policy>
class frozen_circuit;

template<>
class frozen_circuit<cliffordt_policy>
{
public:
  using circuit_type = circuit<cliffordt_policy>;

  frozen_circuit() = default;

  /*! \brief Packs the alive rows of `c`, skipping dead slots. */
  static frozen_circuit freeze( const circuit_type& c )
  {
    const auto& cols = c.columns();
    frozen_circuit out;
    out.num_wires_ = c.num_wires();

    /* pass 1: section sizes and the widest operand decide the layout */
    const auto rows = c.num_tombstones() == 0u ? tally<true>( c ) : tally<false>( c );
    uint32_t widest = rows.widest;
    for ( const uint32_t op : cols.operands )
    {
      widest |= op;
    }
    out.width_ = widest < ( 1u << 8u ) ? 1u : widest < ( 1u << 16u ) ? 2u : 4u;
    out.num_gates_ = rows.gates;
    out.num_controls_ = rows.controls;
    out.num_angles_ = rows.angles;
    const size_t w = out.width_;
    out.targets_at_ = rows.gates;
    out.counts_at_ = out.targets_at_ + rows.gates * w;
    out.controls_at_ = out.counts_at_ + rows.counted * w;
    /* a one-control store is unconditional; `pad` absorbs the last one */
    out.extras_at_ = out.controls_at_ + rows.controls * w + pad;
    out.target2s_at_ = out.extras_at_ + rows.extras;
    out.angles_at_ = out.target2s_at_ + rows.target2s * w;
    out.size_ = out.angles_at_ + rows.angles * sizeof( double );
    out.data_ = std::make_unique_for_overwrite<uint8_t[]>( out.size_ );

    /* pass 2: encode */
    switch ( out.width_ )
    {
    case 1u: out.encode<uint8_t>( c ); break;
    case 2u: out.encode<uint16_t>( c ); break;
    default: out.encode<uint32_t>( c ); break;
    }
    return out;
  }

  /*! \brief Decodes into a compacted circuit. */
  circuit_type thaw() const
  {
    cliffordt_policy::columns cols;
    cols.kind.resize( num_gates_ );
    cols.target.resize( num_gates_ );
    cols.target2.resize( num_gates_, 0u );
    cols.op_offset.resize( num_gates_ );
    cols.op_count.resize( num_gates_ );
    cols.angle_index.resize( num_gates_, npos );
    cols.operands.resize( num_controls_ );
    cols.angles.resize( num_angles_ );
    switch ( width_ )
    {
    case 1u: decode<uint8_t>( cols ); break;
    case 2u: decode<uint16_t>( cols ); break;
    default: decode<uint32_t>( cols ); break;
    }
    return circuit_type( num_wires_, std::move( cols ) );
  }

  uint32_t num_wires() const noexcept { return num_wires_; }
  size_t num_gates() const noexcept { return num_gates_; }

  /*! \brief Bytes of the snapshot's one allocation. */
  size_t bytes() const noexcept { return size_; }

  /*! \brief Bytes per operand: 1, 2 or 4. */
  uint32_t width() const noexcept { return width_; }

private:
  static constexpr uint32_t kind_mask = 0x1Fu;
  static constexpr uint32_t shape_shift = 5u; /*!< 0 = no control, 1 = one, 2 = counted */
  static constexpr uint32_t extra_bit = 0x80u;
  static constexpr uint8_t extra_angle = 1u;
  static constexpr uint8_t extra_target2 = 2u;
  static constexpr size_t pad = sizeof( uint32_t );

  static_assert( static_cast<uint32_t>( gate_kind::global_phase ) <= kind_mask,
                 "every gate kind must fit the header's five kind bits" );

  struct row_tally
  {
    uint32_t gates = 0u, controls = 0u, counted = 0u, extras = 0u, target2s = 0u, angles = 0u;
    uint32_t widest = 0u; /*!< OR of targets, target2s and counts */
  };

  /*! Branch-free count of the section sizes over the alive rows (dead
   *  slots only ever widen `widest`); the compacted instance
   *  vectorizes. */
  template<bool Compacted>
  static row_tally tally( const circuit_type& c )
  {
    const auto& cols = c.columns();
    const uint32_t* target = cols.target.data();
    const uint32_t* target2 = cols.target2.data();
    const uint32_t* op_count = cols.op_count.data();
    const uint32_t* angle_index = cols.angle_index.data();
    row_tally t;
    const uint32_t slots = c.num_slots();
    for ( uint32_t slot = 0u; slot < slots; ++slot )
    {
      const uint32_t live = Compacted || c.slot_alive( slot ) ? 1u : 0u;
      const uint32_t count = op_count[slot];
      const uint32_t has_target2 = target2[slot] != 0u ? 1u : 0u;
      const uint32_t has_angle = angle_index[slot] != npos ? 1u : 0u;
      t.gates += live;
      t.controls += live * count;
      t.counted += live & ( count > 1u ? 1u : 0u );
      t.target2s += live & has_target2;
      t.angles += live & has_angle;
      t.extras += live & ( has_target2 | has_angle );
      t.widest |= target[slot] | target2[slot] | count;
    }
    return t;
  }

  template<typename Word>
  static void store( uint8_t* out, uint32_t value )
  {
    const auto word = static_cast<Word>( value );
    std::memcpy( out, &word, sizeof( Word ) );
  }

  template<typename Word>
  static uint32_t load( const uint8_t* in )
  {
    Word word;
    std::memcpy( &word, in, sizeof( Word ) );
    return word;
  }

  template<typename Word>
  void encode( const circuit_type& c ) const
  {
    constexpr size_t w = sizeof( Word );
    /* byte stores may alias anything, so every column pointer and
     * section cursor lives in a local */
    const auto& cols = c.columns();
    const gate_kind* kind = cols.kind.data();
    const uint32_t* target = cols.target.data();
    const uint32_t* target2 = cols.target2.data();
    const uint32_t* op_offset = cols.op_offset.data();
    const uint32_t* op_count = cols.op_count.data();
    const uint32_t* angle_index = cols.angle_index.data();
    const uint32_t* operands = cols.operands.data();
    const double* angle_pool = cols.angles.data();
    /* a row with no control stores operand 0 (or this zero) and does
     * not advance, so the common 0/1-control rows take no branch */
    const uint32_t none = 0u;
    const uint32_t* first_control = cols.operands.empty() ? &none : cols.operands.data();
    uint8_t* headers = data_.get();
    uint8_t* targets = headers + targets_at_;
    uint8_t* counts = headers + counts_at_;
    uint8_t* controls = headers + controls_at_;
    uint8_t* extras = headers + extras_at_;
    uint8_t* target2s = headers + target2s_at_;
    uint8_t* angles = headers + angles_at_;
    const uint32_t slots = c.num_slots();
    const bool compacted = c.num_tombstones() == 0u;
    for ( uint32_t slot = 0u; slot < slots; ++slot )
    {
      if ( !compacted && !c.slot_alive( slot ) )
      {
        continue;
      }
      const uint32_t count = op_count[slot];
      const uint32_t second = target2[slot];
      const uint32_t angle = angle_index[slot];
      const uint32_t extra = ( second != 0u ? extra_target2 : 0u ) |
                             ( angle != npos ? extra_angle : 0u );
      *headers++ = static_cast<uint8_t>( static_cast<uint32_t>( kind[slot] ) |
                                         ( std::min( count, 2u ) << shape_shift ) |
                                         ( extra != 0u ? extra_bit : 0u ) );
      store<Word>( targets, target[slot] );
      targets += w;
      if ( count > 1u )
      {
        store<Word>( counts, count );
        counts += w;
        const uint32_t* ops = operands + op_offset[slot];
        for ( uint32_t i = 0u; i < count; ++i, controls += w )
        {
          store<Word>( controls, ops[i] );
        }
      }
      else
      {
        store<Word>( controls, first_control[count != 0u ? op_offset[slot] : 0u] );
        controls += w * count;
      }
      if ( extra != 0u )
      {
        *extras++ = static_cast<uint8_t>( extra );
        if ( second != 0u )
        {
          store<Word>( target2s, second );
          target2s += w;
        }
        if ( angle != npos )
        {
          std::memcpy( angles, angle_pool + angle, sizeof( double ) );
          angles += sizeof( double );
        }
      }
    }
  }

  template<typename Word>
  void decode( cliffordt_policy::columns& cols ) const
  {
    constexpr size_t w = sizeof( Word );
    const uint8_t* const base = data_.get();
    const size_t n = num_gates_;

    /* bulk: kinds, targets and the operand slab */
    gate_kind* kind = cols.kind.data();
    for ( size_t row = 0u; row < n; ++row )
    {
      kind[row] = static_cast<gate_kind>( base[row] & kind_mask );
    }
    const uint8_t* targets = base + targets_at_;
    uint32_t* target = cols.target.data();
    for ( size_t row = 0u; row < n; ++row )
    {
      target[row] = load<Word>( targets + row * w );
    }
    const uint8_t* controls = base + controls_at_;
    uint32_t* operands = cols.operands.data();
    for ( size_t i = 0u; i < num_controls_; ++i )
    {
      operands[i] = load<Word>( controls + i * w );
    }

    /* per row: control counts and offsets, then the rare extras */
    const uint8_t* counts = base + counts_at_;
    const uint8_t* extras = base + extras_at_;
    const uint8_t* target2s = base + target2s_at_;
    const uint8_t* angles = base + angles_at_;
    uint32_t* op_offset = cols.op_offset.data();
    uint32_t* op_count = cols.op_count.data();
    uint32_t next_operand = 0u;
    uint32_t next_angle = 0u;
    for ( size_t row = 0u; row < n; ++row )
    {
      const uint32_t header = base[row];
      uint32_t count = ( header >> shape_shift ) & 3u;
      if ( count > 1u )
      {
        count = load<Word>( counts );
        counts += w;
      }
      op_offset[row] = next_operand;
      op_count[row] = count;
      next_operand += count;
      if ( ( header & extra_bit ) != 0u )
      {
        const uint8_t extra = *extras++;
        if ( ( extra & extra_target2 ) != 0u )
        {
          cols.target2[row] = load<Word>( target2s );
          target2s += w;
        }
        if ( ( extra & extra_angle ) != 0u )
        {
          std::memcpy( &cols.angles[next_angle], angles, sizeof( double ) );
          angles += sizeof( double );
          cols.angle_index[row] = next_angle++;
        }
      }
    }
  }

  std::unique_ptr<uint8_t[]> data_;
  size_t size_ = 0u;
  size_t num_gates_ = 0u;
  size_t num_controls_ = 0u;
  size_t num_angles_ = 0u;
  /* section offsets into `data_`; the headers start at 0 */
  size_t targets_at_ = 0u;
  size_t counts_at_ = 0u;
  size_t controls_at_ = 0u;
  size_t extras_at_ = 0u;
  size_t target2s_at_ = 0u;
  size_t angles_at_ = 0u;
  uint32_t num_wires_ = 0u;
  uint32_t width_ = 1u;
};

template<>
class frozen_circuit<mct_policy>
{
public:
  using circuit_type = circuit<mct_policy>;

  frozen_circuit() = default;

  /*! \brief Packs the alive rows of `c`, skipping dead slots. */
  static frozen_circuit freeze( const circuit_type& c )
  {
    const auto& cols = c.columns();
    frozen_circuit out;
    out.num_wires_ = c.num_wires();
    uint64_t widest_mask = 0u;
    uint32_t widest_target = 0u;
    const uint32_t slots = c.num_slots();
    for ( uint32_t slot = 0u; slot < slots; ++slot )
    {
      if ( c.slot_alive( slot ) )
      {
        ++out.num_gates_;
        widest_mask |= cols.controls[slot] | cols.polarity[slot];
        widest_target |= cols.target[slot];
      }
    }
    out.target_bytes_ = widest_target < ( 1u << 8u ) ? 1u : 4u;
    out.mask_bytes_ = 0u;
    while ( out.mask_bytes_ < 8u && ( widest_mask >> ( 8u * out.mask_bytes_ ) ) != 0u )
    {
      ++out.mask_bytes_;
    }
    out.data_ = std::make_unique_for_overwrite<uint8_t[]>( out.bytes() );

    uint8_t* row = out.data_.get();
    for ( uint32_t slot = 0u; slot < slots; ++slot )
    {
      if ( c.slot_alive( slot ) )
      {
        row = put( row, cols.target[slot], out.target_bytes_ );
        row = put( row, cols.controls[slot], out.mask_bytes_ );
        row = put( row, cols.polarity[slot], out.mask_bytes_ );
      }
    }
    return out;
  }

  /*! \brief Decodes into a compacted circuit. */
  circuit_type thaw() const
  {
    mct_policy::columns cols;
    cols.controls.resize( num_gates_ );
    cols.polarity.resize( num_gates_ );
    cols.target.resize( num_gates_ );
    const uint8_t* row = data_.get();
    for ( size_t i = 0u; i < num_gates_; ++i )
    {
      cols.target[i] = static_cast<uint32_t>( get( row, target_bytes_ ) );
      cols.controls[i] = get( row + target_bytes_, mask_bytes_ );
      cols.polarity[i] = get( row + target_bytes_ + mask_bytes_, mask_bytes_ );
      row += target_bytes_ + 2u * mask_bytes_;
    }
    return circuit_type( num_wires_, std::move( cols ) );
  }

  uint32_t num_wires() const noexcept { return num_wires_; }
  size_t num_gates() const noexcept { return num_gates_; }
  size_t bytes() const noexcept { return num_gates_ * ( target_bytes_ + 2u * mask_bytes_ ); }

private:
  /* little-endian, `count` low bytes of `value` */
  static uint8_t* put( uint8_t* out, uint64_t value, uint32_t count )
  {
    for ( uint32_t b = 0u; b < count; ++b )
    {
      *out++ = static_cast<uint8_t>( value >> ( 8u * b ) );
    }
    return out;
  }

  static uint64_t get( const uint8_t* in, uint32_t count )
  {
    uint64_t value = 0u;
    for ( uint32_t b = 0u; b < count; ++b )
    {
      value |= static_cast<uint64_t>( in[b] ) << ( 8u * b );
    }
    return value;
  }

  std::unique_ptr<uint8_t[]> data_;
  size_t num_gates_ = 0u;
  uint32_t num_wires_ = 0u;
  uint32_t target_bytes_ = 1u;
  uint32_t mask_bytes_ = 0u;
};

} // namespace qda::ir
