/*! \file coupling_map.hpp
 *  \brief Device topologies: directed CNOT coupling maps.
 *
 *  Physical superconducting devices such as the IBM Quantum Experience
 *  chips only support CNOT between coupled qubit pairs, and early
 *  devices additionally fixed the CNOT direction.  The router
 *  (mapping/router.hpp) consumes these maps to legalize circuits before
 *  they are "executed" on the noisy device model (the paper's Fig. 6
 *  experiment ran on the 5-qubit IBM QX chip).
 *
 *  Pair queries (`has_directed_edge`, `are_adjacent`, `has_swap_edge`)
 *  read one flat `n x n` byte table built with the map (n^2 bytes), so
 *  the routers and the emitter pay O(1) per query on their hot paths.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qda
{

/*! \brief A directed coupling map over physical qubits. */
class coupling_map
{
public:
  /*! \brief Builds from directed edges (control -> target). */
  coupling_map( uint32_t num_qubits, std::vector<std::pair<uint32_t, uint32_t>> edges,
                std::string name = "custom" );

  uint32_t num_qubits() const noexcept { return num_qubits_; }
  const std::string& name() const noexcept { return name_; }
  const std::vector<std::pair<uint32_t, uint32_t>>& edges() const noexcept { return edges_; }

  /*! \brief True if CNOT control->target is natively available. */
  bool has_directed_edge( uint32_t control, uint32_t target ) const;

  /*! \brief True if the qubits are coupled in either direction. */
  bool are_adjacent( uint32_t a, uint32_t b ) const;

  /*! \brief Shortest undirected path between two qubits (inclusive).
   *         Empty if disconnected.
   */
  std::vector<uint32_t> shortest_path( uint32_t from, uint32_t to ) const;

  /*! \brief Undirected distance (hops); num_qubits() if disconnected. */
  uint32_t distance( uint32_t from, uint32_t to ) const;

  /*! \brief All-pairs undirected distances, row-major (`from *
   *         num_qubits() + to`; num_qubits() where disconnected); one
   *         BFS per qubit.
   */
  std::vector<uint32_t> all_distances() const;

  /* ---- native SWAP support ---- */

  /*! \brief Marks a coupled pair as offering a native SWAP (the router
   *         then emits one `swap` gate instead of three CNOTs).
   *         Throws std::invalid_argument for non-adjacent qubits.
   */
  void add_swap_edge( uint32_t a, uint32_t b );

  /*! \brief True if the pair supports a native SWAP (either order). */
  bool has_swap_edge( uint32_t a, uint32_t b ) const;

  /*! \brief Copy of this map with every coupled pair SWAP-native. */
  coupling_map with_native_swaps() const;

  /* ---- device library ---- */

  /*! \brief IBM QX2 "Yorktown" (5 qubits). */
  static coupling_map ibm_qx2();

  /*! \brief IBM QX4 "Tenerife" (5 qubits) -- the Fig. 6 device class. */
  static coupling_map ibm_qx4();

  /*! \brief IBM QX5 "Albatross" (16 qubits). */
  static coupling_map ibm_qx5();

  /*! \brief Open line of n qubits, both directions. */
  static coupling_map linear( uint32_t num_qubits );

  /*! \brief Ring of n qubits, both directions. */
  static coupling_map ring( uint32_t num_qubits );

  /*! \brief All-to-all coupling. */
  static coupling_map fully_connected( uint32_t num_qubits );

private:
  /* bits of `pairs_[pair_index( a, b )]` */
  static constexpr uint8_t directed_bit = 1u; /* CNOT a -> b is native */
  static constexpr uint8_t coupled_bit = 2u;  /* a, b coupled either way */
  static constexpr uint8_t swap_bit = 4u;     /* native SWAP on a, b */

  size_t pair_index( uint32_t a, uint32_t b ) const
  {
    return static_cast<size_t>( a ) * num_qubits_ + b;
  }

  uint8_t pair_bits( uint32_t a, uint32_t b ) const
  {
    return a < num_qubits_ && b < num_qubits_ ? pairs_[pair_index( a, b )] : uint8_t{ 0 };
  }

  uint32_t num_qubits_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  std::string name_;
  std::vector<std::vector<uint32_t>> neighbours_; /* undirected adjacency */
  std::vector<uint8_t> pairs_;                    /* flat n x n pair table */
};

} // namespace qda
