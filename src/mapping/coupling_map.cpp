#include "mapping/coupling_map.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace qda
{

coupling_map::coupling_map( uint32_t num_qubits,
                            std::vector<std::pair<uint32_t, uint32_t>> edges, std::string name )
    : num_qubits_( num_qubits ), edges_( std::move( edges ) ), name_( std::move( name ) ),
      neighbours_( num_qubits ), pairs_( static_cast<size_t>( num_qubits ) * num_qubits, 0u )
{
  for ( const auto& [control, target] : edges_ )
  {
    if ( control >= num_qubits_ || target >= num_qubits_ || control == target )
    {
      throw std::invalid_argument( "coupling_map: invalid edge" );
    }
    if ( !( pairs_[pair_index( control, target )] & coupled_bit ) )
    {
      neighbours_[control].push_back( target );
      neighbours_[target].push_back( control );
    }
    pairs_[pair_index( control, target )] |= directed_bit | coupled_bit;
    pairs_[pair_index( target, control )] |= coupled_bit;
  }
}

bool coupling_map::has_directed_edge( uint32_t control, uint32_t target ) const
{
  return ( pair_bits( control, target ) & directed_bit ) != 0u;
}

bool coupling_map::are_adjacent( uint32_t a, uint32_t b ) const
{
  return ( pair_bits( a, b ) & coupled_bit ) != 0u;
}

std::vector<uint32_t> coupling_map::shortest_path( uint32_t from, uint32_t to ) const
{
  if ( from >= num_qubits_ || to >= num_qubits_ )
  {
    throw std::invalid_argument( "coupling_map::shortest_path: qubit out of range" );
  }
  if ( from == to )
  {
    return { from };
  }
  std::vector<int64_t> parent( num_qubits_, -1 );
  std::deque<uint32_t> queue{ from };
  parent[from] = static_cast<int64_t>( from );
  while ( !queue.empty() )
  {
    const uint32_t current = queue.front();
    queue.pop_front();
    for ( const auto next : neighbours_[current] )
    {
      if ( parent[next] != -1 )
      {
        continue;
      }
      parent[next] = current;
      if ( next == to )
      {
        std::vector<uint32_t> path{ to };
        uint32_t walk = to;
        while ( walk != from )
        {
          walk = static_cast<uint32_t>( parent[walk] );
          path.push_back( walk );
        }
        std::reverse( path.begin(), path.end() );
        return path;
      }
      queue.push_back( next );
    }
  }
  return {};
}

uint32_t coupling_map::distance( uint32_t from, uint32_t to ) const
{
  const auto path = shortest_path( from, to );
  if ( path.empty() )
  {
    return num_qubits_;
  }
  return static_cast<uint32_t>( path.size() - 1u );
}

std::vector<uint32_t> coupling_map::all_distances() const
{
  std::vector<uint32_t> distances( static_cast<size_t>( num_qubits_ ) * num_qubits_,
                                   num_qubits_ );
  for ( uint32_t source = 0u; source < num_qubits_; ++source )
  {
    auto* row = distances.data() + static_cast<size_t>( source ) * num_qubits_;
    row[source] = 0u;
    std::deque<uint32_t> queue{ source };
    while ( !queue.empty() )
    {
      const uint32_t current = queue.front();
      queue.pop_front();
      for ( const auto next : neighbours_[current] )
      {
        if ( row[next] == num_qubits_ )
        {
          row[next] = row[current] + 1u;
          queue.push_back( next );
        }
      }
    }
  }
  return distances;
}

void coupling_map::add_swap_edge( uint32_t a, uint32_t b )
{
  if ( !are_adjacent( a, b ) )
  {
    throw std::invalid_argument( "coupling_map: swap edge between non-adjacent qubits" );
  }
  pairs_[pair_index( a, b )] |= swap_bit;
  pairs_[pair_index( b, a )] |= swap_bit;
}

bool coupling_map::has_swap_edge( uint32_t a, uint32_t b ) const
{
  return ( pair_bits( a, b ) & swap_bit ) != 0u;
}

coupling_map coupling_map::with_native_swaps() const
{
  coupling_map result = *this;
  for ( uint32_t a = 0u; a < num_qubits_; ++a )
  {
    for ( const auto b : neighbours_[a] )
    {
      if ( a < b )
      {
        result.add_swap_edge( a, b );
      }
    }
  }
  return result;
}

coupling_map coupling_map::ibm_qx2()
{
  return coupling_map( 5u, { { 0u, 1u }, { 0u, 2u }, { 1u, 2u }, { 3u, 2u }, { 3u, 4u }, { 4u, 2u } },
                       "ibmqx2" );
}

coupling_map coupling_map::ibm_qx4()
{
  return coupling_map( 5u, { { 1u, 0u }, { 2u, 0u }, { 2u, 1u }, { 3u, 2u }, { 3u, 4u }, { 4u, 2u } },
                       "ibmqx4" );
}

coupling_map coupling_map::ibm_qx5()
{
  return coupling_map( 16u,
                       { { 1u, 0u },  { 1u, 2u },   { 2u, 3u },   { 3u, 4u },  { 3u, 14u },
                         { 5u, 4u },  { 6u, 5u },   { 6u, 7u },   { 6u, 11u }, { 7u, 10u },
                         { 8u, 7u },  { 9u, 8u },   { 9u, 10u },  { 11u, 10u }, { 12u, 5u },
                         { 12u, 11u }, { 12u, 13u }, { 13u, 4u }, { 13u, 14u }, { 15u, 0u },
                         { 15u, 2u }, { 15u, 14u } },
                       "ibmqx5" );
}

coupling_map coupling_map::linear( uint32_t num_qubits )
{
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for ( uint32_t q = 0u; q + 1u < num_qubits; ++q )
  {
    edges.emplace_back( q, q + 1u );
    edges.emplace_back( q + 1u, q );
  }
  return coupling_map( num_qubits, std::move( edges ), "linear" );
}

coupling_map coupling_map::ring( uint32_t num_qubits )
{
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for ( uint32_t q = 0u; q < num_qubits; ++q )
  {
    const uint32_t next = ( q + 1u ) % num_qubits;
    edges.emplace_back( q, next );
    edges.emplace_back( next, q );
  }
  return coupling_map( num_qubits, std::move( edges ), "ring" );
}

coupling_map coupling_map::fully_connected( uint32_t num_qubits )
{
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for ( uint32_t a = 0u; a < num_qubits; ++a )
  {
    for ( uint32_t b = 0u; b < num_qubits; ++b )
    {
      if ( a != b )
      {
        edges.emplace_back( a, b );
      }
    }
  }
  return coupling_map( num_qubits, std::move( edges ), "complete" );
}

} // namespace qda
