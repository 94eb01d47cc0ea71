#include "phasepoly/phasepoly.hpp"

#include <string>
#include <utility>

namespace qda::phasepoly
{

void tpar_in_place( qcircuit& circuit, const tpar_options& options )
{
  splice_provider* library = options.library;
  splice_probe probe;
  if ( library )
  {
    /* the whole pass input is the largest splice candidate: a verified
     * hit replays the stored optimized circuit and skips both phase
     * folding and resynthesis */
    std::string tag = "tpar|";
    tag += options.resynthesize ? 'r' : '-';
    tag += "|s" + std::to_string( options.resynthesis.section_size );
    tag += "|t" + std::to_string( options.resynthesis.max_region_terms );
    qcircuit spliced( circuit.num_qubits() );
    if ( library->splice_circuit( circuit, tag, probe, spliced ) )
    {
      circuit = std::move( spliced );
      return;
    }
  }

  fold_phases_in_place( circuit );
  if ( options.resynthesize )
  {
    resynthesize_parity_regions_in_place( circuit, options.resynthesis );
  }
  if ( library && probe.valid )
  {
    library->offer_circuit( probe, circuit );
  }
}

qcircuit tpar( const qcircuit& circuit, const tpar_options& options )
{
  qcircuit result( circuit );
  tpar_in_place( result, options );
  return result;
}

} // namespace qda::phasepoly
