#include "phasepoly/phasepoly.hpp"

namespace qda::phasepoly
{

void tpar_in_place( qcircuit& circuit, const tpar_options& options )
{
  fold_phases_in_place( circuit );
  if ( options.resynthesize )
  {
    resynthesize_parity_regions_in_place( circuit, options.resynthesis );
  }
}

qcircuit tpar( const qcircuit& circuit, const tpar_options& options )
{
  qcircuit result( circuit );
  tpar_in_place( result, options );
  return result;
}

} // namespace qda::phasepoly
