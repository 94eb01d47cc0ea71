/*! \file sabre.hpp
 *  \brief SABRE-style lookahead router (Li, Ding, Xie, ASPLOS'19).
 *
 *  Front-layer scheduling over the gate dependency DAG
 *  (quantum/dag.hpp): every gate whose dependencies are satisfied and
 *  whose operands are adjacent executes immediately; when the front
 *  layer is blocked, the router scores every SWAP on an edge touching a
 *  front-layer qubit by the summed coupling distance of the front
 *  layer plus a weighted extended set of upcoming two-qubit gates, with
 *  a per-qubit decay that spreads consecutive SWAPs.  The initial
 *  layout comes from reverse-traversal refinement: routing the reversed
 *  circuit from the forward run's final layout yields a better starting
 *  layout, iterated a few rounds and keeping the best trial.
 *
 *  Per call the router builds what every SWAP decision reads once: the
 *  flat all-pairs distance table, the candidate SWAPs (one per coupled
 *  pair, in `coupling_map::edges()` order, which sets tie-breaks), and
 *  each gate's operand pair.  Each run reuses its extended-set queue,
 *  candidate mask and operand-place buffers across decisions, and the
 *  backward layout-search runs track only their exit layout, emitting
 *  no circuit.
 */
#pragma once

#include "mapping/router.hpp"

namespace qda
{

/*! \brief Routes with the SABRE lookahead router (called through
 *         `route_circuit` with `router_kind::sabre`).
 */
routing_result sabre_route( const qcircuit& circuit, const coupling_map& device,
                            const router_options& options );

} // namespace qda
