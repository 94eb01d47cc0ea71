/*! \file clock.hpp
 *  \brief The one wall-clock helper of the whole stack.
 *
 *  Every subsystem that measures time -- the pass manager, the trace
 *  spans, the bench stopwatches -- goes through these helpers so the
 *  clock source is defined exactly once.
 */
#pragma once

#include <chrono>
#include <cstdint>

namespace qda::telemetry
{

using steady_clock = std::chrono::steady_clock;

/*! \brief Milliseconds elapsed since `start` (fractional). */
inline double elapsed_ms_since( steady_clock::time_point start )
{
  return std::chrono::duration<double, std::milli>( steady_clock::now() - start ).count();
}

/*! \brief Microseconds elapsed between two time points (integral; the
 *         unit of Chrome `trace_event` timestamps). */
inline uint64_t elapsed_us_between( steady_clock::time_point start,
                                    steady_clock::time_point end )
{
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>( end - start ).count() );
}

} // namespace qda::telemetry
