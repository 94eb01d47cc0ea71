/*! \file subcircuit_library.hpp
 *  \brief Inert stand-in for the retired subcircuit library.
 *
 *  The library is gone: the compile server's prefix and result caches
 *  are the only cross-compilation reuse.  This header exists only for
 *  the frozen perfbench harness (perfbench/e2e.cpp), which still names
 *  the library's singleton and reads its counters; every counter reads
 *  0 and nothing else uses it.  It goes with the next benchmark change.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace qda::library
{

struct library_statistics
{
  uint64_t hits = 0u;
  uint64_t misses = 0u;
  uint64_t admits = 0u;
  uint64_t entries = 0u;
  uint64_t loaded_entries = 0u;
};

class subcircuit_library
{
public:
  static subcircuit_library& instance()
  {
    static subcircuit_library library;
    return library;
  }
  library_statistics statistics() const noexcept { return {}; }
  std::string_view path() const noexcept { return {}; }
  void clear() noexcept {}
};

} // namespace qda::library
