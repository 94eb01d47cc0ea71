/*! \file bench_library.cpp
 *  \brief Experiment E11: the trace-driven subcircuit library
 *         (BENCH_library.json).
 *
 *  Measures what the cross-compilation library buys on the paper's
 *  Eq. (5) pipeline for hwb-8, isolated to the rptm+tpar segment (the
 *  only passes that splice).  Four segments:
 *
 *   - baseline        : library disabled (`use_library = false`)
 *   - first sighting  : a fresh library; both whole-pass inputs miss,
 *                       are fingerprinted and run, and nothing is
 *                       admitted (a first sighting never is)
 *   - second sighting : the same library; the first repeat admits the
 *                       whole rptm and tpar inputs, later ones hit and
 *                       splice them, skipping synthesis
 *   - warm restart    : a new library instance over the same on-disk
 *                       store (a simulated process restart); the
 *                       entries reload and the first run already hits
 *
 *  Every segment is the best of `reps` runs; the first-sighting and
 *  warm-restart repeats each start from a new library instance.
 *  The compilation result cache is disabled throughout -- it would
 *  otherwise answer the repeats itself and the passes would never run.
 *  Every library run is checked against the baseline circuit: splices
 *  must reproduce the synthesized form exactly, so a statistics
 *  mismatch fails the bench.
 *
 *  Enforced floors (scripts/check_bench_regression.py): the second
 *  sighting must be >= 1.5x faster than the first on the rptm+tpar
 *  segment, and the warm restart must win >= 1.1x.  The speedup of
 *  every library segment over the library-off baseline is reported
 *  beside them (`*_vs_baseline`), not gated.
 *  `QDA_BENCH_SMOKE` shrinks the instance and skips the floors.
 */
#include "library/subcircuit_library.hpp"
#include "pipeline/pass_manager.hpp"
#include "telemetry/metadata.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace
{

/*! Wall-clock of the splicing passes, from the pass reports. */
double segment_ms( const qda::compilation_result& result )
{
  double total = 0.0;
  for ( const auto& report : result.reports )
  {
    if ( report.name == "rptm" || report.name == "tpar" )
    {
      total += report.elapsed_ms;
    }
  }
  return total;
}

qda::compilation_result run_pipeline( qda::pass_manager& manager,
                                      const qda::pipeline_spec& spec,
                                      qda::library::subcircuit_library* library )
{
  qda::run_plan plan;
  plan.use_library = library != nullptr;
  plan.library = library;
  return manager.run( spec, qda::staged_ir{}, plan );
}

bool same_final_circuit( const qda::compilation_result& a, const qda::compilation_result& b )
{
  if ( !a.ir.quantum.has_value() || !b.ir.quantum.has_value() )
  {
    return false;
  }
  return a.ir.quantum->circuit == b.ir.quantum->circuit &&
         a.ir.quantum->num_helper_qubits == b.ir.quantum->num_helper_qubits;
}

} // namespace

int main()
{
  using namespace qda;

  const char* smoke_env = std::getenv( "QDA_BENCH_SMOKE" );
  const bool smoke = smoke_env != nullptr && smoke_env[0] != '\0' && smoke_env[0] != '0';
  const uint32_t n = smoke ? 6u : 8u;
  const uint32_t reps = smoke ? 1u : 3u;
  const std::string instance = "hwb-" + std::to_string( n );
  const std::string store_path = "BENCH_library_store.bin";
  std::remove( store_path.c_str() );

  const auto spec = parse_pipeline( "revgen --hwb " + std::to_string( n ) +
                                    "; tbs; revsimp; rptm; tpar; ps" );
  pass_manager manager( /*enable_cache=*/false );

  std::printf( "E11: subcircuit library on %s (rptm+tpar segment%s)\n", instance.c_str(),
               smoke ? ", smoke" : "" );

  /* ---- baseline: no library at all ---- */

  auto baseline = run_pipeline( manager, spec, nullptr );
  double baseline_ms = segment_ms( baseline );
  for ( uint32_t rep = 1u; rep < reps; ++rep )
  {
    const auto repeat = run_pipeline( manager, spec, nullptr );
    baseline_ms = std::min( baseline_ms, segment_ms( repeat ) );
  }

  /* ---- first sighting: fresh libraries, everything misses ---- */

  library::library_options options;
  options.path = store_path;
  library::subcircuit_library lib{ options };

  const auto first = run_pipeline( manager, spec, &lib );
  double first_ms = segment_ms( first );
  const auto after_first = lib.statistics();
  for ( uint32_t rep = 1u; rep < reps; ++rep )
  {
    library::subcircuit_library fresh; /* memory only: the store stays lib's */
    const auto repeat = run_pipeline( manager, spec, &fresh );
    first_ms = std::min( first_ms, segment_ms( repeat ) );
  }

  /* ---- second sighting: the same library; the first repeat admits the
   *      whole-pass inputs, the ones after it splice them ---- */

  auto second = run_pipeline( manager, spec, &lib );
  double second_ms = segment_ms( second );
  for ( uint32_t rep = 1u; rep < reps; ++rep )
  {
    const auto repeat = run_pipeline( manager, spec, &lib );
    second_ms = std::min( second_ms, segment_ms( repeat ) );
  }
  const auto after_second = lib.statistics();

  /* ---- warm restart: new libraries over the same store file ---- */

  library::subcircuit_library restarted{ options };
  const auto restarted_stats = restarted.statistics();
  const auto restart = run_pipeline( manager, spec, &restarted );
  double restart_ms = segment_ms( restart );
  for ( uint32_t rep = 1u; rep < reps; ++rep )
  {
    library::subcircuit_library again{ options };
    const auto repeat = run_pipeline( manager, spec, &again );
    restart_ms = std::min( restart_ms, segment_ms( repeat ) );
  }

  /* splices must be byte-exact reproductions of the synthesized form */
  if ( !same_final_circuit( baseline, first ) || !same_final_circuit( baseline, second ) ||
       !same_final_circuit( baseline, restart ) )
  {
    std::printf( "SPLICED CIRCUIT DIVERGED from the no-library baseline\n" );
    std::remove( store_path.c_str() );
    return 1;
  }

  const double second_speedup = second_ms > 0.0 ? first_ms / second_ms : 0.0;
  const double restart_speedup = restart_ms > 0.0 ? first_ms / restart_ms : 0.0;
  const double first_vs_baseline = first_ms > 0.0 ? baseline_ms / first_ms : 0.0;
  const double second_vs_baseline = second_ms > 0.0 ? baseline_ms / second_ms : 0.0;
  const double restart_vs_baseline = restart_ms > 0.0 ? baseline_ms / restart_ms : 0.0;

  std::printf( "%-18s %-12s %-12s %-12s\n", "segment", "rptm+tpar", "vs first", "vs baseline" );
  std::printf( "%-18s %-12.3f %-12s %-12s\n", "baseline", baseline_ms, "-", "-" );
  std::printf( "%-18s %-12.3f %-12s %10.2fx\n", "first sighting", first_ms, "-",
               first_vs_baseline );
  std::printf( "%-18s %-12.3f %10.2fx %10.2fx\n", "second sighting", second_ms,
               second_speedup, second_vs_baseline );
  std::printf( "%-18s %-12.3f %10.2fx %10.2fx\n", "warm restart", restart_ms,
               restart_speedup, restart_vs_baseline );
  std::printf( "  %s\n", format_library_report( after_second ).c_str() );
  std::printf( "  restart loaded %llu entries from %s\n",
               static_cast<unsigned long long>( restarted_stats.loaded_entries ),
               store_path.c_str() );
  /* timing floors are enforced by check_bench_regression.py on the
   * tracked JSON, not the exit code (loaded runners, sanitizer builds) */
  std::printf( "  requirement (second sighting >= 1.5x): %s\n",
               second_speedup >= 1.5 ? "PASS" : "WARN" );
  std::printf( "  requirement (warm restart   >= 1.1x): %s\n",
               restart_speedup >= 1.1 ? "PASS" : "WARN" );

  /* ---- machine-readable record for cross-PR tracking ---- */

  std::FILE* json = std::fopen( "BENCH_library.json", "w" );
  if ( json == nullptr )
  {
    std::printf( "could not open BENCH_library.json for writing\n" );
    std::remove( store_path.c_str() );
    return 1;
  }
  std::fprintf( json,
                "{\n  \"experiment\": \"subcircuit_library\",\n  %s,\n"
                "  \"smoke\": %s,\n"
                "  \"workload\": { \"instance\": \"%s\", \"segment\": \"rptm+tpar\" },\n",
                telemetry::bench_metadata_json().c_str(), smoke ? "true" : "false",
                instance.c_str() );
  std::fprintf( json,
                "  \"summary\": {\n"
                "    \"baseline_segment_ms\": %.3f,\n"
                "    \"first_sighting_segment_ms\": %.3f,\n"
                "    \"second_sighting_segment_ms\": %.3f,\n"
                "    \"warm_restart_segment_ms\": %.3f,\n"
                "    \"second_sighting_speedup\": %.2f,\n"
                "    \"warm_restart_speedup\": %.2f,\n"
                "    \"first_sighting_vs_baseline\": %.2f,\n"
                "    \"second_sighting_vs_baseline\": %.2f,\n"
                "    \"warm_restart_vs_baseline\": %.2f,\n"
                "    \"admits\": %llu,\n"
                "    \"entries\": %llu,\n"
                "    \"hits\": %llu,\n"
                "    \"loaded_entries\": %llu\n"
                "  }\n}\n",
                baseline_ms, first_ms, second_ms, restart_ms, second_speedup,
                restart_speedup, first_vs_baseline, second_vs_baseline,
                restart_vs_baseline, static_cast<unsigned long long>( after_first.admits ),
                static_cast<unsigned long long>( after_second.entries ),
                static_cast<unsigned long long>( after_second.hits ),
                static_cast<unsigned long long>( restarted_stats.loaded_entries ) );
  std::fclose( json );
  std::printf( "\nwrote BENCH_library.json\n" );

  std::remove( store_path.c_str() );
  return 0;
}
