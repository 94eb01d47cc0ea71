/*! \file pass_registry.hpp
 *  \brief Named compilation passes with declared stage signatures.
 *
 *  Every transformation of the flow -- the RevKit commands of the
 *  paper's Eq. (5) (`revgen`, `tbs`, `dbs`, `revsimp`, `rptm`, `tpar`,
 *  `ps`) plus `peephole` and device `route` -- registers here under its
 *  shell name with the stages it accepts and the stage it produces.
 *  The pass manager and the pipeline-spec parser resolve names through
 *  this registry, so new passes become available to the shell syntax by
 *  registering alone.
 */
#pragma once

#include "fault/cancel.hpp"
#include "pipeline/ir.hpp"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qda::library
{
class subcircuit_library;
}

namespace qda
{

/*! \brief Parsed command-line style arguments of one pass invocation.
 *
 *  RevKit shell conventions: `--name value` is an option, `--name`
 *  without a following value is a long flag, `-c` is a short flag, and
 *  bare words are positional.
 */
class pass_arguments
{
public:
  pass_arguments() = default;

  void add_flag( std::string name );
  void add_option( std::string name, std::string value );
  void add_positional( std::string value );

  /*! \brief Sorts options and flags by name so argument order does not
   *         affect equality, rendering, or cache keys.  Positional
   *         arguments keep their order (it is meaningful).  Lookup is
   *         by name everywhere, so canonicalization never changes what
   *         a pass sees.  The spec parser canonicalizes every parsed
   *         invocation.
   */
  void canonicalize();

  bool empty() const noexcept;

  bool has_flag( const std::string& name ) const;
  bool has_option( const std::string& name ) const;

  /*! \brief Value of option `name`, if present. */
  std::optional<std::string> option( const std::string& name ) const;

  /*! \brief Option parsed as unsigned integer.
   *         Throws std::invalid_argument if absent or malformed.
   */
  uint64_t option_uint( const std::string& pass, const std::string& name ) const;

  /*! \brief Like option_uint, but returns `fallback` when absent. */
  uint64_t option_uint_or( const std::string& pass, const std::string& name,
                           uint64_t fallback ) const;

  const std::vector<std::string>& flags() const noexcept { return flags_; }
  const std::vector<std::pair<std::string, std::string>>& options() const noexcept
  {
    return options_;
  }
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /*! \brief Canonical shell rendering ("--hwb 4", "-c"). */
  std::string to_string() const;

private:
  std::vector<std::string> flags_;
  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<std::string> positional_;
};

/*! \brief Execution context handed to every pass invocation.
 *
 *  Carries the job's cooperative cancellation token; passes with long
 *  inner loops (tpar resynthesis, SABRE, simulator compilation) thread
 *  it into their subsystem options so deadlines and client cancels
 *  take effect mid-pass, not just at pass boundaries.  Default
 *  construction yields a detached context (nothing cancellable) for
 *  direct `apply_pass` callers like `qda::flow`.
 */
struct pass_context
{
  cancel_token cancel;
  /*! Read by no pass: kept only because the perfbench harness still
   *  sets it (library/subcircuit_library.hpp). */
  library::subcircuit_library* library = nullptr;
  /*! Statistics of the circuit the pass starts from, when the pass
   *  manager already holds them (`apply_pass` sets it); null means a
   *  pass that needs them computes them itself. */
  const circuit_statistics* statistics = nullptr;
};

/*! \brief One registered pass. */
struct pass_info
{
  std::string name;    /*!< shell name (e.g. "tbs") */
  std::string summary; /*!< one-line description */

  std::vector<stage> accepts; /*!< stages the pass may start from */

  /*! Stage after the pass; nullopt = inspection pass, stage preserved. */
  std::optional<stage> produces;

  /*! Argument vocabulary, used to reject malformed invocations. */
  std::vector<std::string> known_options;
  std::vector<std::string> known_flags;

  /*! Subset of `known_options` whose values must parse as unsigned
   *  integers (validated statically by check_arguments). */
  std::vector<std::string> uint_options;

  std::function<void( staged_ir&, const pass_arguments&, const pass_context& )> run;

  /*! True when the pass is an optional optimization the pass manager
   *  may skip (rolling its effect back) under a `degrade` failure
   *  policy.  Only passes whose produced stage equals their input stage
   *  (revsimp, tpar, peephole) qualify; synthesis and mapping stay
   *  strict because skipping them yields no valid circuit. */
  bool degradable = false;

  /*! \brief True if the pass may start from stage `s`. */
  bool accepts_stage( stage s ) const;

  /*! \brief Throws std::invalid_argument for arguments outside the
   *         declared vocabulary.
   */
  void check_arguments( const pass_arguments& args ) const;
};

/*! \brief Registry of all compilation passes. */
class pass_registry
{
public:
  /*! \brief The process-wide registry, with built-in passes installed. */
  static pass_registry& instance();

  /*! \brief An empty registry (for tests / custom tool flows). */
  pass_registry() = default;

  /*! \brief Registers a pass; throws std::invalid_argument on duplicate
   *         or empty name.
   */
  void register_pass( pass_info info );

  bool contains( const std::string& name ) const;

  /*! \brief Looks a pass up; throws std::invalid_argument if unknown. */
  const pass_info& at( const std::string& name ) const;

  /*! \brief Registered pass names, sorted. */
  std::vector<std::string> names() const;

  size_t size() const noexcept { return passes_.size(); }

private:
  std::map<std::string, pass_info> passes_;
};

/*! \brief Installs the built-in passes (revgen, tbs, dbs, revsimp,
 *         rptm, tpar, peephole, route, ps) into `registry`.
 */
void register_builtin_passes( pass_registry& registry );

} // namespace qda
