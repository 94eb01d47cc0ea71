#include "pipeline/target.hpp"

#include "core/ibm_backend.hpp"
#include "simulator/stabilizer.hpp"
#include "simulator/statevector.hpp"
#include "telemetry/clock.hpp"

#include <stdexcept>

namespace qda
{

namespace
{

using telemetry::elapsed_ms_since;
using telemetry::steady_clock;

/* ---- state-vector backend ---- */

class statevector_target final : public target
{
public:
  const std::string& name() const noexcept override { return name_; }

  std::string description() const override
  {
    return "exact state-vector simulation (all 2^n amplitudes; fused, "
           "specialized, multithreaded kernels -- see QDA_SIM_THREADS)";
  }

  std::string unsupported_reason( const qcircuit& circuit ) const override
  {
    if ( circuit.num_qubits() > 26u )
    {
      return "statevector: " + std::to_string( circuit.num_qubits() ) +
             " qubits exceed the 26-qubit state-vector limit";
    }
    return {};
  }

  execution_result execute( const qcircuit& circuit, uint64_t shots, uint64_t seed ) override
  {
    const auto start = steady_clock::now();
    execution_result result;
    result.target_name = name_;
    result.shots = shots;
    result.counts = sample_counts( circuit, shots, seed );
    result.elapsed_ms = elapsed_ms_since( start );
    return result;
  }

private:
  std::string name_ = "statevector";
};

/* ---- stabilizer backend ---- */

class stabilizer_target final : public target
{
public:
  const std::string& name() const noexcept override { return name_; }

  std::string description() const override
  {
    return "Aaronson-Gottesman CHP tableau simulation (Clifford only; "
           "one-run snapshot sampling across shots)";
  }

  std::string unsupported_reason( const qcircuit& circuit ) const override
  {
    for ( const auto& gate : circuit.gates() )
    {
      switch ( gate.kind )
      {
      case gate_kind::h:
      case gate_kind::x:
      case gate_kind::y:
      case gate_kind::z:
      case gate_kind::s:
      case gate_kind::sdg:
      case gate_kind::cx:
      case gate_kind::cz:
      case gate_kind::swap:
      case gate_kind::measure:
      case gate_kind::barrier:
      case gate_kind::global_phase:
        break;
      default:
        return "stabilizer: non-Clifford gate '" + gate_name( gate.kind ) +
               "' cannot be simulated on the tableau backend";
      }
    }
    return {};
  }

  execution_result execute( const qcircuit& circuit, uint64_t shots, uint64_t seed ) override
  {
    const auto start = steady_clock::now();
    execution_result result;
    result.target_name = name_;
    result.shots = shots;
    result.counts = stabilizer_sample_counts( circuit, shots, seed );
    result.elapsed_ms = elapsed_ms_since( start );
    return result;
  }

private:
  std::string name_ = "stabilizer";
};

/* ---- noisy device backend ---- */

class device_target final : public target
{
public:
  device_target( std::string name, coupling_map device, noise_model model )
      : name_( std::move( name ) ), device_( std::move( device ) ), model_( model )
  {
  }

  const std::string& name() const noexcept override { return name_; }

  std::string description() const override
  {
    return "noisy device model on the " + device_.name() + " coupling map";
  }

  bool constrained() const noexcept override { return true; }

  const coupling_map* device() const noexcept override { return &device_; }

  mapping_cost_weights cost_weights() const override
  {
    return mapping_cost_weights::noisy_device();
  }

  std::string unsupported_reason( const qcircuit& circuit ) const override
  {
    /* multi-controlled gates are fine: execute() lowers them with this
     * target's cost weights under the device qubit budget */
    if ( circuit.num_qubits() > device_.num_qubits() )
    {
      return name_ + ": circuit needs " + std::to_string( circuit.num_qubits() ) +
             " qubits but the device has " + std::to_string( device_.num_qubits() );
    }
    return {};
  }

  execution_result execute( const qcircuit& circuit, uint64_t shots, uint64_t seed ) override
  {
    const auto start = steady_clock::now();
    const auto execution =
        run_on_ibm_model( circuit, device_, model_, shots, seed, cost_weights() );
    execution_result result;
    result.target_name = name_;
    result.shots = shots;
    result.counts = execution.counts;
    result.added_swaps = execution.added_swaps;
    result.added_direction_fixes = execution.added_direction_fixes;
    result.elapsed_ms = elapsed_ms_since( start );
    return result;
  }

private:
  std::string name_;
  coupling_map device_;
  noise_model model_;
};

} // namespace

std::string target::unsupported_reason( const qcircuit& ) const
{
  return {};
}

std::unique_ptr<target> make_statevector_target()
{
  return std::make_unique<statevector_target>();
}

std::unique_ptr<target> make_stabilizer_target()
{
  return std::make_unique<stabilizer_target>();
}

std::unique_ptr<target> make_device_target( std::string name, coupling_map device,
                                            noise_model model )
{
  return std::make_unique<device_target>( std::move( name ), std::move( device ), model );
}

/* ---------------------------------------------------------------- */
/* target_registry                                                  */
/* ---------------------------------------------------------------- */

target_registry& target_registry::instance()
{
  static target_registry registry = [] {
    target_registry r;
    register_builtin_targets( r );
    return r;
  }();
  return registry;
}

void target_registry::register_target( std::shared_ptr<target> backend )
{
  if ( !backend || backend->name().empty() )
  {
    throw std::invalid_argument( "target_registry: target name must not be empty" );
  }
  if ( targets_.count( backend->name() ) != 0u )
  {
    throw std::invalid_argument( "target_registry: duplicate target '" + backend->name() +
                                 "'" );
  }
  targets_.emplace( backend->name(), std::move( backend ) );
}

bool target_registry::contains( const std::string& name ) const
{
  return targets_.count( name ) != 0u;
}

target& target_registry::at( const std::string& name ) const
{
  const auto it = targets_.find( name );
  if ( it == targets_.end() )
  {
    throw std::invalid_argument( "target_registry: unknown target '" + name + "'" );
  }
  return *it->second;
}

std::vector<std::string> target_registry::names() const
{
  std::vector<std::string> result;
  result.reserve( targets_.size() );
  for ( const auto& [name, backend] : targets_ )
  {
    result.push_back( name );
  }
  return result;
}

execution_result target_registry::run( const std::string& name, const qcircuit& circuit,
                                       uint64_t shots, uint64_t seed ) const
{
  auto& backend = at( name );
  const auto reason = backend.unsupported_reason( circuit );
  if ( !reason.empty() )
  {
    throw std::invalid_argument( "target_registry: " + reason );
  }
  return backend.execute( circuit, shots, seed );
}

void register_builtin_targets( target_registry& registry )
{
  registry.register_target( make_statevector_target() );
  registry.register_target( make_stabilizer_target() );
  registry.register_target(
      make_device_target( "ibm_qx2", coupling_map::ibm_qx2(), noise_model::ibm_qx4_early2018() ) );
  registry.register_target(
      make_device_target( "ibm_qx4", coupling_map::ibm_qx4(), noise_model::ibm_qx4_early2018() ) );
  registry.register_target(
      make_device_target( "ibm_qx4_ideal", coupling_map::ibm_qx4(), noise_model::ideal() ) );
  registry.register_target(
      make_device_target( "ibm_qx5", coupling_map::ibm_qx5(), noise_model::ibm_qx4_early2018() ) );
}

} // namespace qda
