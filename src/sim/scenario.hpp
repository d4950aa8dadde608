#pragma once
// Scenario timeline engine (DESIGN.md §7): one declarative event-schedule
// simulator shared by the benches, the examples and the scenario_runner
// binary. A Scenario names a seeded timeline of events (sim/events.hpp)
// applied round-by-round to a PERSISTENT core::Engine -- the network is
// never rebuilt between phases, so later phases exercise exactly the state
// (and scheduler caches) the earlier ones left behind. The registry holds
// the named scenarios; run_scenario executes one and reports per-checkpoint
// convergence results, DHT workload health and (optionally) a per-round CSV
// metric series.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "sim/events.hpp"
#include "util/metrics_registry.hpp"

namespace rechord::util {
class Cli;
}

namespace rechord::sim {

/// A concrete, fully resolved timeline plus its initial-state recipe.
struct Scenario {
  std::string name;
  std::string description;
  gen::Topology topology = gen::Topology::kRandomConnected;
  /// Fuzz the initial state before the first round (adversarial start).
  bool scramble_initial = false;
  std::size_t n = 32;
  /// Budgets of the in-network request engine behind LookupLoad events (the
  /// coin seed is derived from the run's ScenarioParams::seed, not here).
  net::RequestOptions requests;
  std::vector<Event> timeline;
};

/// Knobs shared by every registered scenario; builders resolve 0 / negative
/// sentinels to their scenario-specific defaults.
struct ScenarioParams {
  std::size_t n = 0;        // 0 = scenario default
  std::uint64_t seed = 1;   // seeds BOTH the initial state and the event rng
  std::size_t ops = 0;      // membership-op count knob; 0 = scenario default
  double intensity = -1.0;  // fault-probability knob; < 0 = scenario default
  unsigned replicas = 2;    // DHT replication factor for workload phases
  core::EngineOptions engine;  // threads / full_scan / fault seeds
};

/// Parses the scenario-related flags shared by the runner and the benches:
/// --n, --seed, --ops, --intensity, --replicas plus the engine flags
/// (--threads, --full-scan).
[[nodiscard]] ScenarioParams scenario_params_from_cli(const util::Cli& cli,
                                                      ScenarioParams base = {});

/// Result of one Checkpoint / AwaitAlmost event.
struct CheckpointResult {
  std::string label;
  /// Membership events applied since the previous checkpoint (log text).
  std::string events;
  /// Engine round count when the checkpoint completed.
  std::uint64_t at_round = 0;
  /// Rounds this checkpoint ran: to the exact fixpoint (Checkpoint) or to
  /// the almost-stable predicate (AwaitAlmost).
  std::uint64_t rounds = 0;
  /// Rounds until almost-stable within this checkpoint (Checkpoint only).
  std::uint64_t rounds_almost = 0;
  bool reached = false;  // converged within the cap
  bool exact = false;    // final state matches the StableSpec exactly
  bool passed = false;   // reached && (exact where required)
  std::uint64_t fingerprint = 0;  // state fingerprint at completion
  std::size_t peers = 0;          // live peers at completion
  std::uint64_t live_peer_rounds = 0;
  std::uint64_t replayed_peer_rounds = 0;
  std::uint64_t skipped_peer_rounds = 0;
};

/// DHT workload health across all KvLoad / KvProbe phases of a run.
struct WorkloadTotals {
  std::size_t puts = 0;
  std::size_t put_failures = 0;  // routing failed mid-heal
  std::size_t lookups = 0;
  std::size_t lookups_found = 0;
  /// Misses with a live copy somewhere: the routing/placement view was
  /// stale (the overlay had not healed under the key yet).
  std::size_t stale_misses = 0;
  /// Misses of keys with no surviving copy.
  std::size_t lost_misses = 0;
  /// Keys without any live copy at the worst probe.
  std::size_t max_lost_records = 0;
  std::uint64_t hops_sum = 0;  // over found lookups
  [[nodiscard]] double mean_hops() const noexcept {
    return lookups_found
               ? static_cast<double>(hops_sum) /
                     static_cast<double>(lookups_found)
               : 0.0;
  }
};

struct ScenarioOutcome {
  std::string name;
  std::size_t n = 0;  // resolved initial size
  bool ok = false;    // every checkpoint passed
  std::uint64_t total_rounds = 0;
  std::uint64_t final_fingerprint = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t partition_dropped = 0;
  std::vector<CheckpointResult> checkpoints;
  WorkloadTotals workload;
  /// In-network request workload (LookupLoad events; all zero without any).
  net::RequestTotals requests;
  core::RoundMetrics final_metrics;
  /// Scheduler work over the whole run (full_scan counts everything live).
  std::uint64_t live_peer_rounds = 0;
  std::uint64_t replayed_peer_rounds = 0;
  std::uint64_t skipped_peer_rounds = 0;
  /// End-of-run snapshot of the runner's metrics registry (DESIGN.md §11):
  /// the same named values the per-round CSV columns are read from.
  util::MetricsSnapshot metrics;
};

/// Executes `scenario` under `params`. When `csv` is non-null, writes the
/// per-round metric series plus one row per workload probe and checkpoint
/// (see DESIGN.md §7 for the schema).
[[nodiscard]] ScenarioOutcome run_scenario(const Scenario& scenario,
                                           const ScenarioParams& params,
                                           std::ostream* csv = nullptr);

// -- registry ----------------------------------------------------------------

struct ScenarioInfo {
  std::string name;
  std::string description;
  Scenario (*build)(const ScenarioParams&);
};

/// All registered scenarios, stable order.
[[nodiscard]] const std::vector<ScenarioInfo>& scenario_registry();

/// nullptr when unknown.
[[nodiscard]] const ScenarioInfo* find_scenario(std::string_view name);

/// Builds and runs a registered scenario; throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] ScenarioOutcome run_registered_scenario(
    std::string_view name, const ScenarioParams& params,
    std::ostream* csv = nullptr);

}  // namespace rechord::sim
