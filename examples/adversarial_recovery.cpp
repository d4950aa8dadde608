// Adversarial recovery: drive the network into pathological weakly connected
// states (sorted line, in-star, bridged clusters, fuzzed garbage state) and
// watch self-stabilization repair each one -- then contrast with the classic
// Chord maintenance protocol, which cannot recover from the same states.
// Each row runs the registered `adversarial-recovery` scenario timeline
// (recover -> mid-run scramble -> churn) with the row's initial topology.
//
//   ./example_adversarial_recovery [--n 24] [--seed 9] [--threads T]
//                                  [--full-scan]

#include <cstdio>

#include "chord/stabilizer.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  sim::ScenarioParams params;
  params.seed = 9;
  params = sim::scenario_params_from_cli(cli, params);
  const sim::ScenarioInfo* info = sim::find_scenario("adversarial-recovery");
  const std::size_t n = info->build(params).n;  // resolved peer count

  std::printf("Recovery from pathological initial states, n = %zu peers\n", n);
  std::printf("(each row: recover, then mid-run scramble + churn -- the "
              "registered 'adversarial-recovery' timeline)\n\n");
  std::printf("%-14s %10s %10s %12s %10s %16s\n", "initial state", "re-chord",
              "rounds", "exact spec", "full run", "classic chord");

  int rechord_failures = 0;
  for (gen::Topology topo : gen::all_topologies()) {
    sim::Scenario sc = info->build(params);
    sc.topology = topo;
    const auto out = sim::run_scenario(sc, params);
    const auto& first = out.checkpoints.front();
    rechord_failures += !out.ok;

    // Classic Chord from the identical initial state.
    util::Rng rng(params.seed);
    const auto ids = gen::random_ids(rng, n);
    const auto g = gen::make_topology(topo, n, rng);
    chord::ChordStabilizer classic(ids, g);
    const auto classic_rounds = classic.run(5000);

    std::printf("%-14s %10s %10llu %12s %10s %16s\n", gen::topology_name(topo),
                first.reached ? "recovered" : "STUCK",
                static_cast<unsigned long long>(first.rounds),
                first.exact ? "yes" : "NO", out.ok ? "ok" : "FAILED",
                classic_rounds < 5000 ? "recovered" : "never");
  }

  // A fuzzed arbitrary initial state (wrong markings + garbage virtuals).
  {
    sim::ScenarioParams scrambled = params;
    scrambled.seed = params.seed + 1;
    sim::Scenario sc = info->build(scrambled);
    sc.topology = gen::Topology::kRandomConnected;
    sc.scramble_initial = true;
    const auto out = sim::run_scenario(sc, scrambled);
    const auto& first = out.checkpoints.front();
    rechord_failures += !out.ok;
    std::printf("%-14s %10s %10llu %12s %10s %16s\n", "scrambled",
                first.reached ? "recovered" : "STUCK",
                static_cast<unsigned long long>(first.rounds),
                first.exact ? "yes" : "NO", out.ok ? "ok" : "FAILED", "n/a");
  }

  std::printf("\nRe-Chord recovered from %s state (Theorem 1.1); the classic\n"
              "protocol typically recovers from none of the damaged ones --\n"
              "that gap is the paper's contribution.\n",
              rechord_failures == 0 ? "every" : "NOT every");
  return rechord_failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
