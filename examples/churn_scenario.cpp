// Churn scenario: a live Re-Chord deployment absorbing joins, graceful
// leaves and crash failures (paper §4), driven by the registered
// `churn-mix` timeline (sim/scenario.hpp) -- the overlay persists across
// every operation and each op is run to the exact fixpoint. Reports
// per-operation recovery times against the Theorem 4.1/4.2 bounds.
//
//   ./example_churn_scenario [--n 32] [--ops 12] [--seed 11] [--threads T]
//                            [--full-scan] [--csv series.csv]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  sim::ScenarioParams params;
  params.seed = 11;
  params.ops = 12;
  params = sim::scenario_params_from_cli(cli, params);
  const sim::Scenario sc = sim::find_scenario("churn-mix")->build(params);
  const std::size_t n = sc.n;

  std::printf("Bootstrapping a stable Re-Chord network of %zu peers, then "
              "%zu churn ops...\n\n", n, params.ops);
  std::ofstream csv_file;
  std::ostream* csv = nullptr;
  if (!cli.csv_path().empty()) {
    csv_file.open(cli.csv_path());
    if (csv_file) {
      csv = &csv_file;
    } else {
      std::fprintf(stderr, "warning: cannot write %s, skipping csv\n",
                   cli.csv_path().c_str());
    }
  }
  const auto out = sim::run_scenario(sc, params, csv);

  util::Table table({"#", "operation", "peers", "integ", "exact", "live p-r",
                     "skip p-r", "ok"});
  int i = 0;
  for (const auto& cp : out.checkpoints) {
    if (cp.label == "bootstrap") {
      std::printf("  stable after %llu rounds\n\n",
                  static_cast<unsigned long long>(cp.rounds));
      continue;
    }
    table.add_row({std::to_string(++i), cp.events, std::to_string(cp.peers),
                   std::to_string(cp.rounds_almost), std::to_string(cp.rounds),
                   std::to_string(cp.live_peer_rounds),
                   std::to_string(cp.skipped_peer_rounds),
                   cp.passed ? "stable" : "FAILED"});
  }
  table.print(std::cout);

  const double lg = std::log2(static_cast<double>(n));
  std::printf("\nTheorem 4.1/4.2 reference: O(log^2 n) = ~%.0f for joins, "
              "O(log n) = ~%.0f for leaves (integration rounds).\n", lg * lg,
              lg);
  std::printf("%s\n", out.ok ? "All operations recovered to the exact stable "
                               "topology."
                             : "SOME OPERATIONS FAILED");
  return out.ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
