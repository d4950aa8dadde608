// Figure 6 -- "Number of steps needed to reach the stable state and 'almost
// stable' state": mean rounds until the exact fixpoint and until all desired
// Re-Chord edges exist, for 5..105 real nodes, 30 random graphs per size.
//
// Paper shape to reproduce: 10..25 rounds for up to 30 nodes, growing
// sublinearly (at most linearly) up to ~35 at 105 nodes -- far below the
// O(n log n) upper bound of Theorem 1.1 -- with the "almost stable" state
// reached noticeably earlier.

#include "common.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 6: rounds to stable / almost-stable state",
                "Kniesburges et al., SPAA'11, Fig. 6");

  util::Table table({"real nodes", "rounds stable", "rounds almost", "sd",
                     "min", "max", "rounds/(n log2 n)"});
  std::vector<std::vector<double>> csv_rows;
  std::vector<double> ns, rounds;
  for (std::size_t n : cfg.sizes) {
    sim::TrialConfig base = cfg.base_trial();
    base.n = n;
    const auto pt = sim::aggregate(sim::run_batch(base, cfg.trials));
    const double nlogn =
        static_cast<double>(n) * std::max(1.0, std::log2(static_cast<double>(n)));
    table.add_row({std::to_string(n), util::fixed(pt.rounds_stable.mean, 2),
                   util::fixed(pt.rounds_almost.mean, 2),
                   util::fixed(pt.rounds_stable.stddev, 2),
                   util::fixed(pt.rounds_stable.min, 0),
                   util::fixed(pt.rounds_stable.max, 0),
                   util::fixed(pt.rounds_stable.mean / nlogn, 4)});
    csv_rows.push_back({static_cast<double>(n), pt.rounds_stable.mean,
                        pt.rounds_almost.mean, pt.rounds_stable.stddev,
                        pt.rounds_almost.stddev});
    ns.push_back(static_cast<double>(n));
    rounds.push_back(pt.rounds_stable.mean);
  }
  table.print(std::cout);

  const double a = util::powerlaw_exponent(ns, rounds);
  std::printf("\npower-law fit: rounds ~ n^%.2f "
              "(paper: sublinear/linear, i.e. a <= 1; O(n log n) bound not tight)\n",
              a);
  std::printf("almost-stable is reached before stable at every size: %s\n",
              [&] {
                for (const auto& r : csv_rows)
                  if (r[2] > r[1]) return "NO";
                return "yes";
              }());

  bench::emit_csv(cfg.csv_path,
                  {"n", "rounds_stable", "rounds_almost", "sd_stable",
                   "sd_almost"},
                  csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
