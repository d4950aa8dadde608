// Theorems 4.1 / 4.2 -- churn recovery: a join into a stable network
// re-stabilizes in O(log^2 n) rounds; a (graceful) leave or a crash failure
// in O(log n) rounds. Each trial drives the registered `join-leave-waves`
// scenario timeline (sim/scenario.hpp): one persistent overlay absorbs a
// wave of joins, then graceful leaves, then crashes, every op run to the
// exact fixpoint; the per-op checkpoints (labelled join/leave/crash) are
// aggregated and reported against log2(n) and log2(n)^2.

#include "common.hpp"

#include "sim/scenario.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {8, 16, 32, 64, 128};
  if (!cli.has("trials")) cfg.trials = 5;
  const auto ops_per_trial =
      static_cast<std::size_t>(cli.get_int("ops", 4));
  bench::banner("Join/Leave/Crash recovery rounds",
                "Kniesburges et al., SPAA'11, Theorems 4.1 and 4.2");

  util::Table table({"n", "join integ", "join exact", "leave integ",
                     "leave exact", "crash integ", "join/(log2 n)^2",
                     "leave/log2 n"});
  std::vector<std::vector<double>> csv_rows;
  for (std::size_t n : cfg.sizes) {
    util::OnlineStats join_integ, join_exact, leave_integ, leave_exact,
        crash_integ;
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      sim::ScenarioParams params;
      params.n = n;
      params.seed = cfg.seed + 1000 * t + n;
      params.ops = ops_per_trial;
      params.engine.threads = cfg.threads;
      const auto out =
          sim::run_registered_scenario("join-leave-waves", params);
      for (const auto& cp : out.checkpoints) {
        if (!cp.passed) continue;  // a failed checkpoint would skew the mean
        const auto integ = static_cast<double>(cp.rounds_almost);
        const auto exact = static_cast<double>(cp.rounds);
        if (cp.label == "join") {
          join_integ.add(integ);
          join_exact.add(exact);
        } else if (cp.label == "leave") {
          leave_integ.add(integ);
          leave_exact.add(exact);
        } else if (cp.label == "crash") {
          crash_integ.add(integ);
        }
      }
    }
    const double lg = std::log2(static_cast<double>(n));
    table.add_row({std::to_string(n), util::fixed(join_integ.mean(), 2),
                   util::fixed(join_exact.mean(), 2),
                   util::fixed(leave_integ.mean(), 2),
                   util::fixed(leave_exact.mean(), 2),
                   util::fixed(crash_integ.mean(), 2),
                   util::fixed(join_integ.mean() / (lg * lg), 3),
                   util::fixed(leave_integ.mean() / lg, 3)});
    csv_rows.push_back({static_cast<double>(n), join_integ.mean(),
                        join_exact.mean(), leave_integ.mean(),
                        leave_exact.mean(), crash_integ.mean()});
  }
  table.print(std::cout);
  std::printf(
      "\n'integ' = rounds until every desired edge of the new peer set exists\n"
      "(the quantity Theorems 4.1/4.2 bound); 'exact' additionally waits for\n"
      "leftover unnecessary edges to drain, which the paper bounds separately\n"
      "by O(n log n). Expected shapes: join integ/(log2 n)^2 and leave\n"
      "integ/log2 n stay bounded as n grows -- polylog recovery, not linear.\n");
  bench::emit_csv(cli.csv_path(),
                  {"n", "join_integ", "join_exact", "leave_integ",
                   "leave_exact", "crash_integ"},
                  csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
