// Robustness beyond the paper's model. The proofs assume a fully synchronous
// reliable network; this ablation measures what actually happens under
//   (a) partial activation -- every peer independently sleeps through a
//       round with probability p (a crude asynchrony model, cf. the
//       asynchronous linearization of Clouser et al. cited in §1.2), and
//   (b) message loss -- a fraction of delayed assignments is dropped.
// Both sweeps drive the registered `sleepy-bringup` / `lossy-bringup`
// scenario timelines (sim/scenario.hpp) with the probability as the
// intensity knob; the per-trial measurement is the scenario's AwaitAlmost
// checkpoint. Expectation: (a) only stretches convergence (~1/(1-p));
// (b) mild loss is absorbed because the rules re-emit information every
// round, heavy loss starts destroying forwarded edges and recovery becomes
// probabilistic.

#include "common.hpp"

#include "sim/scenario.hpp"

namespace {

using namespace rechord;

struct SweepPoint {
  std::size_t recovered = 0;
  util::OnlineStats rounds;  // rounds to almost-stable (recovered trials)
  util::OnlineStats drops;   // messages dropped per trial
};

SweepPoint sweep(const char* scenario, double p, const bench::BenchConfig& cfg,
                 std::size_t n, std::uint64_t cap) {
  SweepPoint pt;
  for (std::size_t t = 0; t < cfg.trials; ++t) {
    sim::ScenarioParams params;
    params.n = n;
    params.seed = cfg.seed + t;
    params.intensity = p;
    params.engine.threads = cfg.threads;
    params.engine.fault_seed = cfg.seed + 31 * t;
    // The sweep measures only the under-fault AwaitAlmost phase: raise its
    // cap to --cap and truncate the timeline after it, dropping the
    // scenario's trailing fault-free exact-convergence phase (unmeasured
    // here, and expensive at heavy fault probabilities).
    sim::Scenario sc = sim::find_scenario(scenario)->build(params);
    for (std::size_t i = 0; i < sc.timeline.size(); ++i) {
      if (auto* almost = std::get_if<sim::AwaitAlmost>(&sc.timeline[i])) {
        almost->max_rounds = cap;
        sc.timeline.resize(i + 1);
        break;
      }
    }
    const auto out = sim::run_scenario(sc, params);
    const auto& almost = out.checkpoints.front();  // the AwaitAlmost phase
    pt.drops.add(static_cast<double>(out.messages_dropped));
    if (almost.reached) {
      ++pt.recovered;
      pt.rounds.add(static_cast<double>(almost.rounds));
    }
  }
  return pt;
}

std::string pct(std::size_t num, std::size_t den) {
  return util::fixed(100.0 * static_cast<double>(num) /
                         static_cast<double>(den),
                     0) +
         "%";
}

}  // namespace

static int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {24};
  if (!cli.has("trials")) cfg.trials = 10;
  const auto cap = static_cast<std::uint64_t>(cli.get_int("cap", 4000));
  const std::size_t n = cfg.sizes.front();
  bench::banner("Fault tolerance beyond the model: asynchrony & message loss",
                "extension of Kniesburges et al., SPAA'11 (model of §2.1)");

  util::Table sleep_table({"sleep prob", "recovered", "rounds to almost",
                           "slowdown vs sync"});
  std::vector<std::vector<double>> csv_rows;
  double sync_rounds = 0;
  for (double p : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    const auto pt = sweep("sleepy-bringup", p, cfg, n, cap);
    if (p == 0.0) sync_rounds = pt.rounds.mean();
    sleep_table.add_row(
        {util::fixed(p, 1), pct(pt.recovered, cfg.trials),
         util::fixed(pt.rounds.mean(), 1),
         util::fixed(sync_rounds > 0 ? pt.rounds.mean() / sync_rounds : 1.0,
                     2) +
             "x"});
    csv_rows.push_back({0.0, p, static_cast<double>(pt.recovered),
                        pt.rounds.mean(), pt.drops.mean()});
  }
  sleep_table.print(std::cout);
  std::printf("\n");

  util::Table loss_table({"loss prob", "recovered", "rounds to almost",
                          "msgs dropped"});
  for (double p : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    const auto pt = sweep("lossy-bringup", p, cfg, n, cap);
    loss_table.add_row({util::fixed(p, 2), pct(pt.recovered, cfg.trials),
                        pt.rounds.count() ? util::fixed(pt.rounds.mean(), 1)
                                          : "-",
                        util::fixed(pt.drops.mean(), 0)});
    csv_rows.push_back({1.0, p, static_cast<double>(pt.recovered),
                        pt.rounds.mean(), pt.drops.mean()});
  }
  loss_table.print(std::cout);
  std::printf("\nasynchrony costs ~1/(1-p) slowdown and never correctness;\n"
              "message loss is absorbed while the per-round re-emission can\n"
              "outrun the destruction of forwarded edges (n=%zu peers).\n", n);
  // sweep: 0 = sleep (partial activation), 1 = message loss.
  bench::emit_csv(cli.csv_path(),
                  {"sweep", "probability", "recovered", "rounds_to_almost",
                   "msgs_dropped"},
                  csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
