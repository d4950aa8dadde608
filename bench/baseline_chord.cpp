// The paper's motivation (§1): the ORIGINAL Chord maintenance protocol
// (stabilize/notify/fix_fingers) is not self-stabilizing -- from an
// arbitrary weakly connected pointer state it frequently never recovers the
// ring -- while Re-Chord recovers from every such state (Theorem 1.1).
// This bench runs both protocols from the same random initial digraphs.

#include "common.hpp"

#include "chord/stabilizer.hpp"
#include "core/convergence.hpp"
#include "gen/topologies.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {8, 16, 24, 32, 48};
  if (!cli.has("trials")) cfg.trials = 20;
  const auto cap = static_cast<std::uint64_t>(cli.get_int("cap", 3000));
  bench::banner(
      "Baseline: classic Chord stabilization vs Re-Chord self-stabilization",
      "Kniesburges et al., SPAA'11, §1 (motivation) + Theorem 1.1");

  util::Table table({"n", "chord recovered", "chord rounds*", "re-chord "
                     "recovered", "re-chord rounds"});
  std::vector<std::vector<double>> csv_rows;
  for (std::size_t n : cfg.sizes) {
    std::size_t chord_ok = 0, rechord_ok = 0;
    util::OnlineStats chord_rounds, rechord_rounds;
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      // Identical initial conditions for both protocols.
      util::Rng rng_ids(cfg.seed + t);
      const auto ids = gen::random_ids(rng_ids, n);
      util::Rng rng_topo(cfg.seed + 500 + t);
      const auto g =
          gen::make_topology(gen::Topology::kRandomConnected, n, rng_topo);

      chord::ChordStabilizer classic(ids, g);
      const auto r = classic.run(cap);
      if (r < cap) {
        ++chord_ok;
        chord_rounds.add(static_cast<double>(r));
      }

      core::Engine engine(gen::make_network(ids, g), {.threads = cfg.threads});
      const auto spec = core::StableSpec::compute(engine.network());
      core::RunOptions opt;
      opt.max_rounds = cap;
      const auto result = core::run_to_stable(engine, spec, opt);
      if (result.stabilized && result.spec_exact) {
        ++rechord_ok;
        rechord_rounds.add(static_cast<double>(result.rounds_to_stable));
      }
    }
    auto pct = [&](std::size_t c) {
      return util::fixed(100.0 * static_cast<double>(c) /
                             static_cast<double>(cfg.trials),
                         0) +
             "%";
    };
    table.add_row({std::to_string(n), pct(chord_ok),
                   chord_rounds.count() ? util::fixed(chord_rounds.mean(), 1)
                                        : "-",
                   pct(rechord_ok), util::fixed(rechord_rounds.mean(), 1)});
    csv_rows.push_back({static_cast<double>(n),
                        100.0 * static_cast<double>(chord_ok) /
                            static_cast<double>(cfg.trials),
                        100.0 * static_cast<double>(rechord_ok) /
                            static_cast<double>(cfg.trials),
                        rechord_rounds.mean()});
  }
  table.print(std::cout);
  std::printf("\n* mean rounds among the runs that DID recover.\n");
  std::printf("expected shape: classic Chord recovers from only a fraction of\n"
              "random weakly connected states (and that fraction falls with n);\n"
              "Re-Chord recovers from 100%% of them -- the reason Re-Chord exists.\n");
  bench::emit_csv(cfg.csv_path,
                  {"n", "chord_recovered_pct", "rechord_recovered_pct",
                   "rechord_rounds"},
                  csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
