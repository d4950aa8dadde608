// Fact 2.1 -- "In the stable state, Chord is a subgraph of Re-Chord":
// coverage accounting of every ideal Chord edge (successor, predecessor,
// finger) against the real-node projection of the stabilized network.
//
// Reproduction finding (documented in DESIGN.md/EXPERIMENTS.md): the fact
// holds EXACTLY for all edges that do not cross the identifier-space seam;
// seam-crossing edges (the successor of the largest real node, the
// predecessor of the smallest, and wrap-around fingers) are only
// conditionally literal because the rules define closest-real neighbors in
// linear order. Connectivity across the seam is always provided by the two
// marked ring edges, and full-overlay routing never fails (see bench/lookup).

#include "common.hpp"

#include "chord/ideal_chord.hpp"
#include "core/convergence.hpp"
#include "core/projection.hpp"
#include "gen/topologies.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("trials")) cfg.trials = 10;
  bench::banner("Fact 2.1: Chord as a subgraph of stable Re-Chord",
                "Kniesburges et al., SPAA'11, Fact 2.1");

  util::Table table({"n", "succ", "pred", "fingers", "seam edges",
                     "core holds"});
  std::vector<std::vector<double>> csv_rows;
  bool all_core = true;
  for (std::size_t n : cfg.sizes) {
    std::size_t succ_c = 0, succ_t = 0, pred_c = 0, pred_t = 0;
    std::size_t fing_c = 0, fing_t = 0, seam_c = 0, seam_t = 0;
    bool core_holds = true;
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      util::Rng rng(cfg.seed + t);
      core::Engine engine(
          gen::make_network(gen::Topology::kRandomConnected, n, rng),
          {.threads = cfg.threads});
      const auto spec = core::StableSpec::compute(engine.network());
      core::RunOptions opt;
      opt.max_rounds = 1'000'000;
      if (!core::run_to_stable(engine, spec, opt).stabilized) continue;
      const auto projection = core::RealProjection::compute(engine.network());
      const auto ideal = chord::ChordGraph::compute(engine.network());
      const auto cov = chord::check_chord_subgraph(ideal, projection);
      succ_c += cov.succ_covered;
      succ_t += cov.succ_total;
      pred_c += cov.pred_covered;
      pred_t += cov.pred_total;
      fing_c += cov.finger_covered;
      fing_t += cov.finger_total;
      seam_c += cov.wrapped_covered;
      seam_t += cov.wrapped_total;
      core_holds &= cov.core_subgraph_holds();
    }
    all_core &= core_holds;
    auto pct = [](std::size_t c, std::size_t tt) {
      return tt == 0 ? std::string("-")
                     : util::fixed(100.0 * static_cast<double>(c) /
                                       static_cast<double>(tt),
                                   1) +
                           "%";
    };
    table.add_row({std::to_string(n), pct(succ_c, succ_t), pct(pred_c, pred_t),
                   pct(fing_c, fing_t), pct(seam_c, seam_t),
                   core_holds ? "yes" : "NO"});
    csv_rows.push_back(
        {static_cast<double>(n),
         succ_t ? 100.0 * static_cast<double>(succ_c) / static_cast<double>(succ_t) : 0,
         pred_t ? 100.0 * static_cast<double>(pred_c) / static_cast<double>(pred_t) : 0,
         fing_t ? 100.0 * static_cast<double>(fing_c) / static_cast<double>(fing_t) : 0,
         seam_t ? 100.0 * static_cast<double>(seam_c) / static_cast<double>(seam_t) : 0});
  }
  table.print(std::cout);
  std::printf("\nnon-seam Chord edges covered at every size: %s "
              "(Fact 2.1 core). Seam edges are covered opportunistically;\n"
              "the ring edges carry the seam, so routing is unaffected.\n",
              all_core ? "yes" : "NO");
  bench::emit_csv(cfg.csv_path,
                  {"n", "succ_pct", "pred_pct", "finger_pct", "seam_pct"},
                  csv_rows);
  return all_core ? 0 : 1;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
