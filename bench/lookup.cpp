// Chord lookup emulation over stabilized Re-Chord (§1.1 + Fact 2.1).
//
// Three routing views are measured:
//   (a) the ideal Chord graph -- the baseline the paper builds on;
//   (b) the real-node projection E_ReChord = {(u,v): ∃i, (u_i,v) ∈ Eu ∪ Er}
//       -- peer-level routing where a peer uses the fingers of ALL its
//       virtual nodes (it simulates them). Fact 2.1 makes this emulate
//       Chord's O(log n)-hop binary search;
//   (c) the slot-level overlay (every real+virtual node a vertex) -- the
//       guaranteed-progress sorted-list walk: it always succeeds (each
//       non-extreme node has a clockwise neighbor; ring edges close the
//       seam) but costs linear hops. (b) is fast because Fact 2.1 holds;
//       (c) is the safety net that can never get stuck.

#include "common.hpp"

#include "chord/ideal_chord.hpp"
#include "chord/routing.hpp"
#include "core/convergence.hpp"
#include "core/projection.hpp"
#include "gen/topologies.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {16, 32, 64, 105, 256};
  if (!cli.has("trials")) cfg.trials = 3;
  const auto lookups = static_cast<std::size_t>(cli.get_int("lookups", 200));
  bench::banner("Lookup routing over stabilized Re-Chord",
                "Kniesburges et al., SPAA'11, §1.1 routing + Fact 2.1");

  util::Table table({"n", "ideal hops", "re-chord hops", "re-chord p99",
                     "success", "list-walk hops", "log2 n"});
  std::vector<std::vector<double>> csv_rows;
  bool walk_always_succeeds = true;
  double worst_hop_ratio = 0.0;
  for (std::size_t n : cfg.sizes) {
    util::OnlineStats ideal_hops, proj_hops, walk_hops;
    std::vector<double> proj_samples;
    std::size_t proj_ok = 0, proj_all = 0;
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      util::Rng rng(cfg.seed + t);
      core::Engine engine(
          gen::make_network(gen::Topology::kRandomConnected, n, rng),
          {.threads = cfg.threads});
      const auto spec = core::StableSpec::compute(engine.network());
      core::RunOptions opt;
      opt.max_rounds = 1'000'000;
      if (!core::run_to_stable(engine, spec, opt).stabilized) continue;

      const auto ideal = chord::ChordGraph::compute(engine.network());
      graph::Digraph ideal_g(ideal.pos.size());
      for (std::uint32_t v = 0; v < ideal.pos.size(); ++v)
        if (ideal.succ[v] != v) ideal_g.add_edge(v, ideal.succ[v]);
      for (const auto& f : ideal.fingers)
        if (!ideal_g.has_edge(f.from, f.to)) ideal_g.add_edge(f.from, f.to);

      const auto projection = core::RealProjection::compute(engine.network());
      const auto overlay = core::FullOverlay::compute(engine.network());

      util::Rng keys(cfg.seed + 7777 + t);
      for (std::size_t probe = 0; probe < lookups; ++probe) {
        const core::RingPos key = keys.next();
        const auto from = static_cast<std::uint32_t>(keys.below(n));

        const auto ri = chord::greedy_lookup(ideal_g, ideal.pos, from, key);
        if (ri.success) ideal_hops.add(static_cast<double>(ri.hops));

        const auto rp = chord::greedy_lookup(projection.graph, projection.pos,
                                             from, key, 64 * n);
        ++proj_all;
        if (rp.success) {
          ++proj_ok;
          proj_hops.add(static_cast<double>(rp.hops));
          proj_samples.push_back(static_cast<double>(rp.hops));
        }

        const auto fw =
            static_cast<std::uint32_t>(keys.below(overlay.pos.size()));
        const auto rw = chord::greedy_lookup(overlay.graph, overlay.pos, fw,
                                             key, 64 * overlay.pos.size());
        walk_always_succeeds &= rw.success;
        if (rw.success) walk_hops.add(static_cast<double>(rw.hops));
      }
    }
    const auto summary = util::summarize(std::move(proj_samples));
    const double lg = std::log2(static_cast<double>(n));
    worst_hop_ratio = std::max(worst_hop_ratio, proj_hops.mean() / lg);
    table.add_row(
        {std::to_string(n), util::fixed(ideal_hops.mean(), 2),
         util::fixed(proj_hops.mean(), 2), util::fixed(summary.p99, 0),
         util::fixed(100.0 * static_cast<double>(proj_ok) /
                         static_cast<double>(proj_all),
                     1) +
             "%",
         util::fixed(walk_hops.mean(), 1), util::fixed(lg, 1)});
    csv_rows.push_back({static_cast<double>(n), ideal_hops.mean(),
                        proj_hops.mean(), summary.p99,
                        100.0 * static_cast<double>(proj_ok) /
                            static_cast<double>(proj_all),
                        walk_hops.mean()});
  }
  table.print(std::cout);
  std::printf("\nRe-Chord peer-level hops track the ideal Chord hops (both\n"
              "O(log n): worst mean/log2(n) ratio %.2f) -- Fact 2.1 at work.\n"
              "The slot-level list walk is linear but NEVER fails: %s.\n",
              worst_hop_ratio, walk_always_succeeds ? "confirmed" : "VIOLATED");
  bench::emit_csv(cfg.csv_path,
                  {"n", "ideal_hops", "rechord_hops", "rechord_p99",
                   "success_pct", "listwalk_hops"},
                  csv_rows);
  return walk_always_succeeds ? 0 : 1;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
