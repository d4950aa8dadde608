// Figure 7 -- "The total number of edges to the total number of nodes in the
// final graph": per-run scatter of (total nodes, total edges) across all
// sizes and trials. The paper reads this as edges growing at a modest
// super-linear rate in the number of nodes (supporting the O(n log^2 n)
// edge bound vs Θ(n log n) nodes).

#include "common.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 7: total edges vs total nodes in the final graph",
                "Kniesburges et al., SPAA'11, Fig. 7");

  std::vector<double> nodes, edges;
  std::vector<std::vector<double>> csv_rows;
  for (std::size_t n : cfg.sizes) {
    sim::TrialConfig base = cfg.base_trial();
    base.n = n;
    for (const auto& outcome : sim::run_batch(base, cfg.trials)) {
      if (!outcome.run.stabilized) continue;
      const auto& mt = outcome.run.final_metrics;
      nodes.push_back(static_cast<double>(mt.total_nodes()));
      edges.push_back(static_cast<double>(mt.total_edges()));
      csv_rows.push_back({static_cast<double>(n),
                          static_cast<double>(mt.total_nodes()),
                          static_cast<double>(mt.total_edges())});
    }
  }

  // Bucket the scatter for terminal display (the figure's x-axis runs to
  // ~1000 total nodes at n = 105).
  util::Table table({"total nodes (bucket)", "runs", "mean total edges",
                     "edges/node"});
  const double max_nodes = *std::max_element(nodes.begin(), nodes.end());
  const int buckets = 10;
  for (int b = 0; b < buckets; ++b) {
    const double lo = max_nodes * b / buckets;
    const double hi = max_nodes * (b + 1) / buckets;
    util::OnlineStats in_bucket, ratio;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] > lo && nodes[i] <= hi) {
        in_bucket.add(edges[i]);
        ratio.add(edges[i] / nodes[i]);
      }
    }
    if (in_bucket.count() == 0) continue;
    table.add_row({util::fixed(lo, 0) + "-" + util::fixed(hi, 0),
                   std::to_string(in_bucket.count()),
                   util::fixed(in_bucket.mean(), 1),
                   util::fixed(ratio.mean(), 2)});
  }
  table.print(std::cout);

  std::printf("\npower-law fit: total edges ~ (total nodes)^%.2f "
              "(paper: slightly superlinear, ~n log^2 n edges vs n log n nodes)\n",
              util::powerlaw_exponent(nodes, edges));
  std::printf("scatter points: %zu (sizes x trials)\n", nodes.size());

  bench::emit_csv(cfg.csv_path, {"n", "total_nodes", "total_edges"}, csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
