// Figure 5 -- "Edges and nodes measured from various simulation runs of the
// algorithm": mean counts of normal edges (unmarked + ring), connection
// edges, and virtual nodes in the final stable graph, for 5..105 real nodes,
// 30 random weakly connected initial graphs per size.
//
// Paper shape to reproduce: normal edges slightly superlinear; connection
// edges growing FASTER than normal edges as n rises (the c*n*log^2 n curve);
// virtual nodes ~ n log n (lowest curve).

#include "common.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 5: edges and nodes at stabilization",
                "Kniesburges et al., SPAA'11, Fig. 5");

  util::Table table({"real nodes", "virtual nodes", "normal edges",
                     "connection edges", "conn/normal", "sd(normal)",
                     "sd(conn)"});
  std::vector<std::vector<double>> csv_rows;
  double prev_ratio = 0.0;
  bool ratio_monotone = true;
  for (std::size_t n : cfg.sizes) {
    sim::TrialConfig base = cfg.base_trial();
    base.n = n;
    const auto pt = sim::aggregate(sim::run_batch(base, cfg.trials));
    if (pt.failed != 0)
      std::printf("WARNING: %zu/%zu trials failed to stabilize at n=%zu\n",
                  pt.failed, pt.trials, n);
    const double ratio =
        pt.normal_edges.mean > 0 ? pt.connection_edges.mean / pt.normal_edges.mean
                                 : 0.0;
    ratio_monotone &= ratio >= prev_ratio - 0.05;
    prev_ratio = ratio;
    table.add_row({std::to_string(n), util::fixed(pt.virtual_nodes.mean, 1),
                   util::fixed(pt.normal_edges.mean, 1),
                   util::fixed(pt.connection_edges.mean, 1),
                   util::fixed(ratio, 3), util::fixed(pt.normal_edges.stddev, 1),
                   util::fixed(pt.connection_edges.stddev, 1)});
    csv_rows.push_back({static_cast<double>(n), pt.virtual_nodes.mean,
                        pt.normal_edges.mean, pt.connection_edges.mean,
                        pt.virtual_nodes.stddev, pt.normal_edges.stddev,
                        pt.connection_edges.stddev});
  }
  table.print(std::cout);

  // Scaling fits, as the paper discusses (§5).
  std::vector<double> ns, virt, conn;
  for (const auto& row : csv_rows) {
    ns.push_back(row[0]);
    virt.push_back(row[1]);
    conn.push_back(row[3]);
  }
  std::printf("\npower-law fits (y ~ n^a):\n");
  std::printf("  virtual nodes    a = %.2f (paper: ~n log n => a in ~[1.0,1.3])\n",
              util::powerlaw_exponent(ns, virt));
  std::printf("  connection edges a = %.2f (paper: ~n log^2 n => a > virtual's)\n",
              util::powerlaw_exponent(ns, conn));
  std::printf("connection edges grow faster than normal edges: %s (paper: yes)\n",
              ratio_monotone ? "yes" : "NO");

  bench::emit_csv(cfg.csv_path,
                  {"n", "virtual_nodes", "normal_edges", "connection_edges",
                   "sd_virtual", "sd_normal", "sd_connection"},
                  csv_rows);
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
