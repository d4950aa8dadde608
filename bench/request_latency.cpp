// Rounds-to-completion distributions of the in-network request engine
// (net/request_engine.hpp, DESIGN.md §9): a batch of hop-by-hop lookups is
// issued against the materialized fixpoint overlay and driven round by
// round until it drains, while Poisson churn arrives at a configurable rate
// and the hops pay a configurable delay matrix. Reported per cell: the
// completion share, mean hops, and the rounds-in-flight distribution
// (mean / p50 / p90 / p99 / max) -- how long a lookup actually LIVES in the
// network, the quantity the snapshot routing path hides by construction.
//
//   ./bench_request_latency [--sizes 1000,10000] [--requests 256]
//                           [--rates 0,0.5,2] [--threads T] [--seed S]
//                           [--cap 1000] [--csv out.csv]
//
// Delay matrices swept per size and rate: sync (no latency model), wan
// (two datacenters, uniform inter-dc class {base 2, jitter 1}) and spike
// (two datacenters, two-point inter-dc class {base 1, +2 with p=25%}).
//
// The sweep supports n up to 100k (--sizes 100000); it is not in the
// default size list because the WAN cells are dominated by the engine, not
// the requests: with a nonzero inter-dc class the stationary cross-dc op
// flow keeps most peers live every round (DESIGN.md §8.2), so each of the
// ~60 drain rounds costs close to a full scan at that scale.

#include "common.hpp"
#include "core/churn.hpp"
#include "core/engine.hpp"
#include "net/request_engine.hpp"

using namespace rechord;

namespace {

struct ModelSpec {
  const char* name;
  bool installed;
  core::DelayClass inter;
};

// One mixed membership op (join through a random contact, or a crash),
// mirroring the scenario runner's churn mix minus graceful leaves -- the
// request path cares about topology perturbation, not the leave protocol.
void churn_op(core::Engine& engine, util::Rng& rng) {
  const auto owners = engine.network().live_owners();
  const std::uint32_t pick = owners[rng.below(owners.size())];
  if (rng.below(2) == 0 || owners.size() <= 4)
    engine.join_peer(rng.next(), pick);
  else
    engine.crash_peer(pick);
}

}  // namespace

static int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {1000, 10000};
  const std::size_t requests =
      static_cast<std::size_t>(cli.get_int("requests", 256));
  const std::uint64_t cap =
      static_cast<std::uint64_t>(cli.get_int("cap", 1000));
  std::vector<double> rates;
  {
    // Comma-separated double list (--rates 0,0.5,2); the shared int-list
    // parser would truncate fractional rates.
    const std::string spec = cli.get("rates", "0,0.5,2");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t next = spec.find(',', pos);
      if (next == std::string::npos) next = spec.size();
      if (next > pos) rates.push_back(std::stod(spec.substr(pos, next - pos)));
      pos = next + 1;
    }
  }

  const core::DelayClass wan_uniform{.base = 2, .jitter = 1};
  const core::DelayClass wan_spike{.base = 1,
                                   .jitter = 2,
                                   .kind = core::JitterKind::kSpike,
                                   .spike_percent = 25};
  const ModelSpec models[] = {{"sync", false, {}},
                              {"wan", true, wan_uniform},
                              {"spike", true, wan_spike}};

  bench::banner("request_latency -- rounds-to-completion of live lookups",
                "in-network request engine, DESIGN.md §9");
  util::Table table({"n", "model", "churn/r", "reqs", "done", "failed",
                     "hops", "rif-mean", "p50", "p90", "p99", "max",
                     "rounds", "ms"});
  std::uint64_t cell = 0;
  for (const std::size_t n : cfg.sizes) {
    // The exact fixpoint overlay, materialized once per size from the
    // StableSpec; every cell starts from a private copy of it.
    const core::Network base = bench::stable_network(n, cfg.seed);
    for (const ModelSpec& model : models) {
      for (const double rate : rates) {
        core::EngineOptions eopt;
        eopt.threads = cfg.threads;
        core::Engine engine(base, eopt);
        if (model.installed) {
          std::vector<std::uint8_t> dc(engine.network().owner_count());
          for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
          engine.assign_datacenters(std::move(dc));
          engine.set_latency_model(
              core::LatencyModel::uniform(2, model.inter, cfg.seed ^ 0x1A7EULL));
        }
        net::RequestEngine req(engine, {.seed = cfg.seed ^ ++cell});
        util::Rng rng(cfg.seed ^ (cell * 0x9E3779B97F4A7C15ULL));
        {
          const auto owners = engine.network().live_owners();
          for (std::size_t i = 0; i < requests; ++i)
            req.submit_lookup(rng.next(),
                              owners[rng.below(owners.size())]);
        }
        bench::WallTimer timer;
        std::uint64_t rounds = 0;
        while (req.inflight() > 0 && rounds < cap) {
          for (std::size_t k = rate > 0.0 ? util::poisson_knuth(rng, rate) : 0;
               k > 0; --k)
            churn_op(engine, rng);
          engine.step();
          req.on_round();
          ++rounds;
        }
        const double ms = timer.elapsed_ns() / 1e6;
        std::vector<double> rif;
        rif.reserve(req.completions().size());
        for (const auto& rec : req.completions())
          if (rec.status == net::RequestStatus::kResolved)
            rif.push_back(static_cast<double>(rec.rounds_in_flight()));
        const auto s = util::summarize(std::move(rif));
        const auto& tot = req.totals();
        table.add_row(
            {std::to_string(n), model.name, util::fixed(rate, 1),
             std::to_string(tot.issued),
             util::fixed(100.0 * static_cast<double>(tot.resolved) /
                             static_cast<double>(tot.issued),
                         1) +
                 "%",
             std::to_string(tot.failed()), util::fixed(tot.mean_hops(), 2),
             util::fixed(s.mean, 2), util::fixed(s.p50, 0),
             util::fixed(s.p90, 0), util::fixed(s.p99, 0),
             util::fixed(s.max, 0), std::to_string(rounds),
             util::fixed(ms, 1)});
      }
    }
  }
  table.print(std::cout);
  if (!cfg.csv_path.empty()) {
    std::ofstream out(cfg.csv_path);
    table.write_csv(out);
    std::printf("(csv written to %s)\n", cfg.csv_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
