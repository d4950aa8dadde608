// DHT lookups over a stabilized Re-Chord network: store/retrieve semantics
// via consistent hashing (keys are hashed to the ring; the responsible peer
// is the key's clockwise successor), routed with the Chord binary-search
// strategy over the real-node projection (Fact 2.1 makes this O(log n)).
//
//   ./lookup_routing [--n 64] [--keys 12] [--seed 5]

#include <cmath>
#include <cstdio>
#include <string>

#include "chord/routing.hpp"
#include "util/stats.hpp"
#include "core/convergence.hpp"
#include "core/projection.hpp"
#include "gen/topologies.hpp"
#include "ident/hashing.hpp"
#include "util/cli.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 64));
  const auto keys = static_cast<int>(cli.get_int("keys", 12));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 5)));

  std::printf("Stabilizing a %zu-peer Re-Chord network...\n", n);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng), {});
  const auto spec = core::StableSpec::compute(engine.network());
  const auto run = core::run_to_stable(engine, spec, {});
  std::printf("  stable after %llu rounds; emulating Chord on top.\n\n",
              static_cast<unsigned long long>(run.rounds_to_stable));

  const auto projection = core::RealProjection::compute(engine.network());

  std::printf("%-18s %-10s %-10s %-10s %5s\n", "key", "hash", "home peer",
              "from peer", "hops");
  util::OnlineStats hops;
  int failures = 0;
  for (int k = 0; k < keys; ++k) {
    const std::string name = "object-" + std::to_string(k);
    const core::RingPos h = ident::hash_name(name);
    const auto from = static_cast<std::uint32_t>(rng.below(projection.pos.size()));
    const auto res = chord::greedy_lookup(projection.graph, projection.pos,
                                          from, h, 64 * n);
    failures += !res.success;
    if (res.success) hops.add(static_cast<double>(res.hops));
    std::printf("%-18s %-10s %-10s %-10s %5zu%s\n", name.c_str(),
                ident::pos_to_string(h).c_str(),
                ident::pos_to_string(projection.pos[res.target]).c_str(),
                ident::pos_to_string(projection.pos[from]).c_str(), res.hops,
                res.success ? "" : "  (FAILED)");
  }
  std::printf("\nmean hops %.2f over %zu lookups (log2 n = %.1f)\n",
              hops.mean(), hops.count(),
              std::log2(static_cast<double>(n)));
  return failures == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
