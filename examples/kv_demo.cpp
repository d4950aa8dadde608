// Distributed key-value store demo: the application layer the paper's
// Fact 2.1 enables. Stores objects on the stabilized overlay via consistent
// hashing, then drives churn through the data plane: join + migration,
// graceful leave + handoff, crash with and without replication.
//
//   ./kv_demo [--n 16] [--keys 60] [--replicas 2] [--seed 21]

#include <cstdio>
#include <string>

#include "core/churn.hpp"
#include "core/convergence.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace rechord;

void resettle(core::Engine& engine) {
  engine.reset_change_tracking();
  const auto spec = core::StableSpec::compute(engine.network());
  (void)core::run_to_stable(engine, spec, {});
}

std::size_t count_found(const dht::KvStore& kv, const dht::RoutingView& view,
                        int keys) {
  std::size_t found = 0;
  for (int i = 0; i < keys; ++i)
    found += kv.get(view, "object-" + std::to_string(i), view.proj.owners[0])
                 .found;
  return found;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 16));
  const auto keys = static_cast<int>(cli.get_int("keys", 60));
  const auto replicas = static_cast<unsigned>(cli.get_int("replicas", 2));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 21)));

  std::printf("Bootstrapping %zu peers, stabilizing, then storing %d objects "
              "(replicas=%u)...\n", n, keys, replicas);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng), {});
  resettle(engine);

  dht::KvStore kv({.replicas = replicas});
  {
    const auto view = dht::RoutingView::snapshot(engine.network());
    util::OnlineStats hops;
    for (int i = 0; i < keys; ++i) {
      const auto put = kv.put(view, "object-" + std::to_string(i),
                              "value-" + std::to_string(i),
                              view.proj.owners[rng.below(n)]);
      if (put.ok) hops.add(static_cast<double>(put.hops));
    }
    std::printf("  stored %d objects, mean %.2f routing hops, %zu records "
                "across the ring\n\n", keys, hops.mean(), kv.total_records());
  }

  // --- join: a newcomer takes over part of the ring ------------------------
  {
    const auto newbie = core::join(engine.network(), rng.next(),
                                   engine.network().live_owners()[0]);
    resettle(engine);
    const auto view = dht::RoutingView::snapshot(engine.network());
    const auto moved = kv.rebalance(view);
    std::printf("join:  peer@%s integrated; %zu records migrated; "
                "%zu/%d objects reachable\n",
                ident::pos_to_string(engine.network().owner_pos(newbie)).c_str(),
                moved, count_found(kv, view, keys), keys);
  }

  // --- graceful leave: data handed off before departure --------------------
  {
    const auto owners = engine.network().live_owners();
    const auto leaver = owners[owners.size() / 2];
    {
      const auto view = dht::RoutingView::snapshot(engine.network());
      const auto transferred = kv.handoff(view, leaver);
      std::printf("leave: peer@%s hands off %zu records, departs...\n",
                  ident::pos_to_string(engine.network().owner_pos(leaver)).c_str(),
                  transferred);
    }
    core::leave_gracefully(engine.network(), leaver);
    resettle(engine);
    const auto view = dht::RoutingView::snapshot(engine.network());
    kv.rebalance(view);
    std::printf("       %zu/%d objects reachable after leave\n",
                count_found(kv, view, keys), keys);
  }

  // --- crash: replication decides survival ---------------------------------
  {
    const auto owners = engine.network().live_owners();
    const auto victim = owners[owners.size() / 3];
    const auto victim_records = kv.records_on(victim);
    kv.drop(victim);
    core::crash(engine.network(), victim);
    resettle(engine);
    const auto view = dht::RoutingView::snapshot(engine.network());
    const auto lost = kv.lost_keys(view);
    kv.rebalance(view);
    std::printf("crash: peer@%s dies holding %zu records; %zu objects lost "
                "(%s); %zu/%d reachable after re-replication\n",
                ident::pos_to_string(engine.network().owner_pos(victim)).c_str(),
                victim_records, lost.size(),
                replicas > 1 ? "replicas absorbed the failure"
                             : "no replicas -> primary copies gone",
                count_found(kv, view, keys), keys);
  }

  std::printf("\nOverlay healed to the exact stable topology after every "
              "operation;\nthe DHT stayed serviceable throughout -- the "
              "application-level payoff\nof self-stabilization (Fact 2.1).\n");
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
