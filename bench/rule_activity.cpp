// Which rules do the work, when? Per-round counts of fired rule actions
// during convergence -- an empirical view of the proof's phase structure
// (§3.1: connection -> linearization -> ring -> closest real neighbor ->
// cleanup). Early rounds are dominated by virtual-node creation, overlap
// moves and linearization forwards; ring traffic is a short burst; at the
// fixpoint only the steady connection-edge pipeline remains.

#include "common.hpp"

#include "core/convergence.hpp"
#include "gen/topologies.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 32));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  gen::Topology topo = gen::Topology::kLine;
  for (gen::Topology t : gen::all_topologies())
    if (cli.get("topology", "line") == gen::topology_name(t)) topo = t;
  bench::banner("Rule activity per round (phase structure of §3)",
                "Kniesburges et al., SPAA'11, proof phases of Theorem 1.1");
  std::printf("n=%zu topology=%s seed=%llu\n\n", n, gen::topology_name(topo),
              static_cast<unsigned long long>(seed));

  util::Rng rng(seed);
  core::Engine engine(gen::make_network(topo, n, rng),
                      core::engine_options_from_cli(cli));
  const auto spec = core::StableSpec::compute(engine.network());

  // live/replay/skip: the active-set scheduler's per-round split. The rule
  // counters themselves are mode-independent -- replayed and skipped peers
  // contribute their cached activity, so the phase-structure picture is
  // identical under --full-scan (which reports every peer as live).
  util::Table table({"round", "live", "replay", "skip", "v.create", "v.del",
                     "overlap", "rl/rr inform", "lin fwd", "mirror", "ring cr",
                     "ring fwd", "ring res", "cedge cr", "cedge fwd",
                     "cedge res", "almost"});
  core::RuleActivity total;
  std::uint64_t round = 0;
  for (;;) {
    const auto mt = engine.step();
    ++round;
    const auto& a = engine.last_activity();
    total += a;
    table.add_row({std::to_string(round), std::to_string(mt.active_peers),
                   std::to_string(mt.replayed_peers),
                   std::to_string(mt.skipped_peers),
                   std::to_string(a.virtuals_created),
                   std::to_string(a.virtuals_deleted),
                   std::to_string(a.overlap_moves),
                   std::to_string(a.real_neighbor_informs),
                   std::to_string(a.lin_forwards),
                   std::to_string(a.mirror_backedges),
                   std::to_string(a.ring_creates),
                   std::to_string(a.ring_forwards),
                   std::to_string(a.ring_resolves),
                   std::to_string(a.cedge_creates),
                   std::to_string(a.cedge_forwards),
                   std::to_string(a.cedge_resolves),
                   spec.almost_stable(engine.network()) ? "yes" : ""});
    if (!mt.changed || round > 100000) break;
  }
  table.print(std::cout);
  std::printf("\ntotals over %llu rounds: %llu actions "
              "(%llu linearization forwards, %llu rl/rr informs, "
              "%llu ring moves, %llu cedge moves)\n",
              static_cast<unsigned long long>(round),
              static_cast<unsigned long long>(total.total()),
              static_cast<unsigned long long>(total.lin_forwards),
              static_cast<unsigned long long>(total.real_neighbor_informs),
              static_cast<unsigned long long>(total.ring_forwards +
                                              total.ring_resolves),
              static_cast<unsigned long long>(total.cedge_forwards +
                                              total.cedge_resolves));
  return 0;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
