// Property-style determinism tests of the round engine: the sharded rule
// phase must be bit-identical to the serial one on randomized initial
// graphs, and the incremental per-slot change tracking must agree exactly
// with the full serialize_state() comparison it replaced.

#include <gtest/gtest.h>

#include "core/churn.hpp"
#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord::core {
namespace {

Network random_net(std::size_t n, std::uint64_t seed, bool scrambled) {
  util::Rng rng(seed);
  Network net = gen::make_network(gen::Topology::kRandomConnected, n, rng);
  if (scrambled) gen::scramble_state(net, rng);
  return net;
}

TEST(Determinism, SerialVsEightThreadsBitIdenticalPerRound) {
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    for (bool scrambled : {false, true}) {
      Engine serial(random_net(100, seed, scrambled), {.threads = 1});
      Engine threaded(random_net(100, seed, scrambled), {.threads = 8});
      for (int r = 0; r < 120; ++r) {
        const auto a = serial.step();
        const auto b = threaded.step();
        ASSERT_EQ(a.changed, b.changed)
            << "seed=" << seed << " scrambled=" << scrambled << " round=" << r;
        ASSERT_EQ(serial.network().state_fingerprint(),
                  threaded.network().state_fingerprint())
            << "seed=" << seed << " scrambled=" << scrambled << " round=" << r;
        if (!a.changed && !b.changed) break;
      }
    }
  }
}

TEST(Determinism, ThreadedRunReachesTheExactSpecFixpoint) {
  Engine engine(random_net(100, 31, /*scrambled=*/true), {.threads = 8});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  const auto result = run_to_stable(engine, spec, opt);
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

// The incremental tracker's `changed` must equal "serialize_state() before
// the round != serialize_state() after the round" on every round, including
// the rounds past the fixpoint (the designed equivalence is modulo a 2^-64
// per-slot digest collision, which no finite test can hit by accident).
// 5 random graphs x 20 rounds >= 100 rounds.
TEST(Determinism, IncrementalTrackingAgreesWithSerializeOn100RandomRounds) {
  std::size_t rounds_checked = 0;
  for (std::uint64_t seed = 41; seed <= 45; ++seed) {
    Engine engine(random_net(24, seed, /*scrambled=*/true), {});
    for (int r = 0; r < 20; ++r) {
      const auto before = engine.network().serialize_state();
      const auto mt = engine.step();
      const bool full_diff = engine.network().serialize_state() != before;
      ASSERT_EQ(mt.changed, full_diff) << "seed=" << seed << " round=" << r;
      ++rounds_checked;
    }
  }
  EXPECT_GE(rounds_checked, 100U);
}

// Lockstep equivalence of the incremental fixpoint detector with the
// serialize-per-round reference held here in the test, across the fixpoint
// and out-of-band churn applied to a full-scan and an active-set engine (no
// reset: the snapshot is taken at the end of the previous round, before the
// churn, so the reference attributes the churn delta to the following round
// -- and so must the detector).
TEST(Determinism, SerializeReferenceAndIncrementalFixpointDetectorsAgree) {
  Engine full(random_net(30, 51, /*scrambled=*/false), {.full_scan = true});
  Engine incremental(random_net(30, 51, /*scrambled=*/false), {});
  util::Rng churn_rng(99);
  auto prev_state = full.network().serialize_state();
  for (int r = 0; r < 80; ++r) {
    if (r == 30 || r == 55) {  // out-of-band churn between rounds
      const auto owners = full.network().live_owners();
      const std::uint32_t victim = owners[owners.size() / 2];
      crash(full.network(), victim);
      crash(incremental.network(), victim);
      const RingPos id = churn_rng.next();
      join(full.network(), id, full.network().live_owners()[0]);
      join(incremental.network(), id,
           incremental.network().live_owners()[0]);
    }
    const auto a = full.step();
    const auto b = incremental.step();
    auto state = full.network().serialize_state();
    ASSERT_EQ(a.changed, state != prev_state) << "round " << r;
    prev_state = std::move(state);
    ASSERT_EQ(a.changed, b.changed) << "round " << r;
    ASSERT_EQ(full.network().state_fingerprint(),
              incremental.network().state_fingerprint())
        << "round " << r;
  }
}

// The sharded rule phase bumps the network's metric counters in per-shard
// lanes that are folded into lane 0 after the phase (DESIGN.md §6.7). The
// folded counters must be exactly the serial ones after every round -- and
// exactly what the edge sets hold -- through bring-up and a crash/join/leave
// burst. n = 120 keeps the 8-thread engine above the sharding threshold.
TEST(Determinism, CounterLanesFoldToSerialCountsEveryRound) {
  Engine serial(random_net(120, 61, /*scrambled=*/true), {.threads = 1});
  Engine threaded(random_net(120, 61, /*scrambled=*/true), {.threads = 8});
  std::size_t rounds_checked = 0;
  const auto check = [&](const char* when) {
    const Network& a = serial.network();
    const Network& b = threaded.network();
    std::size_t edges[kEdgeKinds] = {};
    std::size_t slots = 0, virtuals = 0;
    for (const Slot s : b.live_slots()) {
      ++slots;
      if (!is_real_slot(s)) ++virtuals;
      for (int k = 0; k < kEdgeKinds; ++k)
        edges[k] += b.edges(s, static_cast<EdgeKind>(k)).size();
    }
    for (int k = 0; k < kEdgeKinds; ++k) {
      const auto kind = static_cast<EdgeKind>(k);
      ASSERT_EQ(a.edge_count(kind), b.edge_count(kind)) << when << " kind " << k;
      ASSERT_EQ(b.edge_count(kind), edges[k]) << when << " kind " << k;
    }
    ASSERT_EQ(a.live_slot_count(), b.live_slot_count()) << when;
    ASSERT_EQ(b.live_slot_count(), slots) << when;
    ASSERT_EQ(a.live_virtual_count(), b.live_virtual_count()) << when;
    ASSERT_EQ(b.live_virtual_count(), virtuals) << when;
    ASSERT_EQ(a.alive_owner_count(), b.alive_owner_count()) << when;
    ASSERT_EQ(a.topology_version(), b.topology_version()) << when;
  };
  const auto run = [&](int max_rounds) {
    for (int r = 0; r < max_rounds; ++r) {
      const auto ma = serial.step();
      const auto mb = threaded.step();
      ASSERT_EQ(ma.changed, mb.changed) << "round " << serial.rounds_executed();
      ASSERT_NO_FATAL_FAILURE(check("after a round"));
      ++rounds_checked;
      if (!ma.changed) return;
    }
  };
  ASSERT_NO_FATAL_FAILURE(run(3000));
  ASSERT_GT(threaded.network().alive_owner_count(), 64U);
  // The burst: 3 crashes, 3 graceful leaves and 3 joins between two rounds,
  // applied identically to both engines.
  util::Rng rng(62);
  for (int i = 0; i < 3; ++i) {
    const auto owners = serial.network().live_owners();
    const std::uint32_t victim = owners[rng.below(owners.size())];
    serial.crash_peer(victim);
    threaded.crash_peer(victim);
  }
  for (int i = 0; i < 3; ++i) {
    const auto owners = serial.network().live_owners();
    const std::uint32_t leaver = owners[rng.below(owners.size())];
    serial.leave_peer(leaver);
    threaded.leave_peer(leaver);
  }
  for (int i = 0; i < 3; ++i) {
    const RingPos id = rng.next();
    const std::uint32_t contact = serial.network().live_owners()[0];
    serial.join_peer(id, contact);
    threaded.join_peer(id, contact);
  }
  ASSERT_NO_FATAL_FAILURE(check("after the burst"));
  ASSERT_NO_FATAL_FAILURE(run(3000));
  EXPECT_EQ(serial.network().state_fingerprint(),
            threaded.network().state_fingerprint());
  EXPECT_GT(rounds_checked, 20U);
}

}  // namespace
}  // namespace rechord::core
