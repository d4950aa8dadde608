// Property tests of the active-set scheduler (DESIGN.md §6): replaying a
// peer whose read set is untouched -- or skipping a provably *resting* peer
// outright -- must be indistinguishable, bit for bit, from re-running its
// rules. We assert that over randomized churn and fault schedules, serial
// and sharded, additionally let the engine cross-check every single replay
// against a live re-execution (EngineOptions::paranoid_replay), and pin the
// fixpoint behavior (every peer skipped, fingerprint frozen) and the skip
// set's recovery after churn.

#include <gtest/gtest.h>

#include <cstdint>

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

// Applies one random churn event identically to every engine's network (the
// rng draw sequence is independent of the engine count, so one- and
// two-engine runs see the same schedule). Roughly a third of the events
// skip the reset, exercising the engine's out-of-band dirty-mark scan (the
// two-round wake).
void churn_all(std::initializer_list<Engine*> engines, util::Rng& rng) {
  const auto owners = (*engines.begin())->network().live_owners();
  for (Engine* e : engines) ASSERT_EQ(owners, e->network().live_owners());
  const std::uint32_t pick = owners[rng.below(owners.size())];
  switch (rng.below(3)) {
    case 0: {
      const RingPos id = rng.next();
      for (Engine* e : engines) join(e->network(), id, pick);
      break;
    }
    case 1:
      if (owners.size() <= 4) return;
      for (Engine* e : engines) crash(e->network(), pick);
      break;
    default:
      if (owners.size() <= 4) return;
      for (Engine* e : engines) leave_gracefully(e->network(), pick);
      break;
  }
  if (rng.below(3) != 0)
    for (Engine* e : engines) e->reset_change_tracking();
}

void churn_both(Engine& a, Engine& b, util::Rng& rng) {
  churn_all({&a, &b}, rng);
}

// Lockstep equivalence driver: every round must produce identical state
// fingerprints and identical fixpoint-detector verdicts. Accumulates the
// work the active engine avoided (peer-replays and outright skips) into
// `avoided`.
void lockstep(Engine& active, Engine& full, util::Rng& churn_rng, int rounds,
              int churn_every, std::uint64_t& avoided) {
  for (int r = 0; r < rounds; ++r) {
    if (churn_every > 0 && r > 0 && r % churn_every == 0)
      churn_both(active, full, churn_rng);
    const auto ma = active.step();
    const auto mf = full.step();
    avoided += ma.replayed_peers + ma.skipped_peers;
    ASSERT_EQ(ma.changed, mf.changed) << "round " << r;
    ASSERT_EQ(active.network().state_fingerprint(),
              full.network().state_fingerprint())
        << "round " << r;
  }
}

// >= 120 randomized churn rounds serial: 3 seeds x 2 initial-state kinds x
// 40 rounds, churn every 7 rounds, resets only sometimes.
TEST(Scheduler, ActiveVsFullScanBitIdenticalUnderChurnSerial) {
  std::uint64_t total_avoided = 0;
  for (std::uint64_t seed : {61ULL, 62ULL, 63ULL}) {
    for (bool scrambled : {false, true}) {
      Engine active(random_net(60, seed, scrambled), {.threads = 1});
      Engine full(random_net(60, seed, scrambled),
                  {.threads = 1, .full_scan = true});
      util::Rng churn_rng(seed * 101);
      lockstep(active, full, churn_rng, 40, 7, total_avoided);
      if (HasFatalFailure()) return;
    }
  }
  // The scheduler must actually have skipped work, not just matched.
  EXPECT_GT(total_avoided, 0U);
}

// Same property with the active engine sharded over the 8-thread worker
// pool, compared against the serial full scan: one run covers both
// "active == full" and "sharded == serial".
TEST(Scheduler, ActiveEightThreadsVsFullScanSerialBitIdentical) {
  std::uint64_t total_avoided = 0;
  for (std::uint64_t seed : {71ULL, 72ULL}) {
    Engine active(random_net(100, seed, /*scrambled=*/true), {.threads = 8});
    Engine full(random_net(100, seed, /*scrambled=*/true),
                {.threads = 1, .full_scan = true});
    util::Rng churn_rng(seed * 103);
    lockstep(active, full, churn_rng, 60, 9, total_avoided);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(total_avoided, 0U);
}

// Equivalence must survive fault injection: activation faults (a woken
// peer that sleeps keeps its wake flag) and message loss (identical op
// multisets give identical drop coins).
TEST(Scheduler, ActiveVsFullScanBitIdenticalUnderFaults) {
  for (std::uint64_t seed : {81ULL, 82ULL}) {
    const EngineOptions base{.threads = 1,
                             .sleep_probability = 0.25,
                             .message_loss = 0.1,
                             .fault_seed = seed * 7};
    EngineOptions full_opt = base;
    full_opt.full_scan = true;
    Engine active(random_net(40, seed, /*scrambled=*/false), base);
    Engine full(random_net(40, seed, /*scrambled=*/false), full_opt);
    util::Rng churn_rng(seed * 107);
    std::uint64_t replays = 0;
    lockstep(active, full, churn_rng, 80, 11, replays);
    if (HasFatalFailure()) return;
  }
}

// Wake-set soundness, checked directly: every peer the scheduler would have
// replayed is run live instead, and the fresh phase output (local edits,
// delayed ops, rl/rr, activity) is diffed against the cache. A single
// mismatch means a peer was wrongly considered quiescent.
TEST(Scheduler, ParanoidReplayCrossCheckFindsNoMismatch) {
  std::uint64_t checked_replays = 0;
  for (std::uint64_t seed : {91ULL, 92ULL, 93ULL}) {
    Engine engine(random_net(50, seed, seed % 2 == 0),
                  {.paranoid_replay = true});
    util::Rng churn_rng(seed * 109);
    for (int r = 0; r < 50; ++r) {
      if (r > 0 && r % 8 == 0) churn_all({&engine}, churn_rng);
      checked_replays += engine.step().replayed_peers;
      ASSERT_EQ(engine.replay_check_failures(), 0U)
          << "seed=" << seed << " round=" << r;
    }
  }
  EXPECT_GT(checked_replays, 1000U);  // the check must have had real targets
}

// Fixpoint detection agreement plus the scheduler's raison d'être: once the
// fixpoint is reached, every peer rests -- the whole op flow is recognized
// as a resting chain and skipped outright (no rules, no replay, no ops) --
// while the detector keeps reporting an unchanged state and the state
// fingerprint stays frozen.
TEST(Scheduler, FixpointRoundsSkipEveryPeer) {
  Engine active(random_net(80, 33, /*scrambled=*/false), {});
  Engine full(random_net(80, 33, /*scrambled=*/false), {.full_scan = true});
  const auto spec = StableSpec::compute(active.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  const auto ra = run_to_stable(active, spec, opt);
  const auto rf = run_to_stable(full, spec, opt);
  ASSERT_TRUE(ra.stabilized);
  ASSERT_TRUE(ra.spec_exact);
  EXPECT_EQ(ra.rounds_to_stable, rf.rounds_to_stable);
  const std::size_t peers = active.network().alive_owner_count();
  const std::uint64_t frozen = active.network().state_fingerprint();
  // One settling round (quiescence is observed at the end of the round that
  // proves it), then every round must skip every peer.
  active.step();
  for (int r = 0; r < 5; ++r) {
    const auto mt = active.step();
    EXPECT_FALSE(mt.changed);
    EXPECT_EQ(mt.active_peers, 0U);
    EXPECT_EQ(mt.replayed_peers, 0U);
    EXPECT_EQ(mt.skipped_peers, peers);
    EXPECT_EQ(active.network().state_fingerprint(), frozen);
  }
  // The full scan sees the identical frozen state.
  full.step();
  EXPECT_EQ(full.network().state_fingerprint(), frozen);
}

// After a perturbation the scheduler must (a) stay bit-identical to the full
// scan through recovery and (b) find its way back to all-peers-skipped
// fixpoint rounds -- the skip set heals, it does not degrade permanently.
TEST(Scheduler, SkipSetReEngagesAfterChurn) {
  Engine active(random_net(70, 35, /*scrambled=*/false), {});
  Engine full(random_net(70, 35, /*scrambled=*/false), {.full_scan = true});
  const auto spec = StableSpec::compute(active.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(active, spec, opt).stabilized);
  ASSERT_TRUE(run_to_stable(full, spec, opt).stabilized);
  util::Rng rng(17);
  for (int burst = 0; burst < 3; ++burst) {
    churn_both(active, full, rng);
    std::size_t all_skipped_rounds = 0;
    for (int r = 0; r < 400; ++r) {
      const auto mt = active.step();
      full.step();
      ASSERT_EQ(active.network().state_fingerprint(),
                full.network().state_fingerprint())
          << "burst " << burst << " round " << r;
      if (mt.skipped_peers == active.network().alive_owner_count() &&
          !mt.changed)
        ++all_skipped_rounds;
      if (all_skipped_rounds >= 3) break;
    }
    EXPECT_GE(all_skipped_rounds, 3U) << "burst " << burst;
  }
}

// Storm (bulk) rounds run live peers bare -- no cache recording, no
// incremental index registration -- so the reader/op-sender indices must be
// rebuilt at the storm->calm transition before anyone goes quiescent again.
// This drives a mass crash WITHOUT reset_change_tracking (a reset would
// rebuild the indices and mask a registration hole), keeps lockstep with
// the full scan through the whole recovery and well past re-stabilization,
// and checks that the storm path actually ran and that skip re-engaged.
TEST(Scheduler, StormWithoutResetStaysBitIdentical) {
  for (std::uint64_t seed : {41ULL, 42ULL}) {
    Engine active(random_net(90, seed, /*scrambled=*/false), {});
    Engine full(random_net(90, seed, /*scrambled=*/false),
                {.full_scan = true});
    const auto spec = StableSpec::compute(active.network());
    RunOptions opt;
    opt.max_rounds = 20000;
    ASSERT_TRUE(run_to_stable(active, spec, opt).stabilized);
    ASSERT_TRUE(run_to_stable(full, spec, opt).stabilized);
    active.step();  // settle into all-skipped rounds
    full.step();
    util::Rng rng(seed * 113);
    for (int i = 0; i < 15; ++i) {  // majority-waking crash burst, no reset
      const auto owners = active.network().live_owners();
      const std::uint32_t pick = owners[rng.below(owners.size())];
      crash(active.network(), pick);
      crash(full.network(), pick);
    }
    std::size_t max_active = 0, all_skipped_rounds = 0;
    for (int r = 0; r < 250; ++r) {
      const auto mt = active.step();
      full.step();
      ASSERT_EQ(active.network().state_fingerprint(),
                full.network().state_fingerprint())
          << "seed " << seed << " round " << r;
      max_active = std::max(max_active, mt.active_peers);
      if (!mt.changed &&
          mt.skipped_peers == active.network().alive_owner_count())
        ++all_skipped_rounds;
    }
    // The burst must actually have driven a storm (majority live) and the
    // scheduler must have found its way back to resting rounds.
    EXPECT_GT(max_active, active.network().alive_owner_count() / 2)
        << "seed " << seed;
    EXPECT_GT(all_skipped_rounds, 0U) << "seed " << seed;
  }
}

// Graceful-leave schedules, specifically: leave_gracefully is the one churn
// op that mutates OTHER peers' edge sets out-of-band (the departing peer
// introduces its in-neighbors to its out-neighbors before vanishing), so it
// stresses the oob dirty scan and its reader registration differently from
// join/crash. Randomized bursts of 1-3 leaves, frequently without
// reset_change_tracking, must stay fingerprint-identical to the full scan
// through every recovery round -- serial and sharded over 8 threads.
TEST(Scheduler, GracefulLeaveSchedulesBitIdenticalSerialAndSharded) {
  for (const unsigned threads : {1U, 8U}) {
    for (std::uint64_t seed : {141ULL, 142ULL}) {
      Engine active(random_net(80, seed, /*scrambled=*/false),
                    {.threads = threads});
      Engine full(random_net(80, seed, /*scrambled=*/false),
                  {.threads = 1, .full_scan = true});
      const auto spec0 = StableSpec::compute(active.network());
      RunOptions opt;
      opt.max_rounds = 20000;
      ASSERT_TRUE(run_to_stable(active, spec0, opt).stabilized);
      ASSERT_TRUE(run_to_stable(full, spec0, opt).stabilized);
      util::Rng rng(seed * 131);
      std::uint64_t avoided = 0;
      while (active.network().alive_owner_count() > 16) {
        const std::size_t burst = 1 + rng.below(3);
        for (std::size_t b = 0; b < burst; ++b) {
          const auto owners = active.network().live_owners();
          ASSERT_EQ(owners, full.network().live_owners());
          if (owners.size() <= 4) break;
          const std::uint32_t victim = owners[rng.below(owners.size())];
          leave_gracefully(active.network(), victim);
          leave_gracefully(full.network(), victim);
        }
        if (rng.below(3) == 0) {  // mostly exercise the no-reset oob path
          active.reset_change_tracking();
          full.reset_change_tracking();
        }
        for (int r = 0; r < 60; ++r) {
          const auto ma = active.step();
          const auto mf = full.step();
          avoided += ma.replayed_peers + ma.skipped_peers;
          ASSERT_EQ(active.network().state_fingerprint(),
                    full.network().state_fingerprint())
              << "threads=" << threads << " seed=" << seed << " round " << r;
          if (!ma.changed && !mf.changed) break;
        }
        const auto spec = StableSpec::compute(active.network());
        ASSERT_TRUE(spec.exact_match(active.network()))
            << "threads=" << threads << " seed=" << seed;
      }
      EXPECT_GT(avoided, 0U) << "threads=" << threads << " seed=" << seed;
    }
  }
}

// -- translation closure (DESIGN.md §6.6) ------------------------------------

// Lockstep equivalence of the translating-chain closure through a FULL
// convergence tail -- the regime dominated by uniformly-translating
// connection-edge chains -- with randomized churn plus a mid-tail fault
// window, over {1, 8} threads. The active-set engine (translation closure)
// and the full scan run the same schedule; every round both must agree on
// the fingerprint and the fixpoint verdict.
//
// This is also the mid-slide misclassification regression: a chain member
// wrongly classified as *resting* while its chain is still sliding would
// freeze its local state and diverge from the full scan within a round or
// two, so per-round fingerprint equality WHILE changed==true pins it. The
// closure must also demonstrably engage mid-slide (peers fast-forwarded --
// skipped or emit-only boundary -- during rounds in which the global state
// still changed), so the test cannot pass vacuously by never skipping.
TEST(Scheduler, TranslatingChainsLockstepFullTailAndNeverMisclassified) {
  for (const unsigned threads : {1U, 8U}) {
    for (std::uint64_t seed : {171ULL, 172ULL}) {
      Engine translate(random_net(130, seed, /*scrambled=*/false),
                       {.threads = threads});
      Engine full(random_net(130, seed, /*scrambled=*/false),
                  {.threads = 1, .full_scan = true});
      util::Rng churn_rng(seed * 149);
      std::uint64_t mid_slide_skipped = 0, mid_slide_boundary = 0;
      int quiet = 0;
      for (int r = 0; r < 20000 && quiet < 3; ++r) {
        if (r > 0 && r % 25 == 0)
          churn_all({&translate, &full}, churn_rng);
        if (r == 40) {  // mid-tail fault window; identical default fault
          translate.set_message_loss(0.1);  // seeds + identical op multisets
          full.set_message_loss(0.1);       // give identical drop coins
        }
        if (r == 48) {
          translate.set_message_loss(0.0);
          full.set_message_loss(0.0);
        }
        const auto mt = translate.step();
        const auto mf = full.step();
        ASSERT_EQ(mt.changed, mf.changed)
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_EQ(translate.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << "threads=" << threads << " seed=" << seed << " round " << r;
        if (mt.changed) {
          mid_slide_skipped += mt.skipped_peers;
          mid_slide_boundary += mt.boundary_peers;
        }
        quiet = mt.changed ? 0 : quiet + 1;
      }
      ASSERT_EQ(quiet, 3) << "threads=" << threads << " seed=" << seed
                          << ": tail did not reach the fixpoint";
      EXPECT_GT(mid_slide_skipped, 0U)
          << "threads=" << threads << " seed=" << seed;
      EXPECT_GT(mid_slide_boundary, 0U)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

// Wake-set soundness of the closure's replay paths, checked directly: with
// paranoid_replay every quiescence candidate is run live and diffed against
// its cache through randomized churn/fault tails (paranoid disables the
// outright-skip fast path by design -- see skip_possible -- so every
// candidate funnels through the cross-check).
TEST(Scheduler, TranslatingChainsParanoidReplayFindsNoMismatch) {
  std::uint64_t checked_replays = 0;
  for (std::uint64_t seed : {181ULL, 182ULL}) {
    Engine engine(random_net(90, seed, /*scrambled=*/false),
                  {.paranoid_replay = true});
    util::Rng churn_rng(seed * 151);
    for (int r = 0; r < 120; ++r) {
      if (r > 0 && r % 20 == 0) churn_all({&engine}, churn_rng);
      if (r == 60) engine.set_message_loss(0.1);
      if (r == 70) engine.set_message_loss(0.0);
      checked_replays += engine.step().replayed_peers;
      ASSERT_EQ(engine.replay_check_failures(), 0U)
          << "seed=" << seed << " round=" << r;
    }
  }
  EXPECT_GT(checked_replays, 1000U);
}

// Satellite regression: when a fault window closes, the resting skip must
// re-arm on its own -- skip_possible reads the live option values, so the
// first post-window round may already skip. Concretely: a network that
// recovered from churn WHILE a loss+sleep window was open must, once the
// window closes and the state re-stabilizes, produce fixpoint rounds that
// cost exactly what a never-faulted engine's fixpoint rounds cost: zero
// live, zero replayed, every peer skipped, fingerprint frozen.
TEST(Scheduler, FaultWindowClosureReArmsRestingSkip) {
  Engine faulted(random_net(80, 53, /*scrambled=*/false), {});
  Engine control(random_net(80, 53, /*scrambled=*/false), {});
  const auto spec0 = StableSpec::compute(faulted.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(faulted, spec0, opt).stabilized);
  ASSERT_TRUE(run_to_stable(control, spec0, opt).stabilized);
  // Identical perturbation for both; only `faulted` recovers under an open
  // loss+sleep window (during which skipping is disabled wholesale).
  util::Rng rng(19);
  for (int burst = 0; burst < 2; ++burst) churn_both(faulted, control, rng);
  faulted.set_message_loss(0.15);
  faulted.set_sleep_probability(0.2);
  for (int r = 0; r < 25; ++r) faulted.step();
  faulted.set_message_loss(0.0);
  faulted.set_sleep_probability(0.0);
  // Both must converge to the same membership-determined fixpoint.
  const auto spec = StableSpec::compute(faulted.network());
  ASSERT_TRUE(run_to_stable(faulted, spec, opt).stabilized);
  ASSERT_TRUE(run_to_stable(control, spec, opt).stabilized);
  ASSERT_TRUE(spec.exact_match(faulted.network()));
  ASSERT_EQ(faulted.network().state_fingerprint(),
            control.network().state_fingerprint());
  faulted.step();  // one settling round each (see FixpointRoundsSkipEveryPeer)
  control.step();
  const std::size_t peers = faulted.network().alive_owner_count();
  const std::uint64_t frozen = faulted.network().state_fingerprint();
  for (int r = 0; r < 5; ++r) {
    const auto mt = faulted.step();
    const auto mc = control.step();
    EXPECT_FALSE(mt.changed) << "round " << r;
    EXPECT_EQ(mt.active_peers, 0U) << "round " << r;
    EXPECT_EQ(mt.replayed_peers, 0U) << "round " << r;
    EXPECT_EQ(mt.skipped_peers, peers) << "round " << r;
    EXPECT_EQ(mt.active_peers, mc.active_peers) << "round " << r;
    EXPECT_EQ(mt.replayed_peers, mc.replayed_peers) << "round " << r;
    EXPECT_EQ(mt.skipped_peers, mc.skipped_peers) << "round " << r;
    EXPECT_EQ(faulted.network().state_fingerprint(), frozen) << "round " << r;
  }
}

// -- boundary-op elision and the delivery-gap invariant (DESIGN.md §6.6) ----

enum class Window { kPartition, kLoss, kSleep };

// Four engines -- {active, full scan} x {1, 8} threads -- on one stabilized
// network. The two crashes keep the post-window tail long enough for the
// translation closure (and with it the boundary elision) to engage.
std::vector<Engine> fault_window_engines(std::size_t n, std::uint64_t seed) {
  std::vector<Engine> engines;
  for (const bool full : {false, true})
    for (const unsigned threads : {1U, 8U})
      engines.emplace_back(random_net(n, seed, /*scrambled=*/false),
                           EngineOptions{.threads = threads, .full_scan = full});
  RunOptions opt;
  opt.max_rounds = 20000;
  for (Engine& e : engines) {
    const auto spec = StableSpec::compute(e.network());
    EXPECT_TRUE(run_to_stable(e, spec, opt).stabilized);
  }
  return engines;
}

void open_window(Engine& e, Window w) {
  switch (w) {
    case Window::kPartition: {
      std::vector<std::uint8_t> group(e.network().owner_count(), 0);
      for (std::size_t o = 0; o < group.size(); ++o) group[o] = o % 2;
      e.set_partition(std::move(group));
      break;
    }
    case Window::kLoss: e.set_message_loss(0.2); break;
    case Window::kSleep: e.set_sleep_probability(0.2); break;
  }
}

void close_window(Engine& e) {
  e.clear_partition();
  e.set_message_loss(0.0);
  e.set_sleep_probability(0.0);
}

// Steps every engine once; all must agree on the fingerprint and verdict.
bool step_all_in_lockstep(std::vector<Engine>& engines, int round) {
  bool changed = false;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto mt = engines[i].step();
    if (i == 0) changed = mt.changed;
    EXPECT_EQ(mt.changed, changed) << "engine " << i << " round " << round;
    EXPECT_EQ(engines[i].network().state_fingerprint(),
              engines[0].network().state_fingerprint())
        << "engine " << i << " round " << round;
  }
  return changed;
}

// Per-round lockstep through a partition, a loss and a sleep window, each
// followed by the heal and a run to the exact fixpoint. Right after a
// window, a boundary op into a resting owner may be the one delivery that
// owner missed; eliding it would reach the fixpoint rounds later than the
// full scan (the failure of an unguarded filter).
TEST(Scheduler, BoundaryElisionLockstepThroughFaultWindowsToFixpoint) {
  for (const Window w : {Window::kPartition, Window::kLoss, Window::kSleep}) {
    auto engines = fault_window_engines(60, 91);
    for (Engine& e : engines) {
      const auto owners = e.network().live_owners();
      e.crash_peer(owners[owners.size() / 3]);
      e.crash_peer(owners[2 * owners.size() / 3]);
      open_window(e, w);
    }
    int round = 0;
    for (; round < 6; ++round) step_all_in_lockstep(engines, round);
    for (Engine& e : engines) close_window(e);
    bool changed = true;
    for (; changed && round < 20000; ++round) {
      changed = step_all_in_lockstep(engines, round);
      if (HasFailure()) return;
    }
    ASSERT_FALSE(changed) << "window " << static_cast<int>(w);
    const auto spec = StableSpec::compute(engines[0].network());
    for (const Engine& e : engines) EXPECT_TRUE(spec.exact_match(e.network()));
  }
}

// The counterexample to an unguarded filter: the partition window of
// ScenarioEngine.PartitionWindowBitIdenticalAndHeals, checked every round
// after the heal instead of only at the fixpoint. A boundary sender's op
// into a resting owner was cut during the partition and must be delivered
// after the heal. The owners that missed a delivery carry an inbound gap,
// and the next round runs every one of them instead of skipping it -- so
// the ops addressed to them are kept.
TEST(Scheduler, PartitionCutBoundaryOpIsDeliveredAfterHeal) {
  std::vector<Engine> engines;
  for (const bool full : {false, true})
    for (const unsigned threads : {1U, 8U}) {
      util::Rng rng(23);
      engines.emplace_back(
          gen::make_network(gen::Topology::kRandomConnected, 40, rng),
          EngineOptions{.threads = threads, .full_scan = full});
    }
  RunOptions opt;
  opt.max_rounds = 20000;
  for (Engine& e : engines) {
    const auto spec = StableSpec::compute(e.network());
    ASSERT_TRUE(run_to_stable(e, spec, opt).stabilized);
    open_window(e, Window::kPartition);
  }
  int round = 0;
  for (; round < 6; ++round) step_all_in_lockstep(engines, round);
  for (Engine& e : engines) close_window(e);
  Engine& active = engines[0];
  std::vector<std::uint32_t> gapped;
  for (const std::uint32_t o : active.network().live_owners())
    if (active.owner_has_inbound_gap(o)) gapped.push_back(o);
  EXPECT_FALSE(gapped.empty());
  bool changed = step_all_in_lockstep(engines, round++);
  for (const std::uint32_t o : gapped)
    EXPECT_FALSE(active.owner_was_skipped(o)) << "gap-flagged owner " << o;
  for (; changed && round < 20000; ++round)
    changed = step_all_in_lockstep(engines, round);
  EXPECT_FALSE(changed);
}

// The elision demonstrably engages in a fault-free crash-recovery tail, and
// no owner carries a gap there.
TEST(Scheduler, BoundaryElisionEngagesInCrashRecoveryTail) {
  Engine active(random_net(150, 57, /*scrambled=*/false), {});
  Engine full(random_net(150, 57, /*scrambled=*/false), {.full_scan = true});
  RunOptions opt;
  opt.max_rounds = 20000;
  for (Engine* e : {&active, &full}) {
    const auto spec = StableSpec::compute(e->network());
    ASSERT_TRUE(run_to_stable(*e, spec, opt).stabilized);
    const auto owners = e->network().live_owners();
    for (const std::size_t k : {1U, 2U, 3U})
      e->crash_peer(owners[k * owners.size() / 4]);
  }
  const std::uint64_t elided_before = active.boundary_ops_elided();
  bool changed = true;
  for (int r = 0; changed && r < 20000; ++r) {
    const auto ma = active.step();
    const auto mf = full.step();
    ASSERT_EQ(ma.changed, mf.changed) << "round " << r;
    ASSERT_EQ(active.network().state_fingerprint(),
              full.network().state_fingerprint())
        << "round " << r;
    changed = ma.changed;
  }
  EXPECT_GT(active.boundary_ops_elided(), elided_before);
  for (const std::uint32_t o : active.network().live_owners())
    EXPECT_FALSE(active.owner_has_inbound_gap(o)) << "owner " << o;
}

// -- multi-datacenter latency model (DESIGN.md §8) ---------------------------

// Mixed delay classes: datacenter by owner parity, asymmetric cross-dc
// delays with jitter on one direction.
void install_mixed_latency(Engine& e, std::uint64_t jitter_seed) {
  std::vector<std::uint8_t> dc(e.network().owner_count());
  for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
  e.assign_datacenters(std::move(dc));
  e.set_latency_model(LatencyModel(
      2,
      {DelayClass{}, DelayClass{2, 1}, DelayClass{1, 0}, DelayClass{}},
      jitter_seed));
}

// Scheduler soundness under heterogeneous link delays: with mixed delay
// classes installed, randomized churn rounds must stay bit-identical to the
// flag-gated full scan -- including the in-flight queue population, which
// gates the fixpoint verdict -- serial and sharded.
TEST(Scheduler, LatencyMixedClassesActiveVsFullScanBitIdentical) {
  for (const unsigned threads : {1U, 8U}) {
    for (std::uint64_t seed : {151ULL, 152ULL}) {
      Engine active(random_net(70, seed, /*scrambled=*/false),
                    {.threads = threads});
      Engine full(random_net(70, seed, /*scrambled=*/false),
                  {.threads = 1, .full_scan = true});
      // Stabilize first: jittered delays keep their whole traffic region
      // genuinely changing (the wobble is real state change, not scheduler
      // pessimism), so quiescent pockets only exist around a steady start.
      const auto spec = StableSpec::compute(active.network());
      RunOptions ropt;
      ropt.max_rounds = 20000;
      ASSERT_TRUE(run_to_stable(active, spec, ropt).stabilized);
      ASSERT_TRUE(run_to_stable(full, spec, ropt).stabilized);
      install_mixed_latency(active, seed * 3);
      install_mixed_latency(full, seed * 3);
      util::Rng churn_rng(seed * 137);
      std::uint64_t avoided = 0, inflight_seen = 0;
      for (int r = 0; r < 60; ++r) {
        if (r > 0 && r % 9 == 0) churn_both(active, full, churn_rng);
        const auto ma = active.step();
        const auto mf = full.step();
        avoided += ma.replayed_peers + ma.skipped_peers;
        inflight_seen += active.inflight_message_count();
        // Refcount bookkeeping == ground-truth queue walk, in both engines.
        ASSERT_EQ(active.inflight_refcount_owners(),
                  active.inflight_referenced_owners())
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_EQ(full.inflight_refcount_owners(),
                  full.inflight_referenced_owners())
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_EQ(ma.changed, mf.changed)
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_EQ(active.inflight_message_count(),
                  full.inflight_message_count())
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_EQ(active.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << "threads=" << threads << " seed=" << seed << " round " << r;
      }
      // The run must have exercised both the queue and the scheduler.
      EXPECT_GT(inflight_seen, 0U) << "threads=" << threads;
      EXPECT_GT(avoided, 0U) << "threads=" << threads;
    }
  }
}

// Replay soundness under mixed delay classes, checked directly: every
// would-be replay is re-executed live and diffed against the cache while
// deliveries arrive rounds after they were issued. A mismatch means the
// wake set missed an input the latency pipeline changed.
TEST(Scheduler, LatencyMixedClassesParanoidReplayFindsNoMismatch) {
  std::uint64_t checked_replays = 0;
  for (std::uint64_t seed : {161ULL, 162ULL}) {
    Engine engine(random_net(50, seed, seed % 2 == 0),
                  {.paranoid_replay = true});
    const auto spec = StableSpec::compute(engine.network());
    RunOptions ropt;
    ropt.max_rounds = 20000;
    ASSERT_TRUE(run_to_stable(engine, spec, ropt).stabilized);
    install_mixed_latency(engine, seed * 5);
    util::Rng churn_rng(seed * 139);
    for (int r = 0; r < 50; ++r) {
      if (r > 0 && r % 8 == 0) churn_all({&engine}, churn_rng);
      checked_replays += engine.step().replayed_peers;
      ASSERT_EQ(engine.replay_check_failures(), 0U)
          << "seed=" << seed << " round=" << r;
    }
  }
  // Jittered delays keep most of the traffic region genuinely changing, so
  // quiescence is rarer than in the synchronous model -- but the check must
  // still have had a real sample of replay targets.
  EXPECT_GT(checked_replays, 100U);
}

// Regression for the two latency skip rules: a peer referenced by a queued
// in-flight message is never marked resting, and a round that ends with a
// non-empty in-flight queue is never declared a fixpoint. Installing the
// model on an already-skipping fixpoint also exercises the rule-(4)
// transition: the cross-dc senders must wake out of the all-skipped state
// to populate the queue exactly like the full scan.
TEST(Scheduler, InFlightReferencedPeersNeverRestingAndGateFixpoint) {
  Engine engine(random_net(60, 37, /*scrambled=*/false), {});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(engine, spec, opt).stabilized);
  engine.step();  // settle into all-skipped fixpoint rounds
  install_mixed_latency(engine, 91);
  std::uint64_t inflight_seen = 0;
  for (int r = 0; r < 30; ++r) {
    const auto refs = engine.inflight_referenced_owners();
    // The per-owner refcount bookkeeping (updated at enqueue/drain, the set
    // the rule-(3) eviction scan actually walks) must agree with the
    // ground-truth queue walk at every round.
    ASSERT_EQ(engine.inflight_refcount_owners(), refs) << "round " << r;
    const auto mt = engine.step();
    for (const std::uint32_t o : refs)
      ASSERT_FALSE(engine.owner_was_skipped(o))
          << "round " << r << " owner " << o
          << " skipped with inbound in-flight traffic";
    if (engine.inflight_message_count() > 0) {
      ++inflight_seen;
      ASSERT_TRUE(mt.changed)
          << "round " << r << " declared fixpoint with "
          << engine.inflight_message_count() << " messages in flight";
    }
  }
  // The stationary cross-dc op flow must actually keep the queue populated.
  EXPECT_GT(inflight_seen, 20U);
}

// Perturbation locality: after a single join into a stabilized network, the
// wake set must stay a small neighborhood, not O(n).
TEST(Scheduler, SingleJoinWakesOnlyANeighborhood) {
  Engine engine(random_net(120, 34, /*scrambled=*/false), {});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(engine, spec, opt).stabilized);
  util::Rng rng(5);
  const auto owners = engine.network().live_owners();
  join(engine.network(), rng.next(), owners[owners.size() / 2]);
  // No reset: exercises the out-of-band dirty scan.
  std::size_t max_active = 0;
  for (int r = 0; r < 4; ++r)
    max_active = std::max(max_active, engine.step().active_peers);
  EXPECT_GT(max_active, 0U);
  EXPECT_LT(max_active, engine.network().alive_owner_count() / 2);
}

}  // namespace
}  // namespace rechord::core
