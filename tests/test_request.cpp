// In-network request engine (net/request_engine.hpp, DESIGN.md §9): on the
// stabilized overlay every hop-by-hop lookup lands on exactly the owner the
// snapshot projection calls responsible; requests genuinely traverse rounds
// (nonzero rounds-in-flight) and pay the latency model per hop; the
// determinism contract holds -- bit-identical request fingerprints across
// {active-set, full-scan} x {1, 8 threads} and under paranoid_replay, for
// the churn, WAN-partition and flash-crowd request scenarios; a request
// parked on a crashed owner re-routes instead of hanging; and the spike
// jitter distribution draws exactly its two support points.

#include "net/request_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "ident/hashing.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace rechord::net {
namespace {

core::Engine stable_engine(std::size_t n, std::uint64_t seed,
                           core::EngineOptions opt = {}) {
  util::Rng rng(seed);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng), opt);
  const auto spec = core::StableSpec::compute(engine.network());
  core::RunOptions ropt;
  ropt.max_rounds = 100000;
  const auto r = core::run_to_stable(engine, spec, ropt);
  EXPECT_TRUE(r.stabilized && r.spec_exact);
  return engine;
}

// Ground truth: on the exact fixpoint, hop-by-hop routing must agree with
// the global successor computation of the snapshot projection for every
// request -- and every request must take at least one round and one hop
// bucket of real time.
TEST(RequestEngine, StableOverlayLookupsAgreeWithSnapshotResponsible) {
  core::Engine engine = stable_engine(64, 11);
  RequestEngine req(engine);
  const auto view = dht::RoutingView::snapshot(engine.network());
  util::Rng rng(5);
  const auto owners = engine.network().live_owners();
  std::vector<core::RingPos> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng.next());
    req.submit_lookup(keys.back(), owners[rng.below(owners.size())]);
  }
  int guard = 0;
  while (req.inflight() > 0 && guard++ < 500) {
    engine.step();
    req.on_round();
  }
  ASSERT_EQ(req.inflight(), 0U);
  ASSERT_EQ(req.completions().size(), keys.size());
  for (const RequestRecord& rec : req.completions()) {
    ASSERT_EQ(rec.status, RequestStatus::kResolved) << "id " << rec.id;
    EXPECT_EQ(rec.result_owner, view.responsible(keys[rec.id]))
        << "id " << rec.id;
    EXPECT_GE(rec.rounds_in_flight(), 1U);
    EXPECT_GE(rec.rounds_in_flight(), rec.hops);
  }
  EXPECT_EQ(req.totals().resolved, keys.size());
  EXPECT_EQ(req.totals().mono_violations, 0U);
  // Requests genuinely live in the network: the mean lookup takes several
  // rounds (~log n hops, one round each), not a snapshot's zero.
  EXPECT_GT(req.totals().mean_rounds_in_flight(), 2.0);
}

// With a latency model installed, each hop pays its delay class: the same
// workload takes strictly more rounds in flight, while hops stay put.
TEST(RequestEngine, HopsPayTheDelayMatrix) {
  auto run = [](bool wan) {
    core::Engine engine = stable_engine(48, 13);
    if (wan) {
      std::vector<std::uint8_t> dc(engine.network().owner_count());
      for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
      engine.assign_datacenters(std::move(dc));
      engine.set_latency_model(
          core::LatencyModel::uniform(2, core::DelayClass{2, 1}, 7));
    }
    RequestEngine req(engine);
    util::Rng rng(3);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < 64; ++i)
      req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
    int guard = 0;
    while (req.inflight() > 0 && guard++ < 2000) {
      engine.step();
      req.on_round();
    }
    EXPECT_EQ(req.inflight(), 0U);
    return req.totals();
  };
  const RequestTotals plain = run(false);
  const RequestTotals wan = run(true);
  ASSERT_EQ(plain.resolved, 64U);
  ASSERT_EQ(wan.resolved, 64U);
  // Identical draws, identical paths -- but every cross-dc hop now waits.
  EXPECT_EQ(wan.hops_sum, plain.hops_sum);
  EXPECT_GT(wan.rounds_sum, plain.rounds_sum + plain.resolved);
}

// The determinism contract (satellite): fixed-seed request fingerprints are
// bit-identical across {active, full-scan} x {1, 8 threads} and under
// paranoid_replay, for all three request scenarios.
TEST(RequestEngine, FingerprintsIdenticalAcrossSchedulerModes) {
  for (const char* name :
       {"lookups-under-poisson-churn", "lookups-across-wan-partition-heal",
        "flash-crowd-live"}) {
    sim::ScenarioParams base;
    base.n = 40;
    base.seed = 9;
    base.ops = 2;
    std::vector<sim::ScenarioOutcome> runs;
    for (const bool full_scan : {false, true})
      for (const unsigned threads : {1U, 8U}) {
        sim::ScenarioParams params = base;
        params.engine.full_scan = full_scan;
        params.engine.threads = threads;
        runs.push_back(sim::run_registered_scenario(name, params));
      }
    {
      sim::ScenarioParams params = base;
      params.engine.paranoid_replay = true;
      runs.push_back(sim::run_registered_scenario(name, params));
    }
    const auto& ref = runs.front();
    EXPECT_TRUE(ref.ok) << name;
    EXPECT_GT(ref.requests.issued, 0U) << name;
    for (std::size_t v = 1; v < runs.size(); ++v) {
      const auto& alt = runs[v];
      ASSERT_EQ(alt.requests.fingerprint, ref.requests.fingerprint)
          << name << " variant " << v;
      ASSERT_EQ(alt.requests.issued, ref.requests.issued) << name;
      ASSERT_EQ(alt.requests.resolved, ref.requests.resolved) << name;
      ASSERT_EQ(alt.requests.failed(), ref.requests.failed()) << name;
      ASSERT_EQ(alt.requests.mono_violations, ref.requests.mono_violations)
          << name;
      ASSERT_EQ(alt.requests.rounds_sum, ref.requests.rounds_sum) << name;
      ASSERT_EQ(alt.final_fingerprint, ref.final_fingerprint) << name;
    }
  }
}

// Acceptance gate: the fixed-seed lookups-under-poisson-churn scenario
// completes >= 95% of its requests, with a genuinely nonzero
// rounds-in-flight distribution, and every checkpoint (including the
// zero-mono-violation stable drain) passes.
TEST(RequestEngine, PoissonChurnScenarioMeetsCompletionBar) {
  sim::ScenarioParams params;
  params.n = 48;
  params.seed = 1;
  const auto out = sim::run_registered_scenario("lookups-under-poisson-churn",
                                                params);
  ASSERT_TRUE(out.ok);
  const auto& rq = out.requests;
  ASSERT_GT(rq.issued, 0U);
  EXPECT_EQ(rq.completed(), rq.issued);  // nothing left hanging
  EXPECT_GE(static_cast<double>(rq.resolved),
            0.95 * static_cast<double>(rq.issued));
  EXPECT_GT(rq.mean_rounds_in_flight(), 1.0);
  EXPECT_GT(rq.max_rounds_in_flight, 2U);
  // The scenario drives all three request kinds: live puts stored records
  // at their reached owners, and the get waves found them.
  EXPECT_GT(rq.puts_stored, 0U);
  EXPECT_GT(rq.gets_found, 0U);
}

// Regression: a request parked on an owner that crashes does not hang -- it
// fails over to its origin, re-routes, and still completes.
TEST(RequestEngine, RequestParkedOnCrashedOwnerReroutes) {
  core::Engine engine = stable_engine(40, 17);
  RequestEngine req(engine);
  util::Rng rng(23);
  const auto owners = engine.network().live_owners();
  // A batch large enough that some request is mid-path when the crash hits.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 32; ++i)
    ids.push_back(
        req.submit_lookup(rng.next(), owners[rng.below(owners.size())]));
  for (int r = 0; r < 2; ++r) {
    engine.step();
    req.on_round();
  }
  // Crash every owner currently holding a request away from its origin.
  std::set<std::uint32_t> victims;
  for (const std::uint64_t id : ids) {
    const auto custody = req.custody_of(id);
    if (custody && engine.network().owner_alive(*custody) &&
        engine.network().alive_owner_count() - victims.size() > 8)
      victims.insert(*custody);
  }
  ASSERT_FALSE(victims.empty());
  for (const std::uint32_t v : victims) engine.crash_peer(v);
  int guard = 0;
  while (req.inflight() > 0 && guard++ < 500) {
    engine.step();
    req.on_round();
  }
  EXPECT_EQ(req.inflight(), 0U) << "requests hung after custody crashes";
  // Dead next-hops were actually observed and re-routed around, or custody
  // failovers fired -- and nothing is allowed to simply hang.
  const auto& tot = req.totals();
  EXPECT_EQ(tot.completed(), tot.issued);
  EXPECT_GT(tot.resolved, 0U);
}

// The spike jitter distribution (satellite): draws take exactly the two
// support points {base, base + jitter}, both occur, and an all-zero spike
// model reproduces the plain pipeline bit for bit round by round.
TEST(RequestLatency, SpikeDistributionHasTwoSupportPoints) {
  const core::DelayClass spike{.base = 1,
                               .jitter = 3,
                               .kind = core::JitterKind::kSpike,
                               .spike_percent = 25};
  core::LatencyModel model(2, {core::DelayClass{}, spike, spike,
                               core::DelayClass{}},
                           /*jitter_seed=*/42);
  std::size_t low = 0, high = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const core::DelayedOp op{core::slot_of(i % 7, 0), core::EdgeKind::kRing,
                             core::slot_of(i % 11, 0)};
    const std::uint32_t d = model.delay(0, 1, i, i * 13, op);
    if (d == 1)
      ++low;
    else if (d == 4)
      ++high;
    else
      FAIL() << "spike draw outside support: " << d;
  }
  EXPECT_GT(low, 0U);
  EXPECT_GT(high, 0U);
  EXPECT_GT(low, high);  // p = 25%: the base point dominates
  // Determinism: the same (round, sender, op) hashes to the same draw.
  const core::DelayedOp op{core::slot_of(1, 0), core::EdgeKind::kRing,
                           core::slot_of(2, 0)};
  EXPECT_EQ(model.delay(0, 1, 5, 6, op), model.delay(0, 1, 5, 6, op));
}

TEST(RequestLatency, ZeroDelaySpikeModelBitIdenticalToPlainPipeline) {
  auto make = [] {
    util::Rng rng(31);
    return core::Engine(
        gen::make_network(gen::Topology::kRandomConnected, 48, rng), {});
  };
  core::Engine plain = make();
  core::Engine modeled = make();
  std::vector<std::uint8_t> dc(modeled.network().owner_count());
  for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
  modeled.assign_datacenters(std::move(dc));
  // Spike KIND with zero base and jitter: structurally a zero-delay model.
  const core::DelayClass zero_spike{.base = 0,
                                    .jitter = 0,
                                    .kind = core::JitterKind::kSpike,
                                    .spike_percent = 50};
  modeled.set_latency_model(
      core::LatencyModel(2, std::vector<core::DelayClass>(4, zero_spike), 31));
  util::Rng churn(37);
  for (int r = 0; r < 40; ++r) {
    if (r > 0 && r % 6 == 0) {
      const auto owners = plain.network().live_owners();
      const std::uint32_t pick = owners[churn.below(owners.size())];
      const core::RingPos id = churn.next();
      core::join(plain.network(), id, pick);
      core::join(modeled.network(), id, pick);
    }
    const auto mp = plain.step();
    const auto mm = modeled.step();
    ASSERT_EQ(modeled.inflight_message_count(), 0U) << "round " << r;
    ASSERT_EQ(mm.changed, mp.changed) << "round " << r;
    ASSERT_EQ(modeled.network().state_fingerprint(),
              plain.network().state_fingerprint())
        << "round " << r;
  }
}

// -- sharded/batched engine (DESIGN.md §10) ----------------------------------

// The open-loop determinism contract (satellite): fixed-seed OPEN-LOOP
// Poisson traffic -- arrivals that never wait for the outstanding queue --
// produces bit-identical request fingerprints across {active, full-scan} x
// {1, 8 threads}, for both open-loop scenarios.
TEST(RequestEngine, OpenLoopPoissonFingerprintsAcrossSchedulerModes) {
  for (const char* name : {"open-loop-lookups", "open-loop-flash-crowd"}) {
    sim::ScenarioParams base;
    base.n = 64;
    base.seed = 21;
    base.ops = 2;
    base.intensity = 6.0;
    std::vector<sim::ScenarioOutcome> runs;
    for (const bool full_scan : {false, true})
      for (const unsigned threads : {1U, 8U}) {
        sim::ScenarioParams params = base;
        params.engine.full_scan = full_scan;
        params.engine.threads = threads;
        runs.push_back(sim::run_registered_scenario(name, params));
      }
    const auto& ref = runs.front();
    EXPECT_TRUE(ref.ok) << name;
    EXPECT_GT(ref.requests.issued, 0U) << name;
    for (std::size_t v = 1; v < runs.size(); ++v) {
      ASSERT_EQ(runs[v].requests.fingerprint, ref.requests.fingerprint)
          << name << " variant " << v;
      ASSERT_EQ(runs[v].requests.issued, ref.requests.issued) << name;
      ASSERT_EQ(runs[v].requests.resolved, ref.requests.resolved) << name;
      ASSERT_EQ(runs[v].requests.mono_violations,
                ref.requests.mono_violations)
          << name;
      ASSERT_EQ(runs[v].final_fingerprint, ref.final_fingerprint) << name;
    }
  }
}

// Batch advance vs per-request walk, in LOCKSTEP on randomized topologies:
// the batched owner-scan is a pure amortization, so with identical seeds,
// faults and churn the two modes must agree on the inflight count and the
// running fingerprint after EVERY round -- not just at the end -- and on
// every completion record field.
TEST(RequestEngine, BatchAdvanceMatchesPerRequestWalkLockstep) {
  for (const std::uint64_t seed : {29ULL, 101ULL, 777ULL}) {
    auto make = [&](bool walk) {
      core::EngineOptions eopt;
      eopt.threads = walk ? 1U : 8U;
      core::Engine engine = stable_engine(44, seed, eopt);
      std::vector<std::uint8_t> dc(engine.network().owner_count());
      for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
      engine.assign_datacenters(std::move(dc));
      engine.set_latency_model(
          core::LatencyModel::uniform(2, core::DelayClass{1, 1}, 5));
      engine.set_message_loss(0.05);
      return engine;
    };
    core::Engine batch_engine = make(false);
    core::Engine walk_engine = make(true);
    RequestOptions ropt;
    ropt.seed = seed * 0x9E3779B97F4A7C15ULL;
    RequestOptions wopt = ropt;
    wopt.per_request_walk = true;
    RequestEngine batch(batch_engine, ropt);
    RequestEngine walk(walk_engine, wopt);
    // Open-loop-ish drive: a trickle of new lookups every round, two crash
    // waves mid-flight (same victims on both networks, which are
    // bit-identical), then drain.
    util::Rng rng(seed ^ 0xABCDEF);
    const auto owners = batch_engine.network().live_owners();
    for (int r = 0; r < 40; ++r) {
      if (r < 20)
        for (int k = 0; k < 5; ++k) {
          const core::RingPos key = rng.next();
          const std::uint32_t from = owners[rng.below(owners.size())];
          batch.submit_lookup(key, from);
          walk.submit_lookup(key, from);
        }
      if (r == 8 || r == 14) {
        const auto live = batch_engine.network().live_owners();
        const std::uint32_t victim = live[rng.below(live.size())];
        batch_engine.crash_peer(victim);
        walk_engine.crash_peer(victim);
      }
      batch_engine.step();
      walk_engine.step();
      batch.on_round();
      walk.on_round();
      ASSERT_EQ(batch.inflight(), walk.inflight())
          << "seed " << seed << " round " << r;
      ASSERT_EQ(batch.fingerprint(), walk.fingerprint())
          << "seed " << seed << " round " << r;
    }
    int guard = 0;
    while ((batch.inflight() > 0 || walk.inflight() > 0) && guard++ < 500) {
      batch_engine.step();
      walk_engine.step();
      batch.on_round();
      walk.on_round();
    }
    ASSERT_EQ(batch.inflight(), 0U) << "seed " << seed;
    ASSERT_EQ(walk.inflight(), 0U) << "seed " << seed;
    ASSERT_EQ(batch.completions().size(), walk.completions().size());
    for (std::size_t i = 0; i < batch.completions().size(); ++i) {
      const RequestRecord& b = batch.completions()[i];
      const RequestRecord& w = walk.completions()[i];
      ASSERT_EQ(b.id, w.id) << "seed " << seed << " record " << i;
      ASSERT_EQ(b.status, w.status) << "seed " << seed << " record " << i;
      ASSERT_EQ(b.result_owner, w.result_owner) << "record " << i;
      ASSERT_EQ(b.hops, w.hops) << "record " << i;
      ASSERT_EQ(b.retries, w.retries) << "record " << i;
      ASSERT_EQ(b.completion_round, w.completion_round) << "record " << i;
    }
    EXPECT_EQ(batch.totals().loss_bounces, walk.totals().loss_bounces);
    EXPECT_EQ(batch.totals().custody_failovers,
              walk.totals().custody_failovers);
  }
}

// Regression (satellite): the shard MERGE order is a function of the data,
// never of the worker count -- runs at 1, 3 and 8 engine threads produce
// the same completion SEQUENCE record for record, not merely equal
// aggregate fingerprints.
TEST(RequestEngine, ShardMergeOrderIndependentOfWorkerCount) {
  std::vector<std::vector<RequestRecord>> sequences;
  for (const unsigned threads : {1U, 3U, 8U}) {
    core::EngineOptions eopt;
    eopt.threads = threads;
    core::Engine engine = stable_engine(40, 37, eopt);
    std::vector<std::uint8_t> dc(engine.network().owner_count());
    for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 3;
    engine.assign_datacenters(std::move(dc));
    engine.set_latency_model(
        core::LatencyModel::uniform(3, core::DelayClass{1, 2}, 9));
    engine.set_message_loss(0.08);
    RequestEngine req(engine);
    util::Rng rng(55);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < 150; ++i)
      req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
    int guard = 0;
    while (req.inflight() > 0 && guard++ < 1000) {
      engine.step();
      req.on_round();
      if (guard == 4) {
        const auto live = engine.network().live_owners();
        engine.crash_peer(live[7]);
        engine.crash_peer(live[23]);
      }
    }
    EXPECT_EQ(req.inflight(), 0U) << threads << " threads";
    sequences.emplace_back(req.completions().begin(),
                           req.completions().end());
  }
  ASSERT_EQ(sequences[0].size(), 150U);
  for (std::size_t v = 1; v < sequences.size(); ++v) {
    ASSERT_EQ(sequences[v].size(), sequences[0].size());
    for (std::size_t i = 0; i < sequences[0].size(); ++i) {
      const RequestRecord& a = sequences[0][i];
      const RequestRecord& b = sequences[v][i];
      ASSERT_EQ(a.id, b.id) << "variant " << v << " record " << i;
      ASSERT_EQ(a.status, b.status) << "record " << i;
      ASSERT_EQ(a.result_owner, b.result_owner) << "record " << i;
      ASSERT_EQ(a.completion_round, b.completion_round) << "record " << i;
      ASSERT_EQ(a.hops, b.hops) << "record " << i;
    }
  }
}

// Bounded record growth (satellite): the completion ring keeps only the cap
// newest records while every aggregate -- counts, sums, the fingerprint --
// stays exactly what the uncapped run produces; the dropped prefix is
// counted.
TEST(RequestEngine, CompletionRingCapKeepsTotalsExact) {
  auto run = [](std::size_t cap) {
    core::Engine engine = stable_engine(40, 41);
    RequestOptions opt;
    opt.completion_cap = cap;
    RequestEngine req(engine, opt);
    util::Rng rng(77);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < 120; ++i)
      req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
    int guard = 0;
    while (req.inflight() > 0 && guard++ < 500) {
      engine.step();
      req.on_round();
    }
    EXPECT_EQ(req.inflight(), 0U);
    return std::pair{req.totals(),
                     std::pair{req.completions().size(),
                               req.completions_dropped()}};
  };
  const auto [uncapped, unstats] = run(0);
  const auto [capped, stats] = run(16);
  EXPECT_EQ(unstats.first, 120U);
  EXPECT_EQ(unstats.second, 0U);
  EXPECT_EQ(stats.first, 16U);
  EXPECT_EQ(stats.second, 104U);
  // The cap changes RETENTION only: totals and fingerprint are identical.
  EXPECT_EQ(capped.resolved, uncapped.resolved);
  EXPECT_EQ(capped.fingerprint, uncapped.fingerprint);
  EXPECT_EQ(capped.rounds_sum, uncapped.rounds_sum);
  EXPECT_EQ(capped.hops_sum, uncapped.hops_sum);
}

// Bounded ledger growth (satellite): with a mono_ledger_cap the
// searchability ledger prunes its oldest entries down to 3/4 of the cap
// instead of growing per distinct key, and the pruning changes no outcome
// (same fingerprint as the unbounded run -- lookups of fresh random keys
// can never witness a violation).
TEST(RequestEngine, MonoLedgerCapBoundsMemory) {
  auto run = [](std::size_t cap) {
    core::Engine engine = stable_engine(40, 43);
    RequestOptions opt;
    opt.mono_ledger_cap = cap;
    RequestEngine req(engine, opt);
    util::Rng rng(13);
    const auto owners = engine.network().live_owners();
    for (int wave = 0; wave < 4; ++wave) {
      for (int i = 0; i < 50; ++i)
        req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
      int guard = 0;
      while (req.inflight() > 0 && guard++ < 500) {
        engine.step();
        req.on_round();
      }
      EXPECT_EQ(req.inflight(), 0U);
    }
    return std::pair{req.totals(), req.mono_ledger_size()};
  };
  const auto [unbounded, full_size] = run(0);
  const auto [bounded, capped_size] = run(64);
  EXPECT_EQ(full_size, 200U);  // one ledger entry per resolved lookup
  EXPECT_LE(capped_size, 64U);
  EXPECT_GE(capped_size, 48U);  // pruned to 3/4 of the cap, not to zero
  EXPECT_EQ(bounded.mono_violations, 0U);
  EXPECT_EQ(bounded.fingerprint, unbounded.fingerprint);
  EXPECT_EQ(bounded.resolved, unbounded.resolved);
}

// Ledger pruning is deterministic whatever the ledger's container: it
// evicts exactly the entries with the oldest resolution rounds, ties broken
// by key. A model of the rule, fed from the completion records, predicts the
// survivors; then one unresolved get per key (no KV store is bound, so every
// get misses) counts a violation iff the key survived.
TEST(RequestEngine, MonoLedgerPruneEvictsOldestRoundsTiesByKey) {
  core::Engine engine = stable_engine(40, 47);
  RequestOptions opt;
  opt.mono_ledger_cap = 8;  // prunes to 6 whenever a merge leaves > 8
  RequestEngine req(engine, opt);
  const auto owners = engine.network().live_owners();
  std::map<std::uint64_t, std::string> name_of_id;
  std::map<RingPos, std::string> name_of_pos;
  for (int i = 0; i < 24; ++i) {
    const std::string name = "mono-" + std::to_string(i);
    const RingPos pos = ident::hash_name(name);
    name_of_pos[pos] = name;
    name_of_id[req.submit_lookup(pos, owners[i % owners.size()])] = name;
  }
  std::map<RingPos, std::uint64_t> model;  // key -> resolution round
  std::set<RingPos> evicted;
  bool tie_at_cutoff = false;
  for (int guard = 0; req.inflight() > 0 && guard < 500; ++guard) {
    engine.step();
    req.on_round();
    for (const RequestRecord& r : req.completions()) {
      ASSERT_EQ(r.status, RequestStatus::kResolved);
      model[ident::hash_name(name_of_id.at(r.id))] = r.completion_round;
    }
    req.clear_completions();
    if (model.size() <= opt.mono_ledger_cap) continue;
    std::vector<std::pair<std::uint64_t, RingPos>> order;
    for (const auto& [k, round] : model) order.emplace_back(round, k);
    std::sort(order.begin(), order.end());
    const std::size_t drop = model.size() - 6;
    if (order[drop - 1].first == order[drop].first) tie_at_cutoff = true;
    for (std::size_t i = 0; i < drop; ++i) {
      model.erase(order[i].second);
      evicted.insert(order[i].second);
    }
  }
  ASSERT_EQ(req.inflight(), 0U);
  ASSERT_EQ(req.mono_ledger_size(), model.size());
  ASSERT_FALSE(evicted.empty());
  // The seed is chosen so that some prune splits one round's entries: the
  // tie-break by key decides which of them survive.
  ASSERT_TRUE(tie_at_cutoff);
  for (const auto& [pos, name] : name_of_pos) {
    const std::uint64_t before = req.totals().mono_violations;
    req.submit_get(name, owners[0]);
    for (int guard = 0; req.inflight() > 0 && guard < 500; ++guard) {
      engine.step();
      req.on_round();
    }
    ASSERT_EQ(req.inflight(), 0U);
    EXPECT_EQ(req.totals().mono_violations - before, model.count(pos))
        << name << (evicted.count(pos) ? " (evicted)" : " (kept)");
  }
  EXPECT_EQ(req.totals().mono_violations, model.size());
  EXPECT_EQ(req.mono_ledger_size(), model.size());
}

// The request CSV columns: every round row carries req_inflight/req_done/
// req_failed/mono_violations/dc_lag_max, and the header names them.
TEST(RequestEngine, ScenarioCsvCarriesRequestAndDcLagColumns) {
  sim::ScenarioParams params;
  params.n = 40;
  params.seed = 3;
  std::ostringstream csv;
  const auto out = sim::run_registered_scenario(
      "lookups-across-wan-partition-heal", params, &csv);
  ASSERT_TRUE(out.ok);
  std::istringstream in(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("req_inflight"), std::string::npos);
  EXPECT_NE(header.find("req_done"), std::string::npos);
  EXPECT_NE(header.find("req_failed"), std::string::npos);
  EXPECT_NE(header.find("mono_violations"), std::string::npos);
  EXPECT_NE(header.find("dc_lag_max"), std::string::npos);
  const std::size_t columns =
      static_cast<std::size_t>(std::count(header.begin(), header.end(), ',')) +
      1;
  std::string line;
  std::size_t rows = 0;
  bool saw_req_inflight = false, saw_dc_lag = false;
  while (std::getline(in, line)) {
    ASSERT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) +
                  1,
              columns)
        << line;
    if (line.rfind("round,", 0) != 0) continue;
    ++rows;
    // Columns 13..17 (0-based) are the request/dc-lag cells on round rows.
    std::vector<std::string> cells;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      std::size_t next = line.find(',', pos);
      if (next == std::string::npos) next = line.size();
      cells.push_back(line.substr(pos, next - pos));
      pos = next + 1;
    }
    if (cells[13] != "0" && !cells[13].empty()) saw_req_inflight = true;
    if (cells[17] != "0" && !cells[17].empty()) saw_dc_lag = true;
  }
  EXPECT_EQ(rows, out.total_rounds);
  EXPECT_TRUE(saw_req_inflight);  // requests were genuinely in flight
  EXPECT_TRUE(saw_dc_lag);        // some datacenter lagged during the WAN run
}

}  // namespace
}  // namespace rechord::net
