// One run of the Re-Chord benchmark (see ../README.md):
//
//   perfbench --workload {bringup|churn|lookups} --seed N --seconds S
//             --trace {0|1}
//
// drives the library's public calls directly -- gen::make_network,
// core::Engine::step / crash_peer / join_peer / leave_peer,
// net::RequestEngine::submit_* / on_round, dht::KvStore -- checks every
// output against the oracles in oracles.hpp, and prints as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 arms util::Profiler for the
// measured section and reports the per-layer metrics instead.
//
// Inputs are a pure function of (workload, seed, seconds); the program only
// ever receives the generated inputs, never feeds back into them.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/engine.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

using namespace rechord;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Linear-interpolated quantile of a sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Host seconds of each round of a timed section, in order.
using RoundTimes = std::vector<double>;

double total(const RoundTimes& times) {
  double s = 0.0;
  for (const double t : times) s += t;
  return s;
}

/// Replays of a deterministic section do the same rounds of the same work,
/// so their round times line up round by round; best_of() compares them in
/// chunks of this many rounds.
constexpr std::size_t kChunkRounds = 10;

/// The host time of a replayed section: per chunk of kChunkRounds rounds
/// the fastest replay, summed over the chunks. Host time of identical work
/// on a shared host moves by 10-30% in spells of seconds (README.md,
/// "Host-time drift"); the fastest of replays taken seconds apart is the
/// time the work takes when the host lets it run. Empty replays, or
/// replays of different length, return a negative value.
double best_of(const std::vector<RoundTimes>& replays) {
  if (replays.empty()) return -1.0;
  const std::size_t rounds = replays.front().size();
  for (const RoundTimes& r : replays)
    if (r.size() != rounds) return -1.0;
  double total = 0.0;
  for (std::size_t c = 0; c < rounds; c += kChunkRounds) {
    double best = 0.0;
    for (std::size_t i = 0; i < replays.size(); ++i) {
      double s = 0.0;
      for (std::size_t r = c; r < std::min(rounds, c + kChunkRounds); ++r)
        s += replays[i][r];
      best = i == 0 ? s : std::min(best, s);
    }
    total += best;
  }
  return total;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
  return util::splitmix64(s);
}

// -- result -----------------------------------------------------------------

struct Report {
  bool correct = true;
  // Operations: requests issued, and fixpoint checks made.
  std::uint64_t requests = 0, requests_failed = 0;
  std::uint64_t checks = 0, checks_failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  /// Records a failed check; the first ten are printed to stderr.
  void error(const std::string& why) {
    if (errors_++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    correct = false;
  }
  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void print() const {
    std::printf("requests issued %" PRIu64 ", failed %" PRIu64
                "; fixpoint checks %" PRIu64 ", failed %" PRIu64 "\n",
                requests, requests_failed, checks, checks_failed);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", requests + checks,
                requests_failed + checks_failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    std::printf("}}\n");
  }

 private:
  std::uint64_t errors_ = 0;
};

// -- per-layer accounting ---------------------------------------------------

/// Size of the rounds-in-flight histogram.
constexpr std::size_t kRoundsCap = 1024;

/// Host seconds per util::Profiler phase.
using PhaseTimes = std::map<util::Phase, double>;

/// What a run measured; report_metrics() turns it into metrics. Besides
/// the end-to-end quantities it holds the host time and counters of the
/// public calls made in the measured section, per layer.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> warmup_s;
  // Host time and rounds of the measured section, summed over its units
  // (bring-ups / churn cycles / one traffic schedule); for the replayed
  // traffic schedule of `lookups`, best_of() and one replay's rounds.
  double converge_s = 0.0;
  std::uint64_t converge_rounds = 0;
  std::uint64_t units = 0;
  // req_per_s = served / serve_s: requests completed in the rate-measured
  // rounds over their host time (for `lookups`, one replay's requests over
  // the replays' best_of()).
  double serve_s = 0.0;
  std::uint64_t served = 0;
  // The per-layer metrics sum over the units and, in `lookups`, over the
  // replays, and are reported per unit or replay.
  std::uint64_t layer_units = 0;
  // Completed requests by rounds in flight (the last bucket collects the
  // rest), and request-engine totals summed over traffic phases.
  std::vector<std::uint64_t> rounds_in_flight =
      std::vector<std::uint64_t>(kRoundsCap, 0);
  std::uint64_t resolved = 0, hops = 0;
  std::uint64_t retries = 0;
  std::uint64_t kv_records = 0;
  double edge_bytes_per_peer = 0.0;
  std::uint64_t connection_edges = 0;
  // core.engine: Engine::step timed from outside, RoundMetrics summed.
  std::vector<double> step_ms;
  std::uint64_t live = 0, replayed = 0, boundary = 0, skipped = 0;
  // net.request_engine
  double submit_s = 0.0;
  double on_round_s = 0.0;
  double inflight_sum = 0.0;
  std::uint64_t inflight_rounds = 0;
  // util::Profiler phase totals (traced runs only): of the measured
  // engine, and of the request traffic.
  PhaseTimes engine_profile;
  PhaseTimes request_profile;
};

/// Adds the profiler's phase totals to `acc` and resets the profiler.
void take_profile(PhaseTimes& acc) {
  for (const auto& [phase, stats] : util::Profiler::instance().snapshot())
    acc[phase] += static_cast<double>(stats.total_ns) * 1e-9;
  util::Profiler::instance().reset();
}

/// Engine::step, timed from outside and folded into the layer counters.
core::RoundMetrics timed_step(core::Engine& engine, Outcome& out) {
  const auto t0 = Clock::now();
  const core::RoundMetrics m = engine.step();
  out.step_ms.push_back(seconds_since(t0) * 1e3);
  out.live += m.active_peers;
  out.replayed += m.replayed_peers;
  out.boundary += m.boundary_peers;
  out.skipped += m.skipped_peers;
  return m;
}

// -- traffic ----------------------------------------------------------------

struct TrafficMix {
  double rate = 100.0;        // Poisson arrivals per round
  double kv_share = 0.0;      // share of arrivals that are KV operations
  double hot_share = 0.0;     // share of lookups aimed at the hot set
  std::size_t hot_keys = 0;   // size of the hot lookup set
  std::size_t kv_keys = 0;    // KV key space (0 = no KV traffic)
};

/// One request as generated by the benchmark.
struct Arrival {
  net::RequestKind kind = net::RequestKind::kLookup;
  std::uint64_t key = 0;      // ring position of the key
  std::uint32_t kv_key = 0;   // KV key index (KV requests)
  std::uint32_t origin = 0;
};

/// What the benchmark expects of an outstanding request.
struct Expect {
  std::uint64_t id = ~std::uint64_t{0};
  std::uint64_t key = 0;
  std::uint64_t round = 0;  // submission round (names a put's value)
  std::uint32_t kv_key = 0;
  net::RequestKind kind = net::RequestKind::kLookup;
};

/// Drives open-loop traffic through a RequestEngine and checks every
/// completion against the owner oracle and the KV model.
class Traffic {
 public:
  Traffic(core::Engine& engine, std::uint64_t seed, TrafficMix mix,
          Report& report, Outcome& out, bool fine_timing)
      : engine_(engine),
        req_(engine, request_options(seed)),
        kv_model_(mix.kv_keys),
        rng_(derive(seed, 7)),
        mix_(mix),
        report_(report),
        out_(out),
        fine_(fine_timing),
        expect_(kExpectRing) {
    req_.bind_store(&kv_);
    for (std::size_t i = 0; i < mix.hot_keys; ++i) hot_.push_back(rng_.next());
    kv_names_.reserve(mix.kv_keys);
    kv_pos_.reserve(mix.kv_keys);
    for (std::size_t i = 0; i < mix.kv_keys; ++i) {
      kv_names_.push_back("key-" + std::to_string(i));
      kv_pos_.push_back(perfbench::key_position(kv_names_.back()));
    }
    kv_scheduled_.assign(mix.kv_keys, false);
    kv_busy_.assign(mix.kv_keys, false);
  }

  /// Rebuilds the owner oracle; call whenever the live set changed.
  /// `phase` names the traffic phase in error messages.
  void set_ring(perfbench::Ring ring, std::string phase) {
    ring_ = std::move(ring);
    phase_ = std::move(phase);
  }

  /// Generates this round's arrivals (benchmark work, not timed).
  void generate(bool arrivals) {
    batch_.clear();
    if (!arrivals) return;
    engine_.network().live_owners_into(owners_);
    const std::size_t k = util::poisson_knuth(rng_, mix_.rate);
    for (std::size_t i = 0; i < k; ++i) {
      Arrival a;
      a.origin = owners_[rng_.below(owners_.size())];
      if (mix_.kv_keys > 0 && rng_.uniform01() < mix_.kv_share) {
        // KV operations rotate through the key space so consecutive
        // operations on one key are kKvSpacing rounds apart -- longer than
        // any request can live -- which makes "the value last put" exact
        // whatever the routing latency.
        const std::size_t group = round_ % kKvSpacing;
        const std::size_t per_group = mix_.kv_keys / kKvSpacing;
        const std::size_t key =
            group * per_group + (kv_cursor_++ % per_group);
        a.kv_key = static_cast<std::uint32_t>(key);
        a.key = kv_pos_[key];
        a.kind = kv_scheduled_[key] && rng_.uniform01() < 0.5
                     ? net::RequestKind::kKvGet
                     : net::RequestKind::kKvPut;
        if (a.kind == net::RequestKind::kKvPut) kv_scheduled_[key] = true;
      } else {
        a.kind = net::RequestKind::kLookup;
        a.key = !hot_.empty() && rng_.uniform01() < mix_.hot_share
                    ? hot_[rng_.below(hot_.size())]
                    : rng_.next();
      }
      batch_.push_back(a);
    }
  }

  /// Submits the generated batch, runs one engine round and the request
  /// round; returns the round's metrics. Host time of the three calls is
  /// appended to `times`.
  core::RoundMetrics round(RoundTimes& times) {
    const auto t0 = Clock::now();
    for (const Arrival& a : batch_) submit(a);
    if (fine_) out_.submit_s += seconds_since(t0);
    const core::RoundMetrics m =
        track_steps_ ? timed_step(engine_, out_) : engine_.step();
    const auto t1 = Clock::now();
    req_.on_round();
    if (fine_) out_.on_round_s += seconds_since(t1);
    times.push_back(seconds_since(t0));
    ++round_;
    out_.inflight_sum += static_cast<double>(req_.inflight());
    ++out_.inflight_rounds;
    harvest();
    return m;
  }

  /// Runs `rounds` rounds with arrivals.
  void serve(int rounds, RoundTimes& times) {
    for (int r = 0; r < rounds; ++r) {
      generate(true);
      round(times);
    }
  }

  /// One round outside the measurement (fixpoint checks): keeps the
  /// request engine in lockstep with the engine and checks completions.
  core::RoundMetrics untimed_round() {
    const core::RoundMetrics m = engine_.step();
    req_.on_round();
    ++round_;
    harvest();
    return m;
  }

  /// Whether engine steps count towards the core.engine layer metrics.
  void track_steps(bool on) { track_steps_ = on; }

  /// Runs rounds without arrivals until no request is outstanding.
  void drain(RoundTimes& times) {
    generate(false);
    for (int guard = 0; req_.inflight() > 0 && guard < 100000; ++guard)
      round(times);
  }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }

  /// End of the traffic: checks the request engine's own counters and
  /// adds them to the request metrics.
  void finish() {
    const auto& t = req_.totals();
    if (t.mono_violations != 0)
      report_.error("monotonic-searchability violations: " +
                    std::to_string(t.mono_violations));
    if (t.completed() != completed_)
      report_.error("request totals disagree with harvested completions");
    out_.resolved += t.resolved;
    out_.hops += t.hops_sum;
    out_.retries += t.retries_sum + t.loss_bounces + t.partition_bounces +
                    t.dead_hop_bounces + t.custody_failovers;
    out_.kv_records += kv_.total_records();
  }

 private:
  static constexpr std::size_t kExpectRing = 1 << 18;
  // Longer than any request lives (RequestOptions::ttl_rounds = 128 plus
  // the completion round).
  static constexpr std::size_t kKvSpacing = 131;

  static net::RequestOptions request_options(std::uint64_t seed) {
    net::RequestOptions o;
    o.seed = derive(seed, 11);
    o.completion_cap = 1 << 17;
    o.mono_ledger_cap = 1 << 20;
    return o;
  }

  void submit(const Arrival& a) {
    std::uint64_t id = 0;
    switch (a.kind) {
      case net::RequestKind::kLookup:
        id = req_.submit_lookup(a.key, a.origin);
        break;
      case net::RequestKind::kKvPut:
        id = req_.submit_put(kv_names_[a.kv_key], value_of(a.kv_key, round_),
                             a.origin);
        break;
      case net::RequestKind::kKvGet:
        id = req_.submit_get(kv_names_[a.kv_key], a.origin);
        break;
    }
    ++report_.requests;
    Expect& e = expect_[id % kExpectRing];
    if (e.id != ~std::uint64_t{0})
      report_.error("more than 2^18 requests outstanding");
    e = {id, a.key, round_, a.kv_key, a.kind};
    if (a.kind != net::RequestKind::kLookup) {
      if (kv_busy_[a.kv_key])
        report_.error("KV key reused while an operation on it is in flight");
      kv_busy_[a.kv_key] = true;
    }
  }

  static std::string value_of(std::size_t key, std::uint64_t round) {
    return "v" + std::to_string(key) + "." + std::to_string(round);
  }

  void harvest() {
    const auto& records = req_.completions();
    const std::uint64_t base = req_.completions_dropped();
    if (harvested_ < base) report_.error("completion records lost");
    if (harvested_ < base) harvested_ = base;
    for (; harvested_ < base + records.size(); ++harvested_)
      check(records[harvested_ - base]);
  }

  void check(const net::RequestRecord& r) {
    Expect& e = expect_[r.id % kExpectRing];
    if (e.id != r.id) {
      report_.error("completion of an unknown request");
      return;
    }
    ++completed_;
    const std::uint64_t rif = r.rounds_in_flight();
    ++out_.rounds_in_flight[std::min<std::uint64_t>(rif, kRoundsCap - 1)];
    if (e.kind != net::RequestKind::kLookup) kv_busy_[e.kv_key] = false;
    e.id = ~std::uint64_t{0};
    if (r.status != net::RequestStatus::kResolved) {
      ++report_.requests_failed;
      return;
    }
    const std::uint32_t owner = r.result_owner;
    if (!perfbench::lookup_ok(ring_, e.key, owner)) {
      report_.error(phase_ + ": " + net::request_kind_name(r.kind) + " " +
                    std::to_string(r.id) + " issued in round " +
                    std::to_string(r.issue_round) + " from origin " +
                    std::to_string(r.origin) + " completed at owner " +
                    std::to_string(owner) + ", responsible is " +
                    std::to_string(perfbench::responsible_owner(ring_, e.key)));
      return;
    }
    if (e.kind == net::RequestKind::kKvPut) {
      std::string v = value_of(e.kv_key, e.round);
      const std::string* got = kv_.get_at(owner, kv_names_[e.kv_key]);
      if (got == nullptr || *got != v)
        report_.error("put of " + kv_names_[e.kv_key] + " not stored");
      kv_model_.put(e.kv_key, std::move(v));
    } else if (e.kind == net::RequestKind::kKvGet) {
      if (!kv_model_.get_ok(e.kv_key, r.found,
                            kv_.get_at(owner, kv_names_[e.kv_key])))
        report_.error("get of " + kv_names_[e.kv_key] +
                      " did not return the value last put");
    }
  }

  core::Engine& engine_;
  net::RequestEngine req_;
  dht::KvStore kv_;
  perfbench::KvModel kv_model_;
  util::Rng rng_;
  TrafficMix mix_;
  Report& report_;
  Outcome& out_;
  bool fine_;
  bool track_steps_ = true;
  perfbench::Ring ring_;
  std::string phase_;
  std::vector<std::uint64_t> hot_;
  std::vector<std::string> kv_names_;
  std::vector<std::uint64_t> kv_pos_;
  std::vector<bool> kv_scheduled_;  // a put of the key was generated
  std::vector<bool> kv_busy_;
  std::size_t kv_cursor_ = 0;
  std::vector<std::uint32_t> owners_;
  std::vector<Arrival> batch_;
  std::vector<Expect> expect_;
  std::uint64_t harvested_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t round_ = 0;
};

// -- fixpoint checks --------------------------------------------------------

/// Keeps util::Profiler off for a scope (checks are not part of the profile).
class ProfilerPause {
 public:
  ProfilerPause() : was_(util::Profiler::instance().enabled()) {
    util::Profiler::instance().set_enabled(false);
  }
  ~ProfilerPause() { util::Profiler::instance().set_enabled(was_); }
  ProfilerPause(const ProfilerPause&) = delete;
  ProfilerPause& operator=(const ProfilerPause&) = delete;

 private:
  bool was_;
};

/// One fixpoint check, an operation of the run (checks.hpp).
void check_fixpoint(core::Engine& engine, Traffic* traffic, Report& report,
                    const std::string& where) {
  const ProfilerPause pause;
  ++report.checks;
  const std::string why = perfbench::fixpoint_defect(engine, [&] {
    return traffic ? traffic->untimed_round() : engine.step();
  });
  if (why.empty()) return;
  ++report.checks_failed;
  report.error(where + ": " + why);
}

/// Drives rounds until the engine reports an unchanged round and returns
/// their number, the unchanged one included (0 when `cap` was hit). With
/// `traffic`, every round also runs the request engine and, if `arrivals`,
/// takes new requests. Host time of the rounds is appended to `times`.
std::uint64_t run_to_fixpoint(core::Engine& engine, Traffic* traffic,
                              bool arrivals, Outcome& out, RoundTimes& times,
                              std::uint64_t cap) {
  for (std::uint64_t r = 1; r <= cap; ++r) {
    bool changed = false;
    if (traffic) {
      traffic->generate(arrivals);
      changed = traffic->round(times).changed;
    } else {
      const auto t0 = Clock::now();
      changed = timed_step(engine, out).changed;
      times.push_back(seconds_since(t0));
    }
    if (!changed) return r;
  }
  return 0;
}

// -- workloads --------------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
};

void note_network(const core::Network& net, Outcome& out) {
  out.edge_bytes_per_peer = static_cast<double>(net.edge_set_bytes()) /
                            static_cast<double>(net.alive_owner_count());
  out.connection_edges = net.edge_count(core::EdgeKind::kConnection);
}

/// Starts the measured section: the profiler only ever sees it.
void begin_measured(const Config& cfg) {
  if (!cfg.trace) return;
  util::Profiler::instance().reset();
  util::Profiler::instance().set_enabled(true);
}

/// best_of() of a section's replays; replays of different length are a
/// failed check (the program is deterministic, so they must not differ).
double replayed_s(const std::vector<RoundTimes>& replays, Report& report,
                  const std::string& what) {
  const double s = best_of(replays);
  if (s >= 0.0) return s;
  report.error(what + ": replays of the same work ran different rounds");
  return 0.0;
}

// bringup: random weakly connected start states (gen::make_network, the
// paper's initial graphs) driven to the exact fixpoint on 2 engine
// threads, one start state per 10 s of --seconds; after each, a lookup
// phase on the converged overlay.
constexpr std::size_t kBringupPeers = 1000;
constexpr unsigned kBringupThreads = 2;
constexpr int kBringupSetupReps = 100;
constexpr int kBringupServeRounds = 3000;

/// One build of a bring-up start state: gen::make_network + Engine, timed
/// as a set-up sample.
std::unique_ptr<core::Engine> build_bringup(std::uint64_t net_seed,
                                            Outcome& out) {
  const auto t0 = Clock::now();
  util::Rng rng(net_seed);
  core::Network net =
      gen::make_network(gen::Topology::kRandomConnected, kBringupPeers, rng);
  out.gen_s.push_back(seconds_since(t0));
  auto engine = std::make_unique<core::Engine>(
      std::move(net), core::EngineOptions{.threads = kBringupThreads});
  out.setup_s.push_back(seconds_since(t0));
  return engine;
}

/// Lookups on a converged bring-up overlay, so that bring-up reports the
/// request metrics too, in churn's setting: one engine thread, 100 uniform
/// lookups per round, then the drain; returns the requests completed. It
/// runs on a 1-thread copy of the overlay because on the multi-threaded
/// engine the idle rounds are dominated by worker-pool dispatch: 250-round
/// windows of this traffic on 4 threads ranged 73k-407k req/s within and
/// between runs. The copy's rounds are idle and left out of the
/// core.engine metrics.
std::uint64_t serve_bringup_lookups(const core::Network& converged,
                                    std::uint64_t seed, bool trace,
                                    Report& report, Outcome& out,
                                    RoundTimes& times) {
  core::Engine server(converged, {.threads = 1});
  Traffic traffic(server, seed, {.rate = 100.0}, report, out, trace);
  traffic.track_steps(false);
  traffic.set_ring(perfbench::live_ring(server.network()), "bring-up");
  traffic.serve(kBringupServeRounds, times);
  traffic.drain(times);
  traffic.finish();
  return traffic.completed();
}

void run_bringup(const Config& cfg, Report& report, Outcome& out) {
  out.units = static_cast<std::uint64_t>(std::max(1, cfg.seconds / 10));
  for (std::uint64_t unit = 0; unit < out.units; ++unit) {
    const std::uint64_t net_seed = derive(cfg.seed, 100 + unit);
    std::unique_ptr<core::Engine> engine;
    {
      const ProfilerPause pause;
      for (int rep = 0; rep < kBringupSetupReps; ++rep)
        engine = build_bringup(net_seed, out);
    }
    if (unit == 0) begin_measured(cfg);
    RoundTimes converge, serve;
    const std::uint64_t rounds =
        run_to_fixpoint(*engine, nullptr, false, out, converge, 100000);
    out.converge_s += total(converge);
    out.converge_rounds += rounds;
    ++out.layer_units;
    if (rounds == 0) {
      ++report.checks;
      ++report.checks_failed;
      report.error("bring-up did not reach a fixpoint in 100000 rounds");
      return;
    }
    check_fixpoint(*engine, nullptr, report, "bring-up");
    if (cfg.trace) take_profile(out.engine_profile);
    out.served += serve_bringup_lookups(engine->network(),
                                        derive(cfg.seed, 200 + unit),
                                        cfg.trace, report, out, serve);
    out.serve_s += total(serve);
    if (cfg.trace) take_profile(out.request_profile);
    note_network(engine->network(), out);
  }
}

// churn: bursts of k crashes, then k joins, then k graceful leaves on a
// materialized n = 1000 fixpoint, one engine thread, one cycle per 10 s of
// --seconds, each burst run to the exact fixpoint while open-loop lookups
// ride along.
constexpr std::size_t kChurnPeers = 1000;
constexpr int kChurnSetupReps = 10;

/// Materialized fixpoint + engine + warm-up rounds until no peer runs live.
std::unique_ptr<core::Engine> fixpoint_engine(
    const std::vector<core::RingPos>& ids, core::EngineOptions eopt,
    Outcome& out, Report& report) {
  const auto t0 = Clock::now();
  core::Network net = perfbench::materialize_fixpoint(ids);
  out.gen_s.push_back(seconds_since(t0));
  auto engine = std::make_unique<core::Engine>(std::move(net), eopt);
  const auto t1 = Clock::now();
  bool settled = false;
  for (int r = 0; r < 64 && !settled; ++r) {
    const core::RoundMetrics m = engine->step();
    if (m.changed) report.error("materialized fixpoint changed in warm-up");
    settled = m.active_peers == 0;
  }
  if (!settled) report.error("warm-up did not quiesce in 64 rounds");
  out.warmup_s.push_back(seconds_since(t1));
  out.setup_s.push_back(seconds_since(t0));
  return engine;
}

/// One replay of the churn schedule on `engine`: `cycles` cycles of crash,
/// join and leave bursts. Appends the host time of the rounds to the
/// fixpoint of every burst to `converge`, and of the bursts that carry
/// lookups, with their drains, to `serve`; returns the requests those
/// bursts completed.
std::uint64_t measure_churn(const Config& cfg, Report& report, Outcome& out,
                            core::Engine& engine, std::uint64_t cycles,
                            RoundTimes& converge, RoundTimes& serve) {
  Traffic traffic(engine, derive(cfg.seed, 2), {.rate = 100.0}, report,
                  out, cfg.trace);
  std::uint64_t served = 0;
  // The churn schedule is fixed in rank space -- which peers by their
  // place on the ring -- so bursts stay comparable across seeds; the seed
  // varies identifiers, gaps and traffic.
  auto at_rank = [&](double fraction) {
    const perfbench::Ring ring = perfbench::live_ring(engine.network());
    const auto i = static_cast<std::size_t>(fraction *
                                            static_cast<double>(ring.size()));
    // The peer at that rank and the clockwise gap to its successor.
    return std::pair{ring[i],
                     ring[(i + 1) % ring.size()].first - ring[i].first};
  };
  auto burst = [&](const std::string& what, bool arrivals) {
    traffic.set_ring(perfbench::live_ring(engine.network()),
                     what + " burst from round " +
                         std::to_string(engine.rounds_executed()));
    const std::uint64_t done0 = traffic.completed();
    RoundTimes times;
    const std::uint64_t rounds =
        run_to_fixpoint(engine, &traffic, arrivals, out, times, 100000);
    converge.insert(converge.end(), times.begin(), times.end());
    out.converge_rounds += rounds;
    traffic.drain(times);
    if (arrivals) {
      serve.insert(serve.end(), times.begin(), times.end());
      served += traffic.completed() - done0;
    }
    if (rounds == 0) {
      ++report.checks;
      ++report.checks_failed;
      report.error(what + " burst did not reach a fixpoint");
      return;
    }
    check_fixpoint(engine, &traffic, report, what + " burst");
  };
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    for (const double f : {0.2, 0.5, 0.8})
      engine.crash_peer(at_rank(f).first.second);
    burst("crash", true);
    for (const double f : {0.25, 0.55, 0.85}) {
      // Midway between the peer at this rank and its successor, joining
      // through the peer a third of the ring further on.
      const auto [peer, gap] = at_rank(f);
      engine.join_peer(peer.first + gap / 2,
                       at_rank(std::fmod(f + 1.0 / 3.0, 1.0)).first.second);
    }
    // No lookups ride along a join burst: a lookup that reaches a joiner
    // before it is integrated settles from the joiner's only neighbour, its
    // introducer, up to a third of the ring past the key, one peer per hop,
    // and fails at the hop cap -- 1 to 6 lookups per run, varying with the
    // seed (README.md, "Known fault").
    burst("join", false);
    for (const double f : {0.3, 0.6, 0.9})
      engine.leave_peer(at_rank(f).first.second);
    burst("leave", true);
  }
  traffic.finish();
  note_network(engine.network(), out);
  return served;
}

void run_churn(const Config& cfg, Report& report, Outcome& out) {
  util::Rng id_rng(derive(cfg.seed, 1));
  const auto ids = gen::random_ids(id_rng, kChurnPeers);
  std::unique_ptr<core::Engine> engine;
  for (int rep = 0; rep < kChurnSetupReps / 2; ++rep) {
    engine.reset();
    engine = fixpoint_engine(ids, {.threads = 1}, out, report);
  }
  out.units = static_cast<std::uint64_t>(std::max(1, cfg.seconds / 10));
  out.layer_units = out.units;
  begin_measured(cfg);
  RoundTimes converge, serve;
  out.served =
      measure_churn(cfg, report, out, *engine, out.units, converge, serve);
  out.converge_s = total(converge);
  out.serve_s = total(serve);
  if (cfg.trace) {
    take_profile(out.engine_profile);
    out.request_profile = out.engine_profile;
  }
  engine.reset();
  // The other half of the set-up samples, taken after the measured
  // section, so the median spans the whole run.
  for (int rep = 0; rep < kChurnSetupReps / 2; ++rep)
    fixpoint_engine(ids, {.threads = 1}, out, report);
}

// lookups: a materialized n = 10k fixpoint on 2 engine threads serving
// open-loop Poisson traffic: 1000 requests per round, 80% lookups (80% of
// them on 32 hot keys), 20% KV puts and gets. The same traffic schedule is
// replayed kLookupReplays times, each time with a fresh request engine and
// store; short replays spread over the run give each chunk of the schedule
// many chances at a calm spell of the host.
constexpr std::size_t kLookupPeers = 10000;
constexpr unsigned kLookupThreads = 2;
constexpr int kLookupSetupReps = 2;
constexpr int kLookupReplays = 7;
constexpr int kLookupWarmRounds = 100;
constexpr int kLookupMeasuredRounds = 500;

void measure_lookups(const Config& cfg, Report& report, Outcome& out,
                     core::Engine& engine) {
  check_fixpoint(engine, nullptr, report, "materialized fixpoint");
  const TrafficMix mix{.rate = 1000.0,
                       .kv_share = 0.2,
                       .hot_share = 0.8,
                       .hot_keys = 32,
                       .kv_keys = 131 * 512};
  // The whole schedule (warm-up, measured rounds, drain) and its measured
  // rounds alone, per replay.
  const int replays = std::max(1, kLookupReplays * cfg.seconds / 30);
  std::vector<RoundTimes> schedule(replays), window(replays);
  std::uint64_t served = 0;
  begin_measured(cfg);
  for (int replay = 0; replay < replays; ++replay) {
    Traffic traffic(engine, derive(cfg.seed, 2), mix, report, out,
                    cfg.trace);
    traffic.set_ring(perfbench::live_ring(engine.network()), "lookups");
    RoundTimes& times = schedule[replay];
    traffic.serve(kLookupWarmRounds, times);
    const std::uint64_t done0 = traffic.completed();
    const std::size_t first = times.size();
    traffic.serve(kLookupMeasuredRounds, times);
    window[replay].assign(times.begin() + static_cast<std::ptrdiff_t>(first),
                          times.end());
    served = traffic.completed() - done0;
    traffic.drain(times);
    traffic.finish();
    ++out.layer_units;
  }
  out.units = 1;
  out.converge_s = replayed_s(schedule, report, "lookups");
  out.converge_rounds = schedule.front().size();
  out.serve_s = replayed_s(window, report, "lookups");
  out.served = served;
  note_network(engine.network(), out);
  if (cfg.trace) {
    take_profile(out.engine_profile);
    out.request_profile = out.engine_profile;
  }
}

void run_lookups(const Config& cfg, Report& report, Outcome& out) {
  util::Rng id_rng(derive(cfg.seed, 1));
  const auto ids = gen::random_ids(id_rng, kLookupPeers);
  auto engine = fixpoint_engine(ids, {.threads = kLookupThreads}, out, report);
  measure_lookups(cfg, report, out, *engine);
  engine.reset();
  // The other set-up samples, taken after the measured section, so the
  // median spans the whole run.
  for (int rep = 1; rep < kLookupSetupReps; ++rep)
    fixpoint_engine(ids, {.threads = kLookupThreads}, out, report);
}

// -- metrics ----------------------------------------------------------------

double phase_s(const PhaseTimes& p, util::Phase phase) {
  const auto it = p.find(phase);
  return it == p.end() ? 0.0 : it->second;
}

/// Rounds-in-flight quantile of the completed requests, interpolated
/// linearly within the integer round bucket [r - 1/2, r + 1/2), so the
/// value moves with the shape of the distribution, not in whole rounds.
double rounds_quantile(const std::vector<std::uint64_t>& histogram, double q) {
  double total = 0.0;
  for (const std::uint64_t c : histogram) total += static_cast<double>(c);
  const double target = q * total;
  double cum = 0.0;
  for (std::size_t r = 0; r < histogram.size(); ++r) {
    const auto c = static_cast<double>(histogram[r]);
    if (c > 0.0 && cum + c >= target)
      return static_cast<double>(r) - 0.5 + (target - cum) / c;
    cum += c;
  }
  return static_cast<double>(histogram.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_metrics(const Config& cfg, const Outcome& out, Report& report) {
  const auto units = static_cast<double>(std::max<std::uint64_t>(1, out.units));
  if (!cfg.trace) {
    report.metric("setup_s", median(out.setup_s), "s");
    report.metric("converge_s", out.converge_s / units, "s");
    report.metric("converge_rounds",
                  static_cast<double>(out.converge_rounds) / units, "rounds");
    report.metric("req_per_s",
                  out.serve_s > 0.0
                      ? static_cast<double>(out.served) / out.serve_s
                      : 0.0,
                  "1/s");
    report.metric("req_rounds_p50",
                  rounds_quantile(out.rounds_in_flight, 0.50), "rounds");
    report.metric("req_rounds_p99",
                  rounds_quantile(out.rounds_in_flight, 0.99), "rounds");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }
  using util::Phase;
  const auto replays =
      static_cast<double>(std::max<std::uint64_t>(1, out.layer_units));
  const auto& ep = out.engine_profile;
  const auto& rp = out.request_profile;
  double step_s = 0.0;
  for (const double ms : out.step_ms) step_s += ms * 1e-3;
  // converge_s of this traced run: against the untraced runs' converge_s it
  // gives the tracing overhead.
  report.metric("trace.converge_s", out.converge_s / units, "s");
  report.metric("gen.build_s", median(out.gen_s), "s");
  report.metric("core.engine.warmup_s", median(out.warmup_s), "s");
  report.metric("core.engine.step_s", step_s / replays, "s");
  report.metric("core.engine.step_ms_p50", quantile(out.step_ms, 0.50),
                "ms");
  report.metric("core.engine.step_ms_p99", quantile(out.step_ms, 0.99),
                "ms");
  report.metric("core.engine.live_peer_rounds",
                static_cast<double>(out.live) / replays, "count");
  report.metric("core.engine.replayed_peer_rounds",
                static_cast<double>(out.replayed) / replays, "count");
  report.metric("core.engine.boundary_peer_rounds",
                static_cast<double>(out.boundary) / replays, "count");
  report.metric("core.engine.skipped_peer_rounds",
                static_cast<double>(out.skipped) / replays, "count");
  const std::pair<const char*, Phase> phases[] = {
      {"core.engine.rule_phase_s", Phase::kRulePhase},
      {"core.engine.commit_s", Phase::kCommit},
      {"core.engine.wake_scan_s", Phase::kWakeScan},
      {"core.engine.skip_set_s", Phase::kSkipSet},
      {"core.engine.deferred_evict_s", Phase::kDeferredEvict},
      {"core.engine.index_register_s", Phase::kIndexRegister},
      {"core.engine.index_rebuild_s", Phase::kIndexRebuild},
      {"core.engine.publish_normalize_s", Phase::kPublishNormalize},
      {"core.engine.fixpoint_s", Phase::kFixpoint},
  };
  double attributed = 0.0;
  for (const auto& [name, phase] : phases) {
    const double s = phase_s(ep, phase);
    attributed += s;
    report.metric(name, s / replays, "s");
  }
  report.metric("core.engine.phase_share",
                step_s > 0.0 ? attributed / step_s : 0.0, "ratio");
  report.metric("core.network.edge_bytes_per_peer", out.edge_bytes_per_peer,
                "B");
  report.metric("core.network.connection_edges",
                static_cast<double>(out.connection_edges), "count");
  report.metric("net.request_engine.on_round_s", out.on_round_s / replays,
                "s");
  report.metric("net.request_engine.submit_s", out.submit_s / replays, "s");
  report.metric("net.request_engine.shard_advance_s",
                phase_s(rp, Phase::kReqShardAdvance) / replays, "s");
  report.metric("net.request_engine.merge_s",
                phase_s(rp, Phase::kReqMerge) / replays, "s");
  report.metric("net.request_engine.hops_per_req",
                out.resolved ? static_cast<double>(out.hops) /
                                   static_cast<double>(out.resolved)
                             : 0.0,
                "hops");
  report.metric("net.request_engine.retries",
                static_cast<double>(out.retries) / replays, "count");
  report.metric("net.request_engine.inflight_mean",
                out.inflight_rounds
                    ? out.inflight_sum /
                          static_cast<double>(out.inflight_rounds)
                    : 0.0,
                "requests");
  report.metric("dht.kv_store.records",
                static_cast<double>(out.kv_records) / replays, "count");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {bringup|churn|lookups} "
               "--seed N --seconds S --trace {0|1}\n");
  return 2;
}

/// Strict non-negative integer parse; false on junk or overflow.
bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed" && parse_u64(value, v)) {
      cfg.seed = v;
    } else if (flag == "--seconds" && parse_u64(value, v) && v >= 1 &&
               v <= 3600) {
      cfg.seconds = static_cast<int>(v);
    } else if (flag == "--trace" && parse_u64(value, v) && v <= 1) {
      cfg.trace = v == 1;
    } else {
      return usage();
    }
  }
  Report report;
  Outcome out;
  if (cfg.workload == "bringup")
    run_bringup(cfg, report, out);
  else if (cfg.workload == "churn")
    run_churn(cfg, report, out);
  else if (cfg.workload == "lookups")
    run_lookups(cfg, report, out);
  else
    return usage();
  util::Profiler::instance().set_enabled(false);
  report_metrics(cfg, out, report);
  report.print();
  return 0;
}
