#pragma once
// In-network asynchronous request engine (DESIGN.md §9-§10): application
// requests -- Lookup, KV Put, KV Get -- that live INSIDE the round pipeline
// instead of routing over an instantaneous snapshot. Each outstanding
// request resides at a current owner (its custody) and advances at most one
// hop per engine round by greedy Chord progress over that owner's CURRENT
// published edges, re-read fresh every hop -- so stabilization helps or
// hurts live traffic, exactly the regime in which monotonic-searchability
// questions exist (Scheideler/Setzer/Strothmann, PAPERS.md).
//
// PRODUCTION-TRAFFIC LAYOUT (DESIGN.md §10). The engine is built for
// open-loop load at millions of outstanding requests:
//
//   * Custody state is SHARDED: a fixed number of logical shards
//     (RequestOptions::shards) partition the owner space; each shard holds
//     the requests parked at its owners plus its own due-round bucket queue
//     of in-flight hops targeting them. A round advances every shard
//     independently -- on the engine's persistent worker pool when the
//     engine is multi-threaded -- followed by one serial, shard-major merge
//     that applies completions (KV effects, the monotonic-searchability
//     ledger, totals, the completion fingerprint) and moves launched hops /
//     bounced requests into their target shards. The shard count is part of
//     the determinism contract: for a FIXED shard count, outcomes are
//     bit-identical across {active-set, full-scan} x any thread count,
//     because shard assignment keys on the custody owner, every per-shard
//     order evolves deterministically, and the merge walks shards in index
//     order (tests/test_request.cpp asserts 1-, 3- and 8-thread runs produce
//     identical completion SEQUENCES, not just equal fingerprints).
//
//   * Advancement is BATCHED per custody owner: a shard stably groups its
//     parked requests by owner and scans that owner's published edge sets
//     ONCE per round, amortized over every request parked there -- replacing
//     the per-request greedy walks that serialized PR 5 under hot keys. The
//     flag-gated RequestOptions::per_request_walk baseline re-scans per
//     request on one thread, in the exact same order, and must produce
//     bit-identical outcomes (the batch scan is a pure amortization); the
//     sustained-throughput bench measures the two against each other.
//
//   * Request records are STRUCT-OF-ARRAYS: the per-request hot fields live
//     in parallel vectors indexed by a recycled slot id, and the KV payloads
//     (two std::strings nobody touches while a request routes) live
//     out-of-line in a pooled side table -- a routing step touches ~40
//     contiguous bytes per request instead of a 100+-byte record with
//     embedded strings, which is what stops 10M+ outstanding requests from
//     cache-missing. Slots are recycled through a free list, so sustained
//     open-loop runs hold memory proportional to PEAK outstanding requests,
//     not total issued; the public request id (returned by submit_*, stored
//     in completion records, and keying every stateless coin) stays a
//     monotone uid.
//
// Hops are messages: each one pays the per-(source-dc, target-dc) delivery
// delay class of the engine's latency model through its target shard's
// due-round bucket queue, and at DELIVERY time flips the engine's
// message-loss coin, respects the active partition cut, and detects a
// next-hop owner that died mid-flight. A failed hop bounces back to the
// sender (avoiding the failed next-hop on the re-route, which happens at
// the next round's advancement); a request whose custody owner crashed
// fails over to its origin. Requests that exhaust their TTL/hop budget fail
// with a classification: stale-routing (stuck with no usable next hop),
// partition-lost (last obstruction was the cut), or timeout (everything
// else, including origin death).
//
// Determinism contract: every coin (per-hop delay jitter, loss) is a
// stateless hash of (seed, request id, attempt) and every routing decision
// is a pure function of the network's committed end-of-round state -- which
// is itself bit-identical across {active-set, full-scan} x thread counts --
// so request outcomes, and the request fingerprint folded over them, are
// bit-identical across all scheduler modes (tests/test_request.cpp).
//
// Routing (per parked request, per round; neighbors = the live owners
// reachable over the custody owner's unmarked/ring edges to real slots, the
// per-owner row of the paper's §2.2 real projection):
//   * forward phase: hop to the neighbor making the most clockwise progress
//     toward the key without passing it (the §1.1 binary-search strategy);
//     when no neighbor precedes the key, hop to the one closest AT/after it
//     and enter the settle phase;
//   * settle phase: hop to the neighbor that is a strictly closer clockwise
//     successor of the key, else complete -- monotone in both phases, so
//     the walk cannot cycle; on the stabilized overlay it provably lands on
//     the globally responsible owner (asserted against the snapshot
//     projection in tests/test_request.cpp).
// There is deliberately NO local "key in (pred, self]" ownership shortcut: a
// Re-Chord peer has no reliable leftward pointer (even at the fixpoint a
// real slot's published rl can be invalid, and the projection need not
// contain a predecessor edge), so requests always complete from the
// predecessor side, like Chord without predecessor pointers.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "util/trace.hpp"

namespace rechord::dht {
class KvStore;
}

namespace rechord::net {

using core::RingPos;

enum class RequestKind : std::uint8_t { kLookup = 0, kKvPut = 1, kKvGet = 2 };

enum class RequestStatus : std::uint8_t {
  kInFlight = 0,
  /// Reached the owner locally responsible for the key. For kKvGet the
  /// record may still be absent there (see RequestRecord::found).
  kResolved,
  /// Budget exhausted while stuck with no usable next hop -- the routing
  /// state under the request was stale (healing had not caught up).
  kFailedStaleRouting,
  /// Budget exhausted with the last obstruction a partition-cut drop.
  kFailedPartitionLost,
  /// Budget exhausted in flight (loss storms, dead hops, origin death).
  kFailedTimeout,
};

[[nodiscard]] const char* request_status_name(RequestStatus s);
[[nodiscard]] const char* request_kind_name(RequestKind k);

struct RequestOptions {
  /// Seeds the stateless per-(request, attempt) hop coins.
  std::uint64_t seed = 0x5EEDC0FFEEULL;
  /// A request that has taken this many hops fails at its next routing step.
  std::uint32_t hop_cap = 96;
  /// A request older than this many rounds fails at its next routing step.
  std::uint32_t ttl_rounds = 128;
  /// Logical custody shards (clamped to >= 1). Part of the determinism
  /// contract: for a FIXED shard count outcomes are bit-identical across
  /// scheduler modes and thread counts; a different shard count reorders the
  /// per-round completion sequence (and therefore the fingerprint), exactly
  /// like choosing a different request seed.
  std::uint32_t shards = 16;
  /// Flag-gated comparison baseline (bench/request_throughput, lockstep
  /// tests): advance on ONE thread with the pre-shard per-request walk --
  /// a fresh edge scan and a linear next-hop selection with per-neighbor
  /// position lookups for every request, every round (route_walk). Same
  /// processing order, bit-identical outcomes -- the batched path's cached
  /// position-sorted rows and binary-search selection are pure
  /// amortizations of this walk.
  bool per_request_walk = false;
  /// Ring-buffer cap on RETAINED completion records (0 = keep every record,
  /// the PR 5 behavior). With a cap, completions() holds the most recent
  /// `completion_cap` records, completions_dropped() counts the evicted
  /// prefix, and every aggregate in totals() stays exact -- the opt-in that
  /// keeps sustained open-loop runs at bounded memory.
  std::size_t completion_cap = 0;
  /// Cap on the monotonic-searchability ledger (0 = unbounded). When the
  /// ledger exceeds the cap, the entries with the OLDEST resolution rounds
  /// are pruned (deterministically: by (round, key) order) down to 3/4 of
  /// the cap. Pruned keys can no longer witness a violation -- the
  /// documented trade for bounded memory under open-loop load; totals stay
  /// exact for everything else.
  std::size_t mono_ledger_cap = 0;
  /// Per-shard cap on cached per-owner routing rows (0 = unbounded). Rows
  /// are validated against Network::topology_version(), so at steady state
  /// an owner's 65-slot edge scan happens once EVER instead of once per
  /// round; any overlay mutation invalidates every cached row at its next
  /// use. When a shard's cache is full and a new owner needs a row, the
  /// whole shard cache is dumped (epoch eviction) -- hot owners re-warm on
  /// the next round. Purely an amortization: cached rows are bit-identical
  /// to fresh scans, so outcomes never depend on the cap.
  std::size_t row_cache_cap = 1 << 15;
};

/// Completion record of one request (success or failure).
struct RequestRecord {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kLookup;
  RequestStatus status = RequestStatus::kInFlight;
  std::uint64_t issue_round = 0;
  std::uint64_t completion_round = 0;
  std::uint32_t origin = 0;
  /// Owner the request completed at; UINT32_MAX for failures.
  std::uint32_t result_owner = 0;
  std::uint32_t hops = 0;
  std::uint32_t retries = 0;
  /// kKvGet only: the reached owner held the record.
  bool found = false;
  /// KV key of kKvPut/kKvGet requests (empty for lookups) -- lets callers
  /// act on completions, e.g. the scenario runner registers a put's key as
  /// gettable only once the put actually resolved.
  std::string key;

  [[nodiscard]] std::uint64_t rounds_in_flight() const noexcept {
    return completion_round - issue_round;
  }
};

/// Aggregates over every completed request (cumulative; always exact,
/// independent of the completion-record ring cap).
struct RequestTotals {
  std::uint64_t issued = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed_stale = 0;
  std::uint64_t failed_partition = 0;
  std::uint64_t failed_timeout = 0;
  // KV data plane (kKvGet / kKvPut completions).
  std::uint64_t puts_stored = 0;
  std::uint64_t gets_found = 0;
  /// Get misses with a live copy elsewhere: routing reached an owner the
  /// record had not (re-)reached yet.
  std::uint64_t gets_stale_miss = 0;
  /// Get misses with no surviving copy anywhere.
  std::uint64_t gets_lost_miss = 0;
  // Path statistics over completed requests.
  std::uint64_t hops_sum = 0;
  std::uint64_t rounds_sum = 0;  // sum of rounds-in-flight
  std::uint64_t retries_sum = 0;
  std::uint64_t max_rounds_in_flight = 0;
  // Delivery-time obstructions (each bounces the hop back to its sender).
  std::uint64_t loss_bounces = 0;
  std::uint64_t partition_bounces = 0;
  std::uint64_t dead_hop_bounces = 0;
  /// Requests whose custody owner died while holding them (failed over to
  /// the origin rather than hanging).
  std::uint64_t custody_failovers = 0;
  /// Monotonic-searchability violations: a key that resolved at round r and
  /// failed to resolve at a later round with BOTH the earlier result owner
  /// and the failing request's origin still alive.
  std::uint64_t mono_violations = 0;
  /// Order-sensitive fold over every completion (id, rounds, hops, retries,
  /// status, result, found) -- the determinism-contract fingerprint.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_stale + failed_partition + failed_timeout;
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return resolved + failed();
  }
  [[nodiscard]] double mean_hops() const noexcept {
    return resolved ? static_cast<double>(hops_sum) /
                          static_cast<double>(resolved)
                    : 0.0;
  }
  [[nodiscard]] double mean_rounds_in_flight() const noexcept {
    return completed() ? static_cast<double>(rounds_sum) /
                             static_cast<double>(completed())
                       : 0.0;
  }
};

class RequestEngine {
 public:
  /// Binds to `engine` for the lifetime of the request engine. The caller
  /// drives the lockstep: call on_round() exactly once after every
  /// engine.step() (the scenario runner does it from the round observer).
  explicit RequestEngine(core::Engine& engine, RequestOptions opt = {});

  /// Attaches the KV data plane used by kKvPut/kKvGet completions; without
  /// a store, puts store nothing and gets always miss. The store is shared
  /// with the snapshot paths (KvLoad/KvRebalance), so live gets see
  /// snapshot-loaded records and vice versa.
  void bind_store(dht::KvStore* kv) noexcept { kv_ = kv; }

  // -- submission (between rounds; the request parks at its origin and takes
  // its first hop at the next on_round) ------------------------------------
  std::uint64_t submit_lookup(RingPos key, std::uint32_t origin);
  std::uint64_t submit_put(std::string key, std::string value,
                           std::uint32_t origin);
  std::uint64_t submit_get(std::string key, std::uint32_t origin);

  /// Advances every outstanding request by (at most) one hop against the
  /// committed state of the round that just ran: per shard, due hop
  /// deliveries first (loss/partition/dead-hop checks), then one batched
  /// routing step per custody owner over its parked requests -- sharded over
  /// the engine's worker pool when the engine is multi-threaded -- followed
  /// by the serial shard-major merge that applies completions and hop
  /// handoffs in a deterministic order.
  void on_round();

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t inflight() const noexcept { return outstanding_; }
  [[nodiscard]] const RequestTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return totals_.fingerprint;
  }
  /// Retained completion records in completion order. Without a
  /// completion_cap this is every record since the last clear_completions();
  /// with one, the most recent completion_cap records (the evicted prefix is
  /// counted by completions_dropped()).
  [[nodiscard]] const std::deque<RequestRecord>& completions() const noexcept {
    return completions_;
  }
  /// Records evicted from the front of the completion ring so far (0 without
  /// a cap). completions_dropped() + completions().size() counts every
  /// completion since the last clear_completions().
  [[nodiscard]] std::uint64_t completions_dropped() const noexcept {
    return completions_dropped_;
  }
  void clear_completions() {
    completions_.clear();
    completions_dropped_ = 0;
  }
  /// Current size of the monotonic-searchability ledger -- the bounded-
  /// memory metric the sustained-throughput bench and scenario runs watch.
  [[nodiscard]] std::size_t mono_ledger_size() const noexcept {
    return mono_.size();
  }
  /// Current custody owner of an outstanding request; nullopt once it
  /// completed (test instrumentation).
  [[nodiscard]] std::optional<std::uint32_t> custody_of(
      std::uint64_t id) const;

  [[nodiscard]] const RequestOptions& options() const noexcept { return opt_; }

 private:
  enum Phase : std::uint8_t { kForward = 0, kSettle = 1 };
  enum Obstruction : std::uint8_t {
    kObsNone = 0,
    kObsStale,      // no usable next hop at the custody owner
    kObsLoss,       // hop dropped by the message-loss coin
    kObsPartition,  // hop dropped at the partition cut
    kObsDead,       // next-hop owner died mid-flight
  };

  /// A hop launched this round, recorded in emission order; the merge hands
  /// it to shard_of(to)'s due bucket `delay` rounds out.
  struct Launch {
    std::uint32_t slot;
    std::uint32_t to;
    std::uint32_t delay;
  };
  /// A request re-entering the parked state at a (possibly remote) owner:
  /// delivery bounces and custody failovers. Routed at the NEXT round's
  /// advancement.
  struct Repark {
    std::uint32_t slot;
    std::uint32_t owner;
  };
  /// A request that finished this round; all side effects (KV, mono ledger,
  /// totals, fingerprint, record) are applied at the serial merge.
  struct Completion {
    std::uint32_t slot;
    RequestStatus status;
  };
  /// Additive per-shard counters folded into totals_ at the merge.
  struct ShardTally {
    std::uint64_t loss_bounces = 0;
    std::uint64_t partition_bounces = 0;
    std::uint64_t dead_hop_bounces = 0;
    std::uint64_t custody_failovers = 0;
  };

  /// Per-owner routing row: the live owners reachable over the owner's
  /// unmarked/ring edges as (ring position, owner id), sorted by position.
  /// The position order turns next-hop selection into binary searches
  /// around the key -- the clockwise argmax/argmin the routing rules ask
  /// for are the key's circular neighbors in this array.
  using NbrRow = std::vector<std::pair<RingPos, std::uint32_t>>;
  /// A cached NbrRow, valid while the network's topology_version() still
  /// equals `stamp` (0 = never computed; the version counter starts at 1).
  struct OwnerRow {
    std::uint64_t stamp = 0;
    NbrRow nbrs;
  };

  struct Shard {
    /// Requests parked at this shard's owners: (custody owner, slot) in
    /// deterministic insertion order -- submissions, then merge handoffs in
    /// shard-major order, then this shard's own deliveries.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parked;
    /// Routing rows of this shard's owners, keyed by custody owner --
    /// written only by this shard's worker (an owner maps to exactly one
    /// shard), so the cache is race-free under the parallel phase.
    std::unordered_map<std::uint32_t, OwnerRow> rows;
    /// due[k]: slots whose in-flight hop delivers HERE at the k-th next
    /// on_round (the front bucket is this round's deliveries); emission
    /// order within a bucket is preserved, like the engine's in-flight
    /// queue.
    std::deque<std::vector<std::uint32_t>> due;
    // Per-round outputs, written only by this shard's worker, consumed by
    // the serial merge.
    std::vector<Launch> launches;
    std::vector<Repark> reparks;
    std::vector<Completion> completions;
    ShardTally tally;
    /// Hop-level trace events recorded during the parallel phase; the
    /// serial merge drains them into the global Tracer in shard-major
    /// order, so the trace stream is thread-count invariant (DESIGN.md
    /// §11). Empty (and untouched) while tracing is disabled.
    std::vector<util::TraceEvent> trace;
    // Scratch reused across rounds.
    std::vector<std::uint64_t> group_keys;  // (owner << 32 | parked index)
    std::vector<std::pair<std::uint32_t, std::uint32_t>> next_parked;
    std::vector<std::uint32_t> deliver_buf;
    /// Walk-mode scratch: the PR 5 owner-id row (sorted unique owner ids,
    /// positions looked up during the scan), rebuilt per request.
    std::vector<std::uint32_t> walk_nbrs;
  };

  /// SoA request state, indexed by a recycled slot id. A slot is referenced
  /// by exactly one container at any time -- one shard's parked list or one
  /// shard's due queue -- so the parallel phase writes disjoint indices.
  /// The vectors are only resized at submit time (serial, between rounds).
  struct SlotArrays {
    std::vector<std::uint64_t> uid;          // public request id (coin key)
    std::vector<RingPos> key;                // target ring position
    std::vector<std::uint64_t> issue_round;
    std::vector<std::uint32_t> origin;
    std::vector<std::uint32_t> custody;
    std::vector<std::uint32_t> hop_to;  // valid while the hop is in flight
    std::vector<std::uint32_t> avoid;   // last bounced next-hop
    std::vector<std::uint32_t> hops;
    std::vector<std::uint32_t> retries;
    std::vector<std::uint32_t> attempt;  // hop launches (keys the coins)
    std::vector<std::uint8_t> kind;         // RequestKind
    std::vector<std::uint8_t> phase;        // Phase
    std::vector<std::uint8_t> obstruction;  // Obstruction
    /// Index into the out-of-line payload pool; kNoPayload for lookups.
    std::vector<std::uint32_t> payload;

    [[nodiscard]] std::size_t size() const noexcept { return uid.size(); }
    void grow_one();
  };
  /// Out-of-line KV payloads (kKvPut / kKvGet); pooled and recycled like
  /// slots so routing never walks over string storage.
  struct KvPayload {
    std::string key, value;
  };

  std::uint64_t submit(RequestKind kind, RingPos key, std::uint32_t origin,
                       std::string kv_key, std::string kv_value);
  [[nodiscard]] std::uint32_t alloc_slot();
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t owner) const noexcept {
    return owner % static_cast<std::uint32_t>(shards_.size());
  }
  void park(std::uint32_t owner, std::uint32_t slot) {
    shards_[shard_of(owner)].parked.emplace_back(owner, slot);
  }

  // -- parallel phase (per shard; reads engine state, writes only this
  // shard's slots and outputs) ----------------------------------------------
  void process_shard(Shard& sh);
  void deliver(Shard& sh, std::uint32_t slot);
  void bounce(Shard& sh, std::uint32_t slot, Obstruction obs);
  /// Custody owner died holding the request: fail over to the origin (or
  /// fail the request when the origin is gone too).
  void custody_failover(Shard& sh, std::uint32_t slot);
  void advance_parked(Shard& sh);
  /// Routes one parked request against the position-sorted cached row of
  /// its custody owner: binary searches around the key instead of a linear
  /// scan, selecting exactly the neighbor the scan would select.
  void route_at_owner(Shard& sh, const NbrRow& row, std::uint32_t slot,
                      RingPos cur);
  /// The per-request-walk baseline (PR 5's routing step, preserved): a
  /// fresh owner-id edge scan for THIS request, then the linear two-pass
  /// selection with per-neighbor position lookups. Must pick the same hop
  /// as route_at_owner -- the lockstep tests hold the two algorithms
  /// bit-identical on randomized topologies.
  void route_walk(Shard& sh, std::uint32_t slot, std::uint32_t owner,
                  RingPos cur);
  void launch_hop(Shard& sh, std::uint32_t slot, std::uint32_t next);
  /// Trace hook: the request found no usable next hop this round (stale
  /// routing row) and waits parked. No-op unless tracing is on.
  void note_stuck(Shard& sh, std::uint32_t slot) {
    if (tracing_)
      sh.trace.push_back({round_, slots_.uid[slot], slots_.custody[slot], 0,
                          0, 0, util::TraceKind::kReqStuck});
  }
  /// Scans the owner's live slots' unmarked/ring edges into `out`,
  /// position-sorted.
  void build_row(NbrRow& out, std::uint32_t owner) const;
  /// The owner's routing row through the shard's version-stamped cache.
  const NbrRow& owner_row(Shard& sh, std::uint32_t owner);

  // -- serial merge ---------------------------------------------------------
  void merge_round();
  void finish(std::uint32_t slot, RequestStatus status);
  /// Records / checks the monotonic-searchability ledger for a completing
  /// search (kLookup, kKvGet).
  void mono_resolved(RingPos key, std::uint32_t result);
  void mono_unresolved(RingPos key, std::uint32_t origin);
  void prune_mono_ledger();
  void free_slot(std::uint32_t slot);
  [[nodiscard]] std::uint64_t hop_hash(std::uint64_t id, std::uint32_t attempt,
                                       std::uint64_t salt) const noexcept;

  core::Engine& engine_;
  RequestOptions opt_;
  dht::KvStore* kv_ = nullptr;
  std::uint64_t round_ = 0;  // engine round the current on_round reacts to
  /// Tracer enablement, latched once per round before the parallel phase
  /// (workers read it concurrently; written only from serial code).
  bool tracing_ = false;

  SlotArrays slots_;
  std::vector<KvPayload> payloads_;
  std::vector<std::uint32_t> payload_free_;
  std::vector<std::uint32_t> slot_free_;
  std::uint64_t next_uid_ = 0;
  std::size_t outstanding_ = 0;
  /// uid -> slot for OUTSTANDING requests only (custody_of instrumentation);
  /// never iterated, so the unordered layout cannot leak into outcomes.
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_uid_;

  std::vector<Shard> shards_;

  /// Monotonic-searchability ledger: key -> (last resolution round, owner).
  /// Hashed: the merge looks keys up once per completion, and the one pass
  /// that walks it (prune_mono_ledger) orders entries by (round, key)
  /// itself, so the unordered layout cannot leak into outcomes.
  struct MonoEntry {
    std::uint64_t round = 0;
    std::uint32_t owner = 0;
  };
  std::unordered_map<RingPos, MonoEntry> mono_;
  std::deque<RequestRecord> completions_;
  std::uint64_t completions_dropped_ = 0;
  RequestTotals totals_;
};

}  // namespace rechord::net
