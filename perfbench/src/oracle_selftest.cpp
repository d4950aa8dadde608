// Self-tests of the benchmark's oracles (oracles.hpp, checks.hpp): each
// oracle agrees with an independent computation on small inputs, and each
// check rejects a deliberately wrong input. run.py runs this before every
// benchmark run; exit code 0 means every test passed.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "checks.hpp"
#include "chord/ideal_chord.hpp"
#include "gen/topologies.hpp"
#include "ident/hashing.hpp"
#include "util/rng.hpp"

using namespace rechord;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

perfbench::Ring random_ring(util::Rng& rng, std::size_t n) {
  std::set<std::uint64_t> pos;
  // Mix in the extremes of the identifier space, where wrapping happens.
  if (rng.below(4) == 0) pos.insert(0);
  if (rng.below(4) == 0) pos.insert(~std::uint64_t{0});
  while (pos.size() < n) pos.insert(rng.next());
  perfbench::Ring ring;
  std::uint32_t owner = 0;
  for (const std::uint64_t p : pos) ring.push_back({p, owner++});
  return perfbench::sorted_ring(std::move(ring));
}

// The responsible-owner oracle against brute force, and the lookup check's
// rejection of both neighbours of the right owner.
void test_responsible_owner() {
  util::Rng rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    const perfbench::Ring ring = random_ring(rng, 1 + rng.below(40));
    std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}, rng.next()};
    for (const auto& [p, o] : ring) keys.insert(keys.end(), {p, p - 1, p + 1});
    for (const std::uint64_t key : keys) {
      const std::uint32_t got = perfbench::responsible_owner(ring, key);
      expect(got == perfbench::responsible_owner_brute(ring, key),
             "responsible_owner disagrees with brute force");
      if (ring.size() < 3) continue;
      std::size_t i = 0;
      while (ring[i].second != got) ++i;
      const std::uint32_t before = ring[(i + ring.size() - 1) % ring.size()].second;
      const std::uint32_t after = ring[(i + 1) % ring.size()].second;
      expect(!perfbench::lookup_ok(ring, key, before) &&
                 !perfbench::lookup_ok(ring, key, after) &&
                 perfbench::lookup_ok(ring, key, got),
             "lookup check accepts an off-by-one owner");
    }
  }
}

// KV keys are placed where the program's consistent hash puts them.
void test_key_position() {
  for (const char* name : {"", "a", "key-0", "key-67071", "some longer key"})
    expect(perfbench::key_position(name) == ident::hash_name(name),
           std::string("key_position differs from hash_name for '") + name +
               "'");
}

// The required Chord edges equal the non-seam successor and non-wrapping
// finger edges of the program's ideal Chord graph, computed independently.
void test_chord_edges_match_ideal_chord() {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const perfbench::Ring ring = random_ring(rng, 2 + rng.below(60));
    std::vector<core::RingPos> ids;
    for (const auto& [p, o] : ring) ids.push_back(p);  // owner == index
    const auto g = chord::ChordGraph::compute(ids);
    perfbench::EdgeList ideal;
    for (std::uint32_t v = 0; v < ids.size(); ++v)
      if (g.pos[g.succ[v]] > g.pos[v])
        ideal.push_back(perfbench::edge_code(v, g.succ[v]));
    for (const chord::Finger& f : g.fingers)
      if (!f.wrapped) ideal.push_back(perfbench::edge_code(f.from, f.to));
    std::sort(ideal.begin(), ideal.end());
    ideal.erase(std::unique(ideal.begin(), ideal.end()), ideal.end());
    expect(perfbench::required_chord_edges(ring) == ideal,
           "required_chord_edges differs from the ideal Chord graph");
  }
}

// The fixpoint check passes a materialized fixpoint and rejects it once a
// successor edge is removed.
void test_fixpoint_check() {
  util::Rng rng(9);
  const auto ids = gen::random_ids(rng, 64);
  {
    core::Engine engine(perfbench::materialize_fixpoint(ids));
    const std::string defect =
        perfbench::fixpoint_defect(engine, [&] { return engine.step(); });
    expect(defect.empty(), "fixpoint check rejects a real fixpoint: " + defect);
  }
  // Remove every unmarked/ring edge by which the smallest peer reaches its
  // successor.
  core::Network net = perfbench::materialize_fixpoint(ids);
  const perfbench::Ring ring = perfbench::live_ring(net);
  const std::uint32_t u = ring[0].second, succ = ring[1].second;
  const core::Slot target = core::slot_of(succ, 0);
  for (const core::Slot s : net.live_slots_of(u))
    for (const core::EdgeKind k :
         {core::EdgeKind::kUnmarked, core::EdgeKind::kRing})
      net.remove_edge(s, k, target);
  expect(perfbench::missing_edges(perfbench::required_chord_edges(ring),
                                  perfbench::projection_edges(net)) >= 1,
         "Chord check misses a removed successor edge");
  core::Engine engine(std::move(net));
  expect(!perfbench::fixpoint_defect(engine, [&] { return engine.step(); })
              .empty(),
         "fixpoint check accepts a state with a removed successor edge");
}

// The KV model accepts exactly the value last put.
void test_kv_model() {
  perfbench::KvModel model(4);
  const std::string v1 = "v1", v2 = "v2";
  expect(model.get_ok(0, false, nullptr), "miss before any put rejected");
  expect(!model.get_ok(0, true, &v1), "hit before any put accepted");
  model.put(0, v1);
  model.put(0, v2);
  expect(model.get_ok(0, true, &v2), "last value rejected");
  expect(!model.get_ok(0, true, &v1), "stale value accepted");
  expect(!model.get_ok(0, false, nullptr), "miss after a put accepted");
  expect(!model.get_ok(1, true, &v2), "other key's value accepted");
}

}  // namespace

int main() {
  test_responsible_owner();
  test_key_position();
  test_chord_edges_match_ideal_chord();
  test_fixpoint_check();
  test_kv_model();
  std::printf("oracle self-tests: %s\n", failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}
