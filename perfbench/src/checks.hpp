#pragma once
// The benchmark's views of a live network and its fixpoint check, shared by
// the benchmark driver and the oracle self-tests. The views read the
// network's raw state (live slots, edge sets, positions) and hand it to the
// oracles in oracles.hpp.

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/spec.hpp"
#include "oracles.hpp"

namespace perfbench {

/// The protocol's exact fixpoint for the given identifiers, materialized
/// from StableSpec without running the protocol.
inline rechord::core::Network materialize_fixpoint(
    const std::vector<rechord::core::RingPos>& ids) {
  using namespace rechord::core;
  Network net{std::span<const RingPos>(ids)};
  const auto spec = StableSpec::compute(net);
  for (const Slot s : spec.nodes_in_order()) net.set_alive(s, true);
  for (const Slot s : spec.nodes_in_order()) {
    for (const Slot t : spec.eu(s)) net.add_edge(s, EdgeKind::kUnmarked, t);
    for (const Slot t : spec.er(s)) net.add_edge(s, EdgeKind::kRing, t);
    for (const Slot t : spec.ec(s)) net.add_edge(s, EdgeKind::kConnection, t);
    net.set_rl(s, spec.rl(s));
    net.set_rr(s, spec.rr(s));
  }
  return net;
}

/// The live peers as a sorted (position, owner) ring.
inline Ring live_ring(const rechord::core::Network& net) {
  Ring ring;
  for (const std::uint32_t o : net.live_owners())
    ring.push_back({net.owner_pos(o), o});
  return sorted_ring(std::move(ring));
}

/// Owner-to-owner edges of the real projection (paper §2.2): (u, v) for
/// every unmarked or ring edge from any live slot of u to v's real slot.
inline EdgeList projection_edges(const rechord::core::Network& net) {
  using namespace rechord::core;
  EdgeList edges;
  for (const Slot s : net.live_slots())
    for (const EdgeKind k : {EdgeKind::kUnmarked, EdgeKind::kRing})
      for (const Slot t : net.edges(s, k))
        if (is_real_slot(t) && net.alive(t) && owner_of(t) != owner_of(s))
          edges.push_back(edge_code(owner_of(s), owner_of(t)));
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// What is wrong with a state the engine reported as its fixpoint; empty
/// when nothing is. `one_more_round` runs one round (with the request
/// engine, when one is bound). Checks, in order: the extra round changes
/// nothing, the state is exactly StableSpec's, and the real projection
/// holds every Chord edge Fact 2.1 provably places there.
inline std::string fixpoint_defect(
    rechord::core::Engine& engine,
    const std::function<rechord::core::RoundMetrics()>& one_more_round) {
  using namespace rechord::core;
  const auto before = engine.network().serialize_state();
  const RoundMetrics m = one_more_round();
  if (m.changed || engine.network().serialize_state() != before)
    return "one more round changed the state";
  if (std::string why; !StableSpec::compute(engine.network())
                            .exact_match(engine.network(), &why))
    return "not the exact StableSpec fixpoint: " + why;
  if (const std::size_t missing =
          missing_edges(required_chord_edges(live_ring(engine.network())),
                        projection_edges(engine.network()));
      missing != 0)
    return std::to_string(missing) + " Chord edges missing from the projection";
  return {};
}

}  // namespace perfbench
