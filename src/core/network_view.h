// NetworkView: one read interface over the two topology backends — a
// live, mutable Network and a frozen TopologySnapshot. It is a cheap
// value type (two pointers) constructed implicitly from either backend,
// so every read-side consumer (routers, steppers, samplers, size
// estimators, structural metrics) takes one parameter type and runs
// unchanged against a growing network or a shared snapshot.
//
// Both backends expose the same flat read surface (keys_data,
// alive_data, caps_data, ring_pos, OutLinks/InLinks rows, the shared
// Ring), so the hot kernels — the random walk, the greedy and
// backtracking steps, the gap-span loop — are templates over the
// backend type, written once. Visit() hands such a kernel the concrete
// backend, picking it once per walk or route rather than once per
// read; the convenience accessors below dispatch per call and suit
// cold paths.
//
// A view does not own its backend: it is valid only while the Network
// or TopologySnapshot it was built from is alive, and reads through a
// view of a Network observe mutations immediately (exactly like the
// const Network& parameters it replaces).

#ifndef OSCAR_CORE_NETWORK_VIEW_H_
#define OSCAR_CORE_NETWORK_VIEW_H_

#include <optional>
#include <vector>

#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"
#include "core/topology_snapshot.h"

namespace oscar {

/// Invokes fn(candidate) for every routing neighbor of `id` on either
/// backend: ring successor, predecessor when distinct (both alive),
/// then the long out-link row in stored order (possibly dead). Routers
/// are order-sensitive, so this is the one definition of that order.
template <typename Backend, typename Fn>
inline void ForEachNeighbor(const Backend& topo, PeerId id, Fn&& fn) {
  const Ring& ring = topo.ring();
  const size_t rn = ring.size();
  const uint32_t pos = topo.ring_pos(id);
  if (rn >= 2 && pos != Network::kNotOnRing) {
    const PeerId succ = ring.at((pos + 1) % rn).id;
    const PeerId pred = ring.at((pos + rn - 1) % rn).id;
    fn(succ);
    if (pred != succ) fn(pred);
  }
  for (PeerId target : topo.OutLinks(id)) fn(target);
}

/// The undirected gossip neighborhood of `id`: routing neighbors plus
/// the peers holding long links TO `id`. Random walks use this
/// symmetric view — walking only out-links concentrates the stationary
/// distribution on already-popular peers.
template <typename Backend, typename Fn>
inline void ForEachWalkNeighbor(const Backend& topo, PeerId id, Fn&& fn) {
  ForEachNeighbor(topo, id, fn);
  for (PeerId source : topo.InLinks(id)) fn(source);
}

class NetworkView {
 public:
  // Implicit by design: every `const Network&` read signature upgraded
  // to NetworkView keeps its call sites source-compatible.
  NetworkView(const Network& net) : net_(&net) {}           // NOLINT
  NetworkView(const TopologySnapshot& snap) : snap_(&snap) {}  // NOLINT

  /// Calls fn(backend) with the concrete `const Network&` or `const
  /// TopologySnapshot&` and returns its result (both instantiations
  /// must return the same type). The once-per-walk/route dispatch point
  /// for the backend-templated kernels.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return net_ != nullptr ? fn(*net_) : fn(*snap_);
  }

  size_t size() const { return net_ ? net_->size() : snap_->size(); }
  size_t alive_count() const { return ring().size(); }
  const Ring& ring() const { return net_ ? net_->ring() : snap_->ring(); }

  KeyId key(PeerId id) const {
    return net_ ? net_->key(id) : snap_->key(id);
  }
  bool alive(PeerId id) const {
    return net_ ? net_->alive(id) : snap_->alive(id);
  }
  DegreeCaps caps(PeerId id) const {
    return net_ ? net_->caps(id) : snap_->caps(id);
  }

  /// Long out-links of `id` in stored order (may dangle to dead peers).
  PeerSpan OutLinks(PeerId id) const {
    return net_ ? net_->OutLinks(id) : snap_->OutLinks(id);
  }
  /// Alive peers holding a long link to `id`.
  PeerSpan InLinks(PeerId id) const {
    return net_ ? net_->InLinks(id) : snap_->InLinks(id);
  }

  /// Ring position of `id` (Network::kNotOnRing when dead).
  uint32_t ring_pos(PeerId id) const {
    return net_ ? net_->ring_pos(id) : snap_->ring_pos(id);
  }

  std::optional<PeerId> OwnerOf(KeyId target) const {
    return ring().OwnerOf(target);
  }
  std::optional<PeerId> SuccessorOf(PeerId id) const {
    return net_ ? net_->SuccessorOf(id) : snap_->SuccessorOf(id);
  }
  std::optional<PeerId> PredecessorOf(PeerId id) const {
    return net_ ? net_->PredecessorOf(id) : snap_->PredecessorOf(id);
  }

  /// Alive peers in ring (clockwise key) order — composed from the
  /// shared ring index rather than dispatched per backend.
  std::vector<PeerId> AlivePeers() const {
    std::vector<PeerId> out;
    out.reserve(ring().size());
    for (const Ring::Entry& entry : ring().entries()) out.push_back(entry.id);
    return out;
  }

  /// Appends ForEachNeighbor's / ForEachWalkNeighbor's enumeration of
  /// `id` — the exact sequence the step and walk kernels iterate.
  void AppendNeighbors(PeerId id, std::vector<PeerId>* out) const {
    Visit([&](const auto& topo) {
      ForEachNeighbor(topo, id, [out](PeerId n) { out->push_back(n); });
    });
  }
  void AppendWalkNeighbors(PeerId id, std::vector<PeerId>* out) const {
    Visit([&](const auto& topo) {
      ForEachWalkNeighbor(topo, id, [out](PeerId n) { out->push_back(n); });
    });
  }

 private:
  const Network* net_ = nullptr;
  const TopologySnapshot* snap_ = nullptr;
};

}  // namespace oscar

#endif  // OSCAR_CORE_NETWORK_VIEW_H_
