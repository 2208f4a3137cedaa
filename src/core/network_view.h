// NetworkView: the read-side parameter type of every consumer (routers,
// steppers, samplers, size estimators, structural metrics). There is
// one topology layout — a live Network, and a TopologySnapshot that is
// a frozen copy of one and converts to `const Network&` — so a view is
// simply a const reference: the walk, step and gap-span kernels are
// plain functions over it and run unchanged against a growing network
// or a shared snapshot.
//
// A view does not own its network: it is valid only while the Network
// or TopologySnapshot it was bound to is alive, and reads through a
// view of a live Network observe mutations immediately.

#ifndef OSCAR_CORE_NETWORK_VIEW_H_
#define OSCAR_CORE_NETWORK_VIEW_H_

#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"
#include "core/topology_snapshot.h"

namespace oscar {

using NetworkView = const Network&;

/// Invokes fn(candidate) for every routing neighbor of `id`: ring
/// successor, predecessor when distinct (both alive), then the long
/// out-link row in stored order (possibly dead). Routers are
/// order-sensitive, so this is the one definition of that order.
template <typename Fn>
inline void ForEachNeighbor(NetworkView net, PeerId id, Fn&& fn) {
  const Ring& ring = net.ring();
  const size_t rn = ring.size();
  const uint32_t pos = net.ring_pos(id);
  if (rn >= 2 && pos != Network::kNotOnRing) {
    const PeerId succ = ring.at((pos + 1) % rn).id;
    const PeerId pred = ring.at((pos + rn - 1) % rn).id;
    fn(succ);
    if (pred != succ) fn(pred);
  }
  for (PeerId target : net.OutLinks(id)) fn(target);
}

/// The undirected gossip neighborhood of `id`: routing neighbors plus
/// the peers holding long links TO `id`. Random walks use this
/// symmetric view — walking only out-links concentrates the stationary
/// distribution on already-popular peers.
template <typename Fn>
inline void ForEachWalkNeighbor(NetworkView net, PeerId id, Fn&& fn) {
  ForEachNeighbor(net, id, fn);
  for (PeerId source : net.InLinks(id)) fn(source);
}

}  // namespace oscar

#endif  // OSCAR_CORE_NETWORK_VIEW_H_
