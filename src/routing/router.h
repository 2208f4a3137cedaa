// Router strategy interface. A route targets a key; it succeeds when it
// reaches the alive peer that owns the key. Probes to crashed neighbors
// and backtracking moves are charged as `wasted` traffic so the churn
// figures can report cost including wasted messages.
//
// Routes read the topology through NetworkView (a `const Network&`), so
// the same algorithm runs against a live Network or a frozen
// TopologySnapshot.

#ifndef OSCAR_ROUTING_ROUTER_H_
#define OSCAR_ROUTING_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/network_view.h"

namespace oscar {

struct RouteResult {
  bool success = false;
  uint32_t hops = 0;    // Forwarding steps actually taken.
  uint32_t wasted = 0;  // Dead probes + backtracking moves.
  PeerId terminal = 0;  // Peer where the route ended.
  std::vector<PeerId> path;  // Visited peers, source first.

  /// Total message cost, the quantity the paper's figures plot.
  double Cost() const { return static_cast<double>(hops) + wasted; }
};

class Router {
 public:
  virtual ~Router() = default;
  virtual RouteResult Route(NetworkView net, PeerId source,
                            KeyId target) const = 0;
  virtual std::string name() const = 0;
};

}  // namespace oscar

#endif  // OSCAR_ROUTING_ROUTER_H_
