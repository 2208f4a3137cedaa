// Correctness checks of the benchmark, computed apart from the code
// under test: a plain reference model of a frozen topology (key list,
// link lists, a ring built by sorting), an owner found by a linear scan,
// a Gini recomputed from the Lorenz curve, and conservation laws over
// the reports the program returns. Every check returns an empty string
// when it passes and a one-line reason when it rejects.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/topology_snapshot.h"
#include "routing/router.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "trace/trace_reader.h"

namespace perfbench {

using oscar::PeerId;

/// Plain-vector copy of a frozen topology, read through the snapshot's
/// public accessors, plus a ring built here by sorting alive keys.
struct TopologyModel {
  std::vector<uint64_t> keys;
  std::vector<uint8_t> alive;
  std::vector<uint32_t> max_in;
  std::vector<uint32_t> max_out;
  std::vector<std::vector<PeerId>> out;  // Long out-links, stored order.
  std::vector<size_t> in_links;          // In-link rows as frozen.
  /// The snapshot's own ring, in its stored order (checked, not trusted).
  std::vector<std::pair<uint64_t, PeerId>> snapshot_ring;
  /// Alive peers sorted by (key, id): the model's own ring.
  std::vector<PeerId> ring;
  std::vector<uint32_t> ring_pos;  // Index into `ring`, or UINT32_MAX.

  static TopologyModel FromSnapshot(const oscar::TopologySnapshot& snap);
  size_t size() const { return keys.size(); }
  /// True when b is a long out-link of a, or a's ring neighbour.
  bool IsEdge(PeerId a, PeerId b) const;
  /// Owner of `key` by a scan over every alive peer: the smallest ring
  /// distance wins, the clockwise side wins a tie.
  PeerId OwnerByScan(uint64_t key) const;
};

/// Two freezes of one growth (e.g. GrowScenarioTopology and a growth
/// driven step by step) hold the same peers, caps and links.
std::string CheckSameTopology(const TopologyModel& a, const TopologyModel& b);

/// Degree budgets and caps, no self or dead links, ring sorted and equal
/// to the alive set.
std::string CheckGrowth(const TopologyModel& model);

/// Gini of realized / offered in-degree over alive peers with a nonzero
/// cap, from the model's own in-degree counts.
double GiniFromModel(const TopologyModel& model);
std::string CheckGini(const TopologyModel& model, double reported);

/// A lookup over an intact topology ends, successfully, at the scanned
/// owner, and every step of its path is an edge of the topology.
std::string CheckRoute(const TopologyModel& model, PeerId source,
                       uint64_t key, const oscar::RouteResult& route);

/// Every lookup routed, and in every sweep cell submitted = lookups =
/// admitted + dropped, admitted = completed + shed, succeeded <=
/// completed and p50 <= p99 <= max.
std::string CheckServeReport(const oscar::ServeReport& report,
                             size_t lookups);

/// completed = submitted = lookups, delivered <= completed, messages
/// sent >= total hops, p50 <= p99 <= max.
std::string CheckSimReport(const oscar::ScenarioResult& result,
                           size_t lookups);

/// Decoded `.otrace` against the writer's count, the report's done and
/// failed counts, and the topology the replay routed over.
std::string CheckTrace(const oscar::TraceContents& trace,
                       uint64_t events_written,
                       const oscar::MessageSimReport& report,
                       const TopologyModel& model);
/// As above, decoding `path` first; a file that does not decode fails.
std::string CheckTraceFile(const std::string& path, uint64_t events_written,
                           const oscar::MessageSimReport& report,
                           const TopologyModel& model);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
