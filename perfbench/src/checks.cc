#include "checks.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/string_util.h"

namespace perfbench {

using oscar::StrCat;

namespace {

constexpr uint32_t kNoPos = UINT32_MAX;

std::string CheckOrdered(const std::string& what, double p50, double p99,
                         double max) {
  if (!(p50 <= p99 && p99 <= max)) {
    return StrCat(what, ": percentiles out of order (p50=", p50,
                  " p99=", p99, " max=", max, ")");
  }
  return "";
}

std::string CheckServeCell(const oscar::ServeCellReport& c,
                           size_t lookups) {
  const std::string where =
      StrCat("serve cell rate=", c.offered_per_s, " policy=", c.policy);
  if (c.submitted != lookups) {
    return StrCat(where, ": submitted ", c.submitted, " of ", lookups);
  }
  if (c.submitted != c.admitted + c.dropped) {
    return StrCat(where, ": submitted ", c.submitted, " != admitted ",
                  c.admitted, " + dropped ", c.dropped);
  }
  if (c.admitted != c.completed + c.shed) {
    return StrCat(where, ": admitted ", c.admitted, " != completed ",
                  c.completed, " + shed ", c.shed);
  }
  if (c.succeeded > c.completed) {
    return StrCat(where, ": succeeded ", c.succeeded, " > completed ",
                  c.completed);
  }
  return CheckOrdered(where, c.latency.p50_ms, c.latency.p99_ms,
                      c.latency.max_ms);
}

}  // namespace

TopologyModel TopologyModel::FromSnapshot(const oscar::TopologySnapshot& snap) {
  TopologyModel m;
  const size_t n = snap.size();
  m.keys.resize(n);
  m.alive.resize(n);
  m.max_in.resize(n);
  m.max_out.resize(n);
  m.out.resize(n);
  m.in_links.resize(n);
  for (PeerId id = 0; id < n; ++id) {
    m.keys[id] = snap.key(id).raw;
    m.alive[id] = snap.alive(id) ? 1 : 0;
    m.max_in[id] = snap.caps(id).max_in;
    m.max_out[id] = snap.caps(id).max_out;
    const oscar::PeerSpan out = snap.OutLinks(id);
    m.out[id].assign(out.begin(), out.end());
    m.in_links[id] = snap.InLinks(id).size();
  }
  for (const oscar::Ring::Entry& e : snap.ring().entries()) {
    m.snapshot_ring.emplace_back(e.key_raw, e.id);
  }
  for (PeerId id = 0; id < n; ++id) {
    if (m.alive[id]) m.ring.push_back(id);
  }
  std::sort(m.ring.begin(), m.ring.end(), [&m](PeerId a, PeerId b) {
    return m.keys[a] != m.keys[b] ? m.keys[a] < m.keys[b] : a < b;
  });
  m.ring_pos.assign(n, kNoPos);
  for (size_t i = 0; i < m.ring.size(); ++i) {
    m.ring_pos[m.ring[i]] = static_cast<uint32_t>(i);
  }
  return m;
}

bool TopologyModel::IsEdge(PeerId a, PeerId b) const {
  if (a >= size() || b >= size()) return false;
  const std::vector<PeerId>& links = out[a];
  if (std::find(links.begin(), links.end(), b) != links.end()) return true;
  const uint32_t pa = ring_pos[a];
  const uint32_t pb = ring_pos[b];
  if (pa == kNoPos || pb == kNoPos || ring.size() < 2) return false;
  const size_t r = ring.size();
  return pb == (pa + 1) % r || pb == (pa + r - 1) % r;
}

PeerId TopologyModel::OwnerByScan(uint64_t key) const {
  PeerId best = 0;
  uint64_t best_dist = UINT64_MAX;
  bool best_cw = false;
  bool found = false;
  for (PeerId id = 0; id < size(); ++id) {
    if (!alive[id]) continue;
    const uint64_t cw = keys[id] - key;   // key -> peer, clockwise.
    const uint64_t ccw = key - keys[id];  // key -> peer, counter-clockwise.
    const bool is_cw = cw <= ccw;
    const uint64_t dist = is_cw ? cw : ccw;
    bool better = !found || dist < best_dist;
    if (found && dist == best_dist) {
      if (is_cw != best_cw) {
        better = is_cw;  // The clockwise side wins a tie.
      } else {
        // Equal keys: the ring's lower bound picks the lowest id on the
        // clockwise side and the last (highest) id on the other.
        better = is_cw ? id < best : id > best;
      }
    }
    if (better) {
      best = id;
      best_dist = dist;
      best_cw = is_cw;
      found = true;
    }
  }
  return best;
}

std::string CheckSameTopology(const TopologyModel& a,
                              const TopologyModel& b) {
  if (a.size() != b.size()) {
    return StrCat("topology: ", a.size(), " peers against ", b.size());
  }
  for (PeerId id = 0; id < a.size(); ++id) {
    if (a.keys[id] != b.keys[id] || a.alive[id] != b.alive[id] ||
        a.max_in[id] != b.max_in[id] || a.max_out[id] != b.max_out[id] ||
        a.out[id] != b.out[id]) {
      return StrCat("topology: peer ", id, " differs between the freezes");
    }
  }
  return "";
}

std::string CheckGrowth(const TopologyModel& m) {
  std::vector<uint64_t> in_degree(m.size(), 0);
  size_t alive = 0;
  for (PeerId id = 0; id < m.size(); ++id) {
    if (!m.alive[id]) continue;
    ++alive;
    if (m.out[id].size() > m.max_out[id]) {
      return StrCat("growth: peer ", id, " holds ", m.out[id].size(),
                    " out-links over its budget ", m.max_out[id]);
    }
    for (PeerId to : m.out[id]) {
      if (to == id) return StrCat("growth: peer ", id, " links to itself");
      if (to >= m.size() || !m.alive[to]) {
        return StrCat("growth: peer ", id, " links to dead peer ", to);
      }
      ++in_degree[to];
    }
  }
  for (PeerId id = 0; id < m.size(); ++id) {
    if (!m.alive[id]) continue;
    if (in_degree[id] > m.max_in[id]) {
      return StrCat("growth: peer ", id, " has in-degree ", in_degree[id],
                    " over its cap ", m.max_in[id]);
    }
    if (in_degree[id] != m.in_links[id]) {
      return StrCat("growth: peer ", id, " in-link row holds ",
                    m.in_links[id], " links but ", in_degree[id],
                    " peers link to it");
    }
  }
  if (m.snapshot_ring.size() != alive) {
    return StrCat("growth: ring holds ", m.snapshot_ring.size(),
                  " peers but ", alive, " are alive");
  }
  for (size_t i = 0; i < m.snapshot_ring.size(); ++i) {
    const auto& [key, id] = m.snapshot_ring[i];
    if (i > 0 && key < m.snapshot_ring[i - 1].first) {
      return StrCat("growth: ring keys not sorted at position ", i);
    }
    if (id >= m.size() || !m.alive[id] || m.keys[id] != key) {
      return StrCat("growth: ring entry ", i, " does not match peer ", id);
    }
  }
  return "";
}

double GiniFromModel(const TopologyModel& m) {
  std::vector<uint64_t> in_degree(m.size(), 0);
  for (PeerId id = 0; id < m.size(); ++id) {
    if (!m.alive[id]) continue;
    for (PeerId to : m.out[id]) {
      if (to < m.size() && m.alive[to]) ++in_degree[to];
    }
  }
  std::vector<double> load;
  for (PeerId id = 0; id < m.size(); ++id) {
    if (!m.alive[id] || m.max_in[id] == 0) continue;
    load.push_back(static_cast<double>(in_degree[id]) / m.max_in[id]);
  }
  if (load.size() < 2) return 0.0;
  std::sort(load.begin(), load.end());
  double total = 0.0;
  for (double x : load) total += x;
  if (total <= 0.0) return 0.0;
  // One minus twice the area under the Lorenz curve (trapezoids).
  double area = 0.0;
  double cumulative = 0.0;
  const double n = static_cast<double>(load.size());
  for (double x : load) {
    const double before = cumulative / total;
    cumulative += x;
    area += (before + cumulative / total) / (2.0 * n);
  }
  return 1.0 - 2.0 * area;
}

std::string CheckGini(const TopologyModel& m, double reported) {
  const double mine = GiniFromModel(m);
  if (!(std::fabs(mine - reported) <= 1e-9 * std::max(1.0, mine))) {
    return StrCat("gini: program reports ", reported,
                  " but the topology gives ", mine);
  }
  return "";
}

std::string CheckRoute(const TopologyModel& m, PeerId source, uint64_t key,
                       const oscar::RouteResult& route) {
  const PeerId owner = m.OwnerByScan(key);
  if (!route.success || route.terminal != owner) {
    return StrCat("route from ", source, ": ended at ", route.terminal,
                  route.success ? "" : " (failed)", " but the owner is ",
                  owner);
  }
  if (route.path.empty() || route.path.front() != source ||
      route.path.back() != route.terminal) {
    return StrCat("route from ", source, ": path does not run from the "
                  "source to the terminal");
  }
  for (size_t i = 1; i < route.path.size(); ++i) {
    if (!m.IsEdge(route.path[i - 1], route.path[i])) {
      return StrCat("route from ", source, ": step ", route.path[i - 1],
                    " -> ", route.path[i], " is not an edge");
    }
  }
  return "";
}

std::string CheckServeReport(const oscar::ServeReport& r, size_t lookups) {
  if (r.routed != lookups) {
    return StrCat("serve: routed ", r.routed, " of ", lookups);
  }
  if (std::string e = CheckOrdered("serve service time", r.service.p50_ms,
                                   r.service.p99_ms, r.service.max_ms);
      !e.empty()) {
    return e;
  }
  size_t total = 0;
  for (const oscar::ServeCellReport& cell : r.cells) {
    if (std::string e = CheckServeCell(cell, lookups); !e.empty()) return e;
    total += cell.submitted;
  }
  if (total != r.total_submitted) {
    return StrCat("serve: cells submitted ", total, " but the report says ",
                  r.total_submitted);
  }
  return "";
}

std::string CheckSimReport(const oscar::ScenarioResult& result,
                           size_t lookups) {
  const oscar::MessageSimReport& r = result.report;
  const std::string where = StrCat("scenario ", result.name);
  if (r.submitted != lookups || r.completed != r.submitted) {
    return StrCat(where, ": completed ", r.completed, " of ", r.submitted,
                  " submitted (", lookups, " asked)");
  }
  if (r.succeeded > r.completed) {
    return StrCat(where, ": delivered ", r.succeeded, " > completed ",
                  r.completed);
  }
  const double hops = r.mean_hops * static_cast<double>(r.completed);
  if (static_cast<double>(r.messages_sent) + 0.5 < hops) {
    return StrCat(where, ": ", r.messages_sent, " messages sent for ", hops,
                  " hops");
  }
  return CheckOrdered(where, r.latency.p50_ms, r.latency.p99_ms,
                      r.latency.max_ms);
}

std::string CheckTrace(const oscar::TraceContents& trace,
                       uint64_t events_written,
                       const oscar::MessageSimReport& report,
                       const TopologyModel& model) {
  if (trace.records.size() != events_written) {
    return StrCat("trace: decoded ", trace.records.size(),
                  " events but the writer counted ", events_written);
  }
  size_t done = 0;
  size_t failed = 0;
  for (const oscar::TraceRecord& record : trace.records) {
    const oscar::TraceEvent& e = record.event;
    if (e.kind == oscar::TraceKind::kDone) ++done;
    if (e.kind == oscar::TraceKind::kFailed) ++failed;
    if (e.kind == oscar::TraceKind::kForward && !model.IsEdge(e.peer, e.to)) {
      return StrCat("trace: forward ", e.peer, " -> ", e.to,
                    " is not an edge of the topology");
    }
  }
  if (done != report.succeeded || failed != report.completed -
                                                report.succeeded) {
    return StrCat("trace: ", done, " done and ", failed,
                  " failed events but the report has ", report.succeeded,
                  " delivered of ", report.completed);
  }
  return "";
}

std::string CheckTraceFile(const std::string& path, uint64_t events_written,
                           const oscar::MessageSimReport& report,
                           const TopologyModel& model) {
  auto trace = oscar::ReadTraceFile(path);
  if (!trace.ok()) {
    return StrCat("trace: ", path, " does not decode: ",
                  trace.status().message());
  }
  return CheckTrace(trace.value(), events_written, report, model);
}

}  // namespace perfbench
