// Self-tests of the benchmark's checks: each check must accept a real
// output of the program and reject a deliberately corrupted copy.
//
//   perfbench_selftest [scratch-dir]
//
// Prints one PASS/FAIL line per case; exits 1 if any case fails.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "metrics/degree_metrics.h"
#include "routing/greedy_router.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "trace/columnar_trace.h"
#include "trace/trace_reader.h"

namespace {

using perfbench::PeerId;
using perfbench::TopologyModel;

int failures = 0;

/// `accepted` is the check on the true input, `rejected` on the
/// corrupted one.
void Expect(const std::string& name, const std::string& accepted,
            const std::string& rejected) {
  const bool ok = accepted.empty() && !rejected.empty();
  std::cout << (ok ? "PASS " : "FAIL ") << name;
  if (!accepted.empty()) {
    std::cout << " (true input rejected: " << accepted << ")";
  }
  if (rejected.empty()) std::cout << " (corrupted input accepted)";
  if (ok) std::cout << " (rejects: " << rejected << ")";
  std::cout << "\n";
  if (!ok) ++failures;
}

/// A peer that is neither a long link nor a ring neighbour of `from`.
PeerId NonNeighbour(const TopologyModel& m, PeerId from) {
  for (PeerId id : m.ring) {
    if (id != from && !m.IsEdge(from, id)) return id;
  }
  return from;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  oscar::ScenarioOptions base;
  base.network_size = 300;
  base.lookups = 400;
  base.seed = 7;
  auto grown = oscar::GrowScenarioTopology(base);
  if (!grown.ok()) {
    std::cerr << "selftest: growth failed: " << grown.status().message()
              << "\n";
    return 2;
  }
  const oscar::TopologySnapshot& snapshot = grown.value().snapshot;
  const TopologyModel model = TopologyModel::FromSnapshot(snapshot);

  // Growth: a self-link and an over-budget row.
  {
    TopologyModel self = model;
    const PeerId id = self.ring.front();
    self.out[id].front() = id;
    Expect("growth rejects a self-link", perfbench::CheckGrowth(model),
           perfbench::CheckGrowth(self));
    TopologyModel over = model;
    over.max_out[id] = 0;
    Expect("growth rejects an out-degree over budget",
           perfbench::CheckGrowth(model), perfbench::CheckGrowth(over));
  }

  // Gini: a reported value off by 0.01.
  {
    const double gini =
        oscar::ComputeDegreeLoad(snapshot.Restore()).load_gini;
    Expect("gini rejects a wrong value", perfbench::CheckGini(model, gini),
           perfbench::CheckGini(model, gini + 0.01));
  }

  // Routes: a wrong owner, and a step that is not an edge.
  {
    const oscar::GreedyRouter router;
    const PeerId source = model.ring.front();
    const uint64_t key = model.keys[model.ring[model.ring.size() / 2]] + 12345;
    const oscar::RouteResult route =
        router.Route(snapshot, source, oscar::KeyId::FromRaw(key));
    const std::string truth = perfbench::CheckRoute(model, source, key, route);
    oscar::RouteResult wrong_owner = route;
    wrong_owner.terminal = wrong_owner.path.back() =
        NonNeighbour(model, route.terminal);
    Expect("route rejects a wrong owner", truth,
           perfbench::CheckRoute(model, source, key, wrong_owner));
    oscar::RouteResult jump = route;
    jump.path.insert(jump.path.begin() + 1, NonNeighbour(model, source));
    Expect("route rejects a step that is not an edge", truth,
           perfbench::CheckRoute(model, source, key, jump));
  }

  // Serve sweep: broken conservation at the door and in the queue.
  {
    oscar::ServeOptions serve;
    serve.lookups = 2000;
    serve.offered_rates_per_s = {4000.0, 0.0};
    serve.policies = {"none", "drop-tail"};
    oscar::LoadGenerator generator(snapshot, serve);
    auto run = generator.Run();
    if (!run.ok()) {
      std::cerr << "selftest: serve failed: " << run.status().message()
                << "\n";
      return 2;
    }
    const std::string truth =
        perfbench::CheckServeReport(run.value(), serve.lookups);
    oscar::ServeReport dropped = run.value();
    dropped.cells[0].dropped += 1;
    Expect("sweep rejects submitted != admitted + dropped", truth,
           perfbench::CheckServeReport(dropped, serve.lookups));
    oscar::ServeReport shed = run.value();
    shed.cells[1].shed += 1;
    Expect("sweep rejects admitted != completed + shed", truth,
           perfbench::CheckServeReport(shed, serve.lookups));
    oscar::ServeReport order = run.value();
    order.cells[0].latency.p50_ms = order.cells[0].latency.max_ms + 1.0;
    Expect("sweep rejects p50 above max", truth,
           perfbench::CheckServeReport(order, serve.lookups));
  }

  // Message simulator and its .otrace: a replay with the writer on.
  {
    const std::string path = dir + "/selftest.otrace";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    oscar::ColumnarTraceWriter writer(&file);
    oscar::ScenarioOptions options = base;
    options.sim.sink = &writer;
    auto run = oscar::RunScenarioOn("flash-crowd", options, grown.value());
    const oscar::Status closed = writer.Close();
    file.close();
    if (!run.ok() || !closed.ok()) {
      std::cerr << "selftest: traced replay failed\n";
      return 2;
    }
    const oscar::ScenarioResult& result = run.value();
    oscar::ScenarioResult unfinished = result;
    unfinished.report.completed -= 1;
    Expect("sim rejects an unfinished lookup",
           perfbench::CheckSimReport(result, base.lookups),
           perfbench::CheckSimReport(unfinished, base.lookups));

    const uint64_t events = writer.events_written();
    const std::string truth =
        perfbench::CheckTraceFile(path, events, result.report, model);
    // Truncated: drop the last 40 bytes (the end frame and more).
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const std::string cut_path = dir + "/selftest-truncated.otrace";
    std::ofstream cut(cut_path, std::ios::binary | std::ios::trunc);
    cut.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() > 40
                                               ? bytes.size() - 40
                                               : 0));
    cut.close();
    Expect("trace rejects a truncated file", truth,
           perfbench::CheckTraceFile(cut_path, events, result.report, model));

    auto decoded = oscar::ReadTraceFile(path);
    if (!decoded.ok()) {
      std::cerr << "selftest: trace does not decode\n";
      return 2;
    }
    oscar::TraceContents edge = decoded.value();
    bool corrupted = false;
    for (oscar::TraceRecord& record : edge.records) {
      if (record.event.kind == oscar::TraceKind::kForward) {
        record.event.to = NonNeighbour(model, record.event.peer);
        corrupted = true;
        break;
      }
    }
    Expect("trace rejects a forward edge not in the topology",
           perfbench::CheckTrace(decoded.value(), events, result.report,
                                 model),
           corrupted ? perfbench::CheckTrace(edge, events, result.report,
                                             model)
                     : "");
    oscar::TraceContents short_count = decoded.value();
    short_count.records.pop_back();
    Expect("trace rejects an event total below the writer's",
           perfbench::CheckTrace(decoded.value(), events, result.report,
                                 model),
           perfbench::CheckTrace(short_count, events, result.report, model));
    std::remove(cut_path.c_str());
    std::remove(path.c_str());
  }

  std::cout << (failures == 0 ? "selftest: all checks reject corrupted input"
                              : "selftest: FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}
