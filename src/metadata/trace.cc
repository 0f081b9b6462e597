#include "metadata/trace.h"

#include <algorithm>
#include <queue>

namespace mlprov::metadata {

std::vector<ExecutionId> TraceView::AncestorExecutions(
    ExecutionId exec) const {
  std::vector<ExecutionId> out;
  std::vector<char> visited(store_->num_executions() + 1, 0);
  std::vector<ExecutionId> frontier = {exec};
  visited[static_cast<size_t>(exec)] = 1;
  while (!frontier.empty()) {
    const ExecutionId cur = frontier.back();
    frontier.pop_back();
    for (ArtifactId input : store_->InputsOf(cur)) {
      for (ExecutionId producer : store_->ProducersOf(input)) {
        if (visited[static_cast<size_t>(producer)]) continue;
        visited[static_cast<size_t>(producer)] = 1;
        out.push_back(producer);
        frontier.push_back(producer);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ArtifactId> TraceView::AncestorArtifacts(ExecutionId exec) const {
  std::vector<char> seen(store_->num_artifacts() + 1, 0);
  std::vector<ArtifactId> out;
  auto note = [&](ArtifactId a) {
    if (!seen[static_cast<size_t>(a)]) {
      seen[static_cast<size_t>(a)] = 1;
      out.push_back(a);
    }
  };
  for (ArtifactId a : store_->InputsOf(exec)) note(a);
  for (ExecutionId anc : AncestorExecutions(exec)) {
    for (ArtifactId a : store_->InputsOf(anc)) note(a);
    for (ArtifactId a : store_->OutputsOf(anc)) note(a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ExecutionId> TraceView::DescendantExecutions(
    ExecutionId exec, const TraverseOptions& options) const {
  std::vector<ExecutionId> out;
  std::vector<char> visited(store_->num_executions() + 1, 0);
  std::vector<ExecutionId> frontier = {exec};
  visited[static_cast<size_t>(exec)] = 1;
  while (!frontier.empty()) {
    const ExecutionId cur = frontier.back();
    frontier.pop_back();
    for (ArtifactId output : store_->OutputsOf(cur)) {
      for (ExecutionId consumer : store_->ConsumersOf(output)) {
        if (visited[static_cast<size_t>(consumer)]) continue;
        visited[static_cast<size_t>(consumer)] = 1;
        const Execution& e =
            store_->executions()[static_cast<size_t>(consumer) - 1];
        if (options.Stops(e)) continue;  // excluded and not expanded
        out.push_back(consumer);
        frontier.push_back(consumer);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ExecutionId> TraceView::TopologicalOrder() const {
  const size_t n = store_->num_executions();
  // In-degree counted in execution-to-execution terms: an execution depends
  // once on each distinct producer of its inputs. `counted` and `relaxed`
  // stamp a node with the id of the execution that last saw it, so each
  // array serves every execution without being cleared.
  std::vector<size_t> indegree(n + 1, 0);
  std::vector<ExecutionId> counted(n + 1, kInvalidId);
  for (size_t id = 1; id <= n; ++id) {
    const auto exec = static_cast<ExecutionId>(id);
    for (ArtifactId input : store_->InputsOf(exec)) {
      for (ExecutionId producer : store_->ProducersOf(input)) {
        if (counted[static_cast<size_t>(producer)] != exec) {
          counted[static_cast<size_t>(producer)] = exec;
          ++indegree[id];
        }
      }
    }
  }
  std::priority_queue<ExecutionId, std::vector<ExecutionId>,
                      std::greater<>>
      ready;
  for (size_t id = 1; id <= n; ++id) {
    if (indegree[id] == 0) ready.push(static_cast<ExecutionId>(id));
  }
  std::vector<ExecutionId> order;
  order.reserve(n);
  std::vector<ExecutionId> relaxed(n + 1, kInvalidId);
  while (!ready.empty()) {
    const ExecutionId cur = ready.top();
    ready.pop();
    order.push_back(cur);
    for (ArtifactId output : store_->OutputsOf(cur)) {
      for (ExecutionId consumer : store_->ConsumersOf(output)) {
        if (relaxed[static_cast<size_t>(consumer)] == cur) continue;
        relaxed[static_cast<size_t>(consumer)] = cur;
        if (--indegree[static_cast<size_t>(consumer)] == 0) {
          ready.push(consumer);
        }
      }
    }
  }
  return order;  // shorter than n iff the graph has a cycle
}

size_t TraceView::NumConnectedComponents() const {
  // Union-find over executions and artifacts. Artifact k maps to slot k,
  // execution k to slot num_artifacts + k (1-based slots).
  const size_t na = store_->num_artifacts();
  const size_t total = na + store_->num_executions();
  if (total == 0) return 0;
  std::vector<size_t> parent(total + 1);
  for (size_t i = 0; i <= total; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) { parent[find(a)] = find(b); };
  for (const Event& ev : store_->events()) {
    unite(static_cast<size_t>(ev.artifact),
          na + static_cast<size_t>(ev.execution));
  }
  size_t components = 0;
  for (size_t i = 1; i <= total; ++i) {
    if (find(i) == i) ++components;
  }
  return components;
}

std::pair<Timestamp, Timestamp> TraceView::TimeExtent() const {
  bool any = false;
  Timestamp lo = 0, hi = 0;
  auto note = [&](Timestamp t) {
    if (!any) {
      lo = hi = t;
      any = true;
    } else {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  };
  for (const Artifact& a : store_->artifacts()) note(a.create_time);
  for (const Execution& e : store_->executions()) {
    note(e.start_time);
    note(e.end_time);
  }
  return {lo, hi};
}

}  // namespace mlprov::metadata
