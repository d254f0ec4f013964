#include "src/core/query_registry.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"

namespace prospector {
namespace core {
namespace {

std::unique_ptr<Planner> MakePlanner(const QuerySpec& spec) {
  switch (spec.planner) {
    case PlannerChoice::kGreedy:
      return std::make_unique<GreedyPlanner>();
    case PlannerChoice::kLpNoFilter:
      return std::make_unique<LpNoFilterPlanner>(spec.lp);
    case PlannerChoice::kLpFilter:
      return std::make_unique<LpFilterPlanner>(spec.lp);
  }
  return std::make_unique<LpFilterPlanner>(spec.lp);
}

}  // namespace

QueryState::QueryState(int id_in, const QuerySpec& spec_in, int num_nodes,
                       size_t sample_window)
    : id(id_in),
      spec(spec_in),
      samples(sampling::SampleSet::ForTopK(num_nodes, spec_in.k,
                                           sample_window)),
      planner(MakePlanner(spec_in)),
      manager(planner.get(),
              PlanRequest{spec_in.k, spec_in.energy_budget_mj},
              spec_in.manager),
      health(spec_in.slo) {}

QueryRegistry::Queries::const_iterator QueryRegistry::LowerBound(
    int id) const {
  return std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const std::unique_ptr<QueryState>& q, int v) { return q->id < v; });
}

void QueryRegistry::Insert(int id, const QuerySpec& spec, int num_nodes,
                           size_t sample_window) {
  used_.insert(id);
  next_id_ = std::max(next_id_, id + 1);
  live_.insert(LowerBound(id), std::make_unique<QueryState>(
                                   id, spec, num_nodes, sample_window));
}

int QueryRegistry::Add(const QuerySpec& spec, int num_nodes,
                       size_t sample_window) {
  const int id = next_id_;
  Insert(id, spec, num_nodes, sample_window);
  return id;
}

Result<int> QueryRegistry::AddWithId(int id, const QuerySpec& spec,
                                     int num_nodes, size_t sample_window) {
  if (id < 0) {
    return Status::InvalidArgument("query ids must be non-negative");
  }
  if (used_.count(id) != 0) {
    return Status::FailedPrecondition(
        "query id " + std::to_string(id) +
        " was already admitted; ids are never reused");
  }
  Insert(id, spec, num_nodes, sample_window);
  return id;
}

bool QueryRegistry::Remove(int id) {
  const auto it = LowerBound(id);
  if (it == live_.end() || (*it)->id != id) return false;
  live_.erase(it);
  return true;
}

QueryState* QueryRegistry::Find(int id) {
  return const_cast<QueryState*>(std::as_const(*this).Find(id));
}

const QueryState* QueryRegistry::Find(int id) const {
  const auto it = LowerBound(id);
  return it != live_.end() && (*it)->id == id ? it->get() : nullptr;
}

std::vector<int> QueryRegistry::ids() const {
  std::vector<int> out;
  out.reserve(live_.size());
  for (const auto& q : live_) out.push_back(q->id);
  return out;
}

}  // namespace core
}  // namespace prospector
