// Fleet benchmark driver (see perfbench/README.md).
//
// Runs one workload on a service::FleetService through its public API as
// a closed loop: one thread issues an epoch's admits and retires, calls
// RunEpoch, then drains every live query with Poll; the next epoch starts
// only when that returns. Prints one JSON object with the raw results;
// perfbench/run.py turns it into the benchmark's metrics and applies the
// correctness gate.
//
//   fleet_bench --workload NAME --seed N [--seconds S]
//               [--setup-seconds T] [--trace 0|1]
//
// --seconds sizes the timed phase: a workload runs its reference epoch
// rate times --seconds epochs (never fewer than kMinTimedEpochs), so a run
// lasts about --seconds on the host the rates were measured on and always
// covers the same epochs for a seed. Set-up repeats until T seconds of
// set-ups have run (once when T is 0); every set-up's time is printed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/gaussian_field.h"
#include "src/net/rebuild.h"
#include "src/net/topology.h"
#include "src/obs/obs.h"
#include "src/service/fleet.h"
#include "src/util/stats.h"

namespace prospector {
namespace perfbench {
namespace {

// Enough timed epochs that at least ten lie beyond the p90.
constexpr int kMinTimedEpochs = 100;
constexpr int kTenants = 4;

// One Figure-3 budget for every LP+LF query. LP cost varies about
// six-fold across the Figure-3 budgets (8 mJ against 16 mJ on this fleet),
// and a mix spreads epoch times into a continuum whose median moves with
// whichever deployments happened to explore.
constexpr double kLpBudgetMj = 16.0;

struct Workload {
  const char* name;
  int deployments;
  int nodes;
  double radio_range;
  core::PlannerChoice planner;
  int queries_per_deployment;  ///< standing queries admitted during set-up
  int churn_per_epoch;         ///< admits and retires issued every timed epoch
  size_t sample_window;
  double explore_probability;
  /// Query epochs between proof audits on odd deployments; even ones never
  /// audit. Each scheduler worker then carries the same mix every epoch,
  /// which keeps the epoch-time distribution from splitting into audit and
  /// no-audit modes with the median on the jump between them.
  int audit_every;  ///< 0 = no audits
  bool kill_interior_node;  ///< one scripted kill per deployment + watchdog
  int max_proof_samples;    ///< samples entering an audit's Proof LP
  /// The epoch scheduler's width: a fixed constant per workload (capped at
  /// the host's hardware threads) so runs on one host stay comparable.
  int scheduler_width;
  /// Timed epochs per second of --seconds: about the seed commit's rate on
  /// a 4-core host.
  double epochs_per_second;
};

// Why each workload exists is recorded in perfbench/README.md.
const Workload kWorkloads[] = {
    {"fig3-replan", 8, 100, 22.0, core::PlannerChoice::kLpFilter, 1, 0, 25,
     0.25, 0, false, 8, 4, 22.0},
    {"serve-churn", 128, 16, 50.0, core::PlannerChoice::kGreedy, 4, 64, 40,
     0.02, 0, false, 8, 2, 110.0},
    {"fig8-audit", 8, 50, 24.0, core::PlannerChoice::kLpFilter, 1, 0, 10,
     0.02, 1, true, 4, 4, 3.4},
};

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over raw bytes; chained through `h`.
uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// `text` as the body of a JSON string.
std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

/// The generated inputs: topologies, fields, and each deployment's kill.
struct World {
  std::vector<net::Topology> topologies;
  std::vector<data::GaussianField> fields;
  std::vector<int> victims;  ///< -1 = no scripted kill
};

/// An interior node whose loss leaves the rest of the tree re-buildable,
/// chosen by `rng`; -1 when none exists.
int PickVictim(const net::Topology& topo, double radio_range, Rng* rng) {
  std::vector<int> interior;
  for (int u = 0; u < topo.num_nodes(); ++u) {
    if (u != topo.root() && !topo.is_leaf(u)) interior.push_back(u);
  }
  while (!interior.empty()) {
    const size_t i = rng->UniformInt(interior.size());
    if (net::RebuildWithoutNodes(topo, {interior[i]}, radio_range).ok()) {
      return interior[i];
    }
    interior.erase(interior.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return -1;
}

/// The fleet, with its fault script, is a fixed catalog per workload, as
/// an operator's fleet is: it derives from the workload name. The run seed
/// drives what streams through it (readings, exploration draws, radio
/// randomness). With per-seed topologies and victims, run-to-run spread
/// measured how hard each draw's LPs were rather than the code under test.
World BuildWorld(const Workload& w) {
  World world;
  Rng fleet_rng(Fnv(kFnvBasis, w.name, std::strlen(w.name)));
  for (int d = 0; d < w.deployments; ++d) {
    net::GeometricNetworkOptions geo;
    geo.num_nodes = w.nodes;
    geo.radio_range = w.radio_range;
    world.topologies.push_back(
        net::BuildConnectedGeometricNetwork(geo, &fleet_rng).value());
    world.fields.push_back(data::GaussianField::Random(
        w.nodes, 40.0, 60.0, 1.0, 16.0, &fleet_rng));
    world.victims.push_back(
        w.kill_interior_node
            ? PickVictim(world.topologies.back(), w.radio_range, &fleet_rng)
            : -1);
  }
  return world;
}

/// The i-th admission request of a run (set-up and churn alike).
service::AdmitQueryRequest RequestFor(const Workload& w, long long i) {
  service::AdmitQueryRequest req;
  req.deployment_id = static_cast<int>(i % w.deployments);
  req.tenant_id = static_cast<int>(i % kTenants);
  req.spec.planner = w.planner;
  req.spec.manager.base_explore_probability = w.explore_probability;
  req.spec.audit_every = req.deployment_id % 2 == 1 ? w.audit_every : 0;
  req.spec.lp.max_proof_samples = w.max_proof_samples;
  if (w.planner == core::PlannerChoice::kGreedy) {
    req.spec.k = 2 + static_cast<int>(i % 3);
    req.spec.energy_budget_mj = 6.0;
  } else {
    req.spec.k = 10;
    req.spec.energy_budget_mj = kLpBudgetMj;
  }
  return req;
}

/// Operation outcomes of a run; every failure kind the gate knows.
struct Ops {
  long long attempted = 0;
  long long failed = 0;
  long long answers_dropped = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// One fleet plus the driver-side state of its closed loop.
class Run {
 public:
  Run(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {}

  /// Builds the world and fleet, admits the initial queries and runs the
  /// window-filling epochs. Returns the wall time it took.
  double Setup() {
    const double t0 = NowS();
    world_ = BuildWorld(w_);
    service::FleetOptions options;
    options.scheduler_threads = SchedulerWidth();
    fleet_ = std::make_unique<service::FleetService>(options);
    for (int d = 0; d < w_.deployments; ++d) {
      core::QueryEngineOptions engine;
      engine.sample_window = w_.sample_window;
      engine.bootstrap_sweeps = static_cast<int>(w_.sample_window);
      const int victim = world_.victims[static_cast<size_t>(d)];
      if (victim >= 0) {
        engine.dead_after_epochs = 3;
        engine.rebuild_radio_range = w_.radio_range;
        // Spread the kills over the timed phase's first 90 epochs.
        engine.faults.KillNode(engine.bootstrap_sweeps + 10 + (d * 23) % 80,
                               victim);
      }
      const data::GaussianField* field = &world_.fields[static_cast<size_t>(d)];
      fleet_->AddDeployment(
          &world_.topologies[static_cast<size_t>(d)], {}, {}, engine,
          [field](Rng* rng) { return field->Sample(rng); },
          seed_ * 1000003ULL + static_cast<uint64_t>(d));
    }
    for (int i = 0; i < w_.deployments * w_.queries_per_deployment; ++i) {
      Admit();
    }
    for (size_t e = 0; e < w_.sample_window; ++e) Epoch(nullptr);
    return NowS() - t0;
  }

  /// The timed phase. `traced` also samples per-call latencies, which
  /// untraced runs skip so their peak RSS holds no driver-side samples.
  void Timed(long long epochs, bool traced) {
    traced_ = traced;
    energy_before_ = fleet_->Snapshot().total_energy_mj;
    const double start = NowS();
    for (long long e = 0; e < epochs; ++e) {
      for (int c = 0; c < w_.churn_per_epoch; ++c) {
        Admit();
        RetireOldest();
      }
      if (!Epoch(&epoch_ms)) break;
    }
    wall_s_ = NowS() - start;
  }

  int SchedulerWidth() const {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(w_.scheduler_width, hw > 0 ? hw : 1));
  }

  void PrintJson(const std::vector<double>& setup_s, bool traced,
                 const std::string& per_layer) const;

  Ops ops;
  std::vector<double> admit_us, retire_us, poll_us;
  std::vector<double> epoch_ms;
  std::vector<std::pair<int64_t, int64_t>> epoch_spans_us;  // traced runs

 private:
  void Admit() {
    ++ops.attempted;
    const auto t0 = std::chrono::steady_clock::now();
    const service::AdmitQueryRequest request = RequestFor(w_, next_request_++);
    service::AdmitQueryResponse resp;
    {
      obs::ScopedSpan span("driver.admit", "perfbench");
      resp = fleet_->Admit(request);
    }
    if (traced_) admit_us.push_back(ElapsedUs(t0));
    if (!resp.admitted) {
      ops.Fail("admit rejected: " + resp.message);
      return;
    }
    live_.push_back({resp.query_id, request.tenant_id});
  }

  void RetireOldest() {
    if (live_.empty()) return;
    const auto [id, tenant] = live_.front();
    live_.pop_front();
    ++ops.attempted;
    const auto t0 = std::chrono::steady_clock::now();
    service::RetireQueryResponse resp;
    {
      obs::ScopedSpan span("driver.retire", "perfbench");
      resp = fleet_->Retire({id, tenant});
    }
    if (traced_) retire_us.push_back(ElapsedUs(t0));
    if (!resp.retired) {
      ops.Fail("retire refused: " + resp.message);
      return;
    }
    retiring_.push_back(id);
  }

  /// One closed-loop step: RunEpoch, then drain every live query and every
  /// query retired this epoch. Answers count only when `epoch_ms` is set
  /// (the timed phase).
  bool Epoch(std::vector<double>* epoch_ms) {
    ++ops.attempted;
    const int64_t t0 = obs::MonotonicNowUs();
    const double s0 = NowS();
    Result<service::FleetEpochReport> report = Status::Internal("not run");
    {
      obs::ScopedSpan span("driver.run_epoch", "perfbench");
      report = fleet_->RunEpoch();
    }
    const double ms = (NowS() - s0) * 1e3;
    if (!report.ok()) {
      ops.Fail("RunEpoch: " + report.status().ToString());
      return false;
    }
    if (epoch_ms != nullptr) {
      epoch_ms->push_back(ms);
      epoch_spans_us.emplace_back(t0, obs::MonotonicNowUs());
    }
    std::vector<int> ids = retiring_;
    for (const auto& q : live_) ids.push_back(q.first);
    std::sort(ids.begin(), ids.end());
    for (int id : ids) Poll(id, epoch_ms != nullptr);
    // A retired query has had its last poll. Retirement is oldest-first,
    // so its id is the smallest open one and folding it now keeps the
    // digest in query-id order without holding every id of a long run.
    std::sort(retiring_.begin(), retiring_.end());
    for (int id : retiring_) {
      if (digest_.empty() || digest_.begin()->first != id) break;
      folded_ = Chain(folded_, id, digest_.begin()->second);
      digest_.erase(digest_.begin());
    }
    retiring_.clear();
    return true;
  }

  void Poll(int id, bool timed) {
    ++ops.attempted;
    const auto t0 = std::chrono::steady_clock::now();
    service::PollAnswersResponse resp;
    {
      obs::ScopedSpan span("driver.poll", "perfbench");
      resp = fleet_->Poll({id, 0});
    }
    if (traced_) poll_us.push_back(ElapsedUs(t0));
    if (!resp.known_query) {
      ops.Fail("poll of unknown query " + std::to_string(id));
      return;
    }
    if (resp.dropped > 0) {
      ops.answers_dropped += resp.dropped;
      ops.Fail("answers dropped from the ring of query " + std::to_string(id));
    }
    if (!timed) return;
    uint64_t& h = digest_.try_emplace(id, kFnvBasis).first->second;
    for (const service::AnswerRecord& a : resp.answers) {
      ++answers_;
      recall_sum_ += a.recall;
      h = Fnv(h, &a.epoch, sizeof a.epoch);
      for (const core::Reading& r : a.answer) {
        h = Fnv(h, &r.node, sizeof r.node);
        h = Fnv(h, &r.value, sizeof r.value);
      }
    }
  }

  static double ElapsedUs(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  static uint64_t Chain(uint64_t h, int id, uint64_t query_hash) {
    h = Fnv(h, &id, sizeof id);
    return Fnv(h, &query_hash, sizeof query_hash);
  }

  /// Every polled answer of the timed phase, in query-id order.
  uint64_t Digest() const {
    uint64_t h = folded_;
    for (const auto& [id, qh] : digest_) h = Chain(h, id, qh);  // ascending
    return h;
  }

  const Workload& w_;
  uint64_t seed_;
  World world_;
  std::unique_ptr<service::FleetService> fleet_;
  long long next_request_ = 0;
  /// Admitted, not yet retired, oldest first: (query id, tenant).
  std::deque<std::pair<int, int>> live_;
  std::vector<int> retiring_;  ///< retired this epoch, drained once more
  std::map<int, uint64_t> digest_;  ///< per-query hash of open queries
  uint64_t folded_ = kFnvBasis;      ///< retired queries, already in order
  bool traced_ = false;
  long long answers_ = 0;
  double recall_sum_ = 0.0;
  double energy_before_ = 0.0;
  double wall_s_ = 0.0;
};

void Run::PrintJson(const std::vector<double>& setup_s, bool traced,
                    const std::string& per_layer) const {
  const service::FleetStatus status = fleet_->Snapshot();
  double tenant_mj = 0.0;
  for (const service::TenantStatus& t : status.per_tenant) {
    tenant_mj += t.attributed_energy_mj;
  }
  // Plan dissemination is charged to the deployment, not metered to any
  // tenant, so it closes the reconciliation as its own term.
  double install_mj = 0.0;
  for (int d = 0; d < fleet_->num_deployments(); ++d) {
    install_mj += fleet_->deployment(d).install_energy_mj();
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  std::string setups;
  char buf[32];
  for (double s : setup_s) {
    std::snprintf(buf, sizeof buf, "%s%.9g", setups.empty() ? "" : ",", s);
    setups += buf;
  }
  std::printf(
      "{\"workload\":\"%s\",\"traced\":%s,\"scheduler_width\":%d,"
      "\"hardware_threads\":%u,\"setup_s\":[%s],\"timed_epochs\":%zu,"
      "\"wall_s\":%.9g,\"epoch_ms_p50\":%.9g,\"epoch_ms_p90\":%.9g,"
      "\"answers\":%lld,\"recall_sum\":%.17g,\"energy_mj\":%.17g,"
      "\"fleet_energy_mj\":%.17g,\"tenant_energy_mj\":%.17g,"
      "\"install_energy_mj\":%.17g,\"digest\":\"%016" PRIx64 "\","
      "\"attempted\":%lld,\"failed\":%lld,\"first_error\":\"%s\","
      "\"peak_rss_mb\":%.6g,\"per_layer\":{%s}}\n",
      w_.name, traced ? "true" : "false", SchedulerWidth(),
      std::thread::hardware_concurrency(), setups.c_str(), epoch_ms.size(),
      wall_s_, Quantile(epoch_ms, 0.5), Quantile(epoch_ms, 0.9), answers_,
      recall_sum_, status.total_energy_mj - energy_before_,
      status.total_energy_mj, tenant_mj, install_mj, Digest(), ops.attempted,
      ops.failed, JsonEscape(ops.first_error.substr(0, 200)).c_str(),
      static_cast<double>(usage.ru_maxrss) / 1024.0, per_layer.c_str());
}

// ---- per-layer metrics from the traced run's spans and counters ----

struct SpanTotals {
  long long count = 0;
  int64_t total_us = 0;
  int64_t self_us = 0;
};

/// Total length of the union of `intervals` clipped to [lo, hi).
int64_t Covered(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
                int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

class Layers {
 public:
  Layers(std::vector<obs::TraceEvent> events, obs::MetricsSnapshot counters)
      : events_(std::move(events)) {
    for (const auto& [name, value] : counters.counters) counters_[name] = value;
    ComputeSelfTimes();
  }

  long long C(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const SpanTotals& S(const std::string& name) const {
    static const SpanTotals kNone;
    const auto it = spans_.find(name);
    return it == spans_.end() ? kNone : it->second;
  }
  /// Self time, ms, summed over every span whose name starts with `prefix`.
  double SelfMs(const std::string& prefix) const {
    int64_t us = 0;
    for (const auto& [name, t] : spans_) {
      if (name.rfind(prefix, 0) == 0) us += t.self_us;
    }
    return static_cast<double>(us) / 1e3;
  }
  /// Per RunEpoch interval: time not covered by spans selected by `keep`.
  template <typename Keep>
  int64_t Uncovered(const std::vector<std::pair<int64_t, int64_t>>& epochs,
                    Keep keep) const {
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const obs::TraceEvent& e : events_) {
      if (keep(e.name)) cover.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    }
    std::sort(cover.begin(), cover.end());
    int64_t uncovered = 0;
    for (const auto& [lo, hi] : epochs) {
      // Only spans opening inside this epoch can cover it.
      const auto first = std::lower_bound(
          cover.begin(), cover.end(), std::make_pair(lo, int64_t{0}));
      const auto last = std::lower_bound(
          cover.begin(), cover.end(), std::make_pair(hi, int64_t{0}));
      uncovered += (hi - lo) - Covered({first, last}, lo, hi);
    }
    return uncovered;
  }

 private:
  /// Self time: a span's duration minus its direct children's, where a
  /// child is the next-deeper span on the same thread inside its interval.
  void ComputeSelfTimes() {
    std::map<int, std::vector<const obs::TraceEvent*>> by_tid;
    for (const obs::TraceEvent& e : events_) by_tid[e.tid].push_back(&e);
    for (auto& [tid, evs] : by_tid) {
      std::stable_sort(evs.begin(), evs.end(), [](auto* a, auto* b) {
        return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->depth < b->depth;
      });
      std::vector<const obs::TraceEvent*> stack;
      for (const obs::TraceEvent* e : evs) {
        while (!stack.empty() && stack.back()->depth >= e->depth) {
          stack.pop_back();
        }
        SpanTotals& t = spans_[e->name];
        ++t.count;
        t.total_us += e->dur_us;
        t.self_us += e->dur_us;
        if (!stack.empty()) spans_[stack.back()->name].self_us -= e->dur_us;
        stack.push_back(e);
      }
    }
  }

  std::vector<obs::TraceEvent> events_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, SpanTotals> spans_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string PerLayerJson(const Run& run, const Layers& l) {
  std::vector<std::pair<std::string, double>> m;
  const double epochs = static_cast<double>(run.epoch_ms.size());
  auto add = [&m](const std::string& name, double v) { m.emplace_back(name, v); };

  // service
  add("service.admit_us_p50", Quantile(run.admit_us, 0.5));
  add("service.retire_us_p50", Quantile(run.retire_us, 0.5));
  add("service.poll_us_p50", Quantile(run.poll_us, 0.5));
  const double service_ms =
      static_cast<double>(l.Uncovered(run.epoch_spans_us, [](const char* n) {
        return std::strcmp(n, "session.tick") == 0;
      })) / 1e3;
  add("service.self_ms_per_epoch", Ratio(service_ms, epochs));
  add("service.admits", static_cast<double>(l.C("service.admits")));
  add("service.retires", static_cast<double>(l.C("service.retires")));
  add("service.answers_dropped", static_cast<double>(run.ops.answers_dropped));

  // engine
  add("engine.tick_self_ms_per_epoch", Ratio(l.SelfMs("session.tick"), epochs));
  add("engine.heal_ms", static_cast<double>(l.S("session.heal").total_us) / 1e3);
  add("engine.explore_epochs",
      static_cast<double>(l.C("session.explore_epochs")));
  add("engine.query_epochs", static_cast<double>(l.C("session.query_epochs")));
  add("engine.audit_epochs", static_cast<double>(l.C("session.audit_epochs")));
  add("engine.rebuilds", static_cast<double>(l.C("session.watchdog.rebuilds")));

  // replan
  const double attempts = static_cast<double>(l.S("session.replan").count);
  add("replan.attempts", attempts);
  add("replan.installs", static_cast<double>(l.C("session.replans")));
  add("replan.install_ratio",
      Ratio(static_cast<double>(l.C("session.replans")), attempts));
  add("replan.short_circuit_ratio",
      Ratio(static_cast<double>(l.C("planner.replan_short_circuits")),
            attempts));
  add("replan.self_ms_per_attempt", Ratio(l.SelfMs("session.replan"), attempts));
  const double rebuilds = static_cast<double>(l.C("hit_matrix.rebuilds"));
  add("hit_matrix.rebuild_ratio",
      Ratio(rebuilds,
            rebuilds + static_cast<double>(l.C("hit_matrix.incremental_syncs"))));
  const double lp_hit = static_cast<double>(l.C("workspace.lp.hit"));
  add("workspace.lp_hit_ratio",
      Ratio(lp_hit, lp_hit + static_cast<double>(l.C("workspace.lp.miss"))));
  const double hits_hit = static_cast<double>(l.C("workspace.hits.hit"));
  add("workspace.hits_hit_ratio",
      Ratio(hits_hit,
            hits_hit + static_cast<double>(l.C("workspace.hits.miss"))));

  // planners
  double lp_plans = 0.0;
  for (const char* p : {"greedy", "lp_filter", "lp_no_filter", "proof"}) {
    const std::string span = std::string("planner.") + p + ".plan";
    const double plans = static_cast<double>(l.S(span).count);
    if (std::strcmp(p, "greedy") != 0) lp_plans += plans;
    add(std::string("planner.") + p + ".plans", plans);
    add(std::string("planner.") + p + ".self_ms_per_plan",
        Ratio(static_cast<double>(l.S(span).self_us) / 1e3, plans));
  }
  add("planner.repair_rounds", static_cast<double>(l.C("planner.repair_rounds")));
  add("planner.fill_passes", static_cast<double>(l.C("planner.fill_passes")));

  // lp
  const double solves = static_cast<double>(l.C("lp.solves"));
  const double pivots = static_cast<double>(l.C("lp.phase1_pivots") +
                                            l.C("lp.phase2_pivots"));
  const double lp_ms = l.SelfMs("lp.");
  add("lp.solves", solves);
  add("lp.solves_per_plan", Ratio(solves, lp_plans));
  add("lp.solve_ms_per_plan", Ratio(lp_ms, lp_plans));
  add("lp.dense_ms", l.SelfMs("lp.solve") - l.SelfMs("lp.solve_"));
  add("lp.hot_ms", l.SelfMs("lp.solve_hot") + l.SelfMs("lp.solve_warm"));
  add("lp.revised_ms", l.SelfMs("lp.solve_revised"));
  add("lp.pivots_per_solve", Ratio(pivots, solves));
  add("lp.us_per_pivot", Ratio(lp_ms * 1e3, pivots));
  add("lp.rows_per_solve", Ratio(static_cast<double>(l.C("lp.rows")), solves));
  add("lp.columns_per_solve",
      Ratio(static_cast<double>(l.C("lp.columns")), solves));
  add("lp.revised_fallbacks", static_cast<double>(l.C("lp.revised_fallbacks")));
  add("lp.blands_activations",
      static_cast<double>(l.C("lp.blands_activations")));
  // Base: the CPU time of RunEpoch's work, i.e. every engine tick plus the
  // service's own share.
  const double tick_ms = static_cast<double>(l.S("session.tick").total_us) / 1e3;
  add("lp.share_of_epoch_cpu", Ratio(lp_ms, tick_ms + service_ms));

  // exec
  auto per_run = [&l](const char* span) {
    return Ratio(static_cast<double>(l.S(span).total_us) / 1e3,
                 static_cast<double>(l.S(span).count));
  };
  add("exec.superplan_ms_per_run", per_run("exec.superplan"));
  add("exec.proof_phase1_ms_per_run", per_run("exec.proof.phase1"));
  add("exec.mopup_ms_per_run", per_run("exec.proof.mopup"));
  add("exec.shared_values",
      static_cast<double>(l.C("exec.superplan.shared_values")));
  add("exec.values_lost",
      static_cast<double>(l.C("exec.superplan.values_lost") +
                          l.C("exec.collect.values_lost") +
                          l.C("exec.mopup.values_lost")));

  // tracing: RunEpoch time covered by no span the program records.
  int64_t epoch_us = 0;
  for (const auto& [lo, hi] : run.epoch_spans_us) epoch_us += hi - lo;
  add("trace.unattributed_share",
      Ratio(static_cast<double>(l.Uncovered(
                run.epoch_spans_us,
                [](const char* name) {
                  return std::strncmp(name, "driver.", 7) != 0;
                })),
            static_cast<double>(epoch_us)));

  std::string out;
  char buf[64];
  for (const auto& [name, v] : m) {
    if (!out.empty()) out += ",";
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += "\"" + name + "\":" + buf;
  }
  return out;
}

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 30.0;
  double setup_seconds = 0.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::atoll(v);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--setup-seconds") {
      setup_seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || seed < 0 || !(seconds > 0.0 && seconds <= 3600.0) ||
      !(setup_seconds >= 0.0 && setup_seconds <= 60.0)) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload fig3-replan|serve-churn|"
                 "fig8-audit --seed N [--seconds S] [--setup-seconds T] "
                 "[--trace 0|1]\n");
    return 2;
  }

  // Every set-up builds the same fleet from the seed; the last one runs
  // the timed phase. A set-up takes well under a second, so one alone is
  // mostly host noise; many, taken over a few seconds, give a steady median.
  std::vector<double> setup_s;
  std::unique_ptr<Run> run;
  double spent = 0.0;
  do {
    run.reset();
    run = std::make_unique<Run>(*w, static_cast<uint64_t>(seed));
    setup_s.push_back(run->Setup());
    spent += setup_s.back();
  } while (spent < setup_seconds);
  obs::MetricsRegistry::Global().ResetAll();
  if (trace != 0) obs::Tracer::Global().Enable();
  const long long epochs = std::max<long long>(
      kMinTimedEpochs, std::llround(seconds * w->epochs_per_second));
  run->Timed(epochs, trace != 0);
  obs::Tracer::Global().Disable();

  std::string per_layer;
  if (trace != 0) {
    const Layers layers(obs::Tracer::Global().Drain(),
                        obs::MetricsRegistry::Global().Snapshot());
    per_layer = PerLayerJson(*run, layers);
  }
  run->PrintJson(setup_s, trace != 0, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace prospector

int main(int argc, char** argv) { return prospector::perfbench::Main(argc, argv); }
