// Workload table, clocks, spans, and the passes every metric is built from.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/coverage.h"
#include "fleet/coordinator.h"
#include "fuzz/oracle_suite.h"

namespace perfbench {

namespace fuzz = spatter::fuzz;
namespace obs = spatter::obs;

namespace {

// Statement kinds as the engine names its "engine_stmt" coverage sites;
// the first three are what fuzz::LoadDatabase executes.
constexpr const char* kLoadStatementKinds[] = {"create_table", "create_index",
                                               "insert"};
constexpr const char* kQueryStatementKinds[] = {
    "select_count_join", "select_count_where", "select_scalar"};

WorkCounters CollectWork(const fuzz::CampaignResult& result,
                         const obs::MetricsSnapshot& metrics,
                         const std::vector<uint64_t>& hits_before) {
  WorkCounters work;
  work["campaign.iterations_run"] = result.iterations_run;
  work["campaign.checks_run"] = result.checks_run;
  work["campaign.discrepancies_found"] = result.discrepancies.size();
  work["campaign.unique_bugs"] = result.unique_bugs.size();
  work["engine.statements"] = result.engine_stats.statements_executed;
  work["engine.pairs_evaluated"] = result.engine_stats.pairs_evaluated;
  work["engine.index_probes"] = result.engine_stats.index_scans;
  work["engine.prepared_evaluations"] =
      result.engine_stats.prepared_evaluations;
  // Statement counts by kind, from the engine's per-kind coverage sites.
  // The engine registers every kind on its first statement, so Register
  // here only looks the index up.
  spatter::CoverageRegistry& coverage = spatter::CoverageRegistry::Instance();
  const std::vector<uint64_t> hits = coverage.SnapshotHits();
  const auto delta = [&](const char* kind) -> uint64_t {
    const size_t i = coverage.Register("engine_stmt", kind);
    const uint64_t before = i < hits_before.size() ? hits_before[i] : 0;
    return i < hits.size() ? hits[i] - before : 0;
  };
  uint64_t load = 0;
  for (const char* kind : kLoadStatementKinds) load += delta(kind);
  uint64_t query = 0;
  for (const char* kind : kQueryStatementKinds) query += delta(kind);
  work["engine.load_statements"] = load;
  work["engine.query_statements"] = query;
  for (const auto& [name, value] : metrics.counters) {
    if (value != 0) work[name] = value;
  }
  // A histogram's sample count is exact work too (parses = cache misses,
  // probes, outer join rows, oracle checks).
  for (const auto& [name, h] : metrics.histograms) {
    if (h.count != 0) work[name + ".samples"] = h.count;
  }
  return work;
}

/// Folds a campaign result's findings into `pass`: its unique bugs, its
/// non-differential discrepancy count, and one record line per
/// discrepancy for the byte-for-byte repetition check.
void NoteFindings(const fuzz::CampaignResult& result, Pass* pass) {
  for (const auto& [id, first] : result.unique_bugs) pass->bugs.insert(id);
  for (const fuzz::Discrepancy& d : result.discrepancies) {
    if (d.oracle != fuzz::OracleKind::kDifferential) {
      ++pass->non_diff_discrepancies;
    }
    std::string line = spatter::engine::DialectCliToken(d.dialect);
    line += " " + std::to_string(d.iteration) + " " +
            std::to_string(d.query_index) + " " +
            fuzz::OracleKindName(d.oracle) + " " +
            (d.is_crash ? "crash" : "logic") + " " + d.detail;
    for (spatter::faults::FaultId id : d.fault_hits) {
      line += std::string(" ") + spatter::faults::GetFaultInfo(id).name;
    }
    pass->records.emplace_back(d.iteration, std::move(line));
  }
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // name            N   Q   iters  all_oracles corpus fleet
      {"aei-small-db", 4, 50, 350, false, false, false},
      {"aei-large-db", 50, 20, 36, false, false, false},
      {"suite-corpus", 10, 5, 250, true, true, false},
      {"fleet-generate", 10, 50, 60, false, false, true},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fuzz::CampaignConfig Workload::Config(Dialect dialect, uint64_t seed,
                                      bool enable_faults,
                                      size_t iteration_budget) const {
  fuzz::CampaignConfig config;
  config.dialect = dialect;
  config.seed = seed;
  config.iterations = iteration_budget;
  config.queries_per_iteration = queries;
  config.generator.num_geometries = geometries;
  config.enable_faults = enable_faults;
  if (all_oracles) config.oracles = fuzz::ParseOracleSuite("all").value();
  if (corpus) {
    config.corpus.enabled = true;
    config.corpus.mutate_pct = 50;
  }
  return config;
}

namespace {
/// Keeps the kernel's result observable so it is not optimized away.
volatile double kernel_sink = 0.0;
}  // namespace

double KernelSeconds() {
  static std::vector<uint32_t> scratch(1 << 16);
  const double start = WallSeconds();
  std::map<std::string, double> table;
  uint64_t x = 1;
  double carry = 0.0;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    double& v = table["k" + std::to_string((x >> 33) % 512)];
    v += std::sqrt(static_cast<double>(x >> 20) * 1e-6) + 0.5 * carry;
    carry = v - std::floor(v);
    for (int j = 0; j < 8; ++j) {
      scratch[(x >> (10 + j)) & (scratch.size() - 1)] +=
          static_cast<uint32_t>(j);
    }
  }
  kernel_sink = carry;
  return WallSeconds() - start;
}

double WallSeconds() { return fuzz::Campaign::NowSeconds(); }

double CpuSeconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

double PeakRssMb() {
  long kb = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    kb = std::max(kb, ru.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

size_t Spans::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start = WallSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::End(size_t id) {
  spans_[id].end = WallSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Spans::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // Children are closed inside their parent's interval, so subtracting
  // each child's duration removes exactly the covered part.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

std::string Spans::ToJsonl() const {
  std::string out;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, static_cast<long long>(spans_[i].parent),
                  spans_[i].name.c_str(), 1e6 * (spans_[i].start - t0),
                  1e6 * (spans_[i].end - t0));
    out += line;
  }
  return out;
}

Pass RunInProcessPass(const Workload& w, uint64_t seed, bool enable_faults,
                      size_t iterations, bool per_dialect, Spans* spans) {
  Pass pass;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  for (Dialect dialect : kDialects) {
    const fuzz::CampaignConfig config =
        w.Config(dialect, seed, enable_faults, iterations);
    const size_t oracles = config.oracles.oracles.size();
    ScopedSpan dialect_span(
        spans, std::string("dialect.") +
                   spatter::engine::DialectCliToken(dialect));
    std::vector<uint64_t> hits_before;
    if (per_dialect) {
      registry.Reset();
      hits_before = spatter::CoverageRegistry::Instance().SnapshotHits();
    }
    fuzz::Campaign campaign(config);
    fuzz::CampaignResult result;
    const spatter::engine::EngineStats stats0 = campaign.engine().stats();
    const double t0 = WallSeconds();
    double dialect_norm_wall = 0.0;
    for (size_t i = 0; i < iterations; ++i) {
      const double cpu_start = CpuSeconds();
      const double start = WallSeconds();
      {
        ScopedSpan span(spans, "iteration");
        campaign.RunIterationAt(i, &result, t0);
      }
      const double wall = WallSeconds() - start;
      const double cpu = CpuSeconds() - cpu_start;
      const double kernel = KernelSeconds();
      const double scale = kReferenceKernelSeconds / kernel;
      pass.wall_s += wall;
      pass.cpu_s += cpu;
      pass.norm_wall_s += wall * scale;
      pass.norm_cpu_s += cpu * scale;
      dialect_norm_wall += wall * scale;
      pass.iteration_ms.push_back(1e3 * wall * scale);
      pass.kernel_s.push_back(kernel);
    }
    campaign.FinalizeResult(&result, t0, stats0);
    pass.checks += result.checks_run;
    pass.scheduled += iterations * config.queries_per_iteration * oracles;
    NoteFindings(result, &pass);
    if (per_dialect) {
      DialectRun& run = pass.dialects[dialect];
      run.norm_wall_s = dialect_norm_wall;
      run.checks = result.checks_run;
      run.metrics = registry.Snapshot();
      run.work = CollectWork(result, run.metrics, hits_before);
    }
  }
  return pass;
}

namespace {

spatter::fleet::FleetConfig FleetConfigFor(const Workload& w, uint64_t seed,
                                           size_t iterations) {
  spatter::fleet::FleetConfig config;
  config.base = w.Config(kDialects[0], seed, true, iterations);
  config.processes = 2;
  config.jobs = 1;
  config.dialects.assign(std::begin(kDialects), std::end(kDialects));
  // exe_path stays empty: fork mode, the child runs fleet::RunWorker.
  return config;
}

constexpr std::chrono::milliseconds kFleetKernelPeriod{20};

}  // namespace

Pass RunFleetPass(const Workload& w, uint64_t seed, size_t iterations,
                  Spans* spans) {
  Pass pass;
  spatter::fleet::FleetCoordinator coordinator(
      FleetConfigFor(w, seed, iterations));
  // The workers run on other cores, so a sampler thread times the kernel
  // every kFleetKernelPeriod while the pass runs; it is idle in between,
  // so the fleet keeps its two busy worker processes to itself.
  // Its own CPU time is taken back out of the pass's.
  std::atomic<bool> done{false};
  double sampler_cpu_s = 0.0;
  std::thread sampler([&pass, &done, &sampler_cpu_s] {
    while (!done.load()) {
      pass.kernel_s.push_back(KernelSeconds());
      std::this_thread::sleep_for(kFleetKernelPeriod);
    }
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    sampler_cpu_s = static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  });
  const double cpu0 = CpuSeconds();
  const double t0 = WallSeconds();
  fuzz::CampaignResult result;
  {
    ScopedSpan span(spans, "fleet.run");
    result = coordinator.Run();
  }
  pass.wall_s = WallSeconds() - t0;
  done.store(true);
  sampler.join();
  pass.cpu_s = CpuSeconds() - cpu0 - sampler_cpu_s;
  const double scale = kReferenceKernelSeconds / Median(pass.kernel_s);
  pass.norm_wall_s = pass.wall_s * scale;
  pass.norm_cpu_s = pass.cpu_s * scale;
  pass.checks = result.checks_run;
  pass.scheduled = iterations * w.queries * std::size(kDialects);
  NoteFindings(result, &pass);
  pass.busy_s = result.busy_seconds;
  pass.respawns = coordinator.respawns();
  pass.protocol_errors = coordinator.protocol_errors();
  pass.fleet_metrics = coordinator.FleetMetricsSnapshot();
  return pass;
}

double SetupSeconds(const Workload& w, uint64_t seed) {
  if (w.fleet) {
    const double t0 = WallSeconds();
    spatter::fleet::FleetCoordinator coordinator(FleetConfigFor(w, seed, 0));
    coordinator.Run();
    return WallSeconds() - t0;
  }
  std::vector<std::unique_ptr<fuzz::Campaign>> campaigns;
  const double t0 = WallSeconds();
  for (Dialect dialect : kDialects) {
    campaigns.push_back(std::make_unique<fuzz::Campaign>(
        w.Config(dialect, seed, true, w.iterations)));
  }
  return WallSeconds() - t0;
}

std::string BugSetLine(const std::set<spatter::faults::FaultId>& bugs) {
  std::string line;
  for (spatter::faults::FaultId id : bugs) {
    if (!line.empty()) line += ",";
    line += spatter::faults::GetFaultInfo(id).name;
  }
  return line.empty() ? "(none)" : line;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
