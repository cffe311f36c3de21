// Shared definitions of the perfbench benchmark: the four named workloads,
// the clocks it measures with, one "pass" over a workload's fixed budget,
// and the span recorder of the traced run.
//
// A pass is the unit every metric is computed from: it runs the workload's
// fixed iteration budget for each of the four dialects (in-process, one
// thread, one dialect after another) or once through a two-process fork
// fleet. A pass is a closed loop — each RunIterationAt call starts only
// after the previous one returned — so a slower program simply finishes
// its pass later.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/dialect.h"
#include "faults/fault.h"
#include "fuzz/campaign.h"
#include "obs/metrics.h"

namespace perfbench {

using spatter::engine::Dialect;

inline constexpr Dialect kDialects[] = {
    Dialect::kPostgis, Dialect::kDuckdbSpatial, Dialect::kMysql,
    Dialect::kSqlserver};

struct Workload {
  const char* name;
  size_t geometries;       ///< rows per generated database
  size_t queries;          ///< queries per database (per iteration)
  size_t iterations;       ///< iterations per dialect in one pass
  bool all_oracles;        ///< aei,diff,index,tlp,eet instead of aei
  bool corpus;             ///< corpus mode, mutate 50%, empty start
  bool fleet;              ///< 2 fork-mode worker processes x 1 job

  spatter::fuzz::CampaignConfig Config(Dialect dialect, uint64_t seed,
                                       bool enable_faults,
                                       size_t iterations) const;
};

/// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& Workloads();

double WallSeconds();
/// User + system CPU of this process and of its reaped children.
double CpuSeconds();
/// Peak resident set of this process and of its largest reaped child, MB.
double PeakRssMb();

/// Machine-speed calibration. The cores this benchmark runs on are shared
/// with other tenants, and the same pass can take 40% longer from one
/// minute to the next. KernelSeconds times a fixed piece of standard-library
/// work (string formatting, map lookups, square roots, scattered writes)
/// that shares no code with spatter, so no change to the program moves it.
/// Every timed interval is scaled by kReferenceKernelSeconds / the kernel
/// time measured next to it: the time the interval would have taken on a
/// machine where the kernel takes exactly 1 ms. Raw times are printed too.
double KernelSeconds();
inline constexpr double kReferenceKernelSeconds = 1e-3;

/// Spans recorded by the benchmark around the library calls it makes. Kept
/// in memory and written out once the run ends. Not thread-safe: every
/// span is opened and closed on the benchmark's own thread.
class Spans {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  size_t Begin(const std::string& name);
  void End(size_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time covered by the span's direct children.
  std::vector<double> SelfSeconds() const;
  /// JSON lines, one span each, in start order.
  std::string ToJsonl() const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op, so one code path serves both runs.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans ? spans->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  size_t id_;
};

/// Exact, deterministic work done by one dialect's share of a pass: the
/// campaign's own counters plus the telemetry registry's counters, read
/// with the registry reset before the dialect started.
using WorkCounters = std::map<std::string, uint64_t>;

struct DialectRun {
  double norm_wall_s = 0.0;
  uint64_t checks = 0;
  WorkCounters work;
  spatter::obs::MetricsSnapshot metrics;  ///< this dialect only
};

/// One pass over a workload's fixed budget.
struct Pass {
  double wall_s = 0.0;       ///< raw, iterations only
  double cpu_s = 0.0;        ///< raw, iterations only
  double norm_wall_s = 0.0;  ///< calibrated (see KernelSeconds)
  double norm_cpu_s = 0.0;
  uint64_t checks = 0;     ///< oracle checks that produced a verdict
  uint64_t scheduled = 0;  ///< checks the budget asked for
  std::vector<double> iteration_ms;  ///< calibrated, one per iteration
  std::vector<double> kernel_s;      ///< every KernelSeconds() sample
  std::set<spatter::faults::FaultId> bugs;
  /// Discrepancies whose detecting oracle is not the differential one
  /// (the differential oracle's false alarms are by design).
  uint64_t non_diff_discrepancies = 0;
  /// (iteration, "dialect iteration query oracle kind detail faults...")
  /// per discrepancy, for the byte-for-byte repetition check.
  std::vector<std::pair<size_t, std::string>> records;
  /// Filled when the pass runs with `per_dialect` requested.
  std::map<Dialect, DialectRun> dialects;
  /// Fleet passes only.
  double busy_s = 0.0;
  uint64_t respawns = 0;
  uint64_t protocol_errors = 0;
  spatter::obs::MetricsSnapshot fleet_metrics;
};

/// Runs one in-process pass: each dialect's campaign in turn. With
/// `per_dialect`, the telemetry registry is reset before each dialect and
/// snapshotted after it, and work counters are collected. Each
/// RunIterationAt call gets an "iteration" span when `spans` is non-null.
Pass RunInProcessPass(const Workload& w, uint64_t seed, bool enable_faults,
                      size_t iterations, bool per_dialect, Spans* spans);

/// Runs one fork-mode fleet pass (FleetCoordinator::Run, one span).
Pass RunFleetPass(const Workload& w, uint64_t seed, size_t iterations,
                  Spans* spans);

/// Seconds to build the workload's runner: the four campaigns (engines,
/// oracle suites, generators, empty corpora) in-process, or a fleet that
/// spawns, greets and reaps its workers with no iterations to run.
double SetupSeconds(const Workload& w, uint64_t seed);

/// Comma-joined fault names, the form of the CLI's `bug-set:` line.
std::string BugSetLine(const std::set<spatter::faults::FaultId>& bugs);

double Median(std::vector<double> v);
/// Quantile (q in [0, 1]), linearly interpolated between order statistics.
double Quantile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// What one invocation reports: the result line's fields.
struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Output check 1, made by both kinds of run: the first five iterations
/// of every dialect, with faults disabled, must report no discrepancy.
/// The differential oracle's false alarms are by design and not counted.
/// A violation marks `out` incorrect and counts the pass's checks failed.
void CheckFaultsOff(const Workload& w, uint64_t seed, RunOutput* out);
/// The end-to-end run, tracing off: one pass of the fixed budget, then
/// more while another still fits in `seconds`, plus the output checks.
RunOutput RunUntraced(const Workload& w, uint64_t seed, double seconds);
/// The traced run: per-layer metrics and the exact work-counter block;
/// writes its spans to `spans_out` (JSON lines) when non-empty.
RunOutput RunTraced(const Workload& w, uint64_t seed,
                    const std::string& spans_out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
