// perfbench: the repository's benchmark. One invocation runs one named
// workload and prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones of a separate traced run.
//
//   perfbench --workload aei-small-db [--seed 4242] [--seconds 10]
//             [--trace 0|1] [--spans-out FILE]
//
// perfbench/run.py builds this binary from the checkout and runs it; see
// perfbench/README.md for the workloads and what each metric means.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

/// In-process setups are microseconds, fleet setups milliseconds: take
/// enough of each that the median is steady.
constexpr int kInProcessSetups = 51;
constexpr int kFleetSetups = 7;
/// First iterations per dialect of the faults-off pass.
constexpr size_t kFaultsOffIterations = 5;
/// First iterations per dialect the untraced run repeats and compares.
constexpr size_t kRepeatIterations = 3;

}  // namespace

void CheckFaultsOff(const Workload& w, uint64_t seed, RunOutput* out) {
  const Pass pass =
      RunInProcessPass(w, seed, false, kFaultsOffIterations, false, nullptr);
  out->attempted += pass.scheduled;
  std::printf("faults-off: first %zu iterations per dialect, %llu "
              "non-differential discrepancies (must be 0)\n",
              kFaultsOffIterations,
              static_cast<unsigned long long>(pass.non_diff_discrepancies));
  for (const auto& [iteration, record] : pass.records) {
    std::printf("  faults-off discrepancy: %s\n", record.c_str());
  }
  if (pass.non_diff_discrepancies != 0) {
    out->correct = false;
    out->failed += pass.scheduled;
  }
}

RunOutput RunUntraced(const Workload& w, uint64_t seed, double seconds) {
  RunOutput out;
  // Set-up, calibrated by the median kernel time around it. Fleet set-up
  // mostly waits out the workers' 200 ms stdin poll, which no CPU speed
  // changes, so it is reported raw.
  std::vector<double> setups;
  std::vector<double> kernels;
  const int setup_runs = w.fleet ? kFleetSetups : kInProcessSetups;
  for (int i = 0; i < setup_runs; ++i) {
    kernels.push_back(KernelSeconds());
    setups.push_back(SetupSeconds(w, seed));
  }
  const double setup_s =
      Median(setups) *
      (w.fleet ? 1.0 : kReferenceKernelSeconds / Median(kernels));

  CheckFaultsOff(w, seed, &out);

  // The measured passes over the fixed budget: one, then more while
  // another one still fits in `seconds`.
  std::vector<Pass> passes;
  std::vector<double> pass_walls;
  const double t0 = WallSeconds();
  while (passes.empty() ||
         WallSeconds() - t0 + Median(pass_walls) <= seconds) {
    const double start = WallSeconds();
    passes.push_back(w.fleet
                         ? RunFleetPass(w, seed, w.iterations, nullptr)
                         : RunInProcessPass(w, seed, true, w.iterations, false,
                                            nullptr));
    pass_walls.push_back(WallSeconds() - start);
  }
  const std::string bug_set = BugSetLine(passes.front().bugs);
  std::printf("bug-set: %s\n", bug_set.c_str());

  // Output check 2: repeating the seed's work gives byte-identical
  // output. In-process, the first kRepeatIterations of each dialect run
  // again and must reproduce the measured pass's discrepancy records for
  // those iterations exactly. Output check 3 (fleet): a serial in-process
  // run of the same budget finds the fleet's bug set; its iterations also
  // give the fleet workload its iteration latencies.
  Pass reference;
  bool repeat_same = true;
  if (w.fleet) {
    reference = RunInProcessPass(w, seed, true, w.iterations, false, nullptr);
    repeat_same = BugSetLine(reference.bugs) == bug_set;
    std::printf("fleet vs serial bug set: %s\n",
                repeat_same ? "equal" : "DIFFER");
  } else {
    reference =
        RunInProcessPass(w, seed, true, kRepeatIterations, false, nullptr);
    std::vector<std::string> first;
    for (const auto& [iteration, record] : passes.front().records) {
      if (iteration < kRepeatIterations) first.push_back(record);
    }
    std::vector<std::string> again;
    for (const auto& [iteration, record] : reference.records) {
      again.push_back(record);
    }
    repeat_same = first == again;
    std::printf("repeat of first %zu iterations per dialect: %zu "
                "discrepancy records, %s\n",
                kRepeatIterations, again.size(),
                repeat_same ? "identical" : "DIFFER");
  }
  out.attempted += reference.scheduled;
  if (!repeat_same) {
    out.correct = false;
    out.failed += reference.scheduled;
  }

  std::vector<double> per_wall;
  std::vector<double> per_cpu;
  std::vector<double> iteration_ms =
      w.fleet ? reference.iteration_ms : std::vector<double>{};
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    out.attempted += p.scheduled;
    uint64_t failed = p.scheduled - std::min(p.checks, p.scheduled);
    if (BugSetLine(p.bugs) != bug_set) {
      std::printf("pass %zu bug-set DIFFERS: %s\n", i + 1,
                  BugSetLine(p.bugs).c_str());
      out.correct = false;
      failed = p.scheduled;
    }
    out.failed += failed;
    per_wall.push_back(static_cast<double>(p.checks) / p.norm_wall_s);
    per_cpu.push_back(static_cast<double>(p.checks) / p.norm_cpu_s);
    if (!w.fleet) {
      iteration_ms.insert(iteration_ms.end(), p.iteration_ms.begin(),
                          p.iteration_ms.end());
    }
    std::printf("pass %zu: %llu/%llu checks; raw %.3f s wall, %.3f s cpu, "
                "%.1f checks/s; kernel %.3f ms; calibrated %.3f s wall, "
                "%.1f checks/s\n",
                i + 1, static_cast<unsigned long long>(p.checks),
                static_cast<unsigned long long>(p.scheduled), p.wall_s,
                p.cpu_s, static_cast<double>(p.checks) / p.wall_s,
                1e3 * Median(p.kernel_s), p.norm_wall_s, per_wall.back());
  }
  std::printf("iterations timed: %zu%s\n", iteration_ms.size(),
              w.fleet ? " (serial reference run of the fleet budget)" : "");

  const double failed_frac = static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted);
  out.metrics = {
      {"checks_per_s", Median(per_wall), "1/s"},
      {"checks_per_cpu_s", Median(per_cpu), "1/s"},
      {"iteration_p50_ms", Quantile(iteration_ms, 0.5), "ms"},
      {"iteration_p90_ms", Quantile(iteration_ms, 0.9), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"unique_bugs", static_cast<double>(passes.front().bugs.size()),
       "count"},
      {"completed_frac", 1.0 - failed_frac, "ratio"},
  };
  return out;
}

}  // namespace perfbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans-out FILE]\nworkloads:");
  for (const perfbench::Workload& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 4242;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      Usage();
      return 2;
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload_name);
  if (w == nullptr || (trace != 0 && trace != 1) || !(seconds > 0)) {
    Usage();
    return 2;
  }
  std::printf("perfbench: workload %s, seed %llu, %s run\n", w->name,
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced");
  const perfbench::RunOutput out =
      trace ? perfbench::RunTraced(*w, seed, spans_out)
            : perfbench::RunUntraced(*w, seed, seconds);

  std::string metrics;
  char buf[256];
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
