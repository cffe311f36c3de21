// The traced run: per-layer metrics, per-dialect sections, and the exact
// work-counter block. Its numbers come from three sources, all in this
// file or in passes.cc:
//   (a) spans around the calls the benchmark makes (runner set-up, each
//       RunIterationAt, FleetCoordinator::Run);
//   (b) telemetry-registry snapshots taken per dialect, with the registry
//       reset in between, for the inner layers the benchmark cannot wrap;
//   (c) a layer replay over the workload's own databases that wraps
//       direct calls to TransformDatabase, LoadDatabase, Engine::Execute
//       (SELECT), relate::Relate (each cross-table pair) and ReadWkt (each
//       row).
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "fuzz/aei.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "geom/wkt_reader.h"
#include "relate/relate.h"

namespace perfbench {

namespace fuzz = spatter::fuzz;
namespace obs = spatter::obs;

namespace {

/// Databases per dialect the replay rebuilds, and AEI-shaped checks it
/// replays on each.
constexpr size_t kReplayDatabases = 4;
constexpr size_t kReplayChecks = 10;

const char* const kOracleTokens[] = {"aei", "diff", "index", "tlp", "eet"};

fuzz::DatabaseSpec KeepRows(const fuzz::DatabaseSpec& sdb,
                            const std::vector<std::vector<bool>>& a,
                            const std::vector<std::vector<bool>>& b) {
  fuzz::DatabaseSpec out;
  out.with_index = sdb.with_index;
  for (size_t t = 0; t < sdb.tables.size(); ++t) {
    fuzz::TableSpec table{sdb.tables[t].name, {}};
    for (size_t r = 0; r < sdb.tables[t].rows.size(); ++r) {
      if (t < a.size() && t < b.size() && r < a[t].size() &&
          r < b[t].size() && a[t][r] && b[t][r]) {
        table.rows.push_back(sdb.tables[t].rows[r]);
      }
    }
    out.tables.push_back(std::move(table));
  }
  return out;
}

/// (c): replays the layer calls of RunAeiCheck — transform, two loads for
/// the acceptance masks, then load + SELECT on each side — over the
/// workload's first databases, plus ReadWkt on every row and Relate on
/// every cross-table pair.
void Replay(const Workload& w, uint64_t seed, Spans* spans) {
  for (Dialect dialect : kDialects) {
    const fuzz::CampaignConfig config =
        w.Config(dialect, seed, true, w.iterations);
    spatter::engine::Engine engine(dialect, true);
    for (size_t i = 0; i < kReplayDatabases; ++i) {
      fuzz::DatabaseSpec sdb;
      {
        ScopedSpan span(spans, "replay.generate");
        sdb = fuzz::Campaign::GenerateDatabaseFor(config, i);
      }
      spatter::Rng rng(spatter::Rng::SplitSeed(seed ^ 0x5eedULL, i));
      fuzz::GeometryAwareGenerator generator(config.generator, &rng, &engine);
      for (size_t c = 0; c < kReplayChecks; ++c) {
        const fuzz::QuerySpec query = generator.RandomQuery(sdb);
        const bool metric_sensitive =
            query.extra == spatter::engine::PredicateExtra::kDistance ||
            query.predicate == "~=";
        const spatter::algo::AffineTransform transform =
            metric_sensitive ? fuzz::RandomIntegerSimilarity(&rng)
                             : fuzz::RandomIntegerAffine(&rng);
        fuzz::QuerySpec query2 = query;
        if (metric_sensitive) {
          query2.distance *= fuzz::SimilarityScale(transform).value_or(1.0);
        }
        ScopedSpan check(spans, "replay.check");
        fuzz::DatabaseSpec sdb2;
        {
          ScopedSpan span(spans, "transform");
          sdb2 = fuzz::TransformDatabase(sdb, transform, true);
        }
        std::vector<std::vector<bool>> mask1;
        std::vector<std::vector<bool>> mask2;
        {
          ScopedSpan span(spans, "load");
          (void)fuzz::LoadDatabase(&engine, sdb, &mask1);
        }
        {
          ScopedSpan span(spans, "load");
          (void)fuzz::LoadDatabase(&engine, sdb2, &mask2);
        }
        const fuzz::DatabaseSpec f1 = KeepRows(sdb, mask1, mask2);
        const fuzz::DatabaseSpec f2 = KeepRows(sdb2, mask1, mask2);
        const std::pair<const fuzz::DatabaseSpec*, const fuzz::QuerySpec*>
            sides[] = {{&f1, &query}, {&f2, &query2}};
        for (const auto& [db, q] : sides) {
          {
            ScopedSpan span(spans, "load");
            (void)fuzz::LoadDatabase(&engine, *db, nullptr);
          }
          ScopedSpan span(spans, "query");
          (void)engine.Execute(q->ToSql());
        }
      }
      std::vector<std::vector<spatter::geom::GeomPtr>> tables;
      for (const fuzz::TableSpec& table : sdb.tables) {
        tables.emplace_back();
        for (const std::string& wkt : table.rows) {
          ScopedSpan span(spans, "wkt");
          auto g = spatter::geom::ReadWkt(wkt);
          if (g.ok()) tables.back().push_back(g.Take());
        }
      }
      if (tables.size() < 2) continue;
      for (const auto& a : tables[0]) {
        for (const auto& b : tables[1]) {
          ScopedSpan span(spans, "relate");
          (void)spatter::relate::Relate(*a, *b);
        }
      }
    }
  }
}

/// Durations (seconds) of every span with `name`.
std::vector<double> Durations(const Spans& spans, const std::string& name) {
  std::vector<double> out;
  for (const Spans::Span& s : spans.spans()) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double SumSeconds(const obs::MetricsSnapshot& m, const std::string& name) {
  const obs::HistogramData* h = m.FindHistogram(name);
  return h ? 1e-9 * static_cast<double>(h->sum_ns) : 0.0;
}

double MeanMs(const obs::MetricsSnapshot& m, const std::string& name) {
  const obs::HistogramData* h = m.FindHistogram(name);
  return h ? 1e3 * h->MeanSeconds() : 0.0;
}

uint64_t Samples(const obs::MetricsSnapshot& m, const std::string& name) {
  const obs::HistogramData* h = m.FindHistogram(name);
  return h ? h->count : 0;
}

void PrintDialectSection(Dialect dialect, const DialectRun& run) {
  std::printf("-- %s: %llu checks in %.3f calibrated s --\n",
              spatter::engine::DialectCliToken(dialect),
              static_cast<unsigned long long>(run.checks), run.norm_wall_s);
  std::printf("   %-28s %10s %12s %12s %12s\n", "histogram (one sample)",
              "samples", "mean_us", "p50_us", "p90_us");
  for (const auto& [name, h] : run.metrics.histograms) {
    if (h.count == 0) continue;
    std::printf("   %-28s %10llu %12.2f %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(h.count),
                1e6 * h.MeanSeconds(), 1e6 * h.QuantileSeconds(0.5),
                1e6 * h.QuantileSeconds(0.9));
  }
}

/// Per span name: count, total and self time (a span minus the time its
/// child spans cover).
void PrintSpanTable(const Spans& spans) {
  struct Row {
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = spans.SelfSeconds();
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Spans::Span& s = spans.spans()[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total_s += s.end - s.start;
    row.self_s += self[i];
  }
  std::printf("== spans (raw wall time; self = span minus its children) "
              "==\n");
  std::printf("   %-20s %8s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const auto& [name, row] : rows) {
    std::printf("   %-20s %8zu %12.4f %12.4f\n", name.c_str(), row.count,
                row.total_s, row.self_s);
  }
}

/// Prints the work block and returns false when the two passes' exact
/// counters differ anywhere.
bool CheckWork(const Pass& first, const Pass& second) {
  bool same = true;
  for (const auto& [dialect, run] : second.dialects) {
    const char* token = spatter::engine::DialectCliToken(dialect);
    for (const auto& [name, value] : run.work) {
      std::printf("work %s %s %llu\n", token, name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    if (first.dialects.at(dialect).work != run.work) {
      same = false;
      std::printf("work %s: counters DIFFER between the two passes\n", token);
    }
  }
  return same;
}

}  // namespace

RunOutput RunTraced(const Workload& w, uint64_t seed,
                    const std::string& spans_out) {
  RunOutput out;
  CheckFaultsOff(w, seed, &out);
  Spans spans;
  {
    ScopedSpan span(&spans, "setup");
    SetupSeconds(w, seed);
  }

  // Fleet workload: an untraced and a traced fleet pass, with the
  // coordinator's own registry read around them (wire.rejected lands
  // there for frames the coordinator refuses).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  Pass fleet_untraced;
  Pass fleet_traced;
  uint64_t coordinator_rejected = 0;
  if (w.fleet) {
    registry.Reset();
    fleet_untraced = RunFleetPass(w, seed, w.iterations, nullptr);
    fleet_traced = RunFleetPass(w, seed, w.iterations, &spans);
    coordinator_rejected = registry.Snapshot().CounterOr("wire.rejected");
  }

  // In-process passes of the same budget (for the fleet workload, the
  // serial reference): one untraced, one traced. Their wall ratio is the
  // tracing overhead; their exact work counters must agree.
  const Pass untraced =
      RunInProcessPass(w, seed, true, w.iterations, true, nullptr);
  const Pass traced = RunInProcessPass(w, seed, true, w.iterations, true,
                                       &spans);
  for (const Pass* p : std::initializer_list<const Pass*>{
           &fleet_untraced, &fleet_traced, &untraced, &traced}) {
    out.attempted += p->scheduled;
    out.failed += p->scheduled - std::min(p->checks, p->scheduled);
  }

  std::printf("== per-dialect sections (registry reset between dialects) "
              "==\n");
  obs::MetricsSnapshot total;
  WorkCounters work_total;
  for (const auto& [dialect, run] : traced.dialects) {
    PrintDialectSection(dialect, run);
    total.Merge(run.metrics);
    for (const auto& [name, value] : run.work) work_total[name] += value;
  }

  std::printf("== work block (exact; must repeat across passes and runs of "
              "one seed) ==\n");
  bool work_same = CheckWork(untraced, traced);
  if (w.fleet) {
    for (const auto& [name, value] : fleet_traced.fleet_metrics.counters) {
      std::printf("work fleet %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    if (fleet_traced.fleet_metrics.counters !=
        fleet_untraced.fleet_metrics.counters) {
      work_same = false;
      std::printf("work fleet: counters DIFFER between the two passes\n");
    }
  }
  const std::string bug_set = BugSetLine(traced.bugs);
  bool bugs_same = BugSetLine(untraced.bugs) == bug_set;
  if (w.fleet) {
    bugs_same = bugs_same && BugSetLine(fleet_untraced.bugs) == bug_set &&
                BugSetLine(fleet_traced.bugs) == bug_set;
  }
  std::printf("bug-set: %s\n", bug_set.c_str());
  std::printf("work-check: %s; bug sets %s\n",
              work_same ? "identical" : "DIFFER",
              bugs_same ? "identical" : "DIFFER");
  if (!work_same || !bugs_same) {
    out.correct = false;
    out.failed += traced.scheduled;
  }

  // (c) the layer replay, with the registry reset so its engine.relate /
  // engine.prepared sums cover the replayed SELECTs only.
  registry.Reset();
  Replay(w, seed, &spans);
  const obs::MetricsSnapshot replay_metrics = registry.Snapshot();

  PrintSpanTable(spans);
  if (!spans_out.empty()) {
    if (std::FILE* f = std::fopen(spans_out.c_str(), "w")) {
      const std::string text = spans.ToJsonl();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  spans_out.c_str());
    }
  }

  // ---- per-layer metrics ----
  const double checks = static_cast<double>(work_total["campaign.checks_run"]);
  const double pass_wall = traced.wall_s;
  double oracle_cpu = 0.0;
  uint64_t judged = 0;
  uint64_t verdicts = 0;
  for (const char* k : kOracleTokens) {
    const std::string prefix = std::string("oracle.") + k;
    oracle_cpu += SumSeconds(total, prefix + ".check");
    const uint64_t applicable = total.CounterOr(prefix + ".ok") +
                                total.CounterOr(prefix + ".mismatch") +
                                total.CounterOr(prefix + ".crash");
    judged += applicable;
    verdicts += applicable + total.CounterOr(prefix + ".inapplicable");
  }
  const double fuzz_layers = SumSeconds(total, "campaign.generate") +
                             SumSeconds(total, "campaign.mutate") +
                             SumSeconds(total, "campaign.check");
  const double select_phases = SumSeconds(total, "engine.plan") +
                               SumSeconds(total, "engine.index_scan") +
                               SumSeconds(total, "engine.relate") +
                               SumSeconds(total, "engine.prepared");
  const double replay_check = Sum(Durations(spans, "replay.check"));
  const double overhead =
      w.fleet
          ? Ratio(fleet_traced.norm_wall_s, fleet_untraced.norm_wall_s) - 1.0
          : Ratio(traced.norm_wall_s, untraced.norm_wall_s) - 1.0;
  const uint64_t hits = total.CounterOr("engine.stmt_cache.hit");
  const uint64_t misses = total.CounterOr("engine.stmt_cache.miss");
  const std::vector<double> relate_pairs = Durations(spans, "relate");

  std::vector<Metric>& m = out.metrics;
  m.push_back({"generate.ms", MeanMs(total, "campaign.generate"), "ms"});
  m.push_back({"mutate.frac", Ratio(SumSeconds(total, "campaign.mutate"),
                                    pass_wall), "ratio"});
  m.push_back({"check.ms", MeanMs(total, "campaign.check"), "ms"});
  for (const char* k : kOracleTokens) {
    const std::string prefix = std::string("oracle.") + k;
    m.push_back({prefix + ".check_cpu_frac",
                 Ratio(SumSeconds(total, prefix + ".check"), oracle_cpu),
                 "ratio"});
  }
  m.push_back({"oracle.judged_frac",
               Ratio(static_cast<double>(judged),
                     static_cast<double>(verdicts)), "ratio"});
  m.push_back({"unaccounted_frac", 1.0 - Ratio(fuzz_layers, pass_wall),
               "ratio"});
  m.push_back({"check.relate_frac",
               Ratio(SumSeconds(total, "engine.relate") +
                         SumSeconds(total, "engine.prepared"),
                     oracle_cpu), "ratio"});
  m.push_back({"check.load_frac",
               Ratio(SumSeconds(total, "engine.statement") - select_phases,
                     oracle_cpu), "ratio"});
  m.push_back({"check.parse_frac",
               Ratio(SumSeconds(total, "engine.parse"), oracle_cpu),
               "ratio"});
  m.push_back({"transform.call_us", 1e6 * Mean(Durations(spans, "transform")),
               "us"});
  m.push_back({"load.call_us", 1e6 * Mean(Durations(spans, "load")), "us"});
  m.push_back({"query.call_us", 1e6 * Mean(Durations(spans, "query")), "us"});
  m.push_back({"replay.transform_frac",
               Ratio(Sum(Durations(spans, "transform")), replay_check),
               "ratio"});
  m.push_back({"replay.load_frac",
               Ratio(Sum(Durations(spans, "load")), replay_check), "ratio"});
  m.push_back({"replay.query_frac",
               Ratio(Sum(Durations(spans, "query")), replay_check), "ratio"});
  m.push_back({"replay.relate_frac",
               Ratio(SumSeconds(replay_metrics, "engine.relate") +
                         SumSeconds(replay_metrics, "engine.prepared"),
                     replay_check), "ratio"});
  m.push_back({"engine.statement_ms", MeanMs(total, "engine.statement"),
               "ms"});
  m.push_back({"engine.statements_per_check",
               Ratio(static_cast<double>(work_total["engine.statements"]),
                     checks), "count"});
  m.push_back({"engine.load_statements_per_check",
               Ratio(static_cast<double>(work_total["engine.load_statements"]),
                     checks), "count"});
  m.push_back({"sql.parse_ms", MeanMs(total, "engine.parse"), "ms"});
  m.push_back({"sql.stmt_cache.hit_rate",
               Ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses)), "ratio"});
  m.push_back({"sql.stmt_cache.evictions",
               static_cast<double>(total.CounterOr("engine.stmt_cache.evict")),
               "count"});
  m.push_back({"wkt.read_us_per_row", 1e6 * Mean(Durations(spans, "wkt")),
               "us"});
  m.push_back({"index.probe_ms", MeanMs(total, "engine.index_scan"), "ms"});
  m.push_back({"index.probes",
               static_cast<double>(Samples(total, "engine.index_scan")),
               "count"});
  m.push_back({"relate.full_calls_per_check",
               Ratio(static_cast<double>(total.CounterOr("relate.full")),
                     checks), "count"});
  m.push_back({"relate.prefilter_skips",
               static_cast<double>(
                   total.CounterOr("relate.envelope_prefilter")), "count"});
  m.push_back({"relate.outer_row_ms", MeanMs(total, "engine.relate"), "ms"});
  m.push_back({"relate.prepared_ms", MeanMs(total, "engine.prepared"), "ms"});
  m.push_back({"relate.pair_us", 1e6 * Mean(relate_pairs), "us"});
  m.push_back({"relate.pair_p90_us", 1e6 * Quantile(relate_pairs, 0.9),
               "us"});
  m.push_back({"corpus.admitted",
               static_cast<double>(total.CounterOr("corpus.admitted")),
               "count"});
  m.push_back({"corpus.mutate_iterations",
               static_cast<double>(
                   total.CounterOr("campaign.mutate_iterations")), "count"});
  m.push_back({"fleet.busy_frac",
               Ratio(fleet_traced.busy_s, 2.0 * fleet_traced.wall_s),
               "ratio"});
  m.push_back({"fleet.cpu_overhead_frac",
               w.fleet
                   ? Ratio(fleet_untraced.norm_cpu_s, untraced.norm_cpu_s) - 1.0
                   : 0.0,
               "ratio"});
  m.push_back({"fleet.respawns",
               static_cast<double>(fleet_untraced.respawns +
                                   fleet_traced.respawns), "count"});
  m.push_back({"fleet.protocol_errors",
               static_cast<double>(fleet_untraced.protocol_errors +
                                   fleet_traced.protocol_errors), "count"});
  m.push_back({"wire.rejected",
               static_cast<double>(
                   coordinator_rejected +
                   fleet_untraced.fleet_metrics.CounterOr("wire.rejected") +
                   fleet_traced.fleet_metrics.CounterOr("wire.rejected")),
               "count"});
  m.push_back({"trace.overhead_frac", overhead, "ratio"});
  m.push_back({"calibration.kernel_ms", 1e3 * Median(traced.kernel_s), "ms"});
  for (const auto& [dialect, run] : traced.dialects) {
    const std::string d = spatter::engine::DialectCliToken(dialect);
    const double n = static_cast<double>(run.checks);
    const auto work = [&](const char* name) {
      const auto it = run.work.find(name);
      return it == run.work.end() ? 0.0 : static_cast<double>(it->second);
    };
    m.push_back({d + ".checks_per_s", Ratio(n, run.norm_wall_s), "1/s"});
    m.push_back({d + ".check_ms", MeanMs(run.metrics, "campaign.check"),
                 "ms"});
    m.push_back({d + ".relate.full_calls_per_check",
                 Ratio(work("relate.full"), n), "count"});
    m.push_back({d + ".engine.load_statements_per_check",
                 Ratio(work("engine.load_statements"), n), "count"});
  }

  std::printf("== layer shares ==\n");
  std::printf("unaccounted_frac %.4f (iteration wall outside "
              "generate/mutate/check)   trace.overhead_frac %.4f\n",
              1.0 - Ratio(fuzz_layers, pass_wall), overhead);
  std::printf("oracle check CPU %.3f s: relate %.1f%%, load (statement CPU "
              "outside SELECT phases) %.1f%%, parse %.1f%%\n",
              oracle_cpu,
              100.0 * Ratio(SumSeconds(total, "engine.relate") +
                                SumSeconds(total, "engine.prepared"),
                            oracle_cpu),
              100.0 * Ratio(SumSeconds(total, "engine.statement") -
                                select_phases, oracle_cpu),
              100.0 * Ratio(SumSeconds(total, "engine.parse"), oracle_cpu));
  std::printf("replayed AEI checks %.3f s: transform %.1f%%, load %.1f%%, "
              "query %.1f%% (relate inside it %.1f%%)\n",
              replay_check,
              100.0 * Ratio(Sum(Durations(spans, "transform")), replay_check),
              100.0 * Ratio(Sum(Durations(spans, "load")), replay_check),
              100.0 * Ratio(Sum(Durations(spans, "query")), replay_check),
              100.0 * Ratio(SumSeconds(replay_metrics, "engine.relate") +
                                SumSeconds(replay_metrics, "engine.prepared"),
                            replay_check));
  return out;
}

}  // namespace perfbench
