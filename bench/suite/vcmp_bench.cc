// vcmp_bench: the end-to-end benchmark of vcmp (README.md in this
// directory). One invocation is one run of one workload:
//
//   vcmp_bench --workload=inmem_batch --seed=1 --seconds=15 --trace=0
//
// A run generates its inputs from --seed, executes the workload once
// untimed with the reference checks on, then repeats set-up and execution
// for --seconds and reports medians (setup_s, wall_s, cpu_s). The last
// line of stdout is one JSON object with the keys correct, attempted,
// failed and metrics; --trace=1 reports the per-layer metrics in place
// of the end-to-end ones. Exit status: 0 when every check passed, 1 when
// one failed (the JSON line is still printed), 2 on a usage error.
//
//   vcmp_bench --list                       # workloads and metric names
//   vcmp_bench --write-goldens --workload=all --seed=1

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/wall_clock.h"
#include "goldens.h"
#include "metrics/export.h"
#include "probe.h"
#include "workloads.h"

namespace vcmp {
namespace suite {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (checked by contract_test.py).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"runner.construct_s", "s"},
    {"runner.fold_s", "s"},
    {"runner.batches", "count"},
    {"runner.sim_s", "sim_s"},
    {"tasks.make_program_s", "s"},
    {"engine.run_s", "s"},
    {"engine.round_ms", "ms"},
    {"engine.msgs_per_s", "1/s"},
    {"engine.rounds", "count"},
    {"engine.logical_messages", "count"},
    {"engine.wire_messages", "count"},
    {"engine.bppr_pct", "%"},
    {"engine.mssp_pct", "%"},
    {"engine.bkhs_pct", "%"},
    {"engine.phase.compute_s", "s"},
    {"engine.phase.group_s", "s"},
    {"engine.phase.stage_s", "s"},
    {"engine.phase.deliver_s", "s"},
    {"ooc.spill_mib_written", "MiB"},
    {"ooc.spill_mib_read", "MiB"},
    {"ooc.spill_pages", "count"},
    {"ooc.restored_messages", "count"},
    {"ooc.state_mib_read", "MiB"},
    {"ooc.cache_hits", "count"},
    {"ooc.cache_misses", "count"},
    {"ooc.cache_hit_ratio", "ratio"},
    {"ooc.prefetch_loads", "count"},
    {"ooc.cache_evictions", "count"},
    {"ooc.overhead_pct", "%"},
    {"ooc.io_mib_per_s", "MiB/s"},
    {"tuning.train_pct", "%"},
    {"tuning.fit_pct", "%"},
    {"tuning.plan_pct", "%"},
    {"tuning.samples", "count"},
    {"tuning.batches", "count"},
    {"tuning.peak_pred_err_pct", "%"},
    {"concurrent.queries", "count"},
    {"concurrent.failed", "count"},
    {"concurrent.speedup", "x"},
    {"trace.overhead_pct", "%"},
    {"trace.other_pct", "%"},
    {"host.hardware_threads", "count"},
    {"host.peak_rss_mib", "MiB"},
};

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetupsPerRound = 3;

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

/// Operations attempted and failed over a run, with the reasons.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;

  void Record(const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    reasons.insert(reasons.end(), failures.begin(), failures.end());
  }
};

/// Per-layer numbers of one traced execution. `spans` is the execution's
/// recording (root span `root`); `layer_spans`/`layer_batches` are where
/// the engine, task and runner layers are read from (the execution's own
/// or its twin's).
MetricMap LayerMetrics(const Workload& workload, const SpanRecorder& spans,
                       int root, const std::vector<BatchRecord>& batches,
                       const SpanRecorder& layer_spans,
                       const std::vector<BatchRecord>& layer_batches,
                       double twin_seconds) {
  MetricMap m;
  const double wall = spans.spans()[static_cast<size_t>(root)].Seconds();
  const double make = layer_spans.Sum("make_program");
  const double engine = layer_spans.Sum("engine.");
  m["tasks.make_program_s"] = make;
  m["engine.run_s"] = engine;
  // Everything the runner (and the trainer's loop around it) does outside
  // the program factory, the engine and the bench's own checks.
  m["runner.fold_s"] = layer_spans.Sum("runner.run") +
                       layer_spans.Sum("tuning.train") - make - engine -
                       layer_spans.Sum("bench.check");
  for (const char* task : {"bppr", "mssp", "bkhs"}) {
    m[StrFormat("engine.%s_pct", task)] =
        engine > 0.0
            ? 100.0 * layer_spans.Sum(StrFormat("engine.%s", task)) / engine
            : 0.0;
  }

  double rounds = 0.0;
  double logical = 0.0;
  double wire = 0.0;
  double sim = 0.0;
  OocRunStats ooc;
  for (const BatchRecord& b : layer_batches) {
    rounds += static_cast<double>(b.rounds);
    logical += b.logical_messages;
    wire += b.wire_messages;
    sim += b.sim_seconds;
    ooc.Accumulate(b.ooc);
  }
  m["runner.batches"] = static_cast<double>(layer_batches.size());
  m["runner.sim_s"] = sim;
  m["engine.rounds"] = rounds;
  m["engine.logical_messages"] = logical;
  m["engine.wire_messages"] = wire;
  m["engine.msgs_per_s"] = engine > 0.0 ? logical / engine : 0.0;
  m["engine.round_ms"] = rounds > 0.0 ? 1e3 * engine / rounds : 0.0;

  m["ooc.spill_mib_written"] = ooc.spill_bytes_written / kMiB;
  m["ooc.spill_mib_read"] = ooc.spill_bytes_read / kMiB;
  m["ooc.spill_pages"] = static_cast<double>(ooc.spill_pages);
  m["ooc.restored_messages"] = static_cast<double>(ooc.restored_messages);
  m["ooc.state_mib_read"] = ooc.state_bytes_read / kMiB;
  m["ooc.cache_hits"] = static_cast<double>(ooc.cache_hits);
  m["ooc.cache_misses"] = static_cast<double>(ooc.cache_misses);
  const double lookups = static_cast<double>(ooc.cache_hits + ooc.cache_misses);
  m["ooc.cache_hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(ooc.cache_hits) / lookups : 0.0;
  m["ooc.prefetch_loads"] = static_cast<double>(ooc.prefetch_loads);
  m["ooc.cache_evictions"] = static_cast<double>(ooc.cache_evictions);

  m["tuning.train_pct"] = 100.0 * spans.Sum("tuning.train") / wall;
  m["tuning.fit_pct"] = 100.0 * spans.Sum("tuning.fit") / wall;
  m["tuning.plan_pct"] = 100.0 * spans.Sum("tuning.plan") / wall;
  // `other`: wall time no layer span covers — the bench loop and the
  // bench's own answer checks.
  const double layers = spans.ChildSum(root) - spans.Sum("bench.check");
  m["trace.other_pct"] = 100.0 * (wall - layers) / wall;

  workload.AddLayerMetrics(batches, wall, twin_seconds, &m);
  return m;
}

void WriteChromeTrace(const std::vector<const SpanRecorder*>& recordings,
                      const std::string& path) {
  uint64_t origin = ~0ULL;
  for (const SpanRecorder* r : recordings) {
    for (const Span& s : r->spans()) origin = std::min(origin, s.start_ns);
  }
  std::vector<std::string> events;
  for (size_t i = 0; i < recordings.size(); ++i) {
    recordings[i]->AppendChromeEvents(origin, static_cast<uint32_t>(i),
                                      &events);
  }
  JsonWriter json(/*with_schema_version=*/false);
  json.RawField("traceEvents", "[" + Join(events, ",\n") + "]");
  json.Field("displayTimeUnit", "ms");
  Status written = WriteTextFile(json.Close(), path);
  if (!written.ok()) std::cerr << written.ToString() << "\n";
}

int ListMetrics() {
  const auto specs = [](const auto& table) {
    std::vector<std::string> out;
    for (const MetricSpec& spec : table) {
      JsonWriter one(/*with_schema_version=*/false);
      one.Field("name", spec.name);
      one.Field("unit", spec.unit);
      out.push_back(one.Close());
    }
    return "[" + Join(out, ",") + "]";
  };
  std::vector<std::string> names;
  for (const std::string& name : WorkloadNames()) names.push_back("\"" + name + "\"");
  JsonWriter json(/*with_schema_version=*/false);
  json.RawField("workloads", "[" + Join(names, ",") + "]");
  json.RawField("end_to_end", specs(kEndToEnd));
  json.RawField("per_layer", specs(kPerLayer));
  std::cout << json.Close() << "\n";
  return 0;
}

int WriteGoldenFile(const FlagParser& flags, const WorkloadInputs& inputs) {
  const std::string path = flags.GetString("goldens");
  Goldens goldens;
  auto existing = ReadGoldens(path);
  if (existing.ok()) {
    goldens = std::move(existing).value();
  } else if (existing.status().code() != StatusCode::kNotFound) {
    std::cerr << existing.status().ToString() << "\n";
    return 2;
  }
  const std::string which = flags.GetString("workload");
  std::vector<std::string> names = WorkloadNames();
  if (which != "all") names = {which};
  Goldens written;
  for (const std::string& name : names) {
    auto workload = MakeWorkload(name, inputs);
    if (workload == nullptr) {
      std::cerr << "unknown workload '" << name << "'\n";
      return 2;
    }
    workload->Setup(nullptr);
    workload->Execute(nullptr, /*verify=*/true);
    const std::string fingerprint = workload->Fingerprint();
    std::vector<std::string> failures = workload->probe().failures();
    workload->VerifyTwin();
    for (const std::string& f : workload->probe().failures()) {
      failures.push_back(f);
    }
    const std::string key =
        GoldenKey(inputs.seed, inputs.shrink, workload->golden_key());
    if (written.count(key) != 0 && written[key] != fingerprint) {
      failures.push_back(name + " computed something else than the other "
                         "workload sharing golden " + key);
    }
    for (const std::string& f : failures) std::cerr << "FAIL " << f << "\n";
    if (!failures.empty()) return 1;
    written[key] = fingerprint;
    goldens[key] = fingerprint;
    std::cerr << "golden " << key << "\n";
  }
  Status status = WriteGoldens(goldens, path);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

int RunWorkload(const FlagParser& flags, const WorkloadInputs& inputs) {
  const std::string name = flags.GetString("workload");
  auto workload = MakeWorkload(name, inputs);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << name << "' (known: "
              << Join(WorkloadNames(), ", ") << ")\n";
    return 2;
  }
  auto goldens = ReadGoldens(flags.GetString("goldens"));
  if (!goldens.ok()) {
    std::cerr << goldens.status().ToString() << "\n";
    return 2;
  }
  const bool traced = flags.GetInt("trace") != 0;
  const double seconds = flags.GetDouble("seconds");
  Workload& w = *workload;

  // Untimed verify execution: references, twins and the golden.
  Tally tally;
  w.Setup(nullptr);
  w.Execute(nullptr, /*verify=*/true);
  const std::string expected = w.Fingerprint();
  std::vector<std::string> failures = w.probe().failures();
  const std::string key =
      GoldenKey(inputs.seed, inputs.shrink, w.golden_key());
  auto golden = goldens.value().find(key);
  if (golden != goldens.value().end() && golden->second != expected) {
    failures.push_back("results differ from the golden " + key);
  }
  w.VerifyTwin();
  for (const std::string& f : w.probe().failures()) failures.push_back(f);
  tally.Record(failures);

  // Timed rounds until --seconds have passed. Each round sets up
  // kSetupsPerRound times, then executes the workload on the last set-up;
  // setup_s is the median over the whole run, so a short noisy episode
  // cannot move it. Every execution must reproduce the verified
  // fingerprint.
  const auto check = [&](std::vector<std::string> found) {
    if (w.Fingerprint() != expected) {
      found.push_back("an execution computed something else than the "
                      "verified one");
    }
    return found;
  };
  SpanRecorder setup_spans;
  std::vector<double> generate;
  std::vector<double> construct;
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> traced_walls;
  std::vector<MetricMap> layer_samples;
  SpanRecorder last_traced;
  SpanRecorder last_twin;
  const uint64_t loop_start = wallclock::NowNs();
  do {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      ScopedSpan span(&setup_spans, "setup");
      const SetupTimes times = w.Setup(&setup_spans);
      generate.push_back(times.generate_seconds);
      construct.push_back(times.construct_seconds);
      setup.push_back(times.generate_seconds + times.construct_seconds);
    }
    const double cpu_start = CpuSeconds();
    const uint64_t start = wallclock::NowNs();
    w.Execute(nullptr, /*verify=*/false);
    walls.push_back(wallclock::SecondsSince(start));
    cpus.push_back(CpuSeconds() - cpu_start);
    tally.Record(check(w.probe().failures()));
    if (!traced) continue;

    SpanRecorder spans;
    const int root = spans.Begin("iteration");
    w.Execute(&spans, /*verify=*/false);
    spans.End(root);
    const std::vector<BatchRecord> batches = w.probe().batches();
    std::vector<std::string> found = check(w.probe().failures());
    if (!spans.Balanced()) found.push_back("unbalanced spans");
    SpanRecorder twin;
    const double twin_seconds = w.TimeTwin(&twin);
    for (const std::string& f : w.probe().failures()) found.push_back(f);
    const bool from_twin = w.LayersFromTwin();
    layer_samples.push_back(LayerMetrics(
        w, spans, root, batches, from_twin ? twin : spans,
        from_twin ? w.probe().batches() : batches, twin_seconds));
    if (layer_samples.back()["trace.other_pct"] < -0.1) {
      found.push_back("layer spans overlap: they add up to more than the "
                      "wall time");
    }
    tally.Record(found);
    traced_walls.push_back(spans.spans()[static_cast<size_t>(root)].Seconds());
    last_traced = std::move(spans);
    last_twin = std::move(twin);
  } while (wallclock::SecondsSince(loop_start) < seconds);

  MetricMap values;
  const MetricSpec* begin = traced ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = traced ? std::end(kPerLayer) : std::end(kEndToEnd);
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) {
      std::vector<double> samples;
      for (MetricMap& sample : layer_samples) samples.push_back(sample[spec.name]);
      values[spec.name] = Median(samples);
    }
    values["graph.generate_s"] = Median(generate);
    values["runner.construct_s"] = Median(construct);
    values["trace.overhead_pct"] =
        100.0 * (Median(traced_walls) / Median(walls) - 1.0);
    values["host.hardware_threads"] = ThreadPool::HardwareThreads();
    values["host.peak_rss_mib"] = PeakRssMib();
    const EnginePhaseTimes phases = w.PhaseTimes();
    values["engine.phase.compute_s"] = phases.compute_seconds;
    values["engine.phase.group_s"] = phases.group_seconds;
    values["engine.phase.stage_s"] = phases.stage_seconds;
    values["engine.phase.deliver_s"] = phases.deliver_seconds;
    const std::string trace_out = flags.GetString("trace-out");
    if (!trace_out.empty()) {
      WriteChromeTrace({&setup_spans, &last_traced, &last_twin}, trace_out);
    }
  } else {
    values["wall_s"] = Median(walls);
    values["cpu_s"] = Median(cpus);
    values["setup_s"] = Median(setup);
  }

  // Human-readable summary, then the one-line result.
  std::printf("%s seed=%llu shrink=%g: %zu timed executions (wall min %.4f "
              "max %.4f s), %u hardware threads\n",
              name.c_str(), static_cast<unsigned long long>(inputs.seed),
              inputs.shrink, walls.size(),
              *std::min_element(walls.begin(), walls.end()),
              *std::max_element(walls.begin(), walls.end()),
              ThreadPool::HardwareThreads());
  JsonWriter metrics(/*with_schema_version=*/false);
  std::vector<std::string> not_finite;
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    double value = values[spec->name];
    if (!std::isfinite(value)) {
      not_finite.push_back(StrFormat("metric %s is not finite", spec->name));
      value = 0.0;
    }
    std::printf("  %-28s %14.6g %s\n", spec->name, value, spec->unit);
    JsonWriter one(/*with_schema_version=*/false);
    one.Field("value", value);
    one.Field("unit", spec->unit);
    metrics.RawField(spec->name, one.Close());
  }
  if (!not_finite.empty()) tally.Record(not_finite);
  for (const std::string& reason : tally.reasons) {
    std::cerr << "FAIL " << reason << "\n";
  }
  JsonWriter result(/*with_schema_version=*/false);
  result.Field("correct", tally.failed == 0);
  result.Field("attempted", tally.attempted);
  result.Field("failed", tally.failed);
  result.RawField("metrics", metrics.Close());
  std::cout << result.Close() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagParser flags("vcmp_bench",
                   "end-to-end benchmark: one run of one workload");
  flags.Define("workload", "", "workload name (--list shows them)");
  flags.Define("seed", "1", "seed the inputs are generated from");
  flags.Define("seconds", "15", "how long the timed executions run");
  flags.Define("trace", "0",
               "1 = report per-layer metrics from traced executions");
  flags.Define("trace-out", "",
               "traced runs: write the spans as a Chrome trace here");
  flags.Define("shrink", "1",
               "extra down-scaling of the graphs (small test inputs)");
  flags.Define("goldens", "bench/suite/goldens.json",
               "golden fingerprints file");
  flags.Define("write-goldens", "false",
               "record the fingerprints of --workload (or all) at --seed "
               "and --shrink into --goldens, then exit");
  flags.Define("spill-dir", ".bench_build/spill",
               "directory for out-of-core spill files");
  flags.Define("list", "false", "print workloads and metrics as JSON");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  if (flags.GetBool("list")) return ListMetrics();

  WorkloadInputs inputs;
  inputs.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  inputs.shrink = flags.GetDouble("shrink");
  if (inputs.shrink < 1.0) {
    std::cerr << "--shrink must be >= 1\n";
    return 2;
  }
  inputs.spill_dir = StrFormat("%s/run-%d", flags.GetString("spill-dir").c_str(),
                               static_cast<int>(getpid()));
  const int status = flags.GetBool("write-goldens")
                         ? WriteGoldenFile(flags, inputs)
                         : RunWorkload(flags, inputs);
  std::error_code ec;
  std::filesystem::remove_all(inputs.spill_dir, ec);
  return status;
}

}  // namespace
}  // namespace suite
}  // namespace vcmp

int main(int argc, char** argv) { return vcmp::suite::Main(argc, argv); }
