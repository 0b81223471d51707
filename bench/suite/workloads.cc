#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/wall_clock.h"
#include "core/batch_schedule.h"
#include "core/concurrent_runner.h"
#include "core/runner.h"
#include "core/tuning/memory_fit.h"
#include "core/tuning/planner.h"
#include "core/tuning/trainer.h"
#include "core/tuning/tuner.h"
#include "goldens.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace suite {
namespace {

// The DBLP stand-in at an eighth of the paper's size: 76.7K vertices and
// 460K directed edges. An MSSP batch still streams about 7M messages
// (~600 MiB resident), far beyond the last-level cache, and an execution
// is short enough that a run's median covers several of them.
constexpr double kGraphScale = 8.0;

// inmem_batch / inmem_batch_1t.
constexpr double kInMemBpprWorkload = 6144.0;
constexpr double kInMemMsspWorkload = 2048.0;
constexpr uint32_t kInMemBatches = 2;

// ooc_spill: GraphD under a hard per-machine budget (paper-scale bytes).
// 128 MiB writes ~24 MiB of spill pages per execution. From ~96 MiB on
// (~170 MiB of spill pages) rewritten spill files reach the disk and the
// time follows the disk, not the program (README.md).
constexpr double kOocWorkload = 4096.0;
constexpr uint32_t kOocBatches = 8;
constexpr uint64_t kOocBudgetBytes = 128ull << 20;

// tune_plan: the Section-5 tuner on BPPR.
constexpr double kTuneWorkload = 10240.0;

// concurrent_mix: K queries in flight over one shared graph. The graph is
// smaller than the others because every in-flight MSSP query holds its
// own message buffers.
constexpr double kConcurrentScale = 16.0;
constexpr uint32_t kMaxInFlight = 4;

struct MixQuery {
  const char* task;
  double workload;
  uint32_t batches;
};

// The mix's shape is fixed so that every seed loads the engine alike; the
// seed draws each query's walks and sources. Query i runs on slot i mod K:
// at K=4 every slot gets one query of each task, in rotated order, so the
// MSSP queries (the largest buffers) do not all run at once.
constexpr MixQuery kMix[] = {
    {"BPPR", 128, 1}, {"MSSP", 256, 1}, {"BKHS", 384, 1}, {"BPPR", 128, 2},
    {"MSSP", 256, 2}, {"BKHS", 384, 2}, {"BPPR", 128, 3}, {"MSSP", 256, 3},
    {"BKHS", 384, 3}, {"BPPR", 384, 1}, {"MSSP", 128, 1}, {"BKHS", 256, 1},
};

uint32_t HardwareThreads() { return ThreadPool::HardwareThreads(); }

/// Sums the phase timers over an execution's batches.
EnginePhaseTimes SumPhases(const std::vector<BatchRecord>& batches) {
  EnginePhaseTimes sum;
  for (const BatchRecord& b : batches) {
    sum.compute_seconds += b.phase.compute_seconds;
    sum.group_seconds += b.phase.group_seconds;
    sum.stage_seconds += b.phase.stage_seconds;
    sum.deliver_seconds += b.phase.deliver_seconds;
  }
  return sum;
}

std::string ReportFingerprint(const RunReport& report) {
  std::string out;
  for (const BatchReport& b : report.batches) {
    out += StrFormat("%s:%llu:%s:%s;", HexBits(b.seconds).c_str(),
                     static_cast<unsigned long long>(b.rounds),
                     HexBits(b.messages).c_str(),
                     HexBits(b.peak_memory_bytes).c_str());
  }
  return out;
}

// ---------------------------------------------------------------------
// inmem_batch, inmem_batch_1t: Pregel+ with engine defaults, BPPR then
// MSSP in equal batches.

class InMemBatch : public Workload {
 public:
  InMemBatch(const WorkloadInputs& inputs, uint32_t threads)
      : Workload(inputs),
        threads_(threads),
        bppr_(MakeTimedTask("BPPR", &probe_)),
        mssp_(MakeTimedTask("MSSP", &probe_)) {}

  // One golden for both thread counts pins thread invariance.
  std::string golden_key() const override { return "inmem_batch"; }

  void Execute(SpanRecorder* spans, bool verify) override {
    probe_.Begin(spans, verify);
    RunBatches(*runner_, *bppr_,
               BatchSchedule::Equal(kInMemBpprWorkload, kInMemBatches), spans);
    RunBatches(*runner_, *mssp_,
               BatchSchedule::Equal(kInMemMsspWorkload, kInMemBatches), spans);
  }

 protected:
  double GraphScale() const override { return kGraphScale; }

  void Build(bool phase_times) override {
    RunnerOptions options = BaseOptions(SystemKind::kPregelPlus, phase_times);
    options.execution_threads = threads_;  // 0 = engine default.
    runner_ = std::make_unique<MultiProcessingRunner>(dataset(),
                                                      std::move(options));
  }

 private:
  const uint32_t threads_;
  std::unique_ptr<MultiTask> bppr_;
  std::unique_ptr<MultiTask> mssp_;
  std::unique_ptr<MultiProcessingRunner> runner_;
};

// ---------------------------------------------------------------------
// ooc_spill: GraphD with real out-of-core execution, MSSP.

class OocSpill : public Workload {
 public:
  explicit OocSpill(const WorkloadInputs& inputs)
      : Workload(inputs), mssp_(MakeTimedTask("MSSP", &probe_)) {}

  std::string golden_key() const override { return "ooc_spill"; }

  void Execute(SpanRecorder* spans, bool verify) override {
    probe_.Begin(spans, verify);
    RunBatches(*runner_, *mssp_, Schedule(), spans);
  }

  // A budget changes where bytes live, never what is computed.
  void VerifyTwin() override {
    const std::vector<BatchRecord> capped = probe_.batches();
    probe_.Begin(nullptr, /*verify=*/false);
    RunBatches(Uncapped(), *mssp_, Schedule(), nullptr);
    const std::vector<BatchRecord>& uncapped = probe_.batches();
    double spilled = 0.0;
    for (const BatchRecord& b : capped) spilled += b.ooc.spill_bytes_written;
    if (spilled <= 0.0) probe_.Fail("ooc_spill wrote no spill file bytes");
    if (capped.size() != uncapped.size()) {
      probe_.Fail(StrFormat("capped run has %zu batches, uncapped twin %zu",
                            capped.size(), uncapped.size()));
      return;
    }
    for (size_t i = 0; i < capped.size(); ++i) {
      if (capped[i].answer_digest != uncapped[i].answer_digest ||
          capped[i].rounds != uncapped[i].rounds ||
          capped[i].logical_messages != uncapped[i].logical_messages) {
        probe_.Fail(StrFormat("ooc_spill batch %zu differs from its "
                              "uncapped twin",
                              i));
      }
    }
  }

  double TimeTwin(SpanRecorder* spans) override {
    MultiProcessingRunner& uncapped = Uncapped();
    probe_.Begin(spans, /*verify=*/false);
    const uint64_t start = wallclock::NowNs();
    RunBatches(uncapped, *mssp_, Schedule(), spans);
    return wallclock::SecondsSince(start);
  }

  void AddLayerMetrics(const std::vector<BatchRecord>& batches,
                       double wall_seconds, double twin_seconds,
                       MetricMap* metrics) const override {
    double bytes = 0.0;
    for (const BatchRecord& b : batches) {
      bytes += b.ooc.spill_bytes_written + b.ooc.spill_bytes_read +
               b.ooc.state_bytes_read;
    }
    (*metrics)["ooc.overhead_pct"] =
        100.0 * (wall_seconds - twin_seconds) / wall_seconds;
    (*metrics)["ooc.io_mib_per_s"] = bytes / (1 << 20) / wall_seconds;
  }

 protected:
  double GraphScale() const override { return kGraphScale; }

  void Build(bool phase_times) override {
    RunnerOptions options = BaseOptions(SystemKind::kGraphD, phase_times);
    options.ooc.enabled = true;
    options.ooc.memory_budget_bytes = kOocBudgetBytes;
    options.ooc.directory = inputs_.spill_dir;
    runner_ = std::make_unique<MultiProcessingRunner>(dataset(),
                                                      std::move(options));
    uncapped_.reset();
  }

 private:
  static BatchSchedule Schedule() {
    return BatchSchedule::Equal(kOocWorkload, kOocBatches);
  }

  /// The same runner without a budget, built on first use (it is not
  /// part of the set-up being timed).
  MultiProcessingRunner& Uncapped() {
    if (uncapped_ == nullptr) {
      uncapped_ = std::make_unique<MultiProcessingRunner>(
          dataset(), BaseOptions(SystemKind::kGraphD, false));
    }
    return *uncapped_;
  }

  std::unique_ptr<MultiTask> mssp_;
  std::unique_ptr<MultiProcessingRunner> runner_;
  std::unique_ptr<MultiProcessingRunner> uncapped_;
};

// ---------------------------------------------------------------------
// tune_plan: train, fit and plan (the three steps of Tuner::Tune, timed
// apart), then run the planned schedule.

class TunePlan : public Workload {
 public:
  explicit TunePlan(const WorkloadInputs& inputs)
      : Workload(inputs), bppr_(MakeTimedTask("BPPR", &probe_)) {}

  std::string golden_key() const override { return "tune_plan"; }

  void Execute(SpanRecorder* spans, bool verify) override {
    probe_.Begin(spans, verify);
    samples_.clear();
    schedule_ = BatchSchedule();
    peak_prediction_error_ = 0.0;
    {
      ScopedSpan span(spans, "tuning.train");
      Trainer trainer(dataset(),
                      BaseOptions(SystemKind::kPregelPlus, phase_times_));
      auto samples = trainer.CollectSamples(*bppr_, kTuneWorkload);
      probe_.Finish();
      if (!samples.ok()) {
        probe_.Fail("training: " + samples.status().ToString());
        return;
      }
      samples_ = std::move(samples).value();
    }
    {
      ScopedSpan span(spans, "tuning.fit");
      auto models = FitMemoryModels(samples_);
      if (!models.ok()) {
        probe_.Fail("fit: " + models.status().ToString());
        return;
      }
      models_ = models.value();
    }
    {
      ScopedSpan span(spans, "tuning.plan");
      auto planned = PlanSchedule(models_, kTuneWorkload, Planner());
      if (planned.ok()) {
        schedule_ = std::move(planned).value();
      } else if (planned.status().code() == StatusCode::kFailedPrecondition) {
        // Tuner::Tune's fallback for a degenerate fit.
        schedule_ = BatchSchedule::FullParallelism(kTuneWorkload);
      } else {
        probe_.Fail("plan: " + planned.status().ToString());
        return;
      }
    }
    auto report = RunBatches(*runner_, *bppr_, schedule_, spans);
    if (report.ok()) CheckSchedule(report.value());
  }

  std::string Fingerprint() const override {
    std::string out = Workload::Fingerprint() + "samples:";
    for (const TrainingSample& s : samples_) {
      out += StrFormat("%s:%s:%s;", HexBits(s.workload).c_str(),
                       HexBits(s.peak_memory_bytes).c_str(),
                       HexBits(s.residual_memory_bytes).c_str());
    }
    out += "schedule:";
    for (double w : schedule_.workloads()) out += HexBits(w) + ";";
    return out;
  }

  // The bench's three timed steps must plan what Tuner::Tune plans.
  void VerifyTwin() override {
    probe_.Begin(nullptr, /*verify=*/false);
    Tuner tuner(dataset(), BaseOptions(SystemKind::kPregelPlus, false));
    auto plan = tuner.Tune(*bppr_, kTuneWorkload);
    if (!plan.ok()) {
      probe_.Fail("Tuner::Tune: " + plan.status().ToString());
    } else if (plan.value().schedule.workloads() != schedule_.workloads()) {
      probe_.Fail("Tuner::Tune planned " + plan.value().schedule.ToString() +
                  ", the benchmark's steps " + schedule_.ToString());
    }
  }

  void AddLayerMetrics(const std::vector<BatchRecord>& /*batches*/,
                       double /*wall_seconds*/, double /*twin_seconds*/,
                       MetricMap* metrics) const override {
    (*metrics)["tuning.samples"] = static_cast<double>(samples_.size());
    (*metrics)["tuning.batches"] =
        static_cast<double>(schedule_.NumBatches());
    (*metrics)["tuning.peak_pred_err_pct"] = 100.0 * peak_prediction_error_;
  }

 protected:
  double GraphScale() const override { return kGraphScale; }

  void Build(bool phase_times) override {
    phase_times_ = phase_times;
    runner_ = std::make_unique<MultiProcessingRunner>(
        dataset(), BaseOptions(SystemKind::kPregelPlus, phase_times));
  }

 private:
  PlannerOptions Planner() const {
    PlannerOptions planner;
    planner.machine_memory_bytes = ClusterSpec::Galaxy8().machine.memory_bytes;
    return planner;
  }

  /// Every planned batch must be predicted to fit within p*M (the
  /// planner's contract, Eq. 6) and must run un-overloaded (the probe
  /// fails overloaded batches). Records how far the fitted models' peak
  /// prediction was from the observed peak: the fit's error, which may
  /// put an observed peak slightly above p*M.
  void CheckSchedule(const RunReport& report) {
    const PlannerOptions planner = Planner();
    const double limit =
        planner.overload_fraction * planner.machine_memory_bytes;
    double processed = 0.0;
    for (size_t i = 0; i < report.batches.size(); ++i) {
      const BatchReport& b = report.batches[i];
      const double predicted =
          models_.peak.Eval(b.workload) +
          (processed > 0.0 ? models_.residual.Eval(processed) : 0.0);
      if (predicted > limit * (1.0 + 1e-9)) {
        probe_.Fail(StrFormat("tuned batch %zu (W=%.0f) is predicted to "
                              "peak at %.6g bytes, above p*M = %.6g",
                              i, b.workload, predicted, limit));
      }
      if (b.peak_memory_bytes > 0.0) {
        peak_prediction_error_ =
            std::max(peak_prediction_error_,
                     std::abs(predicted - b.peak_memory_bytes) /
                         b.peak_memory_bytes);
      }
      processed += b.workload;
    }
  }

  std::unique_ptr<MultiTask> bppr_;
  std::unique_ptr<MultiProcessingRunner> runner_;
  bool phase_times_ = false;
  std::vector<TrainingSample> samples_;
  MemoryModels models_;
  BatchSchedule schedule_;
  double peak_prediction_error_ = 0.0;
};

// ---------------------------------------------------------------------
// concurrent_mix: a fixed query mix through ConcurrentRunner.

class ConcurrentMix : public Workload {
 public:
  explicit ConcurrentMix(const WorkloadInputs& inputs) : Workload(inputs) {
    for (const MixQuery& query : kMix) {
      auto task = MakeTask(query.task);
      VCMP_CHECK(task.ok()) << task.status().ToString();
      tasks_.push_back(std::move(task).value());
      timed_tasks_.push_back(MakeTimedTask(query.task, &probe_));
      schedules_.push_back(
          BatchSchedule::Equal(query.workload, query.batches));
    }
  }

  std::string golden_key() const override { return "concurrent_mix"; }

  void Execute(SpanRecorder* spans, bool verify) override {
    probe_.Begin(spans, verify);
    std::vector<ConcurrentQuery> queries(tasks_.size());
    for (size_t i = 0; i < tasks_.size(); ++i) {
      queries[i].task = tasks_[i].get();
      queries[i].schedule = schedules_[i];
    }
    ScopedSpan span(spans, "concurrent.run");
    auto report = runner_->Run(queries);
    if (!report.ok()) {
      probe_.Fail("concurrent run: " + report.status().ToString());
      report_ = ConcurrentRunReport();
      return;
    }
    report_ = std::move(report).value();
    for (size_t i = 0; i < report_.queries.size(); ++i) {
      const QueryOutcome& q = report_.queries[i];
      if (!q.status.ok()) {
        probe_.Fail(StrFormat("query %zu: %s", i,
                              q.status.ToString().c_str()));
      } else if (q.report.overloaded) {
        probe_.Fail(StrFormat("query %zu overloaded", i));
      }
    }
  }

  std::string Fingerprint() const override {
    std::string out;
    for (size_t i = 0; i < report_.queries.size(); ++i) {
      out += StrFormat("q%zu[%s]", i,
                       ReportFingerprint(report_.queries[i].report).c_str());
    }
    return out;
  }

  // Every query must report exactly what it reports when run alone.
  void VerifyTwin() override {
    const ConcurrentRunReport concurrent = report_;
    const std::vector<RunReport> serial = RunSerial(nullptr, true, false);
    for (size_t i = 0; i < serial.size(); ++i) {
      if (i >= concurrent.queries.size() ||
          ReportFingerprint(concurrent.queries[i].report) !=
              ReportFingerprint(serial[i]) ||
          concurrent.queries[i].report.total_seconds !=
              serial[i].total_seconds) {
        probe_.Fail(StrFormat("query %zu differs between the concurrent "
                              "run and running it alone",
                              i));
      }
    }
  }

  double TimeTwin(SpanRecorder* spans) override {
    const uint64_t start = wallclock::NowNs();
    RunSerial(spans, false, false);
    return wallclock::SecondsSince(start);
  }

  EnginePhaseTimes PhaseTimes() override {
    RunSerial(nullptr, false, true);
    return SumPhases(probe_.batches());
  }

  bool LayersFromTwin() const override { return true; }

  void AddLayerMetrics(const std::vector<BatchRecord>& /*batches*/,
                       double wall_seconds, double twin_seconds,
                       MetricMap* metrics) const override {
    (*metrics)["concurrent.queries"] =
        static_cast<double>(report_.queries.size());
    (*metrics)["concurrent.failed"] =
        static_cast<double>(report_.queries_failed);
    (*metrics)["concurrent.speedup"] = twin_seconds / wall_seconds;
  }

 protected:
  double GraphScale() const override { return kConcurrentScale; }

  void Build(bool /*phase_times*/) override {
    ConcurrentRunnerOptions options;
    options.base.cluster = ClusterSpec::Galaxy8();
    options.base.system = SystemKind::kPregelPlus;
    options.base.seed = inputs_.seed;
    options.base.execution_threads = HardwareThreads();
    options.concurrency = std::min(HardwareThreads(), kMaxInFlight);
    runner_ = std::make_unique<ConcurrentRunner>(dataset(), options);
  }

 private:
  /// The queries one after another, each through its own runner on the
  /// concurrent runner's partition and a pool of the same thread budget:
  /// ConcurrentRunner at K=1, with the probe observing every batch.
  std::vector<RunReport> RunSerial(SpanRecorder* spans, bool verify,
                                   bool phase_times) {
    probe_.Begin(spans, verify);
    ThreadPool pool(HardwareThreads() - 1);
    std::vector<RunReport> reports;
    for (size_t i = 0; i < timed_tasks_.size(); ++i) {
      RunnerOptions options =
          BaseOptions(SystemKind::kPregelPlus, phase_times);
      options.execution_threads = HardwareThreads();
      options.query_id = i;
      options.pool = &pool;
      options.shared_partition = &runner_->partition();
      MultiProcessingRunner runner(dataset(), std::move(options));
      auto report = RunBatches(runner, *timed_tasks_[i], schedules_[i], spans);
      reports.push_back(report.ok() ? std::move(report).value() : RunReport());
    }
    return reports;
  }

  std::vector<std::unique_ptr<MultiTask>> tasks_;
  std::vector<std::unique_ptr<MultiTask>> timed_tasks_;
  std::vector<BatchSchedule> schedules_;
  std::unique_ptr<ConcurrentRunner> runner_;
  ConcurrentRunReport report_;
};

}  // namespace

SetupTimes Workload::Setup(SpanRecorder* spans) {
  SetupTimes times;
  uint64_t start = wallclock::NowNs();
  {
    ScopedSpan span(spans, "graph.generate");
    dataset_ = std::make_unique<Dataset>(
        LoadDataset(DatasetId::kDblp, GraphScale() * inputs_.shrink));
  }
  times.generate_seconds = wallclock::SecondsSince(start);
  probe_.set_dataset(dataset_.get());
  start = wallclock::NowNs();
  {
    ScopedSpan span(spans, "runner.construct");
    Build(/*phase_times=*/false);
  }
  times.construct_seconds = wallclock::SecondsSince(start);
  return times;
}

std::string Workload::Fingerprint() const {
  return BatchFingerprint(probe_.batches());
}

EnginePhaseTimes Workload::PhaseTimes() {
  Build(/*phase_times=*/true);
  Execute(nullptr, /*verify=*/false);
  const EnginePhaseTimes phases = SumPhases(probe_.batches());
  Build(/*phase_times=*/false);
  return phases;
}

RunnerOptions Workload::BaseOptions(SystemKind system, bool phase_times) {
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy8();
  options.system = system;
  options.seed = inputs_.seed;
  options.collect_phase_times = phase_times;
  probe_.Attach(&options);
  return options;
}

Result<RunReport> Workload::RunBatches(MultiProcessingRunner& runner,
                                       const MultiTask& task,
                                       const BatchSchedule& schedule,
                                       SpanRecorder* spans) {
  ScopedSpan span(spans, "runner.run");
  Result<RunReport> report = runner.Run(task, schedule);
  probe_.Finish();
  if (!report.ok()) {
    probe_.Fail(task.name() + " run: " + report.status().ToString());
  }
  return report;
}

const std::vector<std::string>& WorkloadNames() {
  static const auto& names = *new std::vector<std::string>{
      "inmem_batch", "inmem_batch_1t", "ooc_spill", "tune_plan",
      "concurrent_mix"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadInputs& inputs) {
  if (name == "inmem_batch") return std::make_unique<InMemBatch>(inputs, 0);
  if (name == "inmem_batch_1t") {
    return std::make_unique<InMemBatch>(inputs, 1);
  }
  if (name == "ooc_spill") return std::make_unique<OocSpill>(inputs);
  if (name == "tune_plan") return std::make_unique<TunePlan>(inputs);
  if (name == "concurrent_mix") {
    return std::make_unique<ConcurrentMix>(inputs);
  }
  return nullptr;
}

}  // namespace suite
}  // namespace vcmp
