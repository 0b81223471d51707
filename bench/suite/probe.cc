#include "probe.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/wall_clock.h"
#include "metrics/export.h"
#include "tasks/bkhs.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace suite {
namespace {

/// 64-bit FNV-1a step over a whole word: cheap enough to hash every
/// answer of every timed batch.
uint64_t Mix(uint64_t hash, uint64_t word) {
  return (hash ^ word) * 0x100000001b3ULL;
}
constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

int SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = wallclock::NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  const uint64_t now = wallclock::NowNs();
  if (open_.empty() || open_.back() != id) balanced_ = false;
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it == open_.end()) {
    balanced_ = false;
    return;
  }
  open_.erase(it);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

double SpanRecorder::Sum(const std::string& prefix) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name.compare(0, prefix.size(), prefix) == 0) {
      total += span.Seconds();
    }
  }
  return total;
}

double SpanRecorder::ChildSum(int id) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == id) total += span.Seconds();
  }
  return total;
}

void SpanRecorder::AppendChromeEvents(uint64_t origin_ns, uint32_t tid,
                                      std::vector<std::string>* events) const {
  const auto micros = [origin_ns](uint64_t ns) {
    return static_cast<double>(ns - origin_ns) * 1e-3;
  };
  const auto event = [&](const char* phase, const Span& span, uint64_t ns) {
    JsonWriter json(/*with_schema_version=*/false);
    json.Field("name", span.name);
    json.Field("ph", phase);
    json.Field("ts", micros(ns));
    json.Field("pid", static_cast<uint64_t>(1));
    json.Field("tid", static_cast<uint64_t>(tid));
    if (phase[0] == 'B') {
      JsonWriter args(/*with_schema_version=*/false);
      args.Field("parent", span.parent < 0
                               ? std::string()
                               : spans_[static_cast<size_t>(span.parent)].name);
      json.RawField("args", args.Close());
    }
    events->push_back(json.Close());
  };
  // Spans are stored in Begin order, which is pre-order: close every open
  // span that is not an ancestor before opening the next one.
  std::vector<int> stack;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    while (!stack.empty() && stack.back() != span.parent) {
      const Span& done = spans_[static_cast<size_t>(stack.back())];
      event("E", done, done.end_ns);
      stack.pop_back();
    }
    event("B", span, span.start_ns);
    stack.push_back(static_cast<int>(i));
  }
  while (!stack.empty()) {
    const Span& done = spans_[static_cast<size_t>(stack.back())];
    event("E", done, done.end_ns);
    stack.pop_back();
  }
}

void Probe::Begin(SpanRecorder* spans, bool verify) {
  spans_ = spans;
  verify_ = verify;
  make_span_ = -1;
  engine_span_ = -1;
  batches_.clear();
  failures_.clear();
}

void Probe::Finish() {
  if (spans_ == nullptr) return;
  if (engine_span_ >= 0) spans_->End(engine_span_);
  if (make_span_ >= 0) spans_->End(make_span_);
  engine_span_ = -1;
  make_span_ = -1;
}

void Probe::Attach(RunnerOptions* options) {
  options->engine_observer = [this](const EngineResult& result) {
    OnEngineResult(result);
  };
  options->batch_observer = [this](const VertexProgram& program) {
    OnBatchProgram(program);
  };
}

void Probe::OnMakeProgramBegin() {
  if (spans_ != nullptr) make_span_ = spans_->Begin("make_program");
}

void Probe::OnMakeProgramEnd(const std::string& task) {
  current_task_ = task;
  if (spans_ == nullptr) return;
  spans_->End(make_span_);
  make_span_ = -1;
  engine_span_ = spans_->Begin("engine." + Lower(task));
}

void Probe::OnEngineResult(const EngineResult& result) {
  if (spans_ != nullptr && engine_span_ >= 0) {
    spans_->End(engine_span_);
    engine_span_ = -1;
  }
  BatchRecord record;
  record.task = current_task_;
  record.sim_seconds = result.seconds;
  record.rounds = result.num_rounds;
  record.logical_messages = result.total_messages;
  record.wire_messages = result.total_wire_messages;
  record.peak_memory_bytes = result.peak_memory_bytes;
  record.overloaded = result.overloaded;
  record.ooc = result.ooc;
  record.phase = result.phase;
  if (result.overloaded) {
    Fail(StrFormat("%s batch %zu overloaded", current_task_.c_str(),
                   batches_.size()));
  }
  batches_.push_back(std::move(record));
}

void Probe::OnBatchProgram(const VertexProgram& program) {
  ScopedSpan span(spans_, "bench.check");
  if (batches_.empty()) {
    Fail("batch observer ran before the engine observer");
    return;
  }
  BatchRecord& record = batches_.back();
  if (record.task == "BPPR") {
    CheckBppr(program, &record);
  } else if (record.task == "MSSP") {
    CheckMssp(program, &record);
  } else if (record.task == "BKHS") {
    CheckBkhs(program, &record);
  }
}

void Probe::CheckBppr(const VertexProgram& program, BatchRecord* record) {
  const auto* bppr = dynamic_cast<const BpprCountingProgram*>(&program);
  if (bppr == nullptr) {
    Fail("BPPR batch did not run the counting-mode program");
    return;
  }
  const VertexId n = dataset_->graph.NumVertices();
  uint64_t digest = kDigestSeed;
  uint64_t stopped = 0;
  for (VertexId u = 0; u < n; ++u) {
    digest = Mix(digest, bppr->StoppedAt(u));
    stopped += bppr->StoppedAt(u);
  }
  record->answer_digest = digest;
  // Every walk started at every vertex stops exactly once.
  const uint64_t started = bppr->walks_per_vertex() * n;
  if (stopped != started) {
    Fail(StrFormat("BPPR batch %zu: %llu walks stopped, %llu started",
                   batches_.size() - 1,
                   static_cast<unsigned long long>(stopped),
                   static_cast<unsigned long long>(started)));
  }
}

void Probe::CheckMssp(const VertexProgram& program, BatchRecord* record) {
  const auto* mssp = dynamic_cast<const MsspProgram*>(&program);
  if (mssp == nullptr) {
    Fail("MSSP batch did not run the MSSP program");
    return;
  }
  const Graph& graph = dataset_->graph;
  const VertexId n = graph.NumVertices();
  uint64_t digest = kDigestSeed;
  for (uint32_t s = 0; s < mssp->num_samples(); ++s) {
    digest = Mix(digest, mssp->SourceOf(s));
    for (VertexId v = 0; v < n; ++v) digest = Mix(digest, mssp->Distance(s, v));
  }
  record->answer_digest = digest;
  if (!verify_) return;
  for (uint32_t s = 0; s < mssp->num_samples(); ++s) {
    const std::vector<uint32_t> expected =
        BfsDistances(graph, mssp->SourceOf(s));
    uint64_t wrong = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (mssp->Distance(s, v) != expected[v]) ++wrong;
    }
    if (wrong != 0) {
      Fail(StrFormat("MSSP batch %zu source %u: %llu of %u distances differ "
                     "from BFS",
                     batches_.size() - 1, mssp->SourceOf(s),
                     static_cast<unsigned long long>(wrong), n));
    }
  }
}

void Probe::CheckBkhs(const VertexProgram& program, BatchRecord* record) {
  const auto* bkhs = dynamic_cast<const BkhsProgram*>(&program);
  if (bkhs == nullptr) {
    Fail("BKHS batch did not run the BKHS program");
    return;
  }
  uint64_t digest = kDigestSeed;
  for (uint32_t s = 0; s < bkhs->num_samples(); ++s) {
    digest = Mix(Mix(digest, bkhs->SourceOf(s)), bkhs->KHopCount(s));
  }
  record->answer_digest = digest;
  if (!verify_) return;
  // The registry's BKHS uses the default radius.
  const uint32_t k = BkhsTask::Params().k;
  for (uint32_t s = 0; s < bkhs->num_samples(); ++s) {
    const std::vector<uint32_t> dist =
        BfsDistances(dataset_->graph, bkhs->SourceOf(s), k);
    const auto expected = static_cast<uint64_t>(std::count_if(
        dist.begin(), dist.end(),
        [](uint32_t d) { return d != 0 && d != MsspProgram::kUnreached; }));
    if (bkhs->KHopCount(s) != expected) {
      Fail(StrFormat("BKHS batch %zu source %u: %llu vertices within %u hops, "
                     "BFS finds %llu",
                     batches_.size() - 1, bkhs->SourceOf(s),
                     static_cast<unsigned long long>(bkhs->KHopCount(s)), k,
                     static_cast<unsigned long long>(expected)));
    }
  }
}

Result<std::unique_ptr<VertexProgram>> TimedTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  probe_->OnMakeProgramBegin();
  auto program = inner_->MakeProgram(context, flavor, workload, seed);
  probe_->OnMakeProgramEnd(inner_->name());
  return program;
}

std::unique_ptr<MultiTask> MakeTimedTask(const std::string& name,
                                         Probe* probe) {
  auto task = MakeTask(name);
  VCMP_CHECK(task.ok()) << task.status().ToString();
  return std::make_unique<TimedTask>(std::move(task).value(), probe);
}

std::vector<uint32_t> BfsDistances(const Graph& graph, VertexId source,
                                   uint32_t max_depth) {
  std::vector<uint32_t> dist(graph.NumVertices(), MsspProgram::kUnreached);
  std::vector<VertexId> frontier = {source};
  std::vector<VertexId> next;
  dist[source] = 0;
  for (uint32_t depth = 1; depth <= max_depth && !frontier.empty(); ++depth) {
    next.clear();
    for (VertexId v : frontier) {
      for (VertexId u : graph.Neighbors(v)) {
        if (dist[u] != MsspProgram::kUnreached) continue;
        dist[u] = depth;
        next.push_back(u);
      }
    }
    frontier.swap(next);
  }
  return dist;
}

}  // namespace suite
}  // namespace vcmp
