#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/concurrent_runner.h"
#include "core/experiment_spec.h"
#include "core/runner.h"
#include "obs/run_trace.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

/// A minimal recursive-descent JSON well-formedness checker — enough to
/// reject the classic hand-rolled-writer failures (bare nan/inf tokens,
/// trailing commas, unescaped quotes) without an external dependency.
class JsonValidator {
 public:
  static bool Valid(const std::string& text) {
    JsonValidator v(text);
    v.SkipWs();
    if (!v.Value()) return false;
    v.SkipWs();
    return v.pos_ == text.size();
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (!isxdigit(static_cast<unsigned char>(Peek()))) return false;
            ++pos_;
          }
        } else if (std::string("\"\\/bfnrt").find(esc) ==
                   std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Eat('.')) {
      if (!isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    switch (Peek()) {
      case '{': {
        ++pos_;
        SkipWs();
        if (Eat('}')) return true;
        do {
          SkipWs();
          if (!String()) return false;
          SkipWs();
          if (!Eat(':')) return false;
          if (!Value()) return false;
          SkipWs();
        } while (Eat(','));
        return Eat('}');
      }
      case '[': {
        ++pos_;
        SkipWs();
        if (Eat(']')) return true;
        do {
          if (!Value()) return false;
          SkipWs();
        } while (Eat(','));
        return Eat(']');
      }
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonValidatorTest, SelfCheck) {
  EXPECT_TRUE(JsonValidator::Valid("{\"a\":[1,2.5,-3e-2,null,true]}"));
  EXPECT_TRUE(JsonValidator::Valid("{}"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":nan}"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":inf}"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":1,}"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":1}}"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":\"unterminated}"));
}

TEST(TracerTest, RecordsSpansInstantsAndGauges) {
  Tracer tracer;
  uint32_t track = tracer.AddTrack("proc", "thread");
  EXPECT_EQ(track, 0u);
  EXPECT_EQ(tracer.AddTrack("proc", "other"), 1u);

  tracer.Begin(track, "outer", 1.0, {{"k", 2.0}});
  EXPECT_EQ(tracer.open_spans(track), 1u);
  tracer.Begin(track, "inner", 1.5);
  EXPECT_EQ(tracer.open_spans(track), 2u);
  tracer.Instant(track, "tick", 1.75);
  tracer.Gauge(track, "level", 2.0, 42.0);
  tracer.End(track, 2.0);
  tracer.End(track, 3.0);
  EXPECT_EQ(tracer.open_spans(track), 0u);

  ASSERT_EQ(tracer.events().size(), 6u);
  EXPECT_EQ(tracer.events()[0].kind, TraceEvent::Kind::kBegin);
  EXPECT_EQ(tracer.events()[0].name, "outer");
  ASSERT_EQ(tracer.events()[0].args.size(), 1u);
  EXPECT_EQ(tracer.events()[0].args[0].first, "k");
  EXPECT_EQ(tracer.events()[3].kind, TraceEvent::Kind::kGauge);
  EXPECT_DOUBLE_EQ(tracer.events()[3].value, 42.0);
}

TEST(TracerTest, CountersAccumulateAndPeak) {
  Tracer tracer;
  EXPECT_DOUBLE_EQ(tracer.counter("missing"), 0.0);
  tracer.Add("sum", 1.5);
  tracer.Add("sum", 2.5);
  tracer.Peak("max", 3.0);
  tracer.Peak("max", 1.0);  // Lower value must not regress the peak.
  tracer.Peak("max", 7.0);
  EXPECT_DOUBLE_EQ(tracer.counter("sum"), 4.0);
  EXPECT_DOUBLE_EQ(tracer.counter("max"), 7.0);
  EXPECT_EQ(tracer.counters().size(), 2u);
}

TEST(TraceSinkTest, ExportsChromeTraceShape) {
  Tracer tracer;
  uint32_t a = tracer.AddTrack("alpha", "main");
  uint32_t b = tracer.AddTrack("beta", "main");
  tracer.Begin(a, "span", 1.0, {{"x", 1.0}});
  tracer.End(a, 2.0);
  tracer.Instant(b, "mark", 1.5);
  tracer.Gauge(b, "level", 1.5, 9.0);
  tracer.Add("counter.total", 5.0);

  std::string json = TraceToJson(tracer);
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  // Metadata names both processes and both tracks.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  // Phases: B/E span, i instant, C counter; seconds exported as micros.
  EXPECT_NE(json.find("\"ph\":\"B\",\"ts\":1000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\",\"ts\":2000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // The flat counter snapshot rides along.
  EXPECT_NE(json.find("\"counters\":{\"counter.total\":5}"),
            std::string::npos);
  // An E event with no args must omit the "args" key, not emit "{}".
  EXPECT_EQ(json.find("\"args\":{}"), std::string::npos);
}

TEST(TraceSinkTest, NonFiniteGaugeStaysValidJson) {
  Tracer tracer;
  uint32_t track = tracer.AddTrack("p", "t");
  tracer.Gauge(track, "bad", 1.0,
               std::numeric_limits<double>::quiet_NaN());
  tracer.Gauge(track, "worse", 2.0,
               std::numeric_limits<double>::infinity());
  std::string json = TraceToJson(tracer);
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"value\":null"), std::string::npos);
}

ExperimentSpec GoldenSpec(uint32_t threads) {
  ExperimentSpec spec;
  spec.name = "golden";
  spec.workload = 48;
  spec.schedule = "equal:3";
  spec.scale = 512;  // Tiny stand-in, fast.
  spec.seed = 11;
  spec.threads = threads;
  return spec;
}

std::string TraceForSpec(const ExperimentSpec& spec) {
  Tracer tracer;
  auto result = RunExperiment(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  TraceRunReport(tracer, spec.name, result.value().report);
  EXPECT_FALSE(tracer.events().empty());
  return TraceToJson(tracer);
}

TEST(GoldenTraceTest, SameSpecTwiceIsByteIdentical) {
  std::string first = TraceForSpec(GoldenSpec(2));
  std::string second = TraceForSpec(GoldenSpec(2));
  EXPECT_TRUE(JsonValidator::Valid(first));
  EXPECT_EQ(first, second);
}

TEST(GoldenTraceTest, ThreadCountDoesNotChangeTheTrace) {
  // The determinism contract: timestamps come from the simulated clock,
  // so execution parallelism must be invisible in the exported bytes.
  std::string one = TraceForSpec(GoldenSpec(1));
  std::string two = TraceForSpec(GoldenSpec(2));
  std::string eight = TraceForSpec(GoldenSpec(8));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// ---------------------------------------------------------------- recorded
// Whole exported traces pinned as 64-bit FNV-1a digests, one case per
// feature the trace draws: spans, gauges and counters all feed the bytes.

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ExpectDigest(const std::string& trace, uint64_t expected) {
  const uint64_t actual = Fnv1a64(trace);
  EXPECT_EQ(actual, expected)
      << StrFormat("digest 0x%016llx", static_cast<unsigned long long>(actual));
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(RecordedTraceTest, GoldenSpec) {
  ExpectDigest(TraceForSpec(GoldenSpec(2)), 0xffb2bfef8b8b95d6ULL);
}

TEST(RecordedTraceTest, GraphDSpillUnderBudget) {
  ExperimentSpec spec = GoldenSpec(2);
  spec.system = "GraphD";
  spec.task = "MSSP";
  spec.schedule = "equal:2";
  spec.memory_budget = "96MiB";
  const std::string trace = TraceForSpec(spec);
  EXPECT_TRUE(Contains(trace, "\"name\":\"ooc_spill\""));
  EXPECT_TRUE(Contains(trace, "\"name\":\"ooc_spilled_bytes\""));
  EXPECT_TRUE(Contains(trace, "\"engine.ooc.spill_bytes_written\""));
  ExpectDigest(trace, 0x08739fec01ec3e17ULL);
}

TEST(RecordedTraceTest, MirrorBppr) {
  ExperimentSpec spec = GoldenSpec(2);
  spec.system = "Pregel+(mirror)";
  const std::string trace = TraceForSpec(spec);
  EXPECT_TRUE(Contains(trace, "\"engine.mirrors\""));
  ExpectDigest(trace, 0x200f219e0254c515ULL);
}

TEST(RecordedTraceTest, GraphLabPageRank) {
  ExperimentSpec spec = GoldenSpec(2);
  spec.system = "GraphLab";
  spec.task = "PageRank";
  spec.workload = 2;
  spec.schedule = "equal:1";
  ExpectDigest(TraceForSpec(spec), 0x0a340732367b0072ULL);
}

TEST(RecordedTraceTest, CheckpointedRun) {
  // Specs cannot set a checkpoint interval; the runner can.
  Dataset dataset = LoadDataset(DatasetId::kDblp, /*scale_override=*/512.0);
  auto task = MakeTask("BPPR");
  ASSERT_TRUE(task.ok());
  RunnerOptions options;
  options.seed = 11;
  options.execution_threads = 2;
  options.checkpoint_interval_rounds = 2;
  MultiProcessingRunner runner(dataset, options);
  auto report = runner.Run(*task.value(), BatchSchedule::Equal(48, 2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Tracer tracer;
  TraceRunReport(tracer, "run", report.value());
  const std::string trace = TraceToJson(tracer);
  EXPECT_TRUE(Contains(trace, "\"name\":\"checkpoint\""));
  ExpectDigest(trace, 0xcae5eacb23672e42ULL);
}

TEST(RecordedTraceTest, OverloadedRunHasNoCarryoverAfterItsLastBatch) {
  ExperimentSpec spec = GoldenSpec(2);
  spec.workload = 12288;
  spec.schedule = "equal:2";
  const std::string trace = TraceForSpec(spec);
  // Batch 1 carries over into batch 2, which overloads and stops the run.
  EXPECT_EQ(Occurrences(trace, "\"name\":\"batch\""), 2u);
  EXPECT_EQ(Occurrences(trace, "\"name\":\"carryover_residual_bytes\""),
            1u);
  ExpectDigest(trace, 0x615da94be7ae6860ULL);
}

TEST(RecordedTraceTest, TwoBatchRunsOnlyBatchTwo) {
  ExperimentSpec spec = GoldenSpec(2);
  spec.schedule = "twobatch:-48";
  const std::string trace = TraceForSpec(spec);
  EXPECT_EQ(Occurrences(trace, "\"name\":\"batch\""), 1u);
  EXPECT_TRUE(Contains(trace, "\"batch\":2"));
  ExpectDigest(trace, 0xfd51761ae8e9a789ULL);
}

TEST(RecordedTraceTest, ConcurrentQueriesInQueryOrder) {
  Dataset dataset = LoadDataset(DatasetId::kDblp, /*scale_override=*/512.0);
  std::vector<std::unique_ptr<MultiTask>> tasks;
  std::vector<ConcurrentQuery> queries;
  const std::vector<std::pair<std::string, BatchSchedule>> mix = {
      {"BPPR", BatchSchedule::Equal(64, 2)},
      {"MSSP", BatchSchedule::Equal(64, 1)},
      {"BKHS", BatchSchedule::Equal(96, 3)}};
  for (const auto& [name, schedule] : mix) {
    auto task = MakeTask(name);
    ASSERT_TRUE(task.ok());
    tasks.push_back(std::move(task.value()));
    ConcurrentQuery query;
    query.task = tasks.back().get();
    query.schedule = schedule;
    queries.push_back(std::move(query));
  }
  ConcurrentRunnerOptions options;
  options.base.seed = 11;
  options.base.execution_threads = 2;
  options.concurrency = 2;
  ConcurrentRunner runner(dataset, options);
  auto report = runner.Run(queries);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().queries_failed, 0u);
  Tracer tracer;
  for (size_t i = 0; i < queries.size(); ++i) {
    TraceRunReport(tracer, StrFormat("q%zu", i),
                   report.value().queries[i].report);
  }
  ExpectDigest(TraceToJson(tracer), 0x9e0544b89398c59fULL);
}

}  // namespace
}  // namespace vcmp
