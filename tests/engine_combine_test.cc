// Tests of combining as a count (DESIGN.md §16): a combining profile
// prices one wire message per distinct (sender machine, destination
// machine, target, tag) tuple, folds nothing, and leaves task answers
// equal to those of a profile that does not combine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/sync_engine.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bkhs.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "tasks/pagerank.h"
#include "test_util.h"

namespace vcmp {
namespace {

const Graph& TestGraph() {
  static const Graph& graph = *new Graph(
      GenerateRmat({.num_vertices = 2000, .num_edges = 12000, .seed = 77}));
  return graph;
}

const Partitioning& TestPartition() {
  static const Partitioning& partition =
      *new Partitioning(HashPartitioner().Partition(TestGraph(), 4));
  return partition;
}

enum class Task { kBpprCounting, kBpprVertexTags, kMssp, kBkhs, kPageRank };

/// Exact BPPR tags every walk with its source vertex but declares no
/// fold. Its ComputeRun sums a (vertex, source) run's walk counts, so
/// declaring kSum changes no answer and puts vertex-id tags under the
/// combining count.
class SumFoldedExactProgram : public BpprExactProgram {
 public:
  using BpprExactProgram::BpprExactProgram;
  MessageFold fold() const override { return MessageFold::kSum; }
};

std::unique_ptr<VertexProgram> MakeProgram(Task task) {
  const TaskContext context{&TestGraph(), &TestPartition(), 1.0};
  const auto p2p = ProgramFlavor::kPointToPoint;
  switch (task) {
    case Task::kBpprCounting:
      return std::make_unique<BpprCountingProgram>(context, 16,
                                                   BpprTask::Params{}, 3);
    case Task::kBpprVertexTags:
      return std::make_unique<SumFoldedExactProgram>(context, 4, 0.2, 3);
    case Task::kMssp:
      return std::make_unique<MsspProgram>(context, p2p, 8.0,
                                           MsspTask::Params{}, 5);
    case Task::kBkhs:
      return std::make_unique<BkhsProgram>(context, p2p, 8.0,
                                           BkhsTask::Params{}, 5);
    case Task::kPageRank:
      return std::make_unique<PageRankProgram>(
          context, PageRankProgram::Params{.iterations = 10});
  }
  return nullptr;
}

/// The task's output, flattened: walk stops per vertex, distances per
/// (sample, vertex), k-hop counts per sample, or ranks per vertex.
std::vector<double> Answers(Task task, const VertexProgram& program) {
  const VertexId n = TestGraph().NumVertices();
  std::vector<double> out;
  switch (task) {
    case Task::kBpprCounting:
      for (VertexId v = 0; v < n; ++v) {
        out.push_back(static_cast<double>(
            static_cast<const BpprCountingProgram&>(program).StoppedAt(v)));
      }
      break;
    case Task::kBpprVertexTags: {
      const auto& exact = static_cast<const BpprExactProgram&>(program);
      for (VertexId s = 0; s < n; ++s) {
        for (VertexId v = 0; v < n; ++v) out.push_back(exact.Ppr(s, v));
      }
      break;
    }
    case Task::kMssp: {
      const auto& mssp = static_cast<const MsspProgram&>(program);
      for (uint32_t s = 0; s < mssp.num_samples(); ++s) {
        for (VertexId v = 0; v < n; ++v) out.push_back(mssp.Distance(s, v));
      }
      break;
    }
    case Task::kBkhs: {
      const auto& bkhs = static_cast<const BkhsProgram&>(program);
      for (uint32_t s = 0; s < bkhs.num_samples(); ++s) {
        out.push_back(static_cast<double>(bkhs.KHopCount(s)));
      }
      break;
    }
    case Task::kPageRank:
      for (VertexId v = 0; v < n; ++v) {
        out.push_back(static_cast<const PageRankProgram&>(program).Rank(v));
      }
      break;
  }
  return out;
}

/// FNV-1a over the answers' bit patterns.
uint64_t Digest(const std::vector<double>& values) {
  uint64_t hash = 1469598103934665603ULL;
  for (double value : values) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    hash = (hash ^ bits) * 1099511628211ULL;
  }
  return hash;
}

struct Outcome {
  EngineResult result;
  std::vector<double> answers;
};

/// stat_scale 1: wire counts are raw tuple counts. One thread unless
/// asked; the recorder below needs one.
EngineResult RunEngine(const SystemProfile& profile, VertexProgram& program,
                       uint32_t threads = 1) {
  EngineOptions options;
  options.cluster = testing_util::RelaxedCluster(4);
  options.profile = profile;
  options.execution_threads = threads;
  auto result = SyncEngine(TestGraph(), TestPartition(), options).Run(program);
  EXPECT_TRUE(result.ok());
  return result.value_or(EngineResult{});
}

Outcome RunTask(const SystemProfile& profile, Task task,
                uint32_t threads = 1) {
  std::unique_ptr<VertexProgram> program = MakeProgram(task);
  EngineResult result = RunEngine(profile, *program, threads);
  return {std::move(result), Answers(task, *program)};
}

/// Runs a program and records, per round, every Send as the tuple a
/// sender-side combiner merges on — (machine of the computing vertex,
/// machine of the target, target, tag) — plus the summed multiplicity.
/// Every sink call is forwarded unchanged. The recorder is not locked,
/// so it needs the one-thread engine.
class RecordingProgram : public VertexProgram {
 public:
  using Key = std::tuple<uint32_t, uint32_t, VertexId, uint32_t>;

  explicit RecordingProgram(VertexProgram& inner) : inner_(inner) {}

  void Seed(VertexId v, MessageSink& sink) override {
    Sink recorder(*this, v, sink);
    inner_.Seed(v, recorder);
  }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override {
    Sink recorder(*this, v, sink);
    inner_.ComputeRun(v, run, recorder);
  }
  bool ShouldTerminate(uint64_t rounds_completed) const override {
    return inner_.ShouldTerminate(rounds_completed);
  }
  bool TerminateOnAggregate(double aggregate_sum) const override {
    return inner_.TerminateOnAggregate(aggregate_sum);
  }
  double StateBytes(uint32_t machine) const override {
    return inner_.StateBytes(machine);
  }
  MessageFold fold() const override { return inner_.fold(); }

  /// Distinct send tuples of round r (0 past the last sending round).
  double DistinctKeys(size_t r) const {
    return r < keys_.size() ? static_cast<double>(keys_[r].size()) : 0.0;
  }
  double Logical(size_t r) const {
    return r < logical_.size() ? logical_[r] : 0.0;
  }
  /// Distinct tuples machine m sent in round r, and received in round r
  /// (sent to it in round r - 1).
  double Sent(size_t r, uint32_t m) const { return Count(r, m, false); }
  double Received(size_t r, uint32_t m) const {
    return r == 0 ? 0.0 : Count(r - 1, m, true);
  }

 private:
  class Sink : public MessageSink {
   public:
    Sink(RecordingProgram& owner, VertexId from, MessageSink& inner)
        : owner_(owner), from_(from), inner_(inner) {}
    void Send(VertexId target, uint32_t tag, double value,
              double multiplicity) override {
      owner_.Record(from_, target, tag, multiplicity, inner_.round());
      inner_.Send(target, tag, value, multiplicity);
    }
    void Broadcast(VertexId from, uint32_t tag, double value,
                   double multiplicity) override {
      for (VertexId u : TestGraph().Neighbors(from)) {
        owner_.Record(from_, u, tag, multiplicity, inner_.round());
      }
      inner_.Broadcast(from, tag, value, multiplicity);
    }
    void AddComputeUnits(double units) override {
      inner_.AddComputeUnits(units);
    }
    void Aggregate(double value) override { inner_.Aggregate(value); }
    void AddResidualBytes(double bytes) override {
      inner_.AddResidualBytes(bytes);
    }
    uint64_t round() const override { return inner_.round(); }
    Rng& rng() override { return inner_.rng(); }

   private:
    RecordingProgram& owner_;
    const VertexId from_;
    MessageSink& inner_;
  };

  void Record(VertexId from, VertexId target, uint32_t tag,
              double multiplicity, uint64_t round) {
    if (keys_.size() <= round) {
      keys_.resize(round + 1);
      logical_.resize(round + 1, 0.0);
    }
    const Partitioning& partition = TestPartition();
    keys_[round].insert(
        {partition.MachineOf(from), partition.MachineOf(target), target, tag});
    logical_[round] += multiplicity;
  }

  double Count(size_t r, uint32_t m, bool to) const {
    double count = 0.0;
    if (r >= keys_.size()) return count;
    for (const Key& key : keys_[r]) {
      count += (to ? std::get<1>(key) : std::get<0>(key)) == m ? 1.0 : 0.0;
    }
    return count;
  }

  VertexProgram& inner_;
  std::vector<std::set<Key>> keys_;
  std::vector<double> logical_;
};

TEST(CombiningCountTest, WireMessagesEqualDistinctSendTuples) {
  // Bounded tags (MSSP sample indices) and vertex-id tags (exact BPPR's
  // sources) under GraphLab, which combines.
  const SystemProfile& graphlab = ProfileFor(SystemKind::kGraphLab);
  for (Task task : {Task::kMssp, Task::kBpprVertexTags}) {
    SCOPED_TRACE(static_cast<int>(task));
    std::unique_ptr<VertexProgram> inner = MakeProgram(task);
    RecordingProgram recorder(*inner);
    const EngineResult result = RunEngine(graphlab, recorder);
    EXPECT_GT(result.CombinedRatio(), 1.0);  // Some sends did merge.
    for (size_t r = 0; r < result.rounds.size(); ++r) {
      EXPECT_EQ(result.rounds[r].wire_messages, recorder.DistinctKeys(r))
          << "round " << r;
      // A machine buffers the larger of its wire sends and its wire
      // receipts.
      double peak = 0.0;
      for (uint32_t m = 0; m < TestPartition().num_machines; ++m) {
        peak = std::max(peak, std::max(recorder.Received(r, m),
                                       recorder.Sent(r, m)) *
                                  graphlab.bytes_per_message *
                                  graphlab.message_memory_overhead);
      }
      EXPECT_EQ(result.rounds[r].max_buffered_bytes, peak) << "round " << r;
    }
  }
}

TEST(CombiningCountTest, NonCombiningWireEqualsLogical) {
  std::unique_ptr<VertexProgram> inner = MakeProgram(Task::kMssp);
  RecordingProgram recorder(*inner);
  const EngineResult result =
      RunEngine(ProfileFor(SystemKind::kPregelPlus), recorder);
  EXPECT_EQ(result.CombinedRatio(), 1.0);
  for (size_t r = 0; r < result.rounds.size(); ++r) {
    EXPECT_EQ(result.rounds[r].wire_messages, recorder.Logical(r))
        << "round " << r;
  }
}

TEST(CombiningCountTest, AnswersDoNotDependOnTheProfile) {
  // PageRank's real-valued sums are what a per-sender fold reassociates.
  for (Task task :
       {Task::kBpprCounting, Task::kMssp, Task::kBkhs, Task::kPageRank}) {
    SCOPED_TRACE(static_cast<int>(task));
    EXPECT_EQ(RunTask(ProfileFor(SystemKind::kGraphLab), task).answers,
              RunTask(ProfileFor(SystemKind::kPregelPlus), task).answers);
  }
}

SystemProfile PregelPlus(bool combining) {
  SystemProfile profile = ProfileFor(SystemKind::kPregelPlus);
  profile.combines_messages = combining;
  return profile;
}

TEST(SenderCombiningTest, MsspResultsIdenticalWithAndWithoutCombining) {
  const Outcome off = RunTask(PregelPlus(false), Task::kMssp);
  const Outcome on = RunTask(PregelPlus(true), Task::kMssp);
  // Combining changes the wire, never the task result or message flow.
  EXPECT_EQ(off.answers, on.answers);
  EXPECT_EQ(off.result.num_rounds, on.result.num_rounds);
  EXPECT_EQ(off.result.total_messages, on.result.total_messages);
  EXPECT_EQ(off.result.total_logical_sent, on.result.total_logical_sent);
  EXPECT_EQ(off.result.CombinedRatio(), 1.0);
  EXPECT_GT(on.result.CombinedRatio(), 1.0);
  EXPECT_LT(on.result.total_wire_messages, off.result.total_wire_messages);
}

TEST(SenderCombiningTest, StochasticWalkCountsSurviveCombining) {
  // Random-walk forwarding: any leak of the count into values would move
  // where walks stop.
  const Outcome off = RunTask(PregelPlus(false), Task::kBpprCounting);
  double stopped = 0.0;
  for (double count : off.answers) stopped += count;
  EXPECT_GT(stopped, 0.0);
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    const Outcome on = RunTask(PregelPlus(true), Task::kBpprCounting, threads);
    EXPECT_EQ(on.answers, off.answers);
    EXPECT_EQ(on.result.num_rounds, off.result.num_rounds);
    EXPECT_EQ(on.result.total_logical_sent, off.result.total_logical_sent);
    EXPECT_GT(on.result.CombinedRatio(), 1.0);
  }
}

/// Numbers the engine produced when it still folded messages at the
/// sender, as hex floats; counting keys must reproduce each bit for bit.
/// `answers` is Digest() of the task output. Only GraphLab PageRank's
/// digest moved (from 0x728d34bcd6cfaaae): its ranks now equal the
/// Pregel+ run's.
struct Recorded {
  SystemKind system;  // Run with combines_messages set.
  Task task;
  double seconds, total_messages, total_wire_messages, peak_buffered_bytes;
  uint64_t answers;
  std::vector<double> cross_machine_bytes;  // Per round.
};

TEST(CombiningCountTest, ReproducesTheSenderSideFoldsNumbers) {
  const std::vector<Recorded> recorded = {
      {SystemKind::kGraphLab, Task::kBpprCounting, 0x1.9fd5cdb3e31e6p-1,
       0x1.6845p+16, 0x1.c5a8p+14, 0x1.c9cccccccccccp+14,
       0xf7b9a7edd7920943ULL,
       {0x1.49dp+15, 0x1.af4p+15, 0x1.7eep+15, 0x1.6e3p+15, 0x1.461p+15,
        0x1.2a2p+15, 0x1.0ep+15,  0x1.dcap+14, 0x1.b36p+14, 0x1.73ap+14,
        0x1.47p+14,  0x1.19ap+14, 0x1.e84p+13, 0x1.9bcp+13, 0x1.4b8p+13,
        0x1.11cp+13, 0x1.de8p+12, 0x1.8a8p+12, 0x1.44p+12,  0x1.11p+12,
        0x1.a1p+11,  0x1.56p+11,  0x1.32p+11,  0x1.cep+10,  0x1.92p+10,
        0x1.62p+10,  0x1.32p+10,  0x1.bcp+9,   0x1.5p+9,    0x1.c8p+8,
        0x1.5p+8,    0x1.ep+7,    0x1.bp+7,    0x1.8p+7,    0x1.8p+6,
        0x1.ep+6,    0x1.5p+7,    0x1.8p+6,    0x1.8p+6,    0x1.2p+6,
        0x1.8p+5,    0x1.2p+6,    0x1.8p+4,    0x1.8p+5,    0x1.8p+4,
        0x1.8p+5,    0x0p+0,      0x0p+0}},
      {SystemKind::kGraphLab, Task::kMssp, 0x1.04c9dfd1615c1p-3,
       0x1.c848p+16, 0x1.1ce2p+15, 0x1.6e84p+17, 0xed8a658bb1647183ULL,
       {0x1.bp+8, 0x1.581p+15, 0x1.50f6p+18, 0x1.e2f4p+17, 0x1.086p+14,
        0x1.ep+6, 0x0p+0}},
      {SystemKind::kGraphLab, Task::kBkhs, 0x1.9f3f34335f723p-5,
       0x1.528p+11, 0x1.34cp+11, 0x1.7c19999999999p+14,
       0x3072957eaf8e51e3ULL,
       {0x1.bp+8, 0x1.581p+15, 0x0p+0}},
      {SystemKind::kGraphLab, Task::kPageRank, 0x1.90d2539d70979p-3,
       0x1.7c5p+17, 0x1.2f84p+15, 0x1.189ccccccccccp+15,
       0x40a28bb726b2551bULL,
       {0x1.0fc8p+16, 0x1.0fc8p+16, 0x1.0fc8p+16, 0x1.0fc8p+16,
        0x1.0fc8p+16, 0x1.0fc8p+16, 0x1.0fc8p+16, 0x1.0fc8p+16,
        0x1.0fc8p+16, 0x1.0fc8p+16, 0x0p+0}},
      // Pregel+ with a combiner.
      {SystemKind::kPregelPlus, Task::kMssp, 0x1.25c9c77a23a6cp-3,
       0x1.c848p+16, 0x1.1ce2p+15, 0x1.05ccp+17, 0xed8a658bb1647183ULL,
       {0x1.68p+8, 0x1.1eb8p+15, 0x1.18cdp+18, 0x1.9276p+17, 0x1.b8ap+13,
        0x1.9p+6, 0x0p+0}},
  };
  for (const Recorded& want : recorded) {
    SCOPED_TRACE(static_cast<int>(want.task));
    SystemProfile profile = ProfileFor(want.system);
    profile.combines_messages = true;
    const Outcome got = RunTask(profile, want.task);
    EXPECT_EQ(got.result.seconds, want.seconds);
    EXPECT_EQ(got.result.total_messages, want.total_messages);
    EXPECT_EQ(got.result.total_wire_messages, want.total_wire_messages);
    EXPECT_EQ(got.result.peak_buffered_bytes, want.peak_buffered_bytes);
    EXPECT_EQ(Digest(got.answers), want.answers);
    std::vector<double> cross;
    for (const RoundStats& round : got.result.rounds) {
      cross.push_back(round.cross_machine_bytes);
    }
    EXPECT_EQ(cross, want.cross_machine_bytes);
  }
}

}  // namespace
}  // namespace vcmp
