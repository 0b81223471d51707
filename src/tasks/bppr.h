#ifndef VCMP_TASKS_BPPR_H_
#define VCMP_TASKS_BPPR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "tasks/task.h"

namespace vcmp {

/// Batch Personalized PageRank (Section 2.3 / Section 3).
///
/// The workload W is the number of alpha-decay random walks started at
/// *every* vertex; PPR(s, u) is estimated as the fraction of s's walks that
/// stop at u. Two program families implement the paper's two algorithms:
///
/// * Point-to-point (Pregel/Giraph/GraphD): walks advance one step per
///   round. The implementation is *counting-mode Monte-Carlo*: a vertex
///   holds the number of resident walks, samples terminations binomially
///   and splits the survivors multinomially over its neighbours — exactly
///   the aggregate distribution of per-walk simulation, with message
///   multiplicities equal to the walk counts the real system would send.
///
/// * Broadcast (Pregel+(mirror)): the generalized fractional walk of
///   Section 3 — a forward push that divides the resident walk mass evenly
///   over the neighbours each round, with a mass threshold for
///   termination. Each neighbour receives one common message per round.
class BpprTask : public MultiTask {
 public:
  struct Params {
    /// Walk stop probability per step.
    double alpha = 0.2;
    /// Bytes per terminated-walk record (source, end) in residual memory.
    double residual_record_bytes = 8.0;
    /// Fractional-push pruning threshold in walk units (broadcast
    /// flavour): per-(vertex, source) moving mass below this settles
    /// locally instead of diffusing further.
    double prune_threshold = 0.25;
    /// Use (source, target)-granular traffic on combining systems
    /// (BpprPerSourceProgram). Faithful to per-source combining but the
    /// in-flight pair table approaches O(n^2); off by default — the
    /// pooled program plus logical-work pricing matches the observed
    /// GraphLab behaviour at a fraction of the cost.
    bool per_source_traffic = false;
  };

  BpprTask() = default;
  explicit BpprTask(const Params& params) : params_(params) {}

  std::string name() const override { return "BPPR"; }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// Counting-mode Monte-Carlo walk program (point-to-point interface).
class BpprCountingProgram : public VertexProgram {
 public:
  BpprCountingProgram(const TaskContext& context, double walks_per_vertex,
                      const BpprTask::Params& params, uint64_t seed);

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override;
  bool UsesComputeRun() const override { return true; }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  double StateBytes(uint32_t machine) const override;

  /// Walks that have terminated at u so far (all sources pooled).
  uint64_t StoppedAt(VertexId u) const { return stopped_[u]; }
  uint64_t TotalStopped() const;
  uint64_t walks_per_vertex() const { return walks_per_vertex_; }
  bool combinable() const override { return true; }

 private:
  void AdvanceResident(VertexId v, uint64_t resident, MessageSink& sink);
  void RecordStops(VertexId v, uint64_t count, MessageSink& sink);

  const TaskContext context_;
  const uint64_t walks_per_vertex_;
  const BpprTask::Params params_;
  std::vector<uint64_t> stopped_;
};

/// Generalized fractional walk (forward push) for the broadcast-only
/// interface of Pregel+(mirror), Section 3 "Pregel-Mirror (BPPR)".
///
/// Mass is tracked PER SOURCE (a personalized PageRank needs the source
/// attribution), so each round an active vertex broadcasts one message
/// per source whose resident mass survived pruning — this per-source
/// diffusion is what makes the broadcast algorithm so much heavier per
/// workload unit than the point-to-point one (the paper runs
/// Pregel+(mirror) at W=160 where Pregel+ handles W=10240), and why the
/// paper notes BPPR's O(n^2) space potential. Mass below
/// `prune_threshold` walks settles locally, bounding the diffusion depth
/// by ~log_d(W).
class BpprPushProgram : public VertexProgram {
 public:
  BpprPushProgram(const TaskContext& context, double walks_per_vertex,
                  const BpprTask::Params& params);

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override;
  bool UsesComputeRun() const override { return true; }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  double StateBytes(uint32_t machine) const override;

  /// Walk mass settled at u so far (all sources pooled).
  double StoppedMassAt(VertexId u) const { return stopped_mass_[u]; }
  double TotalStoppedMass() const;
  /// Distinct (source, vertex) result pairs recorded so far.
  uint64_t ResultPairs() const { return result_pairs_; }

 private:
  void ProcessMass(VertexId v, uint32_t source, double mass,
                   MessageSink& sink);
  void RecordSettle(VertexId v, uint32_t source, double mass,
                    MessageSink& sink);

  const TaskContext context_;
  const double walks_per_vertex_;
  const BpprTask::Params params_;
  std::vector<double> stopped_mass_;
  /// Per-vertex set of sources with a settled-mass record (drives the
  /// residual-memory accounting).
  std::vector<std::unordered_set<uint32_t>> settled_sources_;
  /// Atomic: RecordSettle runs concurrently across shards.
  std::atomic<uint64_t> result_pairs_{0};
};

/// Per-source counting-mode walks for systems that combine messages at
/// the sender (GraphLab sync). Combining is only valid within one source
/// (PPR is personalized), so the traffic granularity is (source, target)
/// pairs: each physical message carries one source's walk count and is
/// Sum-combinable. Heavier per workload unit than the pooled program —
/// the state and traffic approach the paper's O(n^2) bound as walks
/// diffuse.
class BpprPerSourceProgram : public VertexProgram {
 public:
  BpprPerSourceProgram(const TaskContext& context, double walks_per_vertex,
                       const BpprTask::Params& params, uint64_t seed);

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override;
  bool UsesComputeRun() const override { return true; }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  double StateBytes(uint32_t machine) const override;
  bool combinable() const override { return true; }

  uint64_t StoppedAt(VertexId u) const { return stopped_[u]; }
  uint64_t TotalStopped() const;

 private:
  void Advance(VertexId v, uint32_t source, uint64_t count,
               MessageSink& sink);
  void TrackPair(VertexId v, uint64_t round);

  /// Per-machine (source, target) pair counting for state accounting.
  /// Several compute shards of one machine run concurrently, so the
  /// trackers are guarded by `pair_mutex_`; the per-round counts are
  /// pure commutative additions, so the result is order-independent.
  struct PairTracker {
    uint64_t round = ~0ULL;
    double current = 0.0;
    double peak = 0.0;
  };

  const TaskContext context_;
  const uint64_t walks_per_vertex_;
  const BpprTask::Params params_;
  std::vector<uint64_t> stopped_;
  // MakeProgram builds a fresh program per batch per query, so the
  // mutex only ever orders one query's shard threads.
  // vcmp:query-local(program instance is per-batch per-query)
  mutable std::mutex pair_mutex_;
  std::vector<PairTracker> pair_tracker_;
};

/// Exact per-source BPPR for correctness validation: simulates W walks per
/// source vertex individually tagged by source, and returns the PPR
/// estimate vectors. Quadratic state — test/small-graph use only.
class BpprExactProgram : public VertexProgram {
 public:
  BpprExactProgram(const TaskContext& context, double walks_per_vertex,
                   double alpha, uint64_t seed);

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override;

  /// PPR estimate of target u for source s: stops(s, u) / W.
  double Ppr(VertexId source, VertexId u) const;

 private:
  void Advance(VertexId v, uint32_t source, uint64_t count,
               MessageSink& sink);

  const TaskContext context_;
  const uint64_t walks_per_vertex_;
  const double alpha_;
  /// stops_[source * n + u] = walks from `source` that stopped at `u`.
  std::vector<uint64_t> stops_;
};

}  // namespace vcmp

#endif  // VCMP_TASKS_BPPR_H_
