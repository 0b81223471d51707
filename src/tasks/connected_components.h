#ifndef VCMP_TASKS_CONNECTED_COMPONENTS_H_
#define VCMP_TASKS_CONNECTED_COMPONENTS_H_

#include <vector>

#include "engine/vertex_program.h"
#include "tasks/task.h"

namespace vcmp {

/// Hash-min Connected Components — the classic balanced practical Pregel
/// algorithm (BPPA) the paper's Section 2.4 cites from Yan et al.: linear
/// space/computation/communication per vertex and O(log n)-ish rounds.
/// Included as the single-task contrast to the multi-processing
/// benchmarks: unlike BPPR/MSSP, there is no workload knob to batch, so
/// the round-congestion tradeoff does not arise.
class ConnectedComponentsProgram : public VertexProgram {
 public:
  ConnectedComponentsProgram(const TaskContext& context);

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override;
  bool UsesComputeRun() const override { return true; }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override;
  double StateBytes(uint32_t machine) const override;
  bool combinable() const override { return true; }

  /// The component label (minimum vertex id in the component) of v after
  /// the run.
  VertexId ComponentOf(VertexId v) const {
    return static_cast<VertexId>(labels_[v]);
  }
  /// Number of distinct components.
  uint64_t NumComponents() const;

 private:
  void Offer(VertexId v, uint32_t label, MessageSink& sink);

  const TaskContext context_;
  std::vector<uint32_t> labels_;
};

/// MultiTask adapter (workload is ignored: CC is one unit task).
class ConnectedComponentsTask : public MultiTask {
 public:
  std::string name() const override { return "ConnectedComponents"; }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;
};

}  // namespace vcmp

#endif  // VCMP_TASKS_CONNECTED_COMPONENTS_H_
