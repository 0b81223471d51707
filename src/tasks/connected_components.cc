#include "tasks/connected_components.h"

#include <unordered_set>

#include "common/logging.h"

namespace vcmp {

ConnectedComponentsProgram::ConnectedComponentsProgram(
    const TaskContext& context)
    : context_(context), labels_(context.graph->NumVertices()) {
  for (VertexId v = 0; v < context.graph->NumVertices(); ++v) {
    labels_[v] = v;
  }
}

void ConnectedComponentsProgram::Seed(VertexId v, MessageSink& sink) {
  // Offer my id to every neighbour.
  Offer(v, labels_[v], sink);
}

void ConnectedComponentsProgram::ComputeRun(VertexId v,
                                            const MessageRunView& run,
                                            MessageSink& sink) {
  // Single tag (0): one run per vertex — the hash-min fold over the
  // run's label column.
  uint32_t best = labels_[v];
  for (size_t i = 0; i < run.count; ++i) {
    best = std::min(best, static_cast<uint32_t>(run.values[i]));
  }
  if (best >= labels_[v]) return;  // No improvement: vote to halt.
  labels_[v] = best;
  Offer(v, best, sink);
}

void ConnectedComponentsProgram::Offer(VertexId v, uint32_t label,
                                       MessageSink& sink) {
  const auto neighbors = context_.graph->Neighbors(v);
  sink.AddComputeUnits(static_cast<double>(neighbors.size()));
  for (VertexId u : neighbors) {
    sink.Send(u, /*tag=*/0, static_cast<double>(label), 1.0);
  }
}

double ConnectedComponentsProgram::StateBytes(uint32_t machine) const {
  (void)machine;
  return 4.0 * context_.graph->NumVertices() /
         context_.partition->num_machines;
}

uint64_t ConnectedComponentsProgram::NumComponents() const {
  std::unordered_set<uint32_t> distinct(labels_.begin(), labels_.end());
  return distinct.size();
}

Result<std::unique_ptr<VertexProgram>> ConnectedComponentsTask::MakeProgram(
    const TaskContext& context, ProgramFlavor flavor, double workload,
    uint64_t seed) const {
  (void)flavor;
  (void)workload;
  (void)seed;
  if (context.graph == nullptr || context.partition == nullptr) {
    return Status::InvalidArgument("CC task context missing graph");
  }
  return std::unique_ptr<VertexProgram>(
      std::make_unique<ConnectedComponentsProgram>(context));
}

}  // namespace vcmp
