#ifndef VCMP_TASKS_TASK_H_
#define VCMP_TASKS_TASK_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "engine/vertex_program.h"
#include "graph/graph.h"
#include "graph/partition.h"

namespace vcmp {

/// Everything a task needs to instantiate a program for one batch.
struct TaskContext {
  const Graph* graph = nullptr;
  const Partitioning* partition = nullptr;
  /// Dataset scale factor (stand-in graphs); tasks that sample unit tasks
  /// (MSSP/BKHS) fold it into message multiplicities indirectly via the
  /// engine's stat_scale, so most tasks can ignore it.
  double scale = 1.0;
};

/// Message interface flavour the target engine exposes (Section 3):
/// basic Pregel+ sends point-to-point; Pregel+(mirror) only broadcasts.
enum class ProgramFlavor { kPointToPoint, kBroadcast };

/// A multi-processing benchmark task (Section 2.3): a workload of
/// independent unit tasks that the runner divides into batches. Workload
/// units are task-specific — random walks per vertex for BPPR, source
/// count for MSSP/BKHS.
class MultiTask {
 public:
  virtual ~MultiTask() = default;

  virtual std::string name() const = 0;

  /// Creates the vertex program executing a batch of `workload` units.
  /// Each batch gets a fresh program; the engine runs it to quiescence.
  virtual Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const = 0;

  /// Largest meaningful workload division; 0 = unlimited. (BKHS batches
  /// cannot exceed the source count, for instance.)
  virtual double MinBatchWorkload() const { return 1.0; }
};

}  // namespace vcmp

#endif  // VCMP_TASKS_TASK_H_
