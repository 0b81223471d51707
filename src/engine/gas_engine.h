#ifndef VCMP_ENGINE_GAS_ENGINE_H_
#define VCMP_ENGINE_GAS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/query_context.h"
#include "engine/system_profile.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "sim/cluster_spec.h"
#include "sim/cost_model.h"

namespace vcmp {

class GasEngine;

/// Context handed to GasVertexProgram::Process.
class GasContext {
 public:
  virtual ~GasContext() = default;

  /// Sends `value` toward `target`'s accumulator and schedules it.
  /// `multiplicity` is the logical message count (walk counts etc.).
  virtual void Signal(VertexId target, double value, double multiplicity) = 0;

  /// Extra modelled compute in edge-scan units.
  virtual void AddComputeUnits(double units) = 0;

  /// Records bytes of residual (intermediate-result) memory produced by
  /// the current vertex. The engine attributes them to the vertex's
  /// machine, so the program keeps no per-machine accumulator of its own;
  /// the totals are returned in GasResult::residual_bytes_per_machine.
  virtual void AddResidualBytes(double bytes) { (void)bytes; }

  /// Deterministic random stream of the CURRENT vertex: reseeded from
  /// (engine seed, query, pass, vertex) at each Process call, so draw
  /// sequences never depend on frontier order.
  virtual Rng& rng() = 0;
  /// Scheduling pass (== superstep in sync mode).
  virtual uint64_t pass() const = 0;
};

/// GraphLab-style Gather-Apply-Scatter program over a sum accumulator:
/// signals to a vertex are summed (the gather), Process applies the update
/// and scatters new signals. Both the synchronous engine (bulk passes with
/// barriers) and the asynchronous engine (barrier-free scheduling with
/// distributed locks) execute the same program.
class GasVertexProgram {
 public:
  virtual ~GasVertexProgram() = default;

  /// Emits the initial signals / performs initial activations.
  virtual void Seed(GasContext& context) = 0;

  /// Handles the accumulated signal for v (sum of Signal values since the
  /// last call).
  virtual void Process(VertexId v, double signal, GasContext& context) = 0;

  virtual double StateBytes(uint32_t machine) const {
    (void)machine;
    return 0.0;
  }

  /// Work multiplier under asynchronous scheduling relative to bulk
  /// passes. Convergent fixed-point computations (PageRank) propagate
  /// eagerly and need fewer total updates (< 1); fixed-work computations
  /// (walk simulation) cannot be reduced (= 1).
  virtual double AsyncWorkFactor() const { return 1.0; }
};

/// Result of a GAS execution.
struct GasResult {
  double seconds = 0.0;
  bool overloaded = false;
  uint64_t passes = 0;
  /// Vertex activations processed.
  double activations = 0.0;
  /// Logical signals exchanged.
  double messages = 0.0;
  /// Network bytes per machine over the whole run (Table 4's
  /// bytes-per-machine column).
  double network_bytes_per_machine = 0.0;
  double peak_memory_bytes = 0.0;
  double barrier_seconds = 0.0;
  double lock_seconds = 0.0;
  /// Residual bytes recorded via GasContext::AddResidualBytes over the
  /// whole run, per machine, generated-graph scale (mirrors
  /// EngineResult::residual_bytes_per_machine).
  std::vector<double> residual_bytes_per_machine;
};

/// Options for a GAS execution.
struct GasOptions {
  ClusterSpec cluster = ClusterSpec::Galaxy8();
  /// GraphLab or GraphLab(async) profile; `synchronous` selects the mode.
  SystemProfile profile;
  CostParams cost;
  double stat_scale = 1.0;
  uint64_t seed = 7;
  uint64_t max_passes = 8192;
};

/// Executes a GasVertexProgram.
///
/// Synchronous mode runs bulk passes with a barrier each, combining
/// same-target signals at the sender (GraphLab sync's message merging) and
/// pricing each pass through the CostModel. Asynchronous mode executes the
/// same scheduling order without barriers or combining, pricing the run
/// with per-activation distributed-lock overhead that grows with the
/// cluster's fiber count (Section 4.8). Both modes run one serial Process
/// loop in frontier order.
///
/// Like SyncEngine, the engine is immutable after construction and Run is
/// const: all run state lives on Run's stack, so several queries can Run
/// against one engine concurrently, each with its own QueryContext
/// (DESIGN.md section 14).
class GasEngine {
 public:
  GasEngine(const Graph& graph, const Partitioning& partition,
            GasOptions options);

  GasEngine(const GasEngine&) = delete;
  GasEngine& operator=(const GasEngine&) = delete;

  /// Runs `program` as query_id 0 (the historical single-query behavior,
  /// bit for bit).
  Result<GasResult> Run(GasVertexProgram& program) const;

  /// Re-entrant form: runs `program` with the context's query_id (which
  /// namespaces the per-vertex RNG streams). One context per in-flight
  /// query.
  Result<GasResult> Run(GasVertexProgram& program, QueryContext& ctx) const;

  const GasOptions& options() const { return options_; }

 private:
  class Context;

  const Graph& graph_;
  const Partitioning& partition_;
  GasOptions options_;
  std::vector<double> graph_share_bytes_;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_GAS_ENGINE_H_
