// google-benchmark microbenchmarks of the engine primitives: message
// staging/combining, inbox grouping, partitioning, counting-mode walk
// transitions, mirror-plan construction, and LMA fitting. These quantify
// the cost of the building blocks the figure benches compose.

#include <benchmark/benchmark.h>

#include "common/math/lma.h"
#include "common/rng.h"
#include "engine/mirror_engine.h"
#include "engine/worker.h"
#include "graph/generators.h"
#include "graph/partition.h"

namespace vcmp {
namespace {

const Graph& BenchGraph() {
  static const auto& graph = *new Graph(GenerateRmat({.num_vertices = 1 << 15,
                                                      .num_edges = 1 << 18,
                                                      .seed = 5}));
  return graph;
}

void BM_WorkerStage(benchmark::State& state) {
  const bool combine = state.range(0) != 0;
  SumCombiner combiner;
  Worker worker;
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    worker.Reset(8);
    worker.SetCombiner(combine ? &combiner : nullptr);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      worker.Stage(static_cast<uint32_t>(rng.NextBounded(8)),
                   static_cast<VertexId>(rng.NextBounded(1024)), 0, 1.0,
                   1.0);
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_WorkerStage)->Arg(0)->Arg(1);

void BM_WorkerStageSkewed(benchmark::State& state) {
  // Combining-heavy: 10k messages over only `range(0)` distinct targets,
  // so most Stage calls hit an existing combiner-index entry. Exercises
  // the flat-hash probe/combine path rather than the append path.
  const uint32_t distinct = static_cast<uint32_t>(state.range(0));
  SumCombiner combiner;
  Worker worker;
  Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    worker.Reset(8);
    worker.SetCombiner(&combiner);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      worker.Stage(static_cast<uint32_t>(rng.NextBounded(8)),
                   static_cast<VertexId>(rng.NextBounded(distinct)), 0,
                   1.0, 1.0);
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_WorkerStageSkewed)->Arg(16)->Arg(256)->Arg(4096);

void BM_WorkerDrain(benchmark::State& state) {
  // Measures delivery: append each staged outbox into a destination inbox
  // and reset combiner state. Worker buffers are reused across
  // iterations, so steady-state cost (no per-round allocation) is what
  // gets measured.
  SumCombiner combiner;
  Worker worker;
  worker.Reset(8);
  worker.SetCombiner(&combiner);
  Rng rng(5);
  MessageBlock inbox;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 10000; ++i) {
      worker.Stage(static_cast<uint32_t>(rng.NextBounded(8)),
                   static_cast<VertexId>(rng.NextBounded(1 << 14)), 0,
                   1.0, 1.0);
    }
    state.ResumeTiming();
    for (uint32_t machine = 0; machine < 8; ++machine) {
      inbox.Clear();
      worker.Drain(machine, &inbox);
      benchmark::DoNotOptimize(inbox.targets());
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_WorkerDrain);

void BM_WorkerSwapOutbox(benchmark::State& state) {
  // The single-sender delivery path: an O(1) buffer exchange instead of
  // a column append. The contrast with BM_WorkerDrain quantifies what
  // single-machine (or single-active-sender) rounds save.
  Worker worker;
  worker.Reset(1);
  worker.SetCombiner(nullptr);
  Rng rng(6);
  MessageBlock inbox;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 10000; ++i) {
      worker.Stage(0, static_cast<VertexId>(rng.NextBounded(1 << 14)), 0,
                   1.0, 1.0);
    }
    inbox.Clear();
    state.ResumeTiming();
    worker.SwapOutbox(0, &inbox);
    benchmark::DoNotOptimize(inbox.targets());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_WorkerSwapOutbox);

void BM_InboxGrouping(benchmark::State& state) {
  // One machine owning 2^12 vertices, single tag: the key fits one
  // digit, so this times the grouper's single counting pass.
  constexpr VertexId kLocals = 1 << 12;
  Rng rng(2);
  std::vector<VertexId> targets(static_cast<size_t>(state.range(0)));
  for (VertexId& target : targets) {
    target = static_cast<VertexId>(rng.NextBounded(kLocals));
  }
  std::vector<VertexId> locals(kLocals);
  std::vector<uint32_t> local_index(kLocals);
  for (VertexId v = 0; v < kLocals; ++v) locals[v] = local_index[v] = v;
  Worker worker;
  for (auto _ : state) {
    state.PauseTiming();
    worker.Reset(1);
    worker.SetLocalNumbering(local_index.data(), locals);
    for (VertexId target : targets) {
      worker.inbox().PushBack(target, 0, 1.0, 1.0);
    }
    state.ResumeTiming();
    worker.GroupInbox();
    benchmark::DoNotOptimize(worker.runs().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InboxGrouping)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_HashPartition(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  HashPartitioner partitioner;
  for (auto _ : state) {
    Partitioning part = partitioner.Partition(graph, 8);
    benchmark::DoNotOptimize(part.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.NumVertices());
}
BENCHMARK(BM_HashPartition);

void BM_GreedyEdgeCutPartition(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  GreedyEdgeCutPartitioner partitioner;
  for (auto _ : state) {
    Partitioning part = partitioner.Partition(graph, 8);
    benchmark::DoNotOptimize(part.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.NumEdges());
}
BENCHMARK(BM_GreedyEdgeCutPartition);

void BM_MirrorPlan(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Partitioning part = HashPartitioner().Partition(graph, 8);
  for (auto _ : state) {
    MirrorPlan plan(graph, part, 64);
    benchmark::DoNotOptimize(plan.TotalMirrors());
  }
  state.SetItemsProcessed(state.iterations() * graph.NumEdges());
}
BENCHMARK(BM_MirrorPlan);

void BM_BinomialWalkSplit(benchmark::State& state) {
  // The inner loop of counting-mode BPPR: multinomial split via
  // conditional binomials over a degree-32 vertex.
  Rng rng(3);
  const uint64_t walks = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    uint64_t remaining = walks;
    uint64_t out = 0;
    for (int left = 32; left > 0 && remaining > 0; --left) {
      uint64_t portion =
          left == 1 ? remaining : rng.NextBinomial(remaining, 1.0 / left);
      out += portion;
      remaining -= portion;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_BinomialWalkSplit)->Arg(100)->Arg(100000)->Arg(100000000);

void BM_LmaPowerLawFit(benchmark::State& state) {
  std::vector<double> xs;
  std::vector<double> ys;
  double x = 2.0;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.2) + 40.0);
    x *= 2.0;
  }
  for (auto _ : state) {
    auto fit = FitPowerLaw(xs, ys);
    benchmark::DoNotOptimize(fit.ok());
  }
}
BENCHMARK(BM_LmaPowerLawFit);

}  // namespace
}  // namespace vcmp

BENCHMARK_MAIN();
