// google-benchmark microbenchmarks of the engine primitives: inbox
// grouping, partitioning, counting-mode walk transitions, mirror-plan
// construction, and LMA fitting. These quantify the cost of the building
// blocks the figure benches compose.

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
    worker.Reset();
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
