// Ablation: Pregel's checkpoint-based fault tolerance under the
// multi-processing workloads. The paper's systems all checkpoint (Pregel
// writes state to GFS between supersteps); this bench quantifies the
// interval tradeoff on a heavy BPPR batch: frequent checkpoints pay write
// time every k rounds, sparse ones pay long replays when a machine dies.

#include <iostream>

#include "bench_util.h"
#include "engine/sync_engine.h"
#include "tasks/bppr.h"

namespace vcmp {
namespace bench {
namespace {

EngineResult RunWith(uint64_t checkpoint_interval, uint64_t failure_round) {
  const Dataset& dataset = CachedDataset(DatasetId::kDblp);
  static auto& partition = *new Partitioning(
      HashPartitioner().Partition(dataset.graph, 8));
  EngineOptions options;
  options.cluster = ClusterSpec::Galaxy8();
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.stat_scale = dataset.scale;
  options.checkpoint_interval_rounds = checkpoint_interval;
  options.inject_failure_at_round = failure_round;
  TaskContext context{&dataset.graph, &partition, dataset.scale};
  BpprTask task;
  auto program =
      task.MakeProgram(context, ProgramFlavor::kPointToPoint, 2048, 7);
  VCMP_CHECK(program.ok());
  SyncEngine engine(dataset.graph, partition, options);
  auto result = engine.Run(*program.value());
  VCMP_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void Run() {
  PrintBanner(std::cout,
              "Ablation: checkpoint interval under a machine failure "
              "(BPPR W=2048, DBLP, Galaxy-8, failure at round 40)");
  TablePrinter table({"Interval", "Checkpoints", "CkptTime", "Recovery",
                      "Total"});
  double best = 1e300;
  uint64_t best_interval = 0;
  std::vector<std::pair<uint64_t, EngineResult>> rows;
  for (uint64_t interval : {0ULL, 2ULL, 5ULL, 10ULL, 20ULL, 40ULL}) {
    EngineResult result = RunWith(interval, /*failure_round=*/40);
    if (result.seconds < best) {
      best = result.seconds;
      best_interval = interval;
    }
    rows.emplace_back(interval, std::move(result));
  }
  for (const auto& [interval, result] : rows) {
    table.AddRow({interval == 0 ? "none"
                                : StrFormat("%llu", (unsigned long long)
                                                        interval),
                  StrFormat("%llu",
                            (unsigned long long)result.checkpoints_taken),
                  StrFormat("%.1fs", result.checkpoint_seconds),
                  StrFormat("%.1fs", result.recovery_seconds),
                  StrFormat("%.1fs%s", result.seconds,
                            interval == best_interval ? " *" : "")});
  }
  table.Print(std::cout);
  std::cout << "\nNo checkpoints replay the expensive early rounds; "
               "frequent checkpoints re-write\nthe heavy early-round state "
               "over and over. Because BPPR's round cost decays\n"
               "geometrically, sparse checkpointing wins here — the "
               "interval should track the\nworkload's round-cost profile, "
               "not a fixed period.\n";
}

}  // namespace
}  // namespace bench
}  // namespace vcmp

int main() {
  vcmp::bench::Run();
  return 0;
}
