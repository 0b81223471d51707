#include "metrics/run_report.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace vcmp {

void RunReport::Absorb(BatchReport batch) {
  total_seconds += batch.seconds;
  overloaded = overloaded || batch.overloaded;
  total_rounds += batch.rounds;
  total_messages += batch.messages;
  peak_memory_bytes = std::max(peak_memory_bytes, batch.peak_memory_bytes);
  peak_residual_bytes =
      std::max(peak_residual_bytes, batch.peak_residual_bytes);
  peak_buffered_bytes =
      std::max(peak_buffered_bytes, batch.peak_buffered_bytes);
  network_overuse_seconds += batch.network_overuse_seconds;
  disk_overuse_seconds += batch.disk_overuse_seconds;
  // Time-weighted average across batches.
  double previous_seconds = total_seconds - batch.seconds;
  disk_utilization =
      total_seconds <= 0.0
          ? 0.0
          : (disk_utilization * previous_seconds +
             batch.disk_utilization * batch.seconds) /
                total_seconds;
  disk_saturated = disk_saturated || batch.disk_saturated;
  max_io_queue_length =
      std::max(max_io_queue_length, batch.max_io_queue_length);
  spilled_bytes += batch.spilled_bytes;
  batches.push_back(std::move(batch));
}

std::string RunReport::ToString() const {
  return StrFormat(
      "%s/%s/%s on %s W=%.0f: %s in %zu batches (%llu rounds, %s msgs/round,"
      " peak mem %s)%s",
      task.c_str(), system.c_str(), dataset.c_str(), cluster.c_str(),
      workload, FormatSeconds(overloaded ? -1.0 : total_seconds).c_str(),
      batches.size(), static_cast<unsigned long long>(total_rounds),
      FormatCount(MessagesPerRound()).c_str(),
      FormatBytes(peak_memory_bytes).c_str(),
      overloaded ? " OVERLOADED" : "");
}

}  // namespace vcmp
