// Golden fingerprints for vcmp_bench: a compact, exact text form of what
// a workload computed, and the goldens.json file that pins it per
// (seed, shrink, workload).
#ifndef VCMP_BENCH_SUITE_GOLDENS_H_
#define VCMP_BENCH_SUITE_GOLDENS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "probe.h"

namespace vcmp {
namespace suite {

/// Exact bits of a double as 16 hex digits.
std::string HexBits(double value);

/// One line per batch: task, simulated-seconds bits, rounds, logical
/// messages bits, peak-memory bits and answer digest.
std::string BatchFingerprint(const std::vector<BatchRecord>& batches);

/// goldens.json entries, keyed by GoldenKey.
using Goldens = std::map<std::string, std::string>;

/// "<seed>/<shrink>/<workload golden key>".
std::string GoldenKey(uint64_t seed, double shrink,
                      const std::string& workload);

/// Reads goldens.json. NotFound when the file does not exist,
/// InvalidArgument when it does not parse.
Result<Goldens> ReadGoldens(const std::string& path);

/// Writes `goldens` as goldens.json, one entry per line in key order.
Status WriteGoldens(const Goldens& goldens, const std::string& path);

}  // namespace suite
}  // namespace vcmp

#endif  // VCMP_BENCH_SUITE_GOLDENS_H_
