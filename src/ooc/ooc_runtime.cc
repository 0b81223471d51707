#include "ooc/ooc_runtime.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <system_error>

#include "common/string_util.h"

namespace vcmp {
namespace {

/// Position bounds of `sections` equal contiguous ranges over n
/// vertices: section s covers [bounds[s], bounds[s+1]).
std::vector<uint64_t> SectionBounds(uint64_t n, uint32_t sections) {
  std::vector<uint64_t> bounds(sections + 1);
  for (uint32_t s = 0; s <= sections; ++s) {
    bounds[s] = n * s / sections;
  }
  return bounds;
}

uint32_t ClampSections(uint32_t requested, uint64_t n) {
  uint32_t sections = requested == 0 ? 1 : requested;
  if (n > 0 && sections > n) sections = static_cast<uint32_t>(n);
  return sections;
}

uint64_t MaxSectionRealBytes(
    const OocRuntime::Setup& setup,
    const std::vector<std::vector<VertexId>>& vertices_by_machine) {
  uint64_t max_bytes = 0;
  for (const std::vector<VertexId>& vertices : vertices_by_machine) {
    const uint32_t sections =
        ClampSections(setup.options.cache_sections, vertices.size());
    std::vector<uint64_t> bounds = SectionBounds(vertices.size(), sections);
    for (uint32_t s = 0; s < sections; ++s) {
      const uint64_t bytes = (bounds[s + 1] - bounds[s]) * sizeof(VertexRecord);
      max_bytes = std::max(max_bytes, bytes);
    }
  }
  return max_bytes;
}

MemoryGovernor::Config GovernorConfig(
    const OocRuntime::Setup& setup,
    const std::vector<std::vector<VertexId>>& vertices_by_machine) {
  MemoryGovernor::Config config;
  config.budget_bytes = setup.options.memory_budget_bytes;
  config.stat_scale = setup.stat_scale;
  config.bytes_per_message = setup.bytes_per_message;
  config.message_memory_overhead = setup.message_memory_overhead;
  config.max_section_real_bytes =
      MaxSectionRealBytes(setup, vertices_by_machine);
  config.cache_ways = setup.options.cache_ways;
  config.spill_page_messages = setup.options.spill_page_messages;
  return config;
}

}  // namespace

uint64_t OocRuntime::MinFeasibleBudgetBytes(
    const Setup& setup,
    const std::vector<std::vector<VertexId>>& vertices_by_machine) {
  return MemoryGovernor::MinFeasibleBytes(
      GovernorConfig(setup, vertices_by_machine));
}

Result<std::unique_ptr<OocRuntime>> OocRuntime::Create(
    const Setup& setup, const Graph& graph,
    const std::vector<std::vector<VertexId>>& vertices_by_machine) {
  if (setup.machines == 0 || vertices_by_machine.size() != setup.machines) {
    return Status::InvalidArgument("ooc runtime machine count mismatch");
  }
  MemoryGovernor::Config config = GovernorConfig(setup, vertices_by_machine);
  VCMP_RETURN_IF_ERROR(MemoryGovernor::Validate(config));

  std::unique_ptr<OocRuntime> runtime(new OocRuntime());
  runtime->governor_ = std::make_unique<MemoryGovernor>(config);
  runtime->vertices_by_machine_ = &vertices_by_machine;

  // Spill directory: a caller-provided path is used as-is (files only
  // are cleaned up); an empty path gets a unique directory under the
  // system temp dir, removed with the runtime.
  std::error_code ec;
  if (setup.options.directory.empty()) {
    // Distinct directories per runtime instance; the counter value is
    // never observable in results, so the cross-query sharing is benign.
    // vcmp:query-local(unique temp-dir suffix only; result-neutral)
    static std::atomic<uint64_t> instance_counter{0};
    const uint64_t instance =
        instance_counter.fetch_add(1, std::memory_order_relaxed);
    std::filesystem::path base = std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IoError("cannot resolve temp dir: " + ec.message());
    runtime->directory_ =
        (base / StrFormat("vcmp_ooc_%d_%llu", static_cast<int>(getpid()),
                          static_cast<unsigned long long>(instance)))
            .string();
    runtime->owns_directory_ = true;
  } else {
    runtime->directory_ = setup.options.directory;
  }
  std::filesystem::create_directories(runtime->directory_, ec);
  if (ec) {
    return Status::IoError("cannot create ooc directory " +
                           runtime->directory_ + ": " + ec.message());
  }

  runtime->position_of_vertex_.assign(graph.NumVertices(), 0);
  runtime->machines_.resize(setup.machines);
  for (uint32_t machine = 0; machine < setup.machines; ++machine) {
    Machine& m = runtime->machines_[machine];
    const std::vector<VertexId>& vertices = vertices_by_machine[machine];
    for (uint64_t i = 0; i < vertices.size(); ++i) {
      runtime->position_of_vertex_[vertices[i]] = i;
    }
    const uint32_t sections =
        ClampSections(setup.options.cache_sections, vertices.size());
    m.section_begin = SectionBounds(vertices.size(), sections);
    m.section_degree_sum.assign(sections, 0.0);
    m.section_needed.assign(sections, 0);
    std::vector<std::vector<VertexRecord>> section_records(sections);
    for (uint32_t s = 0; s < sections; ++s) {
      section_records[s].reserve(m.section_begin[s + 1] - m.section_begin[s]);
      for (uint64_t i = m.section_begin[s]; i < m.section_begin[s + 1]; ++i) {
        const VertexId v = vertices[i];
        const uint64_t degree = graph.OutDegree(v);
        section_records[s].push_back(
            {v, static_cast<uint32_t>(std::min<uint64_t>(degree, ~0u))});
        m.section_degree_sum[s] += static_cast<double>(degree);
      }
    }
    m.state_path = (std::filesystem::path(runtime->directory_) /
                    StrFormat("state_m%u.vvst", machine))
                       .string();
    m.spill_path = (std::filesystem::path(runtime->directory_) /
                    StrFormat("spill_m%u.vspl", machine))
                       .string();
    VCMP_RETURN_IF_ERROR(WriteStateFile(m.state_path, section_records));
    VCMP_RETURN_IF_ERROR(m.reader.Open(m.state_path));
    m.cache.Configure(&m.reader, setup.options.cache_ways,
                      runtime->governor_->cache_capacity_bytes());
    m.stream.Configure(m.spill_path, setup.options.spill_page_messages);
  }
  return runtime;
}

OocRuntime::~OocRuntime() {
  std::error_code ec;
  for (Machine& m : machines_) {
    m.reader.Close();
    std::filesystem::remove(m.state_path, ec);
    std::filesystem::remove(m.spill_path, ec);
  }
  if (owns_directory_ && !directory_.empty()) {
    std::filesystem::remove(directory_, ec);
  }
}

uint32_t OocRuntime::SectionOfPosition(const Machine& m,
                                       uint64_t position) const {
  const uint32_t sections =
      static_cast<uint32_t>(m.section_begin.size()) - 1;
  const uint64_t n = m.section_begin[sections];
  uint32_t s = static_cast<uint32_t>(
      std::min<uint64_t>(position * sections / n, sections - 1));
  while (position < m.section_begin[s]) --s;
  while (position >= m.section_begin[s + 1]) ++s;
  return s;
}

void OocRuntime::RecordError(Machine& m, Status status) {
  if (m.error.ok()) m.error = std::move(status);
}

Status OocRuntime::ConsumeError() {
  Status first = Status::OK();
  for (Machine& m : machines_) {
    if (first.ok() && !m.error.ok()) first = m.error;
    m.error = Status::OK();
  }
  return first;
}

void OocRuntime::RestoreInbox(uint32_t machine) {
  Machine& m = machines_[machine];
  m.restored.Clear();
  Result<uint64_t> restored = m.stream.Restore(&m.restored);
  if (!restored.ok()) RecordError(m, restored.status());
}

Status OocRuntime::TouchSection(Machine& m, uint32_t section) {
  bool loaded = false;
  VCMP_RETURN_IF_ERROR(m.cache.EnsureResident(section, &loaded));
  if (loaded) {
    m.stream_bytes_this_round +=
        static_cast<double>(m.reader.section_bytes(section)) +
        8.0 * m.section_degree_sum[section];
  }
  return Status::OK();
}

void OocRuntime::TouchSections(uint32_t machine,
                               std::span<const MessageRun> runs) {
  Machine& m = machines_[machine];
  const uint32_t sections = static_cast<uint32_t>(m.section_needed.size());
  for (const MessageRun& run : runs) {
    const uint64_t position = position_of_vertex_[run.target];
    m.section_needed[SectionOfPosition(m, position)] = 1;
  }
  for (uint32_t s = 0; s < sections; ++s) {
    if (m.section_needed[s] == 0) continue;
    m.section_needed[s] = 0;
    Status touched = TouchSection(m, s);
    if (!touched.ok()) RecordError(m, std::move(touched));
  }
}

void OocRuntime::StreamAllDegrees(uint32_t machine,
                                  std::vector<uint32_t>* degrees) {
  Machine& m = machines_[machine];
  const uint32_t sections =
      static_cast<uint32_t>(m.section_begin.size()) - 1;
  degrees->assign((*vertices_by_machine_)[machine].size(), 0);
  for (uint32_t s = 0; s < sections; ++s) {
    Status touched = TouchSection(m, s);
    if (!touched.ok()) {
      RecordError(m, std::move(touched));
      return;
    }
    const std::vector<VertexRecord>& records = m.cache.Records(s);
    for (uint64_t i = 0; i < records.size(); ++i) {
      (*degrees)[m.section_begin[s] + i] = records[i].degree;
    }
  }
}

void OocRuntime::SpillMessages(uint32_t machine, const MessageBlock& arena,
                               size_t from, size_t count) {
  Machine& m = machines_[machine];
  Status appended =
      m.stream.Append(arena.targets() + from, arena.tags() + from,
                      arena.values() + from, arena.multiplicities() + from,
                      count);
  if (!appended.ok()) RecordError(m, std::move(appended));
}

void OocRuntime::FinishDeliverRound(uint32_t machine) {
  Machine& m = machines_[machine];
  Status finished = m.stream.EndRound();
  if (!finished.ok()) RecordError(m, std::move(finished));
}

double OocRuntime::TakeRoundStreamBytes(uint32_t machine) {
  Machine& m = machines_[machine];
  const double bytes = m.stream_bytes_this_round;
  m.stream_bytes_this_round = 0.0;
  return bytes;
}

void OocRuntime::NoteRoundLiveBytes(uint32_t machine,
                                    double sent_real_bytes) {
  Machine& m = machines_[machine];
  const double live = sent_real_bytes +
                      static_cast<double>(m.restored.size() *
                                          MessageBlock::kBytesPerMessage) +
                      static_cast<double>(m.cache.resident_bytes()) +
                      static_cast<double>(m.stream.staging_bytes());
  m.peak_live_bytes = std::max(m.peak_live_bytes, live);
}

OocRunStats OocRuntime::run_stats() const {
  OocRunStats stats;
  for (const Machine& m : machines_) {
    stats.spill_bytes_written += static_cast<double>(m.stream.bytes_written());
    stats.spill_bytes_read += static_cast<double>(m.stream.bytes_read());
    stats.spilled_messages += m.stream.messages_spilled();
    stats.restored_messages += m.stream.messages_restored();
    stats.spill_pages += m.stream.pages_written();
    const VertexCache::Stats& cache = m.cache.stats();
    stats.cache_hits += cache.hits;
    stats.cache_misses += cache.misses;
    stats.cache_evictions += cache.evictions;
    stats.state_bytes_read += static_cast<double>(m.reader.bytes_read());
    stats.peak_live_bytes =
        std::max(stats.peak_live_bytes, m.peak_live_bytes);
  }
  return stats;
}

}  // namespace vcmp
