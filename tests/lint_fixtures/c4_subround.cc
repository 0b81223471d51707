// C4/D4 fixture: the sub-machine parallel shapes introduced with
// sender-side combining and parallel grouping — chunked radix passes
// over one machine's inbox and per-destination combine-fold tables.
// Each chunk/destination task walks its slice of entries in an inner
// loop, so every hazardous subscript routes through the *entry* index,
// not the shard index: the precision case the flow rule has to judge by
// what the written table is bound to, not by the subscript alone. Racy
// variants share a histogram, a scatter cursor, or a fold table across
// tasks; the sanctioned variants bind a reference through the loop
// index first (per-chunk slab rows, per-destination tables), exactly
// how a chunked histogram/scatter radix pass and the engine's
// unified fold stay deterministic. Linted under a synthetic
// src/engine/ path by lint_flow_test.cc.

#include <cstdint>
#include <vector>

namespace vcmp {

constexpr uint32_t kRadix = 256;
constexpr uint32_t kChunks = 16;

struct FoldSlot {
  double value = 0.0;
  double mult = 0.0;
  uint32_t epoch = 0;
};

struct FoldTable {
  std::vector<FoldSlot> slots;
};

// Histogram pass: every chunk folding into one shared table races; the
// sanctioned shape binds the chunk's own slab row first.
void HistChunks(ThreadPool& pool, const std::vector<uint32_t>& digits,
                std::vector<std::vector<uint32_t>>& slab_rows) {
  std::vector<uint32_t> shared_hist(kRadix, 0);
  pool.ParallelForStealable(kChunks, [&](uint32_t chunk) {
    for (uint32_t i = 0; i < digits.size(); ++i) {
      if (i % kChunks != chunk) continue;
      shared_hist[digits[i]] += 1;  // C4+D4: shared across chunk tasks
    }
  });
  pool.ParallelForStealable(kChunks, [&](uint32_t chunk) {
    std::vector<uint32_t>& row = slab_rows[chunk];
    for (uint32_t i = chunk; i < digits.size(); i += kChunks) {
      row[digits[i]] += 1;  // quiet: row bound through the chunk index
    }
  });
}

// Scatter pass: bumping a shared per-digit cursor lets two chunks claim
// the same destination slot; the prefix pass must hand each chunk its
// own pre-seeded cursor row instead.
void ScatterChunks(ThreadPool& pool, const std::vector<uint32_t>& digits,
                   std::vector<std::vector<uint32_t>>& cursor_rows,
                   std::vector<uint32_t>& out) {
  std::vector<uint32_t> cursor(kRadix, 0);
  pool.ParallelFor(kChunks, [&](uint32_t chunk) {
    for (uint32_t i = 0; i < digits.size(); ++i) {
      if (i % kChunks != chunk) continue;
      out[cursor[digits[i]]] = i;  // C4: slot claimed via shared cursor
      cursor[digits[i]] += 1;      // C4+D4: shared cursor bump
    }
  });
  pool.ParallelFor(kChunks, [&](uint32_t chunk) {
    std::vector<uint32_t>& row = cursor_rows[chunk];
    for (uint32_t i = chunk; i < digits.size(); i += kChunks) {
      out[row[digits[i]]] = i;  // quiet: cursor row owned by this chunk
      row[digits[i]] += 1;      // quiet: same
    }
  });
}

// Per-destination combine fold: one task per destination folding into
// that destination's own table is single-writer by construction; every
// destination folding into one shared table is the race the rule must
// catch — the slot subscript routes through message data, the PR-6 bug
// class one layer deeper.
void FoldDestinations(ThreadPool& pool, uint32_t dests,
                      std::vector<FoldTable>& tables, FoldTable& shared,
                      const std::vector<uint32_t>& key_slots) {
  pool.ParallelFor(dests, [&](uint32_t dest) {
    FoldTable& table = tables[dest];
    for (uint32_t i = 0; i < key_slots.size(); ++i) {
      table.slots[key_slots[i]].value += 1.0;  // quiet: dest-owned table
    }
  });
  pool.ParallelFor(dests, [&](uint32_t dest) {
    for (uint32_t i = 0; i < key_slots.size(); ++i) {
      shared.slots[key_slots[i]].value += 1.0;  // C4+D4: shared fold table
    }
  });
}

}  // namespace vcmp
