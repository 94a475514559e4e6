#include "data/roaring_index.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "data/block_store.h"
#include "data/simd_kernels.h"
#include "data/splitter_tree.h"

namespace focus::data {
namespace {

constexpr uint32_t kMagic = 0x58495246;  // "FRIX" little-endian
constexpr uint32_t kVersion = 1;
constexpr int32_t kMaxItems = 1 << 20;
constexpr int64_t kMaxTransactions = int64_t{1} << 40;
// A run container beats the 8 KiB bitmap only below this many runs
// (4 bytes/run * 2048 == 8192).
constexpr int64_t kRunVsBitmapMax = 2048;
// Above these cardinalities, value-by-value container intersection loses
// to scattering into an 8 KiB scratch bitmap and using bit tests / the
// simd fold. Perf-only thresholds: every path returns the same integers.
constexpr size_t kMergeVsBitmapProbeMax = 512;
constexpr int64_t kProbeVsMaterializeMax = 256;

// Reused per-thread buffers for chunk-level work, so the hot counting
// path never allocates. Thread-local because CountAbsoluteParallel probes
// one index from every pool thread.
struct ChunkScratch {
  std::vector<uint16_t> lows;
  std::vector<uint64_t> acc;
  std::vector<uint64_t> tmp;
  std::vector<const uint64_t*> ptrs;
  std::vector<size_t> pos;
};

ChunkScratch& Scratch() {
  static thread_local ChunkScratch scratch;
  return scratch;
}

void SetBitRange(uint64_t* words, int32_t start, int32_t end) {
  const int32_t first_word = start >> 6;
  const int32_t last_word = end >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (start & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - (end & 63));
  if (first_word == last_word) {
    words[first_word] |= first_mask & last_mask;
    return;
  }
  words[first_word] |= first_mask;
  for (int32_t w = first_word + 1; w < last_word; ++w) words[w] = ~uint64_t{0};
  words[last_word] |= last_mask;
}

int64_t BitmapRangePopcount(const uint64_t* words, int32_t start, int32_t end) {
  const int32_t first_word = start >> 6;
  const int32_t last_word = end >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (start & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - (end & 63));
  if (first_word == last_word) {
    return std::popcount(words[first_word] & first_mask & last_mask);
  }
  int64_t count = std::popcount(words[first_word] & first_mask);
  for (int32_t w = first_word + 1; w < last_word; ++w) {
    count += std::popcount(words[w]);
  }
  return count + std::popcount(words[last_word] & last_mask);
}

// Number of maximal runs in a bitmap: set bits whose predecessor bit is
// clear, carrying the MSB across word boundaries.
int64_t BitmapRunCount(const uint64_t* words, int64_t n) {
  int64_t runs = 0;
  uint64_t carry = 0;  // MSB of the previous word, shifted into bit 0
  for (int64_t w = 0; w < n; ++w) {
    const uint64_t word = words[w];
    runs += std::popcount(word & ~((word << 1) | carry));
    carry = word >> 63;
  }
  return runs;
}

void WriteLe(std::ostream& out, uint64_t value, int bytes) {
  char buffer[8];
  for (int i = 0; i < bytes; ++i) {
    buffer[i] = static_cast<char>(value >> (8 * i));
  }
  out.write(buffer, bytes);
}

bool ReadLe(std::istream& in, int bytes, uint64_t* value) {
  unsigned char buffer[8];
  if (!in.read(reinterpret_cast<char*>(buffer), bytes)) return false;
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(buffer[i]) << (8 * i);
  }
  *value = v;
  return true;
}

// Always true, so reject sites read `if (bad) { if (Fail(...)) return ... }`.
bool Fail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return true;
}

}  // namespace

void RoaringIndex::AppendContainer(Item& item, int32_t key,
                                   std::span<const uint16_t> lows) {
  const int32_t cardinality = static_cast<int32_t>(lows.size());
  int64_t runs = 1;
  for (size_t i = 1; i < lows.size(); ++i) {
    runs += static_cast<int64_t>(lows[i] != lows[i - 1] + 1);
  }
  Container container;
  container.key = static_cast<uint16_t>(key);
  container.cardinality = cardinality;
  // Pick the smallest encoding: run (4 bytes/run) vs array (2 bytes/TID)
  // when the chunk is array-eligible, run vs the flat 8 KiB bitmap
  // otherwise. Ties keep the simpler array/bitmap form.
  const bool run_wins = cardinality <= kArrayMaxCardinality
                            ? 2 * runs < cardinality
                            : runs < kRunVsBitmapMax;
  if (run_wins) {
    container.type = ContainerType::kRun;
    container.values.reserve(static_cast<size_t>(2 * runs));
    uint16_t start = lows[0];
    uint16_t prev = lows[0];
    for (size_t i = 1; i < lows.size(); ++i) {
      if (lows[i] != prev + 1) {
        container.values.push_back(start);
        container.values.push_back(static_cast<uint16_t>(prev - start));
        start = lows[i];
      }
      prev = lows[i];
    }
    container.values.push_back(start);
    container.values.push_back(static_cast<uint16_t>(prev - start));
  } else if (cardinality <= kArrayMaxCardinality) {
    container.type = ContainerType::kArray;
    container.values.assign(lows.begin(), lows.end());
  } else {
    container.type = ContainerType::kBitmap;
    container.words.assign(static_cast<size_t>(kBitmapWords), 0);
    for (uint16_t low : lows) {
      container.words[low >> 6] |= uint64_t{1} << (low & 63);
    }
  }
  item.count += cardinality;
  item.containers.push_back(std::move(container));
}

RoaringIndex::RoaringIndex(TxnSourceRef source,
                           const RoaringBuildOptions& options)
    : num_transactions_(source.num_transactions()),
      items_(static_cast<size_t>(source.num_items())) {
  if (source.num_items() == 0) return;
  bool spill = false;
  switch (options.spill) {
    case RoaringBuildOptions::Spill::kNever:
      break;
    case RoaringBuildOptions::Spill::kAlways:
      spill = true;
      break;
    case RoaringBuildOptions::Spill::kAuto:
      // ~2 bytes of staged footprint per occurrence, and the canonical
      // txn codec spends 1-2 bytes per occurrence on disk, so twice the
      // payload size approximates the direct build's working set.
      spill = source.backend() == TxnBackend::kBlock &&
              !options.scratch_path.empty() &&
              source.block()->TotalPayloadBytes() * 2 >
                  options.spill_budget_bytes;
      break;
  }
  if (spill) {
    FOCUS_CHECK(!options.scratch_path.empty())
        << "RoaringIndex spill build requires a scratch_path";
    BuildSpilled(source, options);
  } else {
    BuildStreaming(source);
  }
}

void RoaringIndex::BuildStreaming(const TxnSourceRef& source) {
  const auto num_items = static_cast<int32_t>(items_.size());

  // Per-item chunk under construction. The scan visits TIDs in ascending
  // order, so once an occurrence lands past an item's open chunk that
  // chunk is complete and can be encoded immediately — containers
  // finalize DURING the single pass, and per-item counts accumulate in
  // AppendContainer as part of it.
  struct OpenChunk {
    int32_t key = -1;
    std::vector<uint16_t> lows;
  };
  std::vector<OpenChunk> open(static_cast<size_t>(num_items));

  // Route occurrences through a splitter tree into item-range partitions
  // and flush a partition's staging buffer when it fills: each flush then
  // touches only one contiguous slice of `open`, instead of striding the
  // whole item table on every transaction.
  const int32_t partitions = std::clamp(num_items / 64, 1, 64);
  std::vector<int32_t> splitters;
  splitters.reserve(static_cast<size_t>(partitions - 1));
  for (int32_t p = 1; p < partitions; ++p) {
    splitters.push_back(p * num_items / partitions);
  }
  const SplitterTree tree(splitters);

  constexpr size_t kStageCapacity = 4096;
  std::vector<std::vector<std::pair<int32_t, uint32_t>>> stage(
      static_cast<size_t>(partitions));
  for (auto& buffer : stage) buffer.reserve(kStageCapacity);

  const auto flush = [&](int32_t partition) {
    for (const auto& [item, tid] : stage[static_cast<size_t>(partition)]) {
      OpenChunk& chunk = open[static_cast<size_t>(item)];
      const int32_t key = static_cast<int32_t>(tid >> kChunkBits);
      if (key != chunk.key) {
        if (!chunk.lows.empty()) {
          AppendContainer(items_[static_cast<size_t>(item)], chunk.key,
                          chunk.lows);
          chunk.lows.clear();
        }
        chunk.key = key;
      }
      chunk.lows.push_back(static_cast<uint16_t>(tid & (kChunkSize - 1)));
    }
    stage[static_cast<size_t>(partition)].clear();
  };

  source.ForEachTransaction([&](int64_t t, std::span<const int32_t> txn) {
    for (int32_t item : txn) {
      const int32_t partition = tree.Classify(item);
      auto& buffer = stage[static_cast<size_t>(partition)];
      buffer.emplace_back(item, static_cast<uint32_t>(t));
      if (buffer.size() == kStageCapacity) flush(partition);
    }
  });
  for (int32_t partition = 0; partition < partitions; ++partition) {
    flush(partition);
  }
  for (int32_t item = 0; item < num_items; ++item) {
    OpenChunk& chunk = open[static_cast<size_t>(item)];
    if (!chunk.lows.empty()) {
      AppendContainer(items_[static_cast<size_t>(item)], chunk.key,
                      chunk.lows);
    }
  }
}

void RoaringIndex::BuildSpilled(const TxnSourceRef& source,
                                const RoaringBuildOptions& options) {
  const auto num_items = static_cast<int32_t>(items_.size());
  const int32_t partitions = std::clamp(num_items / 64, 1, 64);
  std::vector<int32_t> bounds;
  bounds.reserve(static_cast<size_t>(partitions) + 1);
  bounds.push_back(0);
  for (int32_t p = 1; p < partitions; ++p) {
    bounds.push_back(p * num_items / partitions);
  }
  bounds.push_back(num_items);
  const std::vector<int32_t> splitters(bounds.begin() + 1, bounds.end() - 1);
  const SplitterTree tree(splitters);

  // Phase 1 — scan: every occurrence is routed to its item-range
  // partition and appended to that partition's spill run as
  // (varint item-offset, varint TID-delta). TIDs ascend globally, so each
  // partition's concatenated runs form one non-decreasing TID stream; the
  // delta chain crosses spill-block boundaries within a partition.
  {
    std::unique_ptr<std::ostream> out =
        OpenBlockFileForWrite(options.scratch_path);
    FOCUS_CHECK(out != nullptr)
        << "cannot create spill scratch " << options.scratch_path;
    BlockFileWriter writer(*out, kBlockKindScratch);
    std::vector<std::string> run(static_cast<size_t>(partitions));
    std::vector<uint32_t> last_tid(static_cast<size_t>(partitions), 0);
    const auto flush_run = [&](int32_t p) {
      writer.AppendBlock(run[static_cast<size_t>(p)],
                         static_cast<uint64_t>(p));
      run[static_cast<size_t>(p)].clear();
    };
    source.ForEachTransaction([&](int64_t t, std::span<const int32_t> txn) {
      for (int32_t item : txn) {
        const int32_t p = tree.Classify(item);
        std::string& buffer = run[static_cast<size_t>(p)];
        AppendVarint(buffer, static_cast<uint64_t>(item - bounds[p]));
        AppendVarint(buffer, static_cast<uint64_t>(t) -
                                 last_tid[static_cast<size_t>(p)]);
        last_tid[static_cast<size_t>(p)] = static_cast<uint32_t>(t);
        if (static_cast<int64_t>(buffer.size()) >=
            options.scratch_block_size) {
          flush_run(p);
        }
      }
    });
    for (int32_t p = 0; p < partitions; ++p) {
      if (!run[static_cast<size_t>(p)].empty()) flush_run(p);
    }
    writer.Finish(std::span<const uint64_t>());
  }

  // Phase 2 — finalize partition by partition: only one partition's open
  // chunks are live at a time, so the working set above the final index
  // is one item-range wide no matter how large the dataset is.
  std::string error;
  std::unique_ptr<std::istream> in =
      OpenBlockFileForRead(options.scratch_path);
  FOCUS_CHECK(in != nullptr) << "cannot reopen spill scratch";
  std::unique_ptr<BlockFileReader> reader =
      BlockFileReader::Open(std::move(in), kBlockKindScratch, &error);
  FOCUS_CHECK(reader != nullptr) << error;
  std::vector<std::vector<int64_t>> blocks_of(
      static_cast<size_t>(partitions));
  for (int64_t b = 0; b < reader->num_blocks(); ++b) {
    const uint64_t p = reader->block_meta(b);
    FOCUS_CHECK_LT(p, static_cast<uint64_t>(partitions));
    blocks_of[static_cast<size_t>(p)].push_back(b);
  }
  struct OpenChunk {
    int32_t key = -1;
    std::vector<uint16_t> lows;
  };
  std::string payload;
  for (int32_t p = 0; p < partitions; ++p) {
    std::vector<OpenChunk> open(
        static_cast<size_t>(bounds[p + 1] - bounds[p]));
    uint32_t tid = 0;
    for (int64_t b : blocks_of[static_cast<size_t>(p)]) {
      FOCUS_CHECK(reader->ReadBlock(b, &payload, &error)) << error;
      size_t pos = 0;
      while (pos < payload.size()) {
        uint64_t item_offset = 0;
        uint64_t delta = 0;
        FOCUS_CHECK(ReadVarint(payload, &pos, &item_offset));
        FOCUS_CHECK(ReadVarint(payload, &pos, &delta));
        tid += static_cast<uint32_t>(delta);
        const int32_t item = bounds[p] + static_cast<int32_t>(item_offset);
        OpenChunk& chunk = open[static_cast<size_t>(item_offset)];
        const int32_t key = static_cast<int32_t>(tid >> kChunkBits);
        if (key != chunk.key) {
          if (!chunk.lows.empty()) {
            AppendContainer(items_[static_cast<size_t>(item)], chunk.key,
                            chunk.lows);
            chunk.lows.clear();
          }
          chunk.key = key;
        }
        chunk.lows.push_back(static_cast<uint16_t>(tid & (kChunkSize - 1)));
      }
    }
    for (size_t i = 0; i < open.size(); ++i) {
      if (!open[i].lows.empty()) {
        AppendContainer(items_[static_cast<size_t>(bounds[p]) + i],
                        open[i].key, open[i].lows);
      }
    }
  }
  reader.reset();
  std::remove(options.scratch_path.c_str());
}

bool RoaringIndex::ContainerContains(const Container& container, uint16_t low) {
  switch (container.type) {
    case ContainerType::kArray:
      return std::binary_search(container.values.begin(),
                                container.values.end(), low);
    case ContainerType::kBitmap:
      return (container.words[low >> 6] >> (low & 63)) & 1;
    case ContainerType::kRun: {
      // Last run whose start is <= low, then check its end.
      size_t lo = 0;
      size_t hi = container.values.size() / 2;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (container.values[2 * mid] <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      const uint16_t start = container.values[2 * (lo - 1)];
      const uint16_t length_minus_1 = container.values[2 * (lo - 1) + 1];
      return low <= static_cast<uint32_t>(start) + length_minus_1;
    }
  }
  return false;
}

bool RoaringIndex::ContainsFrom(const Container& container, uint16_t low,
                                size_t& pos) {
  switch (container.type) {
    case ContainerType::kArray:
      while (pos < container.values.size() && container.values[pos] < low) {
        ++pos;
      }
      return pos < container.values.size() && container.values[pos] == low;
    case ContainerType::kBitmap:
      return (container.words[low >> 6] >> (low & 63)) & 1;
    case ContainerType::kRun:
      while (pos + 1 < container.values.size() &&
             static_cast<uint32_t>(container.values[pos]) +
                     container.values[pos + 1] <
                 low) {
        pos += 2;
      }
      return pos + 1 < container.values.size() &&
             container.values[pos] <= low;
  }
  return false;
}

void RoaringIndex::ExpandToBitmap(const Container& container, uint64_t* words) {
  switch (container.type) {
    case ContainerType::kBitmap:
      std::copy(container.words.begin(), container.words.end(), words);
      return;
    case ContainerType::kArray:
      std::fill(words, words + kBitmapWords, 0);
      for (uint16_t low : container.values) {
        words[low >> 6] |= uint64_t{1} << (low & 63);
      }
      return;
    case ContainerType::kRun:
      std::fill(words, words + kBitmapWords, 0);
      for (size_t r = 0; r + 1 < container.values.size(); r += 2) {
        const int32_t start = container.values[r];
        SetBitRange(words, start, start + container.values[r + 1]);
      }
      return;
  }
}

void RoaringIndex::ExpandToArray(const Container& container,
                                 std::vector<uint16_t>& lows) {
  lows.reserve(lows.size() + static_cast<size_t>(container.cardinality));
  switch (container.type) {
    case ContainerType::kArray:
      lows.insert(lows.end(), container.values.begin(),
                  container.values.end());
      return;
    case ContainerType::kBitmap:
      for (int64_t w = 0; w < kBitmapWords; ++w) {
        uint64_t word = container.words[static_cast<size_t>(w)];
        while (word != 0) {
          lows.push_back(
              static_cast<uint16_t>(w * 64 + std::countr_zero(word)));
          word &= word - 1;
        }
      }
      return;
    case ContainerType::kRun:
      for (size_t r = 0; r + 1 < container.values.size(); r += 2) {
        const uint32_t start = container.values[r];
        const uint32_t end = start + container.values[r + 1];
        for (uint32_t low = start; low <= end; ++low) {
          lows.push_back(static_cast<uint16_t>(low));
        }
      }
      return;
  }
}

int64_t RoaringIndex::PairChunkCount(const Container& a, const Container& b) {
  // Normalize so the dispatch matrix below only names each unordered type
  // pair once — which also makes the pair count order-independent by
  // construction.
  const Container* x = &a;
  const Container* y = &b;
  if (static_cast<int>(x->type) > static_cast<int>(y->type)) std::swap(x, y);
  if (x->type == ContainerType::kArray) {
    if (y->type == ContainerType::kArray) {
      if (std::min(x->values.size(), y->values.size()) >
          kMergeVsBitmapProbeMax) {
        // Two big arrays: a value-by-value merge is loop-carried and
        // mispredict-bound, so spend O(card_x) scattering x into a scratch
        // bitmap and probe y with O(1) bit tests instead.
        ChunkScratch& scratch = Scratch();
        scratch.tmp.assign(static_cast<size_t>(kBitmapWords), 0);
        for (uint16_t low : x->values) {
          scratch.tmp[low >> 6] |= uint64_t{1} << (low & 63);
        }
        int64_t count = 0;
        for (uint16_t low : y->values) {
          count += (scratch.tmp[low >> 6] >> (low & 63)) & 1;
        }
        return count;
      }
      // Small arrays: sorted two-pointer merge, branchless — near-equal
      // cardinalities make the three-way branch unpredictable.
      int64_t count = 0;
      size_t i = 0;
      size_t j = 0;
      const size_t nx = x->values.size();
      const size_t ny = y->values.size();
      while (i < nx && j < ny) {
        const uint16_t vx = x->values[i];
        const uint16_t vy = y->values[j];
        count += (vx == vy);
        i += (vx <= vy);
        j += (vy <= vx);
      }
      return count;
    }
    // Array probes bitmap bits / run ranges.
    if (y->type == ContainerType::kBitmap) {
      int64_t count = 0;
      for (uint16_t low : x->values) {
        count += (y->words[low >> 6] >> (low & 63)) & 1;
      }
      return count;
    }
    // Array vs run: advance the run cursor alongside the sorted values.
    int64_t count = 0;
    size_t r = 0;
    for (uint16_t low : x->values) {
      while (r + 1 < y->values.size() &&
             static_cast<uint32_t>(y->values[r]) + y->values[r + 1] < low) {
        r += 2;
      }
      if (r + 1 >= y->values.size()) break;
      count += static_cast<int64_t>(y->values[r] <= low);
    }
    return count;
  }
  if (x->type == ContainerType::kBitmap) {
    if (y->type == ContainerType::kBitmap) {
      return simd::AndPopcountWords(x->words.data(), y->words.data(),
                                    kBitmapWords);
    }
    // Bitmap vs run: masked popcount per run range.
    int64_t count = 0;
    for (size_t r = 0; r + 1 < y->values.size(); r += 2) {
      const int32_t start = y->values[r];
      count += BitmapRangePopcount(x->words.data(), start,
                                   start + y->values[r + 1]);
    }
    return count;
  }
  // Run vs run: overlap lengths of the two ascending interval lists.
  int64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i + 1 < x->values.size() && j + 1 < y->values.size()) {
    const int32_t start_a = x->values[i];
    const int32_t end_a = start_a + x->values[i + 1];
    const int32_t start_b = y->values[j];
    const int32_t end_b = start_b + y->values[j + 1];
    const int32_t overlap =
        std::min(end_a, end_b) - std::max(start_a, start_b) + 1;
    if (overlap > 0) count += overlap;
    if (end_a < end_b) {
      i += 2;
    } else {
      j += 2;
    }
  }
  return count;
}

int64_t RoaringIndex::ChunkIntersectCount(
    std::span<const Container* const> containers, const Container* excluded) {
  if (containers.size() == 1 && excluded == nullptr) {
    return containers[0]->cardinality;
  }
  if (containers.size() == 2 && excluded == nullptr) {
    return PairChunkCount(*containers[0], *containers[1]);
  }
  const Container* smallest = containers[0];
  bool all_bitmap = excluded == nullptr ||
                    excluded->type == ContainerType::kBitmap;
  for (const Container* container : containers) {
    if (container->cardinality < smallest->cardinality) smallest = container;
    all_bitmap = all_bitmap && container->type == ContainerType::kBitmap;
  }
  ChunkScratch& scratch = Scratch();
  if (all_bitmap) {
    // Every member is a bitmap: the fused k-way kernel the flat index
    // uses — one read-only pass, no scratch stores.
    scratch.ptrs.clear();
    for (const Container* container : containers) {
      scratch.ptrs.push_back(container->words.data());
    }
    return simd::IntersectPopcountWords(
        scratch.ptrs.data(), static_cast<int>(scratch.ptrs.size()),
        excluded == nullptr ? nullptr : excluded->words.data(), kBitmapWords);
  }
  if (smallest->cardinality <= kProbeVsMaterializeMax) {
    // Truly sparse chunk: probe the smallest container's TIDs into the
    // rest. Probes ascend, so each non-bitmap member gets a monotone
    // cursor and the whole chunk costs O(sum of cardinalities).
    std::span<const uint16_t> lows;
    if (smallest->type == ContainerType::kArray) {
      lows = smallest->values;
    } else {
      scratch.lows.clear();
      ExpandToArray(*smallest, scratch.lows);
      lows = scratch.lows;
    }
    scratch.pos.assign(containers.size() + 1, 0);
    int64_t count = 0;
    for (uint16_t low : lows) {
      bool in_all = true;
      for (size_t m = 0; m < containers.size(); ++m) {
        if (containers[m] == smallest) continue;
        if (!ContainsFrom(*containers[m], low, scratch.pos[m])) {
          in_all = false;
          break;
        }
      }
      if (in_all && (excluded == nullptr ||
                     !ContainsFrom(*excluded, low,
                                   scratch.pos[containers.size()]))) {
        ++count;
      }
    }
    return count;
  }
  // Mixed/dense chunk: expand members to 8 KiB bitmaps and fold through
  // the dispatched simd kernels exactly like the flat index. Expansion is
  // O(cardinality) per member, cheaper than value-wise intersection once
  // cardinalities pass kProbeVsMaterializeMax.
  scratch.acc.resize(static_cast<size_t>(kBitmapWords));
  scratch.tmp.resize(static_cast<size_t>(kBitmapWords));
  ExpandToBitmap(*containers[0], scratch.acc.data());
  for (size_t m = 1; m < containers.size(); ++m) {
    if (containers[m]->type == ContainerType::kBitmap) {
      simd::AndWordsInPlace(scratch.acc.data(), containers[m]->words.data(),
                            kBitmapWords);
    } else {
      ExpandToBitmap(*containers[m], scratch.tmp.data());
      simd::AndWordsInPlace(scratch.acc.data(), scratch.tmp.data(),
                            kBitmapWords);
    }
  }
  if (excluded == nullptr) {
    return simd::PopcountWords(scratch.acc.data(), kBitmapWords);
  }
  if (excluded->type == ContainerType::kBitmap) {
    return simd::AndNotPopcountWords(scratch.acc.data(),
                                     excluded->words.data(), kBitmapWords);
  }
  ExpandToBitmap(*excluded, scratch.tmp.data());
  return simd::AndNotPopcountWords(scratch.acc.data(), scratch.tmp.data(),
                                   kBitmapWords);
}

int64_t RoaringIndex::CountOverCommonChunks(std::span<const int32_t> items,
                                            const int32_t* excluded) const {
  // Drive the chunk walk from the member with the fewest containers; the
  // other cursors only ever move forward.
  size_t driver = 0;
  for (size_t m = 1; m < items.size(); ++m) {
    if (items_[static_cast<size_t>(items[m])].containers.size() <
        items_[static_cast<size_t>(items[driver])].containers.size()) {
      driver = m;
    }
  }
  const std::vector<Container>* excluded_containers =
      excluded == nullptr
          ? nullptr
          : &items_[static_cast<size_t>(*excluded)].containers;
  std::vector<const Container*> chunk(items.size());
  std::vector<size_t> cursor(items.size(), 0);
  size_t excluded_cursor = 0;
  int64_t total = 0;
  for (const Container& driver_container :
       items_[static_cast<size_t>(items[driver])].containers) {
    const uint16_t key = driver_container.key;
    bool in_all = true;
    for (size_t m = 0; m < items.size(); ++m) {
      if (m == driver) {
        chunk[m] = &driver_container;
        continue;
      }
      const std::vector<Container>& containers =
          items_[static_cast<size_t>(items[m])].containers;
      size_t& pos = cursor[m];
      while (pos < containers.size() && containers[pos].key < key) ++pos;
      if (pos == containers.size() || containers[pos].key != key) {
        in_all = false;
        break;
      }
      chunk[m] = &containers[pos];
    }
    if (!in_all) continue;
    const Container* excluded_container = nullptr;
    if (excluded_containers != nullptr) {
      while (excluded_cursor < excluded_containers->size() &&
             (*excluded_containers)[excluded_cursor].key < key) {
        ++excluded_cursor;
      }
      if (excluded_cursor < excluded_containers->size() &&
          (*excluded_containers)[excluded_cursor].key == key) {
        excluded_container = &(*excluded_containers)[excluded_cursor];
      }
    }
    total += ChunkIntersectCount(chunk, excluded_container);
  }
  return total;
}

int64_t RoaringIndex::CountIntersection(std::span<const int32_t> items) const {
  if (items.empty()) return num_transactions_;
  if (items.size() == 1) return items_[static_cast<size_t>(items[0])].count;
  return CountOverCommonChunks(items, nullptr);
}

int64_t RoaringIndex::CountPairIntersection(int32_t a, int32_t b) const {
  const int32_t pair[2] = {a, b};
  return CountOverCommonChunks(pair, nullptr);
}

int64_t RoaringIndex::CountDifference(std::span<const int32_t> items,
                                      int32_t excluded) const {
  if (items.empty()) {
    return num_transactions_ - items_[static_cast<size_t>(excluded)].count;
  }
  return CountOverCommonChunks(items, &excluded);
}

std::vector<uint32_t> RoaringIndex::ItemTids(int32_t item) const {
  std::vector<uint32_t> tids;
  tids.reserve(static_cast<size_t>(items_[static_cast<size_t>(item)].count));
  std::vector<uint16_t> lows;
  for (const Container& container :
       items_[static_cast<size_t>(item)].containers) {
    lows.clear();
    ExpandToArray(container, lows);
    const uint32_t base = static_cast<uint32_t>(container.key) << kChunkBits;
    for (uint16_t low : lows) tids.push_back(base | low);
  }
  return tids;
}

int64_t RoaringIndex::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(RoaringIndex)) +
                  static_cast<int64_t>(items_.capacity() * sizeof(Item));
  for (const Item& item : items_) {
    bytes +=
        static_cast<int64_t>(item.containers.capacity() * sizeof(Container));
    for (const Container& container : item.containers) {
      bytes += static_cast<int64_t>(container.values.capacity()) * 2 +
               static_cast<int64_t>(container.words.capacity()) * 8;
    }
  }
  return bytes;
}

RoaringIndex::ContainerCounts RoaringIndex::CountContainers() const {
  ContainerCounts counts;
  for (const Item& item : items_) {
    for (const Container& container : item.containers) {
      switch (container.type) {
        case ContainerType::kArray:
          ++counts.arrays;
          break;
        case ContainerType::kBitmap:
          ++counts.bitmaps;
          break;
        case ContainerType::kRun:
          ++counts.runs;
          break;
      }
    }
  }
  return counts;
}

void RoaringIndex::SaveTo(std::ostream& out) const {
  WriteLe(out, kMagic, 4);
  WriteLe(out, kVersion, 4);
  WriteLe(out, static_cast<uint32_t>(items_.size()), 4);
  WriteLe(out, static_cast<uint64_t>(num_transactions_), 8);
  for (const Item& item : items_) {
    WriteLe(out, static_cast<uint32_t>(item.containers.size()), 4);
    for (const Container& container : item.containers) {
      WriteLe(out, container.key, 2);
      WriteLe(out, static_cast<uint8_t>(container.type), 1);
      WriteLe(out, static_cast<uint32_t>(container.cardinality), 4);
      switch (container.type) {
        case ContainerType::kArray:
          for (uint16_t low : container.values) WriteLe(out, low, 2);
          break;
        case ContainerType::kBitmap:
          for (uint64_t word : container.words) WriteLe(out, word, 8);
          break;
        case ContainerType::kRun:
          WriteLe(out, static_cast<uint32_t>(container.values.size() / 2), 4);
          for (uint16_t value : container.values) WriteLe(out, value, 2);
          break;
      }
    }
  }
}

std::optional<RoaringIndex> RoaringIndex::LoadFrom(std::istream& in,
                                                   std::string* error) {
  // Hostile-input discipline: every length is bounded before use, every
  // ordering invariant the counting kernels rely on is re-checked, and
  // only the canonical encoding SaveTo emits is accepted — which is what
  // makes save(load(bytes)) a byte-level fixed point.
  uint64_t magic = 0;
  uint64_t version = 0;
  uint64_t raw_items = 0;
  uint64_t raw_transactions = 0;
  if (!ReadLe(in, 4, &magic) || magic != kMagic) {
    if (Fail(error, "bad magic")) return std::nullopt;
  }
  if (!ReadLe(in, 4, &version) || version != kVersion) {
    if (Fail(error, "unsupported version")) return std::nullopt;
  }
  if (!ReadLe(in, 4, &raw_items) || raw_items > kMaxItems) {
    if (Fail(error, "bad item count")) return std::nullopt;
  }
  if (!ReadLe(in, 8, &raw_transactions) ||
      raw_transactions > static_cast<uint64_t>(kMaxTransactions)) {
    if (Fail(error, "bad transaction count")) return std::nullopt;
  }
  RoaringIndex index;
  index.num_transactions_ = static_cast<int64_t>(raw_transactions);
  index.items_.resize(raw_items);
  const uint64_t max_chunks =
      (raw_transactions + kChunkSize - 1) / static_cast<uint64_t>(kChunkSize);
  for (Item& item : index.items_) {
    uint64_t num_containers = 0;
    if (!ReadLe(in, 4, &num_containers) || num_containers > max_chunks) {
      if (Fail(error, "bad container count")) return std::nullopt;
    }
    item.containers.reserve(num_containers);
    int64_t previous_key = -1;
    for (uint64_t c = 0; c < num_containers; ++c) {
      uint64_t key = 0;
      uint64_t type = 0;
      uint64_t cardinality = 0;
      if (!ReadLe(in, 2, &key) || static_cast<int64_t>(key) <= previous_key ||
          key >= max_chunks) {
        if (Fail(error, "container keys not ascending")) return std::nullopt;
      }
      previous_key = static_cast<int64_t>(key);
      if (!ReadLe(in, 1, &type) || type > 2) {
        if (Fail(error, "bad container type")) return std::nullopt;
      }
      if (!ReadLe(in, 4, &cardinality) || cardinality == 0 ||
          cardinality > static_cast<uint64_t>(kChunkSize)) {
        if (Fail(error, "bad cardinality")) return std::nullopt;
      }
      Container container;
      container.key = static_cast<uint16_t>(key);
      container.type = static_cast<ContainerType>(type);
      container.cardinality = static_cast<int32_t>(cardinality);
      int64_t runs = 0;
      int64_t max_low = -1;
      switch (container.type) {
        case ContainerType::kArray: {
          if (cardinality > static_cast<uint64_t>(kArrayMaxCardinality)) {
            if (Fail(error, "array container too large")) return std::nullopt;
          }
          container.values.reserve(cardinality);
          // previous = -2 so the first value always opens a run.
          int64_t previous = -2;
          runs = 0;
          for (uint64_t i = 0; i < cardinality; ++i) {
            uint64_t low = 0;
            if (!ReadLe(in, 2, &low) ||
                static_cast<int64_t>(low) <= previous) {
              if (Fail(error, "array values not ascending")) {
                return std::nullopt;
              }
            }
            runs += static_cast<int64_t>(static_cast<int64_t>(low) !=
                                         previous + 1);
            previous = static_cast<int64_t>(low);
            container.values.push_back(static_cast<uint16_t>(low));
          }
          max_low = previous;
          if (2 * runs < static_cast<int64_t>(cardinality)) {
            if (Fail(error, "non-canonical array (run form is smaller)")) {
              return std::nullopt;
            }
          }
          break;
        }
        case ContainerType::kBitmap: {
          if (cardinality <= static_cast<uint64_t>(kArrayMaxCardinality)) {
            if (Fail(error, "non-canonical bitmap (array-sized)")) {
              return std::nullopt;
            }
          }
          container.words.resize(static_cast<size_t>(kBitmapWords));
          for (int64_t w = 0; w < kBitmapWords; ++w) {
            uint64_t word = 0;
            if (!ReadLe(in, 8, &word)) {
              if (Fail(error, "truncated bitmap")) return std::nullopt;
            }
            container.words[static_cast<size_t>(w)] = word;
          }
          if (simd::PopcountWords(container.words.data(), kBitmapWords) !=
              static_cast<int64_t>(cardinality)) {
            if (Fail(error, "bitmap cardinality mismatch")) {
              return std::nullopt;
            }
          }
          runs = BitmapRunCount(container.words.data(), kBitmapWords);
          if (runs < kRunVsBitmapMax) {
            if (Fail(error, "non-canonical bitmap (run form is smaller)")) {
              return std::nullopt;
            }
          }
          for (int64_t w = kBitmapWords - 1; w >= 0; --w) {
            const uint64_t word = container.words[static_cast<size_t>(w)];
            if (word != 0) {
              max_low = w * 64 + (63 - std::countl_zero(word));
              break;
            }
          }
          break;
        }
        case ContainerType::kRun: {
          uint64_t num_runs = 0;
          if (!ReadLe(in, 4, &num_runs) || num_runs == 0 ||
              num_runs > static_cast<uint64_t>(kChunkSize) / 2) {
            if (Fail(error, "bad run count")) return std::nullopt;
          }
          container.values.reserve(2 * num_runs);
          int64_t previous_end = -2;
          int64_t total = 0;
          for (uint64_t r = 0; r < num_runs; ++r) {
            uint64_t start = 0;
            uint64_t length_minus_1 = 0;
            if (!ReadLe(in, 2, &start) || !ReadLe(in, 2, &length_minus_1)) {
              if (Fail(error, "truncated run")) return std::nullopt;
            }
            // Canonical runs are ascending with a gap (adjacent runs
            // would have been merged at build time).
            if (static_cast<int64_t>(start) < previous_end + 2) {
              if (Fail(error, "runs overlap or touch")) return std::nullopt;
            }
            const int64_t end =
                static_cast<int64_t>(start + length_minus_1);
            if (end >= kChunkSize) {
              if (Fail(error, "run past chunk end")) return std::nullopt;
            }
            previous_end = end;
            total += static_cast<int64_t>(length_minus_1) + 1;
            container.values.push_back(static_cast<uint16_t>(start));
            container.values.push_back(
                static_cast<uint16_t>(length_minus_1));
          }
          max_low = previous_end;
          if (total != static_cast<int64_t>(cardinality)) {
            if (Fail(error, "run cardinality mismatch")) return std::nullopt;
          }
          runs = static_cast<int64_t>(num_runs);
          const bool run_wins =
              static_cast<int64_t>(cardinality) <= kArrayMaxCardinality
                  ? 2 * runs < static_cast<int64_t>(cardinality)
                  : runs < kRunVsBitmapMax;
          if (!run_wins) {
            if (Fail(error, "non-canonical run container")) {
              return std::nullopt;
            }
          }
          break;
        }
      }
      const int64_t max_tid =
          (static_cast<int64_t>(key) << kChunkBits) + max_low;
      if (max_tid >= index.num_transactions_) {
        if (Fail(error, "TID past num_transactions")) return std::nullopt;
      }
      item.count += container.cardinality;
      item.containers.push_back(std::move(container));
    }
  }
  if (in.peek() != std::istream::traits_type::eof()) {
    if (Fail(error, "trailing bytes")) return std::nullopt;
  }
  return index;
}

}  // namespace focus::data
