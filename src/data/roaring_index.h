#ifndef FOCUS_DATA_ROARING_INDEX_H_
#define FOCUS_DATA_ROARING_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/transaction_db.h"
#include "data/txn_source.h"

namespace focus::data {

// Build-time knobs for streaming RoaringIndex construction. The spill path
// bounds the build's working set: staged (item, TID) partition runs go to a
// scratch block file during the scan and containers finalize one item-range
// partition at a time, instead of holding every partition's staging and
// every open chunk live at once. The spilled build produces an index that
// is operator==-identical to the direct build (each item's per-chunk low
// sequence is the same either way) — the laws tests pin it.
struct RoaringBuildOptions {
  enum class Spill {
    kNever,   // direct in-memory staging (the default)
    kAuto,    // spill when a block-backed source looks bigger than budget
    kAlways,  // always spill (tests; requires scratch_path)
  };
  Spill spill = Spill::kNever;
  // kAuto threshold: estimated staged-occurrence footprint above which the
  // build spills. Compared against ~2 bytes per occurrence, approximated
  // from the source's on-disk payload size.
  int64_t spill_budget_bytes = int64_t{256} << 20;
  // Scratch block file path for spilled partition runs; created, then
  // deleted when the build finishes. Must be non-empty to spill.
  std::string scratch_path;
  int64_t scratch_block_size = int64_t{1} << 20;
};

// Compressed vertical index: the Roaring-style array/bitmap/run hybrid.
//
// The flat data::VerticalIndex spends ceil(n/64)*8 bytes per item no
// matter how rare the item is — 119 MiB for 1000 items x 1M transactions
// even though most of a retail catalog appears in a few percent of
// baskets. RoaringIndex splits each item's TID set into 65536-TID chunks
// and stores every non-empty chunk in the cheapest of three encodings:
//
//   * array  — sorted uint16 lows; 2 bytes/TID, for <= 4096 TIDs/chunk
//   * bitmap — 1024 uint64 words (8 KiB flat), once a chunk holds > 4096
//   * run    — (start, length-1) pairs, when the TIDs are contiguous
//              stretches (4 bytes/run)
//
// Promotion picks the smallest encoding at build time, so cost scales
// with occurrences, not with |D|: sparse items pay ~2 bytes per
// occurrence and dense items cap at 8 KiB per chunk. Counting stays
// word-parallel where it matters — chunk intersections between bitmap
// containers run through the same data::simd AND+popcount kernels as the
// flat index — and is BIT-IDENTICAL to both the horizontal scan and the
// flat vertical index (integer counts of the same sets), which
// tests/laws/laws_kernel_oracle_test.cc enforces across every kernel,
// dispatch level, and pool size.
//
// Build is a SINGLE pass over the database: occurrences are staged
// through a splitter-tree radix partitioner (data/splitter_tree.h) into
// item-range buckets so container finalization touches one small item
// range at a time, and per-item counts accumulate during that same pass.
class RoaringIndex {
 public:
  static constexpr int kChunkBits = 16;
  static constexpr int64_t kChunkSize = int64_t{1} << kChunkBits;  // 65536
  static constexpr int64_t kBitmapWords = kChunkSize / 64;         // 1024
  // A chunk with more TIDs than this is promoted from array to bitmap
  // (the break-even point: 4096 * 2 bytes == the 8 KiB bitmap).
  static constexpr int32_t kArrayMaxCardinality = 4096;

  RoaringIndex() = default;
  // One scan of either backend (a TransactionDb converts implicitly);
  // block-backed sources stream with read-ahead. With options.spill
  // engaged, staged partition runs go through a scratch block file (see
  // RoaringBuildOptions) — the result is operator==-identical either way.
  explicit RoaringIndex(TxnSourceRef source,
                        const RoaringBuildOptions& options = {});

  int32_t num_items() const { return static_cast<int32_t>(items_.size()); }
  int64_t num_transactions() const { return num_transactions_; }

  // Absolute occurrence count of a single item (accumulated at build).
  int64_t ItemCount(int32_t item) const { return items_[item].count; }

  // Absolute occurrence count of the itemset `items` (ascending distinct
  // ids in [0, num_items)), bit-identical to the horizontal scan and the
  // flat vertical index. The empty itemset holds in every transaction.
  int64_t CountIntersection(std::span<const int32_t> items) const;

  // Two-item intersect count; ORDER-INDEPENDENT by construction (the
  // container-algebra commutativity law in tests/laws/ checks it), and
  // the k == 2 fast path of CountIntersection.
  int64_t CountPairIntersection(int32_t a, int32_t b) const;

  // Transactions containing every item of `items` but NOT `excluded` —
  // the AND-NOT deviation kernel (regions present in one model's support
  // and absent from the other's). Equals
  // CountIntersection(items) - CountIntersection(items + excluded).
  int64_t CountDifference(std::span<const int32_t> items,
                          int32_t excluded) const;

  // The item's TID set, materialized ascending — the reference view the
  // differential fuzzer and the container-algebra laws compare against.
  std::vector<uint32_t> ItemTids(int32_t item) const;

  // Approximate heap footprint (payloads + container/bookkeeping
  // structures), for the capacity planning the flat index's MemoryBytes
  // feeds today.
  int64_t MemoryBytes() const;

  struct ContainerCounts {
    int64_t arrays = 0;
    int64_t bitmaps = 0;
    int64_t runs = 0;
  };
  ContainerCounts CountContainers() const;

  // Snapshot-spool persistence: a little-endian binary image of every
  // container. Save-load-save is a byte-level fixed point (LoadFrom
  // accepts only the canonical form SaveTo emits), which
  // fuzz/fuzz_roaring.cc pins.
  void SaveTo(std::ostream& out) const;
  static std::optional<RoaringIndex> LoadFrom(std::istream& in,
                                              std::string* error);

  bool operator==(const RoaringIndex& other) const = default;

 private:
  enum class ContainerType : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };

  struct Container {
    uint16_t key = 0;  // chunk index: TIDs [key << 16, (key + 1) << 16)
    ContainerType type = ContainerType::kArray;
    int32_t cardinality = 0;
    // array: sorted lows. run: (start, length-1) pairs, ascending with
    // at least one absent TID between runs (canonical form).
    std::vector<uint16_t> values;
    std::vector<uint64_t> words;  // bitmap payload (kBitmapWords words)

    bool operator==(const Container& other) const = default;
  };

  struct Item {
    std::vector<Container> containers;  // ascending by key
    int64_t count = 0;

    bool operator==(const Item& other) const = default;
  };

  // Encodes `lows` (ascending uint16 lows of chunk `key`) as the cheapest
  // container and appends it to `item`.
  static void AppendContainer(Item& item, int32_t key,
                              std::span<const uint16_t> lows);

  // Single-pass splitter-tree build, staging in memory.
  void BuildStreaming(const TxnSourceRef& source);
  // Two-phase build: scan spills delta-encoded partition runs to a
  // scratch block file, then containers finalize partition by partition.
  void BuildSpilled(const TxnSourceRef& source,
                    const RoaringBuildOptions& options);

  // Chunk-level counting over k >= 2 containers of one chunk, plus an
  // optional excluded container (AND-NOT).
  static int64_t ChunkIntersectCount(
      std::span<const Container* const> containers, const Container* excluded);
  static bool ContainerContains(const Container& container, uint16_t low);
  // ContainerContains for an ASCENDING probe sequence: `pos` is a cursor
  // the caller zeroes per chunk; array/run lookups advance it monotonically
  // instead of re-searching, so probing a whole chunk is O(card), not
  // O(card log card).
  static bool ContainsFrom(const Container& container, uint16_t low,
                           size_t& pos);
  static void ExpandToBitmap(const Container& container, uint64_t* words);
  static void ExpandToArray(const Container& container,
                            std::vector<uint16_t>& lows);
  static int64_t PairChunkCount(const Container& a, const Container& b);

  // Walks the items' container lists in key order and calls
  // ChunkIntersectCount on every chunk where all of `items` have one.
  int64_t CountOverCommonChunks(std::span<const int32_t> items,
                                const int32_t* excluded) const;

  int64_t num_transactions_ = 0;
  std::vector<Item> items_;
};

}  // namespace focus::data

#endif  // FOCUS_DATA_ROARING_INDEX_H_
