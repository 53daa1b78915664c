// Inverted-file index (IVF, §II-A).
//
// Build: k-means over the base vectors; each cluster owns a bucket of point
// ids. Search: rank centroids by exact distance to the query, scan the
// `nprobe` nearest buckets, and evaluate every member through the plugged
// DistanceComputer with the running top-k threshold — the candidate
// generation / refinement split the paper builds on.
//
// Bucket storage is a CSR-style flat layout: one contiguous id array plus
// per-bucket offsets. Probed buckets are therefore scanned in cache-resident
// blocks through DistanceComputer::EstimateBatch (with next-block prefetch)
// instead of pointer-chasing nested vectors. One scan loop serves every
// route: a single query (Search) is a group of one, scanned by the same
// co-probe loop that serves query groups (SearchBatchRange).
//
// Code-resident mode: the index can additionally own a bucket-contiguous
// copy of a computer's quantized codes + sidecar features (quant::CodeStore
// records permuted into id order of the CSR array). When the attached
// store's tag matches the probing computer's code_tag(), Search streams
// records sequentially through EstimateBatchCodes instead of gathering
// codes by id — results are bit-identical to the gather path (the
// EstimateBatchCodes contract), only the memory access pattern changes.
#ifndef RESINFER_INDEX_IVF_INDEX_H_
#define RESINFER_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/ground_truth.h"
#include "index/distance_computer.h"
#include "linalg/matrix.h"
#include "quant/code_store.h"
#include "quant/kmeans.h"

namespace resinfer::index {

using data::Neighbor;

struct IvfOptions {
  // Paper default is 4096 clusters (§VII-A); Build caps this at
  // max(1, n / min_points_per_cluster) so small benches stay sensible.
  int num_clusters = 4096;
  int min_points_per_cluster = 8;
  quant::KMeansOptions kmeans;
};

class IvfIndex {
 public:
  IvfIndex() = default;

  // `base` must outlive the index (buckets store row ids, not copies).
  // When `codes` is given (id-indexed, one record per base row) it is
  // permuted into bucket order and owned by the index — the code-resident
  // mode above.
  static IvfIndex Build(const linalg::Matrix& base,
                        const IvfOptions& options = IvfOptions(),
                        const quant::CodeStore* codes = nullptr);

  // Rebuilds an index from persisted parts (persist/persist.h). `size` is
  // the number of indexed points; bucket ids must lie in [0, size). CSR
  // parts: `bucket_offsets` has num_clusters + 1 entries with
  // bucket_offsets[0] == 0, non-decreasing, and
  // bucket_offsets.back() == ids.size(). FromCsr CHECK-aborts on invalid
  // parts (programmer error); callers handling untrusted input (persist)
  // pre-validate with ValidateCsr to fail recoverably. `codes`, when
  // given, is id-indexed and gets permuted into bucket order.
  static IvfIndex FromCsr(int64_t size, linalg::Matrix centroids,
                          std::vector<int64_t> bucket_offsets,
                          std::vector<int64_t> ids,
                          const quant::CodeStore* codes = nullptr);

  // The single source of truth for the CSR invariants FromCsr enforces
  // (offset shape/monotonicity, id range — NOT the on-disk partition
  // requirement, which is persist's); returns a non-OK Status naming the
  // first violation.
  static util::Status ValidateCsr(int64_t size, int64_t num_clusters,
                                  const std::vector<int64_t>& bucket_offsets,
                                  const std::vector<int64_t>& ids);

  int num_clusters() const { return static_cast<int>(centroids_.rows()); }
  int64_t size() const { return size_; }
  const linalg::Matrix& centroids() const { return centroids_; }

  // CSR accessors: ids of bucket b are ids()[bucket_offsets()[b] ..
  // bucket_offsets()[b + 1]).
  const std::vector<int64_t>& bucket_offsets() const {
    return bucket_offsets_;
  }
  const std::vector<int64_t>& ids() const { return ids_; }
  int64_t BucketSize(int bucket) const {
    return bucket_offsets_[bucket + 1] - bucket_offsets_[bucket];
  }
  const int64_t* BucketIds(int bucket) const {
    return ids_.data() + bucket_offsets_[bucket];
  }

  // --- Code-resident mode --------------------------------------------------

  bool has_codes() const { return !codes_.empty(); }
  const quant::CodeStore& codes() const { return codes_; }
  // First record of bucket b; records mirror BucketIds(b) order. Requires
  // has_codes().
  const uint8_t* BucketCodes(int bucket) const {
    return codes_.record(bucket_offsets_[bucket]);
  }

  // Permutes an id-indexed store (record i describes point i; typically
  // computer.MakeCodeStore()) into bucket-contiguous order and owns the
  // copy. The permutation is an inherent copy (records move between
  // positions); for records already in bucket order use AttachSharedCodes
  // (zero-copy view) instead of paying 2x the section's footprint.
  // CHECK-aborts unless source.size() == size().
  void AttachCodes(const quant::CodeStore& source);
  // Zero-copy attach of bucket-ordered records: shares `source`'s storage
  // handle instead of copying bytes, so attaching an already-permuted
  // store (a persisted section, another index's attached store, an mmap
  // slice) adds no peak RSS. Caller contract: record j describes the point
  // ids()[j] (one record per CSR entry).
  void AttachSharedCodes(const quant::CodeStore& source);
  // Convenience: builds the computer's store and attaches it; returns
  // false (attaching nothing) for computers without code-resident support.
  bool AttachCodesFrom(const DistanceComputer& computer);
  void DetachCodes() { codes_ = quant::CodeStore(); }

  // Results ascend by exact distance. Arguments are clamped instead of
  // surprising the caller: nprobe to [1, num_clusters()], and k <= 0
  // returns an empty result (k > size() simply yields fewer neighbors).
  // Scans stream through EstimateBatchCodes when the attached store
  // matches `computer` (see the header comment), else gather by id. The
  // computer's query state is set by BeginQuery, and the scan is the
  // grouped loop over a group of one.
  std::vector<Neighbor> Search(DistanceComputer& computer, const float* query,
                               int k, int nprobe) const;

  // --- Multi-query serving -------------------------------------------------
  //
  // Query-major search over a batch: queries are chunked into groups of at
  // most kMaxQueryGroup, the computer prepares each group once
  // (SetQueryBatch), and buckets co-probed by several group members are
  // streamed once while every member scores them (EstimateBatch*Group).
  // Each member still visits its own probe list in rank order with its own
  // running threshold, so results[i] is bit-identical to
  // Search(computer, queries.Row(i), k, nprobe) — grouping changes memory
  // traffic, never answers. Argument clamping matches Search.
  std::vector<std::vector<Neighbor>> SearchBatch(DistanceComputer& computer,
                                                 const linalg::Matrix& queries,
                                                 int k, int nprobe) const;

  // Searches query rows [begin, begin + count) and writes results[i] for
  // row begin + i, chunking internally into groups of kMaxQueryGroup.
  // Callers wanting co-probe locality should order adjacent rows by probe
  // similarity (BatchSearchIvf sorts lexicographically by probe list).
  // `probe_lists`, when given, holds count rows of
  // min(max(nprobe, 1), num_clusters()) precomputed centroid ids each —
  // row i for query row begin + i, as NearestCentroids returns them — so
  // a caller that already ranked centroids (to sort queries) doesn't pay
  // for the ranking twice.
  void SearchBatchRange(DistanceComputer& computer,
                        const linalg::Matrix& queries, int64_t begin,
                        int64_t count, int k, int nprobe,
                        std::vector<Neighbor>* results,
                        const int32_t* probe_lists = nullptr) const;

 private:
  // The one scan loop behind Search and SearchBatchRange. Member g of the
  // computer's current group (g < group <= kCapacity) visits the nprobe
  // buckets probes[g] lists, in rank order, with its own running top-k;
  // results[g] receives its neighbors. `begun` says the group is a single
  // query set by BeginQuery, which the loop then never re-selects.
  // kCapacity sizes the per-member scratch, so a single query pays for
  // one member.
  template <int kCapacity>
  void ScanGroup(DistanceComputer& computer, int group,
                 const int32_t* const* probes, int k, int nprobe, bool begun,
                 std::vector<Neighbor>* results) const;

  int64_t size_ = 0;
  linalg::Matrix centroids_;
  std::vector<int64_t> bucket_offsets_;  // num_clusters + 1
  std::vector<int64_t> ids_;             // size_ entries, bucket-contiguous
  quant::CodeStore codes_;  // empty, or one record per ids_ entry (same order)
};

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_IVF_INDEX_H_
