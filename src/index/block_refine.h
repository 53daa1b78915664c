// Shared exact-refinement loop for the block-scan pipeline.
//
// Every batch computer ends the same way: gather the rows of the candidates
// that survived pruning, run them through L2SqrBatch4 four at a time with
// next-group prefetch, and finish the remainder with single-pair calls.
// This helper is that loop; keeping one copy prevents the call sites from
// drifting (prefetch distance, batch width) and keeps each lane
// bit-identical to the sequential exact path. Stats accounting stays with
// the caller.
#ifndef RESINFER_INDEX_BLOCK_REFINE_H_
#define RESINFER_INDEX_BLOCK_REFINE_H_

#include <algorithm>
#include <cstdint>

#include "index/distance_computer.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::index {

// Drives `count` candidates through a 4-wide batch kernel: groups of
// simd::kBatchWidth rows are fetched via `row(position)` (any pointer type —
// float rows gathered by id, or records at position * stride in a
// code-resident stream), the next group's rows are prefetched, `kernel4(
// rows, vals)` fills one value per lane, and `lane(position, value)`
// consumes each result. Remainder positions (< kBatchWidth of them, at the
// end) go to `tail(position)`, which must reproduce the single-candidate
// path. Callers that scan by id adapt with row = [&](int pos) {
// return base.Row(ids[pos]); }.
template <typename RowFn, typename Kernel4, typename LaneFn, typename TailFn>
void ScanBatch4(RowFn&& row, Kernel4&& kernel4, LaneFn&& lane, TailFn&& tail,
                int count) {
  using RowPtr = decltype(row(int{0}));
  RowPtr rows[simd::kBatchWidth];
  float vals[simd::kBatchWidth];
  int i = 0;
  for (; i + simd::kBatchWidth <= count; i += simd::kBatchWidth) {
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      rows[r] = row(i + r);
    }
    if (i + 2 * simd::kBatchWidth <= count) {
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        RESINFER_PREFETCH(row(i + simd::kBatchWidth + r));
      }
    }
    kernel4(static_cast<const RowPtr*>(rows), vals);
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      lane(i + r, vals[r]);
    }
  }
  for (; i < count; ++i) tail(i);
}

// Writes {false, L2Sqr(query, row(ids[p]))} to out[p] for each refined
// position p. `row(id)` returns the candidate's d-float vector. `pick`
// selects which positions of ids/out to refine (the survivor indices of a
// pruning pass); pass nullptr to refine positions [0, count).
template <typename RowFn>
void RefineExactL2(const float* query, std::size_t d, RowFn&& row,
                   const int64_t* ids, const int* pick, int count,
                   EstimateResult* out) {
  const auto pos = [pick](int j) { return pick != nullptr ? pick[j] : j; };
  const float* rows[simd::kBatchWidth];
  float dist[simd::kBatchWidth];
  int s = 0;
  for (; s + simd::kBatchWidth <= count; s += simd::kBatchWidth) {
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      rows[r] = row(ids[pos(s + r)]);
    }
    if (s + 2 * simd::kBatchWidth <= count) {
      for (int r = 0; r < simd::kBatchWidth; ++r) {
        RESINFER_PREFETCH(row(ids[pos(s + simd::kBatchWidth + r)]));
      }
    }
    simd::L2SqrBatch4(query, rows, d, dist);
    for (int r = 0; r < simd::kBatchWidth; ++r) {
      out[pos(s + r)] = {false, dist[r]};
    }
  }
  for (; s < count; ++s) {
    out[pos(s)] = {false, simd::L2Sqr(query, row(ids[pos(s)]), d)};
  }
}

// Candidates per EstimatePruneRefine chunk; the ApproxFn callback never
// sees more than this many ids per call.
inline constexpr int kRefineChunk = 32;

// One chunk's prune + exact refinement: candidate j in [0, n) (id ids[j])
// with approximation approx[j] and trust feature extra[j] is pruned when
// `tau_finite && prunable(approx[j], extra[j])`, else refined exactly via
// RefineExactL2; out[j] receives the result. Advances every stats counter
// but `candidates`, which the caller counts. n <= kRefineChunk.
template <typename RowFn, typename PruneFn>
void PruneRefineChunk(const float* query, std::size_t d, RowFn&& row,
                      PruneFn&& prunable, bool tau_finite, const int64_t* ids,
                      int n, const float* approx, const float* extra,
                      ComputerStats& stats, EstimateResult* out) {
  int survivors[kRefineChunk];
  int num_survivors = 0;
  for (int j = 0; j < n; ++j) {
    if (tau_finite && prunable(approx[j], extra[j])) {
      ++stats.pruned;
      out[j] = {true, approx[j]};
    } else {
      survivors[num_survivors++] = j;
    }
  }
  stats.exact_computations += num_survivors;
  stats.dims_scanned +=
      static_cast<int64_t>(num_survivors) * static_cast<int64_t>(d);
  RefineExactL2(query, d, row, ids, survivors, num_survivors, out);
}

// The chunked estimate/prune/refine loop of the corrector-backed batch
// computer (DdcAny): `approx(ids, start, n, out, extras)` fills a chunk's
// approximate distances and per-point trust features (extras arrive
// zeroed, matching the sequential path's scratch); `start` is the chunk's
// offset from the block head, so code-resident callers can address
// records at start * stride in their stream while id-gather callers
// ignore it. `prunable(approx, extra)` applies the corrector at the
// caller's tau. Stats advance as the equivalent sequential loop would.
template <typename RowFn, typename ApproxFn, typename PruneFn>
void EstimatePruneRefine(const float* query, std::size_t d, RowFn&& row,
                         ApproxFn&& approx, PruneFn&& prunable,
                         bool tau_finite, const int64_t* ids, int count,
                         ComputerStats& stats, EstimateResult* out) {
  float approx_dist[kRefineChunk];
  float extra[kRefineChunk];
  for (int i = 0; i < count; i += kRefineChunk) {
    const int block = std::min(kRefineChunk, count - i);
    stats.candidates += block;
    std::fill_n(extra, block, 0.0f);
    approx(ids + i, i, block, approx_dist, extra);
    PruneRefineChunk(query, d, row, prunable, tau_finite, ids + i, block,
                     approx_dist, extra, stats, out + i);
  }
}

}  // namespace resinfer::index

#endif  // RESINFER_INDEX_BLOCK_REFINE_H_
