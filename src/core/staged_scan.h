// Two-pass block scan shared by the projection cascades (DDCpca, DDCres),
// which sum the squared L2 distance or 2<x, q> over growing prefixes of
// the PCA-rotated dims and test a corrector after each stage. Nearly every
// candidate is pruned after the first stage, so pass 1 streams just the
// first stage_dims[0] floats of each candidate (a prefix-only code record,
// or the row itself when gathering by id) through the 4-wide kernel, and
// pass 2 prefetches the rest of each survivor's rotated row and continues
// the cascade from it. Every kernel call covers the same dims in the same
// order however the prefix was read, and 4-wide lanes are bit-identical
// to single-pair calls, so gather, stream and single-candidate evaluation
// give the same decisions, distances and ComputerStats by construction.
#ifndef RESINFER_CORE_STAGED_SCAN_H_
#define RESINFER_CORE_STAGED_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/block_refine.h"
#include "index/distance_computer.h"
#include "linalg/matrix.h"
#include "simd/kernels.h"
#include "util/macros.h"

namespace resinfer::core {

// The summed quantity as a single-pair and a 4-wide call: 2<x, q> when
// kTwiceInnerProduct (DDCres), else the squared L2 distance (DDCpca).
template <bool kTwiceInnerProduct>
float SumOne(const float* x, const float* q, std::size_t n) {
  return kTwiceInnerProduct ? 2.0f * simd::InnerProduct(x, q, n)
                            : simd::L2Sqr(x, q, n);
}
template <bool kTwiceInnerProduct>
void SumFour(const float* q, const float* const* x, std::size_t n, float* v) {
  if (!kTwiceInnerProduct) return simd::L2SqrBatch4(q, x, n, v);
  simd::InnerProductBatch4(q, x, n, v);
  for (int r = 0; r < simd::kBatchWidth; ++r) v[r] *= 2.0f;
}

// Floats in a candidate's prefix: what the first pass reads, and the
// DDCpca / DDCres code record. `stage_dims` ascend, all < full_dim; with
// no stages the prefix is the whole row and every candidate is exact.
inline int64_t PrefixDims(const std::vector<int64_t>& stage_dims,
                          int64_t full_dim) {
  return stage_dims.empty() ? full_dim : stage_dims[0];
}

// Evaluates candidates ids[0, count) against the rotated query `q` and
// writes out[pos] for each. Prefixes are read from `records` (record pos at
// records + pos * stride) for a code-resident scan, or from `rows` (the
// rotated base) by id when records is null; full rows always come from
// `rows`. prunable(pos, stage, sum) is the corrector after
// stage_dims[stage]; distance(pos, sum) is the distance reported for a
// sum, pruned or exact.
template <bool kTwiceInnerProduct, typename PruneFn, typename DistanceFn>
void StagedScan(const float* q, const std::vector<int64_t>& stage_dims,
                const linalg::Matrix& rows, const uint8_t* records,
                int64_t stride, const int64_t* ids, int count,
                PruneFn&& prunable, DistanceFn&& distance,
                index::ComputerStats& stats, index::EstimateResult* out) {
  constexpr int kChunk = 32;  // candidates per pass
  const int64_t full_dim = rows.cols();
  const int64_t d0 = PrefixDims(stage_dims, full_dim);
  const std::size_t n0 = static_cast<std::size_t>(d0);
  const auto row = [&rows, ids](int pos) { return rows.Row(ids[pos]); };
  float sums[kChunk];
  int survivors[kChunk];
  for (int begin = 0; begin < count; begin += kChunk) {
    const int n = std::min(kChunk, count - begin);
    const auto chunk = [&, begin](int i) {
      return records != nullptr ? reinterpret_cast<const float*>(
                                      records + (begin + i) * stride)
                                : row(begin + i);
    };
    index::ScanBatch4(
        chunk,
        [q, n0](const float* const* x, float* v) {
          SumFour<kTwiceInnerProduct>(q, x, n0, v);
        },
        [&sums](int i, float sum) { sums[i] = sum; },
        [&](int i) { sums[i] = SumOne<kTwiceInnerProduct>(chunk(i), q, n0); },
        n);
    stats.candidates += n;
    stats.dims_scanned += static_cast<int64_t>(n) * d0;

    int num_survivors = 0;
    for (int i = 0; i < n; ++i) {
      if (!stage_dims.empty() && prunable(begin + i, 0, sums[i])) {
        ++stats.pruned;
        out[begin + i] = {true, distance(begin + i, sums[i])};
      } else {
        survivors[num_survivors++] = i;
      }
    }
    for (int s = 0; s < num_survivors; ++s) {
      const float* x = row(begin + survivors[s]);
      const auto end = reinterpret_cast<uintptr_t>(x + full_dim);
      for (auto line = reinterpret_cast<uintptr_t>(x + d0) & ~uintptr_t{63};
           line < end; line += 64) {
        RESINFER_PREFETCH(reinterpret_cast<const void*>(line));
      }
    }

    // Survivors: each later stage's dims, then (unless a stage prunes) the
    // rest of the row, which makes the sum exact.
    for (int s = 0; s < num_survivors; ++s) {
      const int pos = begin + survivors[s];
      const float* x = row(pos);
      float sum = sums[survivors[s]];
      bool pruned = false;
      int64_t d = d0;
      for (std::size_t stage = 1; !pruned && d < full_dim; ++stage) {
        const int64_t next =
            stage < stage_dims.size() ? stage_dims[stage] : full_dim;
        sum += SumOne<kTwiceInnerProduct>(x + d, q + d,
                                          static_cast<std::size_t>(next - d));
        stats.dims_scanned += next - d;
        d = next;
        pruned = stage < stage_dims.size() && prunable(pos, stage, sum);
      }
      ++(pruned ? stats.pruned : stats.exact_computations);
      out[pos] = {pruned, distance(pos, sum)};
    }
  }
}

}  // namespace resinfer::core

#endif  // RESINFER_CORE_STAGED_SCAN_H_
