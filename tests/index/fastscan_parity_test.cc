// Packed 4-bit fast-scan conformance (ctest label: fastscan-parity).
//
// The packed tier replaces the float-ADC gather path with quantized-LUT
// accumulation (simd::PqAdcFastScan) plus an exact-rescore epilogue. Its
// contracts, asserted here:
//   * layout honesty — code_size() is the true packed byte count, and
//     packed encode/decode round-trips agree with a byte-per-code codebook
//     built from the same centroid tables;
//   * the quantized estimate stays within the documented m * scale / 2
//     bound of the float ADC distance, with tail LUT entries zero-filled
//     even when a small training set clamps ksub below 16;
//   * scalar and AVX2 kernels return identical u16 sums (integer
//     accumulation is exact), for every count/m shape including
//     non-multiple-of-32 tails and odd m;
//   * every estimate path — sequential, batch, code-resident, grouped —
//     is bit-identical to the others at the same SIMD level (the ADC
//     table construction itself is level-dependent float arithmetic, like
//     every other estimator), so IVF searches agree between the gather
//     and code-resident routes, including buckets that are empty.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/ddc_opq.h"
#include "data/ground_truth.h"
#include "data/metrics.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "quant/code_layout.h"
#include "quant/code_store.h"
#include "quant/pq.h"
#include "quant/rq.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "test_util.h"
#include "util/rng.h"

namespace resinfer::index {
namespace {

std::vector<simd::SimdLevel> LevelsToTest() { return simd::SupportedLevels(); }

TEST(FastScanParityTest, PackUnpackRoundTripAndLayoutMath) {
  Rng rng(11);
  for (int m : {1, 2, 3, 4, 7, 8, 15, 32, 33}) {
    const quant::CodeLayout packed = quant::CodeLayout::ForBits(4);
    EXPECT_TRUE(packed.packed());
    EXPECT_EQ(packed.CodeBytes(m), (m + 1) / 2);
    EXPECT_EQ(quant::CodeLayout::ForBits(5).CodeBytes(m), m);

    std::vector<uint8_t> nibbles(m), out(m);
    for (auto& v : nibbles) v = static_cast<uint8_t>(rng.UniformInt(16));
    std::vector<uint8_t> code(static_cast<std::size_t>((m + 1) / 2), 0xff);
    quant::PackCodes4(nibbles.data(), m, code.data());
    quant::UnpackCodes4(code.data(), m, out.data());
    EXPECT_EQ(nibbles, out) << "m=" << m;
    if (m % 2 == 1) {
      EXPECT_EQ(code.back() >> 4, 0) << "pad nibble must be zero, m=" << m;
    }
    for (int s = 0; s < m; ++s) {
      EXPECT_EQ(quant::CodeAt(code.data(), s, packed), nibbles[s]);
    }
    // SetCodeAt preserves the shared byte's other nibble.
    std::vector<uint8_t> rewritten(code);
    for (int s = 0; s < m; ++s) {
      quant::SetCodeAt(rewritten.data(), s, nibbles[s], packed);
    }
    EXPECT_EQ(rewritten, code);
  }
}

TEST(FastScanParityTest, HonestCodeSize) {
  data::Dataset ds = testing::SmallDataset(600, 32, 1.0, 91, 4, 50);
  for (int nbits : {3, 4, 5, 6, 8}) {
    quant::PqOptions options;
    options.num_subspaces = 8;
    options.nbits = nbits;
    quant::PqCodebook pq =
        quant::PqCodebook::Train(ds.base.data(), ds.size(), 32, options);
    const int64_t want = nbits <= 4 ? 4 : 8;
    EXPECT_EQ(pq.code_size(), want) << "nbits=" << nbits;
    EXPECT_EQ(pq.layout().packed(), nbits <= 4);
    std::vector<uint8_t> codes = pq.EncodeBatch(ds.base.data(), 40);
    EXPECT_EQ(static_cast<int64_t>(codes.size()), 40 * pq.code_size());

    quant::RqOptions rq_options;
    rq_options.num_stages = 3;
    rq_options.nbits = nbits;
    quant::RqCodebook rq =
        quant::RqCodebook::Train(ds.base.data(), ds.size(), 32, rq_options);
    EXPECT_EQ(rq.code_size(), nbits <= 4 ? 2 : 3) << "nbits=" << nbits;
  }
}

TEST(FastScanParityTest, PackedEncodeMatchesByteLayoutSemantics) {
  data::Dataset ds = testing::SmallDataset(800, 32, 1.0, 92, 4, 50);
  quant::PqOptions options;
  options.num_subspaces = 8;
  options.nbits = 4;
  quant::PqCodebook packed =
      quant::PqCodebook::Train(ds.base.data(), ds.size(), 32, options);
  ASSERT_TRUE(packed.layout().packed());

  // Byte-per-code codebook over the SAME centroid tables (the legacy
  // layout a pre-fix nbits=4 file would load as).
  std::vector<linalg::Matrix> tables;
  for (int s = 0; s < packed.num_subspaces(); ++s) {
    const linalg::Matrix& src = packed.centroids(s);
    linalg::Matrix copy(src.rows(), src.cols());
    std::copy(src.data(), src.data() + src.size(), copy.data());
    tables.push_back(std::move(copy));
  }
  quant::PqCodebook bytes = quant::PqCodebook::FromCodebooks(
      std::move(tables), quant::CodeLayout{4, quant::CodePacking::kBytePerCode});
  EXPECT_EQ(bytes.code_size(), 8);
  EXPECT_EQ(packed.code_size(), 4);

  std::vector<uint8_t> pcode(packed.code_size());
  std::vector<uint8_t> bcode(bytes.code_size());
  std::vector<float> pdec(32), bdec(32), table(packed.adc_table_size());
  for (int64_t i = 0; i < 50; ++i) {
    packed.Encode(ds.base.Row(i), pcode.data());
    bytes.Encode(ds.base.Row(i), bcode.data());
    for (int s = 0; s < packed.num_subspaces(); ++s) {
      EXPECT_EQ(packed.CodeAt(pcode.data(), s), bcode[s]) << i << "," << s;
    }
    packed.Decode(pcode.data(), pdec.data());
    bytes.Decode(bcode.data(), bdec.data());
    EXPECT_EQ(pdec, bdec);
    // Float ADC over the packed code equals the byte codebook's.
    packed.ComputeAdcTable(ds.queries.Row(0), table.data());
    EXPECT_EQ(packed.AdcDistance(table.data(), pcode.data()),
              bytes.AdcDistance(table.data(), bcode.data()));
  }
}

TEST(FastScanParityTest, QuantizedLutWithinDocumentedBound) {
  data::Dataset ds = testing::SmallDataset(1000, 32, 1.0, 93, 8, 50);
  quant::PqOptions options;
  options.num_subspaces = 8;
  options.nbits = 4;
  quant::PqCodebook pq =
      quant::PqCodebook::Train(ds.base.data(), ds.size(), 32, options);
  std::vector<uint8_t> codes = pq.EncodeBatch(ds.base.data(), ds.size());
  std::vector<float> table(pq.adc_table_size());
  std::vector<uint8_t> lut(pq.fast_scan_lut_bytes());
  float scale = 0.0f, bias = 0.0f;
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    pq.ComputeAdcTable(ds.queries.Row(q), table.data());
    pq.QuantizeAdcTable(table.data(), lut.data(), &scale, &bias);
    const float bound = pq.FastScanErrorBound(scale);
    for (int64_t i = 0; i < ds.size(); i += 13) {
      const uint8_t* code = codes.data() + i * pq.code_size();
      const float exact = pq.AdcDistance(table.data(), code);
      const float quantized = quant::PqCodebook::DequantizeFastScanSum(
          simd::PqAdcFastScanOne(lut.data(), pq.num_subspaces(), code),
          scale, bias);
      // Small slack over the analytic bound for the float rounding of the
      // quantization/dequantization arithmetic itself.
      EXPECT_LE(std::abs(quantized - exact),
                bound + 1e-3f * (1.0f + std::abs(exact)))
          << "q=" << q << " i=" << i;
    }
  }
}

TEST(FastScanParityTest, SmallTrainingSetZeroFillsLutTail) {
  // ksub clamps to train_n = 9 < 16: the LUT's unused entries (and the
  // odd-m pad row) must be zero, not uninitialized memory.
  linalg::Matrix tiny = testing::RandomMatrix(9, 9, 94);
  quant::PqOptions options;
  options.num_subspaces = 3;  // odd m: exercises the pad row too
  options.nbits = 4;
  quant::PqCodebook pq = quant::PqCodebook::Train(tiny.data(), 9, 9, options);
  ASSERT_EQ(pq.num_centroids(), 9);
  ASSERT_TRUE(pq.layout().packed());
  ASSERT_EQ(pq.code_size(), 2);

  std::vector<float> table(pq.adc_table_size());
  std::vector<uint8_t> lut(pq.fast_scan_lut_bytes(), 0xab);
  float scale = 0.0f, bias = 0.0f;
  pq.ComputeAdcTable(tiny.Row(0), table.data());
  pq.QuantizeAdcTable(table.data(), lut.data(), &scale, &bias);
  for (int s = 0; s < pq.num_subspaces(); ++s) {
    for (int c = pq.num_centroids(); c < 16; ++c) {
      EXPECT_EQ(lut[s * 16 + c], 0) << "s=" << s << " c=" << c;
    }
  }
  // Pad row (sub-space m..) of the odd-m LUT.
  for (int64_t b = 3 * 16; b < pq.fast_scan_lut_bytes(); ++b) {
    EXPECT_EQ(lut[b], 0) << "pad byte " << b;
  }
}

TEST(FastScanParityTest, ScalarVsVectorSumsIdentical) {
#if !defined(RESINFER_HAVE_AVX2)
  GTEST_SKIP() << "AVX2 compiled out";
#else
  if (simd::BestSupportedLevel() < simd::SimdLevel::kAvx2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(95);
  for (int m : {1, 2, 3, 5, 8, 16, 31, 32, 33, 64}) {
    const int packed_size = (m + 1) / 2;
    std::vector<uint8_t> lut(static_cast<std::size_t>(packed_size) * 32, 0);
    for (int s = 0; s < m; ++s) {
      for (int c = 0; c < 16; ++c) {
        lut[s * 16 + c] = static_cast<uint8_t>(rng.UniformInt(256));
      }
    }
    for (int count : {1, 5, 8, 17, 31, 32, 33, 100}) {
      std::vector<uint8_t> storage(
          static_cast<std::size_t>(count) * packed_size);
      std::vector<const uint8_t*> codes(count);
      for (int c = 0; c < count; ++c) {
        uint8_t* row = storage.data() + c * packed_size;
        codes[c] = row;
        std::vector<uint8_t> nibbles(m);
        for (auto& v : nibbles) v = static_cast<uint8_t>(rng.UniformInt(16));
        quant::PackCodes4(nibbles.data(), m, row);
      }
      std::vector<uint16_t> scalar(count), avx2(count);
      simd::internal::PqAdcFastScanScalar(lut.data(), m, codes.data(), count,
                                          scalar.data());
      simd::internal::PqAdcFastScanAvx2(lut.data(), m, codes.data(), count,
                                        avx2.data());
      EXPECT_EQ(scalar, avx2) << "m=" << m << " count=" << count;

      // Tile form, several LUTs (reuses the same lut shifted by a constant).
      constexpr int kQueries = 3;
      std::vector<std::vector<uint8_t>> luts(kQueries, lut);
      const uint8_t* lut_ptrs[kQueries];
      for (int g = 0; g < kQueries; ++g) {
        // Vary only the valid rows: the odd-m pad row must stay zero (a
        // kernel precondition QuantizeAdcTable guarantees).
        for (int s = 0; s < m; ++s) {
          for (int c = 0; c < 16; ++c) {
            luts[g][s * 16 + c] =
                static_cast<uint8_t>(luts[g][s * 16 + c] ^ (g * 37));
          }
        }
        lut_ptrs[g] = luts[g].data();
      }
      std::vector<uint16_t> tile_scalar(
          static_cast<std::size_t>(kQueries) * count);
      std::vector<uint16_t> tile_avx2(tile_scalar.size());
      simd::internal::PqAdcFastScanTileScalar(lut_ptrs, kQueries, m,
                                              codes.data(), count,
                                              tile_scalar.data());
      simd::internal::PqAdcFastScanTileAvx2(lut_ptrs, kQueries, m,
                                            codes.data(), count,
                                            tile_avx2.data());
      EXPECT_EQ(tile_scalar, tile_avx2) << "m=" << m << " count=" << count;

#if defined(RESINFER_HAVE_AVX512)
      // Integer sums are exact, so the AVX-512 tier must also match the
      // scalar reference bit-for-bit, not just approximately.
      if (simd::BestSupportedLevel() >= simd::SimdLevel::kAvx512) {
        std::vector<uint16_t> avx512(count);
        simd::internal::PqAdcFastScanAvx512(lut.data(), m, codes.data(),
                                            count, avx512.data());
        EXPECT_EQ(scalar, avx512) << "m=" << m << " count=" << count;
        std::vector<uint16_t> tile_avx512(tile_scalar.size());
        simd::internal::PqAdcFastScanTileAvx512(lut_ptrs, kQueries, m,
                                                codes.data(), count,
                                                tile_avx512.data());
        EXPECT_EQ(tile_scalar, tile_avx512)
            << "m=" << m << " count=" << count;
      }
#endif
    }
  }
#endif
}

// --- Estimator / search conformance ---------------------------------------

struct PackedFixture {
  data::Dataset ds = testing::SmallDataset(1100, 32, 1.0, 96, 6, 160);
  core::PqEstimatorData pq;
  core::RqEstimatorData rq;
  core::LinearCorrector pq_corrector, rq_corrector;

  PackedFixture() {
    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 4;
    pq = core::BuildPqEstimatorData(ds.base, pq_options);
    quant::RqOptions rq_options;
    rq_options.num_stages = 4;
    rq_options.nbits = 4;
    rq = core::BuildRqEstimatorData(ds.base, rq_options);

    core::TrainingDataOptions training;
    training.max_queries = 60;
    {
      core::PqAdcEstimator estimator(&pq);
      pq_corrector =
          core::TrainAnyCorrector(estimator, ds.base, ds.train_queries,
                                  training);
    }
    {
      core::RqAdcEstimator estimator(&rq);
      rq_corrector =
          core::TrainAnyCorrector(estimator, ds.base, ds.train_queries,
                                  training);
    }
  }
};

TEST(FastScanParityTest, PackedEstimatorPathsBitIdentical) {
  PackedFixture f;
  ASSERT_TRUE(f.pq.pq.layout().packed());
  core::PqAdcEstimator estimator(&f.pq);
  const quant::CodeStore store = estimator.MakeCodeStore();
  ASSERT_EQ(store.packing(), quant::CodePacking::kPacked4);

  const int64_t n = f.ds.size();
  std::vector<int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);

  for (simd::SimdLevel level : LevelsToTest()) {
    simd::ScopedSimdLevel guard(level);
    estimator.BeginQuery(f.ds.queries.Row(0));
    // Reference: sequential Estimate at this level (the quantized LUT is
    // built from this level's float ADC table, so parity is per level).
    std::vector<float> want(n), want_extras(n);
    for (int64_t i = 0; i < n; ++i) {
      want[i] = estimator.Estimate(i, &want_extras[i]);
    }
    // Batch (id gather), including a non-multiple-of-32 tail.
    const int count = static_cast<int>(n) - 3;
    std::vector<float> got(count), extras(count);
    estimator.EstimateBatch(ids.data(), count, got.data(), extras.data());
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], want[i]) << "level=" << SimdLevelName(level);
      ASSERT_EQ(extras[i], want_extras[i]);
    }
    // Code-resident over the id-ordered store records.
    estimator.EstimateBatchCodes(store.data(), count, got.data(),
                                 extras.data());
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], want[i]) << "codes level=" << SimdLevelName(level);
      ASSERT_EQ(extras[i], want_extras[i]);
    }
  }
}

TEST(FastScanParityTest, PackedGroupScanMatchesPerMember) {
  PackedFixture f;
  core::PqAdcEstimator estimator(&f.pq);
  const quant::CodeStore store = estimator.MakeCodeStore();
  const int group = static_cast<int>(f.ds.queries.rows());
  const int count = 77;  // non-multiple-of-8 tail inside the tile kernel

  for (simd::SimdLevel level : LevelsToTest()) {
    simd::ScopedSimdLevel guard(level);
    estimator.SetQueryBatch(f.ds.queries.Row(0), group, f.ds.queries.cols());
    int members[index::kMaxQueryGroup];
    for (int g = 0; g < group; ++g) members[g] = g;

    std::vector<float> grouped(static_cast<std::size_t>(group) * count);
    std::vector<float> grouped_extras(grouped.size());
    estimator.EstimateBatchCodesGroup(store.data(), count, members, group,
                                      grouped.data(), grouped_extras.data());

    std::vector<float> single(count), single_extras(count);
    for (int g = 0; g < group; ++g) {
      estimator.SelectQuery(g);
      estimator.EstimateBatchCodes(store.data(), count, single.data(),
                                   single_extras.data());
      for (int i = 0; i < count; ++i) {
        ASSERT_EQ(single[i], grouped[static_cast<std::size_t>(g) * count + i])
            << "g=" << g << " i=" << i << " level=" << SimdLevelName(level);
        ASSERT_EQ(single_extras[i],
                  grouped_extras[static_cast<std::size_t>(g) * count + i]);
      }
    }
  }
}

TEST(FastScanParityTest, PackedRqEstimatorPathsBitIdentical) {
  PackedFixture f;
  ASSERT_TRUE(f.rq.rq.layout().packed());
  ASSERT_EQ(f.rq.rq.code_size(), 2);
  core::RqAdcEstimator estimator(&f.rq);
  const quant::CodeStore store = estimator.MakeCodeStore();
  const int64_t n = f.ds.size();
  std::vector<int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);

  for (simd::SimdLevel level : LevelsToTest()) {
    simd::ScopedSimdLevel guard(level);
    estimator.BeginQuery(f.ds.queries.Row(1));
    const int count = static_cast<int>(n) - 5;
    std::vector<float> batch(count), batch_extras(count);
    std::vector<float> stream(count), stream_extras(count);
    estimator.EstimateBatch(ids.data(), count, batch.data(),
                            batch_extras.data());
    estimator.EstimateBatchCodes(store.data(), count, stream.data(),
                                 stream_extras.data());
    for (int i = 0; i < count; ++i) {
      float extra = 0.0f;
      const float sequential = estimator.Estimate(i, &extra);
      ASSERT_EQ(batch[i], sequential) << i;
      ASSERT_EQ(stream[i], sequential) << i;
      ASSERT_EQ(batch_extras[i], extra);
      ASSERT_EQ(stream_extras[i], extra);
    }
  }
}

TEST(FastScanParityTest, PackedIvfSearchGatherVsCodeResident) {
  PackedFixture f;
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex gather_index = IvfIndex::Build(f.ds.base, options);

  core::DdcAnyComputer with_codes(
      &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
      &f.pq_corrector);
  core::DdcAnyComputer without_codes(
      &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
      &f.pq_corrector);
  ASSERT_TRUE(gather_index.AttachCodesFrom(with_codes));
  ASSERT_EQ(gather_index.codes().packing(), quant::CodePacking::kPacked4);

  for (simd::SimdLevel level : LevelsToTest()) {
    simd::ScopedSimdLevel guard(level);
    for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
      with_codes.stats().Reset();
      without_codes.stats().Reset();
      auto streamed =
          gather_index.Search(with_codes, f.ds.queries.Row(q), 10, 6);
      gather_index.DetachCodes();
      auto gathered =
          gather_index.Search(without_codes, f.ds.queries.Row(q), 10, 6);
      ASSERT_TRUE(gather_index.AttachCodesFrom(with_codes));

      ASSERT_EQ(streamed.size(), gathered.size()) << q;
      for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].id, gathered[i].id) << q;
        EXPECT_EQ(streamed[i].distance, gathered[i].distance) << q;
      }
      EXPECT_EQ(with_codes.stats().candidates,
                without_codes.stats().candidates);
      EXPECT_EQ(with_codes.stats().pruned, without_codes.stats().pruned);
      EXPECT_EQ(with_codes.stats().exact_computations,
                without_codes.stats().exact_computations);
    }
  }
}

TEST(FastScanParityTest, PackedSearchHandlesEmptyBuckets) {
  // Hand-built CSR with empty buckets (first, middle, last) and an attached
  // packed store: scans must skip them cleanly on both routes.
  PackedFixture f;
  const int64_t n = f.ds.size();
  linalg::Matrix centroids = testing::RandomMatrix(6, 32, 97);
  std::vector<int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  const std::vector<int64_t> offsets = {0, 0, n / 3, n / 3, 2 * n / 3, n, n};
  IvfIndex index = IvfIndex::FromCsr(n, std::move(centroids), offsets, ids);

  core::DdcAnyComputer computer(
      &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
      &f.pq_corrector);
  ASSERT_TRUE(index.AttachCodesFrom(computer));

  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    auto streamed =
        index.Search(computer, f.ds.queries.Row(q), 10, index.num_clusters());
    index.DetachCodes();
    auto gathered =
        index.Search(computer, f.ds.queries.Row(q), 10, index.num_clusters());
    ASSERT_TRUE(index.AttachCodesFrom(computer));
    ASSERT_EQ(streamed.size(), gathered.size());
    ASSERT_EQ(streamed.size(), 10u);
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].id, gathered[i].id);
      EXPECT_EQ(streamed[i].distance, gathered[i].distance);
    }
  }
}

TEST(FastScanParityTest, PackedDdcOpqComputerPathsAgree) {
  data::Dataset ds = testing::SmallDataset(900, 32, 1.0, 98, 5, 120);
  core::DdcOpqOptions options;
  options.opq.pq.num_subspaces = 8;
  options.opq.pq.nbits = 4;
  options.opq.num_iterations = 2;
  options.training.max_queries = 60;
  core::DdcOpqArtifacts artifacts =
      core::TrainDdcOpq(ds.base, ds.train_queries, options);
  ASSERT_TRUE(artifacts.opq.codebook().layout().packed());
  ASSERT_EQ(static_cast<int64_t>(artifacts.codes.size()),
            ds.size() * artifacts.opq.codebook().code_size());

  const auto owned = core::MakeDdcOpqComputer(&ds.base, &artifacts);
  DistanceComputer& computer = *owned;
  const quant::CodeStore store = computer.MakeCodeStore();
  ASSERT_EQ(store.packing(), quant::CodePacking::kPacked4);
  std::vector<int64_t> ids(ds.size());
  std::iota(ids.begin(), ids.end(), 0);
  const int count = 101;

  for (simd::SimdLevel level : LevelsToTest()) {
    simd::ScopedSimdLevel guard(level);
    computer.BeginQuery(ds.queries.Row(0));
    const float tau = computer.ExactDistance(17);
    std::vector<EstimateResult> batch(count), stream(count);
    computer.EstimateBatch(ids.data(), count, tau, batch.data());
    computer.EstimateBatchCodes(store.data(), ids.data(), count, tau,
                                stream.data());
    for (int i = 0; i < count; ++i) {
      auto sequential = computer.EstimateWithThreshold(i, tau);
      EXPECT_EQ(batch[i].pruned, sequential.pruned) << i;
      EXPECT_EQ(batch[i].distance, sequential.distance) << i;
      EXPECT_EQ(stream[i].pruned, sequential.pruned) << i;
      EXPECT_EQ(stream[i].distance, sequential.distance) << i;
    }
  }
}

TEST(FastScanParityTest, PackedRecallMatchesByteLayoutAfterRescore) {
  // End-to-end sanity on the rescore epilogue: packed-quantized pruning
  // with exact rescore must land at the same recall@10 as the float-ADC
  // byte layout on the same trained centroids (both prune with a learned
  // corrector, both rescore survivors exactly).
  PackedFixture f;
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex index = IvfIndex::Build(f.ds.base, options);
  auto truth = data::BruteForceKnn(f.ds.base, f.ds.queries, 10);

  core::DdcAnyComputer packed(
      &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
      &f.pq_corrector);
  std::vector<std::vector<int64_t>> results;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    auto found = index.Search(packed, f.ds.queries.Row(q), 10, 8);
    std::vector<int64_t> row;
    for (const auto& nb : found) row.push_back(nb.id);
    results.push_back(std::move(row));
  }
  const double recall = data::MeanRecallAtK(results, truth, 10);
  // The corrector targets high recall; quantization error is inside the
  // learned margin, so the packed tier must not collapse recall.
  EXPECT_GT(recall, 0.9);
}

}  // namespace
}  // namespace resinfer::index
