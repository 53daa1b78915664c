// Code-resident scan conformance: for every computer with a code-resident
// form, EstimateBatchCodes over a bucket-contiguous record stream must be
// BIT-IDENTICAL to the id-gather path — same prune decisions, same
// distances, same ComputerStats — on randomized buckets (duplicates,
// out-of-order ids) including non-multiple-of-4 tails, across SIMD levels.
// Also covers the IvfIndex plumbing: a search through an attached CodeStore
// returns exactly the gather search's results, and mismatched tags fall
// back to the gather path instead of misreading records.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/ddc_opq.h"
#include "core/ddc_pca.h"
#include "core/ddc_res.h"
#include "core/error_model.h"
#include "core/ddc_rq_cascade.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "quant/code_store.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "test_util.h"

namespace resinfer::index {
namespace {

struct CodeScanFixture {
  data::Dataset ds = testing::SmallDataset(1100, 32, 1.0, 57, 6, 160);

  core::PqEstimatorData pq;
  core::RqEstimatorData rq;
  core::SqEstimatorData sq;
  core::LinearCorrector pq_corrector, rq_corrector, sq_corrector;

  linalg::PcaModel pca;
  linalg::Matrix rotated;
  core::DdcPcaArtifacts pca_artifacts;
  core::DdcOpqArtifacts opq_artifacts;
  core::DdcRqCascadeArtifacts cascade_artifacts;

  CodeScanFixture() {
    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 6;
    pq = core::BuildPqEstimatorData(ds.base, pq_options);
    quant::RqOptions rq_options;
    rq_options.num_stages = 4;
    rq_options.nbits = 6;
    rq = core::BuildRqEstimatorData(ds.base, rq_options);
    sq = core::BuildSqEstimatorData(ds.base);

    core::TrainingDataOptions training;
    training.max_queries = 60;
    {
      core::PqAdcEstimator estimator(&pq);
      pq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }
    {
      core::RqAdcEstimator estimator(&rq);
      rq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }
    {
      core::SqAdcEstimator estimator(&sq);
      sq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }

    pca = linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
    rotated = pca.TransformBatch(ds.base.data(), ds.size());
    core::DdcPcaOptions pca_options;
    pca_options.init_dim = 8;
    pca_options.delta_dim = 16;
    pca_options.training.max_queries = 60;
    pca_artifacts = core::TrainDdcPca(pca, rotated, ds.base,
                                      ds.train_queries, pca_options);

    core::DdcOpqOptions opq_options;
    opq_options.training.max_queries = 60;
    opq_artifacts = core::TrainDdcOpq(ds.base, ds.train_queries, opq_options);

    core::DdcRqCascadeOptions cascade_options;
    cascade_options.levels = {1, 3};
    cascade_options.rq.num_stages = 3;
    cascade_options.rq.nbits = 6;
    cascade_options.training.max_queries = 60;
    cascade_artifacts =
        core::TrainDdcRqCascade(ds.base, ds.train_queries, cascade_options);
  }

  using ComputerFactory = std::function<std::unique_ptr<DistanceComputer>()>;

  // Every computer with a code-resident form, plus a factory so the
  // sequential reference and the code-scan run use independent instances.
  std::vector<std::pair<std::string, ComputerFactory>> Factories() {
    std::vector<std::pair<std::string, ComputerFactory>> factories;
    factories.emplace_back("ddc-pq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq),
          &pq_corrector);
    });
    factories.emplace_back("ddc-rq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::RqAdcEstimator>(&rq),
          &rq_corrector);
    });
    factories.emplace_back("ddc-sq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::SqAdcEstimator>(&sq),
          &sq_corrector);
    });
    factories.emplace_back("ddc-opq", [this] {
      return core::MakeDdcOpqComputer(&ds.base, &opq_artifacts);
    });
    factories.emplace_back("ddc-pca", [this] {
      return std::make_unique<core::DdcPcaComputer>(&pca, &rotated,
                                                    &pca_artifacts);
    });
    factories.emplace_back("ddc-res", [this] {
      core::DdcResOptions options;
      options.init_dim = 8;
      options.delta_dim = 8;
      return std::make_unique<core::DdcResComputer>(&pca, &rotated, options);
    });
    factories.emplace_back("ddc-rq-cascade", [this] {
      return std::make_unique<core::DdcRqCascadeComputer>(
          &ds.base, &cascade_artifacts);
    });
    return factories;
  }
};

CodeScanFixture& Fixture() {
  static CodeScanFixture* fixture = new CodeScanFixture();
  return *fixture;
}

// A randomized "bucket": out-of-order, with duplicates.
std::vector<int64_t> RandomBucket(int count, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<std::size_t>(count));
  for (auto& id : ids) {
    id = static_cast<int64_t>(rng.Uniform() * static_cast<double>(n - 1));
  }
  return ids;
}

void ExpectCodeScanMatchesGather(DistanceComputer& gather,
                                 DistanceComputer& streamed,
                                 const quant::CodeStore& store,
                                 const float* query,
                                 const std::vector<int64_t>& ids, float tau,
                                 const std::string& label) {
  // Bucket-contiguous records for exactly these candidates, in order.
  quant::CodeStore bucket = store.PermutedBy(ids);

  gather.BeginQuery(query);
  streamed.BeginQuery(query);
  gather.stats().Reset();
  streamed.stats().Reset();

  std::vector<EstimateResult> want(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    want[i] = gather.EstimateWithThreshold(ids[i], tau);
  }
  std::vector<EstimateResult> got(ids.size());
  streamed.EstimateBatchCodes(bucket.data(), ids.data(),
                              static_cast<int>(ids.size()), tau, got.data());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(want[i].pruned, got[i].pruned)
        << label << " count=" << ids.size() << " tau=" << tau << " i=" << i;
    // Bit-identical, not just close.
    ASSERT_EQ(want[i].distance, got[i].distance)
        << label << " count=" << ids.size() << " tau=" << tau << " i=" << i;
  }
  const ComputerStats& a = gather.stats();
  const ComputerStats& b = streamed.stats();
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.pruned, b.pruned) << label;
  EXPECT_EQ(a.dims_scanned, b.dims_scanned) << label;
  EXPECT_EQ(a.exact_computations, b.exact_computations) << label;
}

TEST(CodeScanTest, StoreLayoutMatchesComputerContract) {
  CodeScanFixture& f = Fixture();
  for (auto& [name, factory] : f.Factories()) {
    auto computer = factory();
    ASSERT_FALSE(computer->code_tag().empty()) << name;
    quant::CodeStore store = computer->MakeCodeStore();
    ASSERT_FALSE(store.empty()) << name;
    EXPECT_EQ(store.tag(), computer->code_tag()) << name;
    EXPECT_EQ(store.size(), computer->size()) << name;
  }
}

// The projection cascades by their definition (§IV Algorithm 2 for
// DDCres, §V-B incremental correction for DDCpca), one candidate at a time
// with single-pair kernels. Every DDCpca/DDCres entry point runs through
// one shared loop (core/staged_scan.h), so gather-vs-stream parity alone
// cannot catch a fault in that loop; this reference can.
EstimateResult ReferenceCascade(
    const float* x, const float* q, int64_t dim,
    const std::vector<int64_t>& stage_dims, bool twice_inner_product,
    const std::function<bool(std::size_t, float)>& prunable,
    const std::function<float(float)>& distance, ComputerStats* stats) {
  const auto sum = [&](int64_t from, int64_t to) {
    const std::size_t n = static_cast<std::size_t>(to - from);
    stats->dims_scanned += to - from;
    return twice_inner_product
               ? 2.0f * simd::InnerProduct(x + from, q + from, n)
               : simd::L2Sqr(x + from, q + from, n);
  };
  ++stats->candidates;
  int64_t d = stage_dims.empty() ? dim : stage_dims[0];
  float acc = sum(0, d);
  for (std::size_t s = 0; s < stage_dims.size(); ++s) {
    if (prunable(s, acc)) {
      ++stats->pruned;
      return {true, distance(acc)};
    }
    const int64_t next = s + 1 < stage_dims.size() ? stage_dims[s + 1] : dim;
    acc += sum(d, next);
    d = next;
  }
  ++stats->exact_computations;
  return {false, distance(acc)};
}

TEST(CodeScanTest, ProjectionCascadesMatchTheirStageByStageDefinition) {
  CodeScanFixture& f = Fixture();
  const int64_t dim = f.rotated.cols();
  struct Variant {
    std::string name;
    core::DdcResOptions res;  // unused for ddc-pca
  };
  std::vector<Variant> variants = {{"ddc-pca", {}}};
  for (int64_t init : {int64_t{8}, dim}) {  // dim: no test stage at all
    for (bool incremental : {true, false}) {
      core::DdcResOptions options;
      options.init_dim = init;
      options.delta_dim = 8;
      options.incremental = incremental;
      variants.push_back({"ddc-res/init=" + std::to_string(init) +
                              (incremental ? "/incremental" : "/basic"),
                          options});
    }
  }
  const std::vector<int64_t> ids = RandomBucket(203, f.ds.size(), 4242);
  // ||x||^2 as DdcResComputer precomputes it: once, at the default level.
  std::vector<float> x_norms;
  for (int64_t id : ids) {
    x_norms.push_back(
        simd::Norm2Sqr(f.rotated.Row(id), static_cast<std::size_t>(dim)));
  }

  for (const Variant& v : variants) {
    const bool is_pca = v.name == "ddc-pca";
    std::unique_ptr<DistanceComputer> computer;
    std::vector<int64_t> stage_dims;
    float multiplier = 0.0f;
    if (is_pca) {
      computer = std::make_unique<core::DdcPcaComputer>(&f.pca, &f.rotated,
                                                        &f.pca_artifacts);
      stage_dims = f.pca_artifacts.stage_dims;
    } else {
      auto res =
          std::make_unique<core::DdcResComputer>(&f.pca, &f.rotated, v.res);
      multiplier = res->multiplier();
      for (int64_t d = v.res.init_dim; d < dim; d += v.res.delta_dim) {
        stage_dims.push_back(d);
        if (!v.res.incremental) break;
      }
      computer = std::move(res);
    }
    for (simd::SimdLevel level : simd::SupportedLevels()) {
      simd::ScopedSimdLevel guard(level);
      for (int64_t qi = 0; qi < 4; ++qi) {
        const float* query = f.ds.queries.Row(qi);
        std::vector<float> q(static_cast<std::size_t>(dim));
        f.pca.Transform(query, q.data());
        const float q_norm =
            simd::Norm2Sqr(q.data(), static_cast<std::size_t>(dim));
        core::ResidualErrorModel error_model(f.pca.variances());
        error_model.BeginQuery(q.data());
        FlatDistanceComputer exact(f.ds.base.data(), f.ds.size(), dim);
        exact.BeginQuery(query);
        for (float tau : {kInfDistance, 0.0f, exact.ExactDistance(qi + 11)}) {
          const std::string label = v.name + "/" +
                                    simd::SimdLevelName(level) +
                                    " q=" + std::to_string(qi) +
                                    " tau=" + std::to_string(tau);
          ComputerStats want_stats;
          std::vector<EstimateResult> want;
          for (std::size_t i = 0; i < ids.size(); ++i) {
            const float* x = f.rotated.Row(ids[i]);
            const float c1 = x_norms[i] + q_norm;
            const auto prunable = [&](std::size_t s, float acc) {
              if (is_pca) {
                return std::isfinite(tau) &&
                       f.pca_artifacts.correctors[s].PredictPrunable(acc,
                                                                     tau);
              }
              const float bound = multiplier * error_model.Sigma(stage_dims[s]);
              return c1 - acc - bound > tau;
            };
            const auto distance = [&](float acc) {
              return is_pca ? acc : std::max(0.0f, c1 - acc);
            };
            want.push_back(ReferenceCascade(x, q.data(), dim, stage_dims,
                                            !is_pca, prunable, distance,
                                            &want_stats));
          }
          // Both the one-candidate and the block entry points.
          computer->BeginQuery(query);
          computer->stats().Reset();
          for (std::size_t i = 0; i < ids.size(); ++i) {
            const EstimateResult got =
                computer->EstimateWithThreshold(ids[i], tau);
            ASSERT_EQ(want[i].pruned, got.pruned) << label << " i=" << i;
            ASSERT_EQ(want[i].distance, got.distance) << label << " i=" << i;
          }
          std::vector<EstimateResult> block(ids.size());
          computer->EstimateBatch(ids.data(), static_cast<int>(ids.size()),
                                  tau, block.data());
          for (std::size_t i = 0; i < ids.size(); ++i) {
            ASSERT_EQ(want[i].pruned, block[i].pruned) << label << " i=" << i;
            ASSERT_EQ(want[i].distance, block[i].distance)
                << label << " i=" << i;
          }
          want_stats += want_stats;  // two passes over the same candidates
          const ComputerStats& got_stats = computer->stats();
          EXPECT_EQ(want_stats.candidates, got_stats.candidates) << label;
          EXPECT_EQ(want_stats.pruned, got_stats.pruned) << label;
          EXPECT_EQ(want_stats.dims_scanned, got_stats.dims_scanned) << label;
          EXPECT_EQ(want_stats.exact_computations,
                    got_stats.exact_computations)
              << label;
        }
      }
    }
  }
}

TEST(CodeScanTest, ProjectionRecordsHoldOnlyTheFirstStagePrefix) {
  // DDCpca and DDCres stream only what their first stage reads: the first
  // stage_dims[0] rotated floats (+ the ||x||^2 sidecar for DDCres), an
  // exact copy of the row's leading bytes.
  CodeScanFixture& f = Fixture();
  const int64_t prefix_bytes =
      f.pca_artifacts.stage_dims[0] * static_cast<int64_t>(sizeof(float));
  core::DdcPcaComputer pca(&f.pca, &f.rotated, &f.pca_artifacts);
  core::DdcResOptions res_options;
  res_options.init_dim = f.pca_artifacts.stage_dims[0];
  core::DdcResComputer res(&f.pca, &f.rotated, res_options);

  quant::CodeStore pca_store = pca.MakeCodeStore();
  EXPECT_EQ(pca_store.code_size(), prefix_bytes);
  EXPECT_EQ(pca_store.num_sidecars(), 0);
  EXPECT_EQ(pca_store.stride(), prefix_bytes);
  quant::CodeStore res_store = res.MakeCodeStore();
  EXPECT_EQ(res_store.code_size(), prefix_bytes);
  EXPECT_EQ(res_store.num_sidecars(), 1);
  EXPECT_EQ(res_store.stride(), prefix_bytes + 4);

  for (int64_t i : {int64_t{0}, int64_t{517}, f.ds.size() - 1}) {
    const uint8_t* row = reinterpret_cast<const uint8_t*>(f.rotated.Row(i));
    EXPECT_EQ(std::memcmp(pca_store.record(i), row,
                          static_cast<std::size_t>(prefix_bytes)),
              0)
        << i;
    EXPECT_EQ(std::memcmp(res_store.record(i), row,
                          static_cast<std::size_t>(prefix_bytes)),
              0)
        << i;
    EXPECT_EQ(res_store.Sidecar(i, 0),
              simd::Norm2Sqr(f.rotated.Row(i),
                             static_cast<std::size_t>(f.rotated.cols())))
        << i;
  }
}

TEST(CodeScanTest, FullRowProjectionStoreFallsBackToGather) {
  // A store laid out the way DDCpca/DDCres records used to be — the whole
  // rotated row per record, as in indexes saved before the prefix layout —
  // must not tag-match the current computers, so an index carrying one
  // searches bit-identically through the gather path.
  CodeScanFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex plain = IvfIndex::Build(f.ds.base, options);
  const int64_t n = f.ds.size();
  const int64_t row_bytes =
      f.rotated.cols() * static_cast<int64_t>(sizeof(float));
  const uint64_t rows_fingerprint = quant::FingerprintArray(
      f.rotated.data(),
      static_cast<std::size_t>(f.rotated.size()) * sizeof(float));

  for (const bool res : {false, true}) {
    const std::string name = res ? "ddc-res" : "ddc-pca";
    const auto make = [&f, res]() -> std::unique_ptr<DistanceComputer> {
      if (!res) {
        return std::make_unique<core::DdcPcaComputer>(&f.pca, &f.rotated,
                                                      &f.pca_artifacts);
      }
      core::DdcResOptions res_options;
      res_options.init_dim = 8;
      res_options.delta_dim = 8;
      return std::make_unique<core::DdcResComputer>(&f.pca, &f.rotated,
                                                    res_options);
    };
    std::vector<float> norms(static_cast<std::size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      norms[static_cast<std::size_t>(i)] = simd::Norm2Sqr(
          f.rotated.Row(i), static_cast<std::size_t>(f.rotated.cols()));
    }
    const uint64_t fingerprint =
        res ? quant::FingerprintArray(norms.data(),
                                      norms.size() * sizeof(float),
                                      rows_fingerprint)
            : rows_fingerprint;
    const int sidecars = res ? 1 : 0;
    quant::CodeStore full_rows(
        n, row_bytes, sidecars,
        quant::MakeCodeTag(name, row_bytes, sidecars, n, fingerprint));
    for (int64_t i = 0; i < n; ++i) {
      full_rows.SetCode(i,
                        reinterpret_cast<const uint8_t*>(f.rotated.Row(i)));
      if (res) full_rows.SetSidecar(i, 0, norms[static_cast<std::size_t>(i)]);
    }

    auto gather_computer = make();
    auto legacy_computer = make();
    IvfIndex legacy = IvfIndex::Build(f.ds.base, options);
    legacy.AttachCodes(full_rows);
    ASSERT_NE(legacy.codes().tag(), legacy_computer->code_tag()) << name;
    for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
      auto want = plain.Search(*gather_computer, f.ds.queries.Row(q),
                               /*k=*/10, /*nprobe=*/6);
      auto got = legacy.Search(*legacy_computer, f.ds.queries.Row(q),
                               /*k=*/10, /*nprobe=*/6);
      ASSERT_EQ(want.size(), got.size()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << name << " q=" << q;
        EXPECT_EQ(want[i].distance, got[i].distance) << name << " q=" << q;
      }
    }
    const ComputerStats& a = gather_computer->stats();
    const ComputerStats& b = legacy_computer->stats();
    EXPECT_EQ(a.candidates, b.candidates) << name;
    EXPECT_EQ(a.pruned, b.pruned) << name;
    EXPECT_EQ(a.dims_scanned, b.dims_scanned) << name;
    EXPECT_EQ(a.exact_computations, b.exact_computations) << name;
  }
}

TEST(CodeScanTest, BitIdenticalToGatherAcrossComputersAndLevels) {
  CodeScanFixture& f = Fixture();

  const std::vector<simd::SimdLevel> levels = simd::SupportedLevels();

  for (auto& [name, factory] : f.Factories()) {
    auto gather = factory();
    auto streamed = factory();
    quant::CodeStore store = streamed->MakeCodeStore();
    for (simd::SimdLevel level : levels) {
      simd::ScopedSimdLevel guard(level);
      for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
        const float* query = f.ds.queries.Row(q);
        FlatDistanceComputer exact(f.ds.base.data(), f.ds.size(),
                                   f.ds.dim());
        exact.BeginQuery(query);
        const float mid_tau = exact.ExactDistance(q * 7 + 3);
        for (float tau : {kInfDistance, 0.0f, mid_tau}) {
          // Bucket sizes straddling the 4-wide kernel groups and the
          // 16/32-candidate chunks, most with a non-multiple-of-4 tail.
          for (int count : {1, 2, 3, 4, 5, 7, 15, 31, 33, 64, 129}) {
            ExpectCodeScanMatchesGather(
                *gather, *streamed, store, query,
                RandomBucket(count, f.ds.size(),
                             static_cast<uint64_t>(q * 1000 + count)),
                tau, name + "/" + simd::SimdLevelName(level));
          }
        }
      }
    }
  }
}

TEST(CodeScanTest, IvfSearchWithAttachedCodesMatchesGatherSearch) {
  CodeScanFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex plain = IvfIndex::Build(f.ds.base, options);

  for (auto& [name, factory] : f.Factories()) {
    auto gather_computer = factory();
    auto code_computer = factory();

    IvfIndex coded = IvfIndex::Build(f.ds.base, options);
    ASSERT_TRUE(coded.AttachCodesFrom(*code_computer)) << name;
    ASSERT_TRUE(coded.has_codes());
    EXPECT_EQ(coded.codes().size(), coded.size());
    EXPECT_EQ(coded.codes().tag(), code_computer->code_tag());

    for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
      auto want = plain.Search(*gather_computer, f.ds.queries.Row(q),
                               /*k=*/10, /*nprobe=*/6);
      auto got = coded.Search(*code_computer, f.ds.queries.Row(q),
                              /*k=*/10, /*nprobe=*/6);
      ASSERT_EQ(want.size(), got.size()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << name << " q=" << q;
        EXPECT_EQ(want[i].distance, got[i].distance) << name << " q=" << q;
      }
    }
    // The whole sweep must advance stats identically too.
    EXPECT_EQ(gather_computer->stats().candidates,
              code_computer->stats().candidates)
        << name;
    EXPECT_EQ(gather_computer->stats().pruned, code_computer->stats().pruned)
        << name;
    EXPECT_EQ(gather_computer->stats().dims_scanned,
              code_computer->stats().dims_scanned)
        << name;
    EXPECT_EQ(gather_computer->stats().exact_computations,
              code_computer->stats().exact_computations)
        << name;
  }
}

TEST(CodeScanTest, TagFingerprintsContentNotJustLayout) {
  // Same method, same shapes, byte-different artifacts (a retrained model)
  // must produce a different tag, so a stale attached/persisted store
  // falls back to the gather path instead of being streamed as current.
  CodeScanFixture& f = Fixture();
  core::SqEstimatorData modified = f.sq;
  modified.recon_errors[0] += 1.0f;
  core::SqAdcEstimator current(&f.sq);
  core::SqAdcEstimator retrained(&modified);
  EXPECT_NE(current.code_tag(), retrained.code_tag());
  // And stable across instances over the same data.
  core::SqAdcEstimator again(&f.sq);
  EXPECT_EQ(current.code_tag(), again.code_tag());
}

TEST(CodeScanTest, MismatchedTagFallsBackToGather) {
  CodeScanFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 16;

  // Attach a ddc-pq store, then search with a ddc-sq computer: tags differ,
  // so the index must take the gather path (and still be correct).
  auto pq_computer = std::make_unique<core::DdcAnyComputer>(
      &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
      &f.pq_corrector);
  IvfIndex ivf = IvfIndex::Build(f.ds.base, options);
  ASSERT_TRUE(ivf.AttachCodesFrom(*pq_computer));

  auto sq_computer = std::make_unique<core::DdcAnyComputer>(
      &f.ds.base, std::make_unique<core::SqAdcEstimator>(&f.sq),
      &f.sq_corrector);
  auto sq_reference = std::make_unique<core::DdcAnyComputer>(
      &f.ds.base, std::make_unique<core::SqAdcEstimator>(&f.sq),
      &f.sq_corrector);
  IvfIndex plain = IvfIndex::Build(f.ds.base, options);

  ASSERT_NE(ivf.codes().tag(), sq_computer->code_tag());
  auto got = ivf.Search(*sq_computer, f.ds.queries.Row(0), 10, 4);
  auto want = plain.Search(*sq_reference, f.ds.queries.Row(0), 10, 4);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].distance, got[i].distance);
  }
}

TEST(CodeScanTest, DefaultEstimateBatchCodesIgnoresStreamAndGathers) {
  // Computers without code support (flat here, HNSW's exact path in
  // general) keep working through the base-class fallback.
  CodeScanFixture& f = Fixture();
  FlatDistanceComputer computer(f.ds.base.data(), f.ds.size(), f.ds.dim());
  EXPECT_TRUE(computer.code_tag().empty());
  EXPECT_TRUE(computer.MakeCodeStore().empty());

  computer.BeginQuery(f.ds.queries.Row(0));
  int64_t ids[3] = {4, 9, 2};
  EstimateResult out[3];
  computer.EstimateBatchCodes(/*codes=*/nullptr, ids, 3, kInfDistance, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(out[i].pruned);
    EXPECT_EQ(out[i].distance, computer.ExactDistance(ids[i]));
  }
}

}  // namespace
}  // namespace resinfer::index
