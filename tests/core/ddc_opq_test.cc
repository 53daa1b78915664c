#include "core/ddc_opq.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/method_factory.h"
#include "data/ground_truth.h"
#include "data/metrics.h"
#include "index/flat_index.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "test_util.h"

namespace resinfer::core {
namespace {

struct Fixture {
  data::Dataset ds;
  DdcOpqArtifacts artifacts;

  explicit Fixture(int64_t n = 3000, int64_t dim = 32)
      : ds(testing::SmallDataset(n, dim, 1.0, 85, 16, 120)) {
    DdcOpqOptions options;
    options.opq.pq.num_subspaces = 8;
    options.opq.pq.nbits = 6;
    options.opq.pq.kmeans.max_iterations = 10;
    options.opq.num_iterations = 2;
    options.training.k = 10;
    options.training.max_queries = 100;
    options.training.negatives_per_query = 50;
    artifacts = TrainDdcOpq(ds.base, ds.train_queries, options);
  }
};

TEST(DdcOpqTest, ArtifactsComplete) {
  Fixture f;
  EXPECT_TRUE(f.artifacts.opq.trained());
  EXPECT_EQ(static_cast<int64_t>(f.artifacts.codes.size()),
            f.ds.size() * f.artifacts.opq.codebook().code_size());
  EXPECT_EQ(static_cast<int64_t>(f.artifacts.recon_errors.size()),
            f.ds.size());
  EXPECT_TRUE(f.artifacts.corrector.trained());
  EXPECT_GT(f.artifacts.ExtraBytes(), 0);
}

TEST(DdcOpqTest, ExactWhenNotPruned) {
  Fixture f;
  const auto owned = MakeDdcOpqComputer(&f.ds.base, &f.artifacts);
  DdcAnyComputer& computer = *owned;
  computer.BeginQuery(f.ds.queries.Row(0));
  for (int64_t i = 0; i < 50; ++i) {
    auto est = computer.EstimateWithThreshold(i, index::kInfDistance);
    ASSERT_FALSE(est.pruned);
    float truth = data::ExactL2Sqr(f.ds.base, i, f.ds.queries.Row(0));
    EXPECT_FLOAT_EQ(est.distance, truth);
  }
}

TEST(DdcOpqTest, AdcApproximatesDistance) {
  Fixture f;
  const auto owned = MakeDdcOpqComputer(&f.ds.base, &f.artifacts);
  DdcAnyComputer& computer = *owned;
  computer.BeginQuery(f.ds.queries.Row(1));
  double rel = 0.0;
  int count = 0;
  for (int64_t i = 0; i < 200; ++i) {
    float truth = data::ExactL2Sqr(f.ds.base, i, f.ds.queries.Row(1));
    if (truth < 1e-3f) continue;
    rel += std::abs(computer.ApproximateDistance(i) - truth) / truth;
    ++count;
  }
  EXPECT_LT(rel / count, 0.3);
}

TEST(DdcOpqTest, FlatScanMaintainsRecallAndPrunes) {
  Fixture f;
  index::FlatIndex flat(f.ds.base);
  const auto owned = MakeDdcOpqComputer(&f.ds.base, &f.artifacts);
  DdcAnyComputer& computer = *owned;
  auto truth = data::BruteForceKnn(f.ds.base, f.ds.queries, 10);
  std::vector<std::vector<int64_t>> results;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    auto found = flat.Search(computer, f.ds.queries.Row(q), 10);
    std::vector<int64_t> ids;
    for (const auto& nb : found) ids.push_back(nb.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GT(data::MeanRecallAtK(results, truth, 10), 0.9);
  EXPECT_GT(computer.stats().PrunedRate(), 0.3);
}

TEST(DdcOpqTest, DefaultSubspacesDividesDim) {
  EXPECT_EQ(DefaultOpqSubspaces(128), 32);
  EXPECT_EQ(DefaultOpqSubspaces(300), 75);
  EXPECT_EQ(DefaultOpqSubspaces(960), 240);
  EXPECT_EQ(DefaultOpqSubspaces(420), 105);
  EXPECT_EQ(DefaultOpqSubspaces(7), 1);
  for (int64_t d : {128, 300, 960, 420, 256, 512}) {
    EXPECT_EQ(d % DefaultOpqSubspaces(d), 0) << d;
  }
}

TEST(DdcOpqTest, PrunedCandidatesAreOverwhelminglyBeyondTau) {
  Fixture f;
  const auto owned = MakeDdcOpqComputer(&f.ds.base, &f.artifacts);
  DdcAnyComputer& computer = *owned;
  int64_t pruned = 0, false_pruned = 0;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    const float* query = f.ds.queries.Row(q);
    computer.BeginQuery(query);
    auto knn = data::BruteForceKnnSingle(f.ds.base, query, 10);
    const float tau = knn.back().distance;
    for (int64_t i = 0; i < f.ds.size(); i += 3) {
      if (computer.EstimateWithThreshold(i, tau).pruned) {
        ++pruned;
        if (data::ExactL2Sqr(f.ds.base, i, query) <= tau) ++false_pruned;
      }
    }
  }
  ASSERT_GT(pruned, 100);
  // The learned corrector targets 99.5% label-0 recall; the observed false
  // pruning rate over all pruned candidates should be small.
  EXPECT_LT(static_cast<double>(false_pruned) / pruned, 0.02);
}

// Test-local DDCopq reference, written from the method's definition and
// sharing no code with the computer: rotate the query, build its ADC table
// (quantized to the fast-scan LUT when the codebook is packed), score the
// candidate's code, prune when the corrector says dis > tau, and otherwise
// return the exact distance in the original space. Stats advance per the
// DistanceComputer protocol.
class OpqReference {
 public:
  OpqReference(const linalg::Matrix& base, const DdcOpqArtifacts& artifacts)
      : base_(base), a_(artifacts) {}

  void BeginQuery(const float* query) {
    const quant::PqCodebook& pq = a_.opq.codebook();
    query_ = query;
    std::vector<float> rotated(static_cast<std::size_t>(base_.cols()));
    a_.opq.Rotate(query, rotated.data());
    table_.resize(static_cast<std::size_t>(pq.adc_table_size()));
    pq.ComputeAdcTable(rotated.data(), table_.data());
    if (pq.layout().packed()) {
      lut_.resize(static_cast<std::size_t>(pq.fast_scan_lut_bytes()));
      pq.QuantizeAdcTable(table_.data(), lut_.data(), &scale_, &bias_);
    }
  }

  index::EstimateResult Estimate(int64_t id, float tau,
                                 index::ComputerStats* stats) const {
    const quant::PqCodebook& pq = a_.opq.codebook();
    const uint8_t* code = a_.codes.data() + id * pq.code_size();
    const float adc =
        pq.layout().packed()
            ? quant::PqCodebook::DequantizeFastScanSum(
                  simd::PqAdcFastScanOne(lut_.data(), pq.num_subspaces(),
                                         code),
                  scale_, bias_)
            : pq.AdcDistance(table_.data(), code);
    ++stats->candidates;
    if (std::isfinite(tau) &&
        a_.corrector.PredictPrunable(
            adc, tau, a_.recon_errors[static_cast<std::size_t>(id)])) {
      ++stats->pruned;
      return {true, adc};
    }
    ++stats->exact_computations;
    stats->dims_scanned += base_.cols();
    return {false, simd::L2Sqr(base_.Row(id), query_,
                               static_cast<std::size_t>(base_.cols()))};
  }

 private:
  const linalg::Matrix& base_;
  const DdcOpqArtifacts& a_;
  const float* query_ = nullptr;
  std::vector<float> table_;
  std::vector<uint8_t> lut_;
  float scale_ = 0.0f, bias_ = 0.0f;
};

void ExpectSameResult(const index::EstimateResult& want,
                      const index::EstimateResult& got,
                      const std::string& label) {
  EXPECT_EQ(want.pruned, got.pruned) << label;
  EXPECT_EQ(want.distance, got.distance) << label;  // bit-identical
}

void ExpectSameStats(const index::ComputerStats& want,
                     const index::ComputerStats& got,
                     const std::string& label) {
  EXPECT_EQ(want.candidates, got.candidates) << label;
  EXPECT_EQ(want.pruned, got.pruned) << label;
  EXPECT_EQ(want.exact_computations, got.exact_computations) << label;
  EXPECT_EQ(want.dims_scanned, got.dims_scanned) << label;
}

TEST(DdcOpqTest, FactoryComputerMatchesReferenceOnEveryPath) {
  data::Dataset ds = testing::SmallDataset(1000, 32, 1.0, 87, 6, 120);
  for (int nbits : {6, 4}) {  // byte codebook, packed fast-scan codebook
    FactoryOptions options;
    options.ddc_opq.opq.pq.num_subspaces = 8;
    options.ddc_opq.opq.pq.nbits = nbits;
    options.ddc_opq.opq.num_iterations = 2;
    options.ddc_opq.training.max_queries = 60;
    MethodFactory factory(&ds, options);
    const DdcOpqArtifacts& artifacts = factory.EnsureDdcOpqArtifacts();
    const quant::PqCodebook& pq = artifacts.opq.codebook();
    ASSERT_EQ(pq.layout().packed(), nbits == 4);
    const std::unique_ptr<index::DistanceComputer> computer =
        factory.Make(kMethodDdcOpq);
    EXPECT_EQ(computer->name(), "ddc-opq");

    // The tag and the [code | recon_error] records are the persisted
    // ddc-opq layout, so saved stores keep streaming.
    uint64_t f = quant::FingerprintArray(artifacts.codes.data(),
                                         artifacts.codes.size());
    f = quant::FingerprintArray(artifacts.recon_errors.data(),
                                artifacts.recon_errors.size() * sizeof(float),
                                f);
    EXPECT_EQ(computer->code_tag(),
              quant::MakeCodeTag("ddc-opq", pq.code_size(), 1, ds.size(), f,
                                 pq.layout().packing));
    const quant::CodeStore store = computer->MakeCodeStore();
    ASSERT_EQ(store.size(), ds.size());
    for (int64_t i = 0; i < ds.size(); i += 97) {
      EXPECT_EQ(0, std::memcmp(store.record(i),
                               artifacts.codes.data() + i * pq.code_size(),
                               static_cast<std::size_t>(pq.code_size())));
      EXPECT_EQ(quant::RecordSidecars(store.record(i), pq.code_size())[0],
                artifacts.recon_errors[static_cast<std::size_t>(i)]);
    }

    const int count = 101;  // not a multiple of any chunk width
    const int64_t offset = 37;
    std::vector<int64_t> ids(count);
    std::iota(ids.begin(), ids.end(), offset);
    const uint8_t* records = store.record(offset);
    const int group = 4;
    const int members[] = {3, 0, 2};
    const int num_members = 3;

    OpqReference reference(ds.base, artifacts);
    for (simd::SimdLevel level : simd::SupportedLevels()) {
      simd::ScopedSimdLevel guard(level);
      for (int64_t q = 0; q < group; ++q) {
        const float* query = ds.queries.Row(q);
        reference.BeginQuery(query);
        const float mid = simd::L2Sqr(ds.base.Row(offset + count / 2), query,
                                      static_cast<std::size_t>(ds.dim()));
        for (float tau : {index::kInfDistance, 0.0f, mid}) {
          const std::string label = "nbits=" + std::to_string(nbits) + "/" +
                                    simd::SimdLevelName(level) +
                                    "/q=" + std::to_string(q) +
                                    "/tau=" + std::to_string(tau);
          index::ComputerStats want_stats;
          std::vector<index::EstimateResult> want(count);
          for (int i = 0; i < count; ++i) {
            want[i] = reference.Estimate(ids[i], tau, &want_stats);
          }

          computer->BeginQuery(query);
          computer->stats().Reset();
          for (int i = 0; i < count; ++i) {
            ExpectSameResult(want[i],
                             computer->EstimateWithThreshold(ids[i], tau),
                             label + "/single");
          }
          ExpectSameStats(want_stats, computer->stats(), label + "/single");

          std::vector<index::EstimateResult> got(count);
          computer->stats().Reset();
          computer->EstimateBatch(ids.data(), count, tau, got.data());
          for (int i = 0; i < count; ++i) {
            ExpectSameResult(want[i], got[i], label + "/batch");
          }
          ExpectSameStats(want_stats, computer->stats(), label + "/batch");

          computer->stats().Reset();
          computer->EstimateBatchCodes(records, ids.data(), count, tau,
                                       got.data());
          for (int i = 0; i < count; ++i) {
            ExpectSameResult(want[i], got[i], label + "/code");
          }
          ExpectSameStats(want_stats, computer->stats(), label + "/code");
        }
      }

      // Group calls: each member against its own query and tau.
      float taus[num_members];
      std::vector<std::vector<index::EstimateResult>> want(num_members);
      index::ComputerStats want_stats;
      for (int j = 0; j < num_members; ++j) {
        const float* query = ds.queries.Row(members[j]);
        taus[j] = j == 1 ? index::kInfDistance
                         : simd::L2Sqr(ds.base.Row(offset + 11 * j), query,
                                       static_cast<std::size_t>(ds.dim()));
        reference.BeginQuery(query);
        for (int i = 0; i < count; ++i) {
          want[j].push_back(reference.Estimate(ids[i], taus[j], &want_stats));
        }
      }
      computer->SetQueryBatch(ds.queries.Row(0), group, ds.dim());
      for (bool codes : {false, true}) {
        const std::string label = "nbits=" + std::to_string(nbits) + "/" +
                                  simd::SimdLevelName(level) +
                                  (codes ? "/code-group" : "/group");
        std::vector<index::EstimateResult> got(
            static_cast<std::size_t>(num_members) * count);
        computer->stats().Reset();
        if (codes) {
          computer->EstimateBatchCodesGroup(records, ids.data(), count,
                                            members, num_members, taus,
                                            got.data());
        } else {
          computer->EstimateBatchGroup(ids.data(), count, members,
                                       num_members, taus, got.data());
        }
        for (int j = 0; j < num_members; ++j) {
          for (int i = 0; i < count; ++i) {
            ExpectSameResult(want[j][i], got[j * count + i],
                             label + "/member=" + std::to_string(j));
          }
        }
        ExpectSameStats(want_stats, computer->stats(), label);
      }
    }
  }
}

}  // namespace
}  // namespace resinfer::core
