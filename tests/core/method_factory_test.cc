#include "core/method_factory.h"

#include <gtest/gtest.h>

#include "data/ground_truth.h"
#include "data/metrics.h"
#include "test_util.h"

namespace resinfer::core {
namespace {

FactoryOptions SmallFactoryOptions() {
  FactoryOptions options;
  options.ddc_res.init_dim = 8;
  options.ddc_res.delta_dim = 8;
  options.ddc_pca.init_dim = 8;
  options.ddc_pca.delta_dim = 16;
  options.ddc_pca.training.max_queries = 60;
  options.ddc_pca.training.k = 10;
  options.ddc_opq.opq.pq.num_subspaces = 8;
  options.ddc_opq.opq.pq.nbits = 5;
  options.ddc_opq.opq.num_iterations = 2;
  options.ddc_opq.training.max_queries = 60;
  options.ddc_opq.training.k = 10;
  options.finger.rank = 6;
  return options;
}

TEST(MethodFactoryTest, AllMethodsConstruct) {
  data::Dataset ds = testing::SmallDataset(1500, 32, 1.0, 95, 8, 80);
  MethodFactory factory(&ds, SmallFactoryOptions());

  index::HnswOptions hnsw;
  hnsw.M = 8;
  hnsw.ef_construction = 50;
  index::HnswIndex graph = index::HnswIndex::Build(ds.base, hnsw);

  for (const std::string& name : AllMethodNames(/*include_finger=*/true)) {
    auto computer = factory.Make(name, &graph);
    ASSERT_NE(computer, nullptr) << name;
    EXPECT_EQ(computer->dim(), ds.dim()) << name;
    EXPECT_EQ(computer->size(), ds.size()) << name;
    // Smoke: one query through each.
    computer->BeginQuery(ds.queries.Row(0));
    auto est = computer->EstimateWithThreshold(0, index::kInfDistance);
    EXPECT_FALSE(est.pruned) << name;
    // A direct exact evaluation never counts in ComputerStats.
    const index::ComputerStats before = computer->stats();
    computer->ExactDistance(1);
    EXPECT_EQ(computer->stats().exact_computations,
              before.exact_computations) << name;
    EXPECT_EQ(computer->stats().dims_scanned, before.dims_scanned) << name;
  }
}

TEST(MethodFactoryTest, SharedArtifactsBuiltOnce) {
  data::Dataset ds = testing::SmallDataset(1000, 24, 1.0, 96, 4, 60);
  MethodFactory factory(&ds, SmallFactoryOptions());
  factory.EnsurePca();
  double t1 = factory.costs().pca_seconds;
  factory.EnsurePca();  // second call must not re-fit
  EXPECT_EQ(factory.costs().pca_seconds, t1);
}

TEST(MethodFactoryTest, CostsPopulated) {
  data::Dataset ds = testing::SmallDataset(1000, 32, 1.0, 97, 4, 60);
  MethodFactory factory(&ds, SmallFactoryOptions());
  auto ddc_res = factory.Make(kMethodDdcRes);
  auto ddc_opq = factory.Make(kMethodDdcOpq);
  EXPECT_GT(factory.costs().pca_seconds, 0.0);
  EXPECT_GT(factory.costs().opq_seconds, 0.0);
  EXPECT_GT(factory.costs().ddc_res_bytes, 0);
  EXPECT_GT(factory.costs().ddc_opq_bytes, 0);
}

TEST(MethodFactoryTest, EveryMethodKeepsHnswRecall) {
  data::Dataset ds = testing::SmallDataset(2500, 32, 1.0, 98, 16, 80);
  MethodFactory factory(&ds, SmallFactoryOptions());
  index::HnswOptions hnsw;
  hnsw.M = 8;
  hnsw.ef_construction = 60;
  index::HnswIndex graph = index::HnswIndex::Build(ds.base, hnsw);
  auto truth = data::BruteForceKnn(ds.base, ds.queries, 10);

  for (const std::string& name : AllMethodNames(/*include_finger=*/true)) {
    auto computer = factory.Make(name, &graph);
    std::vector<std::vector<int64_t>> results;
    index::HnswScratch scratch;
    for (int64_t q = 0; q < ds.queries.rows(); ++q) {
      auto found = graph.Search(*computer, ds.queries.Row(q), 10, 100,
                                &scratch);
      std::vector<int64_t> ids;
      for (const auto& nb : found) ids.push_back(nb.id);
      results.push_back(std::move(ids));
    }
    double recall = data::MeanRecallAtK(results, truth, 10);
    EXPECT_GT(recall, 0.85) << name << " recall " << recall;
  }
}

TEST(MethodFactoryTest, UnknownMethodAborts) {
  data::Dataset ds = testing::SmallDataset(100, 8, 1.0, 99, 2, 10);
  MethodFactory factory(&ds);
  EXPECT_DEATH(factory.Make("no-such-method"), "unknown method");
}

TEST(MethodFactoryTest, FingerWithoutGraphAborts) {
  data::Dataset ds = testing::SmallDataset(100, 8, 1.0, 100, 2, 10);
  MethodFactory factory(&ds);
  EXPECT_DEATH(factory.Make(kMethodFinger), "finger");
}

}  // namespace
}  // namespace resinfer::core
