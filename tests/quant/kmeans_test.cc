#include "quant/kmeans.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "test_util.h"
#include "util/rng.h"

namespace resinfer::quant {
namespace {

// Three well-separated 2-D blobs.
std::vector<float> ThreeBlobs(int per_cluster, uint64_t seed) {
  Rng rng(seed);
  const float centers[3][2] = {{0, 0}, {20, 0}, {0, 20}};
  std::vector<float> data;
  data.reserve(per_cluster * 3 * 2);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      data.push_back(centers[c][0] + static_cast<float>(rng.Gaussian()));
      data.push_back(centers[c][1] + static_cast<float>(rng.Gaussian()));
    }
  }
  return data;
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  auto data = ThreeBlobs(100, 7);
  KMeansResult res = KMeans(data.data(), 300, 2, 3);
  // Every centroid should be near one of the true centers.
  const float centers[3][2] = {{0, 0}, {20, 0}, {0, 20}};
  for (int c = 0; c < 3; ++c) {
    float best = 1e30f;
    for (int t = 0; t < 3; ++t) {
      float dx = res.centroids.At(c, 0) - centers[t][0];
      float dy = res.centroids.At(c, 1) - centers[t][1];
      best = std::min(best, dx * dx + dy * dy);
    }
    EXPECT_LT(best, 2.0f);
  }
  // Points in the same blob share an assignment.
  for (int i = 1; i < 100; ++i) {
    EXPECT_EQ(res.assignments[i], res.assignments[0]);
    EXPECT_EQ(res.assignments[100 + i], res.assignments[100]);
    EXPECT_EQ(res.assignments[200 + i], res.assignments[200]);
  }
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  data::Dataset ds = testing::SmallDataset(1000, 16, 0.8, 8, 2, 2);
  double prev = 1e300;
  for (int k : {1, 4, 16}) {
    KMeansResult res = KMeans(ds.base.data(), 1000, 16, k);
    EXPECT_LT(res.inertia, prev + 1e-3);
    prev = res.inertia;
  }
}

TEST(KMeansTest, KEqualsNGivesZeroInertia) {
  auto data = ThreeBlobs(4, 9);  // 12 points
  KMeansResult res = KMeans(data.data(), 12, 2, 12);
  EXPECT_NEAR(res.inertia, 0.0, 1e-3);
}

TEST(KMeansTest, DeterministicInSeed) {
  data::Dataset ds = testing::SmallDataset(500, 8, 1.0, 10, 2, 2);
  KMeansOptions options;
  options.seed = 123;
  KMeansResult a = KMeans(ds.base.data(), 500, 8, 10, options);
  KMeansResult b = KMeans(ds.base.data(), 500, 8, 10, options);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(linalg::MaxAbsDifference(a.centroids, b.centroids), 0.0);
}

TEST(KMeansTest, NearestCentroidAgreesWithAssignments) {
  data::Dataset ds = testing::SmallDataset(400, 8, 1.0, 11, 2, 2);
  KMeansResult res = KMeans(ds.base.data(), 400, 8, 8);
  for (int64_t i = 0; i < 400; i += 37) {
    EXPECT_EQ(NearestCentroid(res.centroids, ds.base.Row(i)),
              res.assignments[i]);
  }
}

TEST(KMeansTest, NearestCentroidsSortedAndDistinct) {
  data::Dataset ds = testing::SmallDataset(300, 8, 1.0, 12, 2, 2);
  KMeansResult res = KMeans(ds.base.data(), 300, 8, 16);
  const float* q = ds.queries.Row(0);
  std::vector<int32_t> top = NearestCentroids(res.centroids, q, 5);
  ASSERT_EQ(top.size(), 5u);
  float prev = -1.0f;
  std::set<int32_t> seen;
  for (int32_t c : top) {
    float dist = 0.0f;
    NearestCentroid(res.centroids, q, &dist);  // just for the helper
    float d = 0.0f;
    {
      // distance to this centroid
      d = 0.0f;
      for (int64_t j = 0; j < 8; ++j) {
        float diff = res.centroids.At(c, j) - q[j];
        d += diff * diff;
      }
    }
    EXPECT_GE(d, prev);
    prev = d;
    EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(top[0], NearestCentroid(res.centroids, q));
}

TEST(KMeansTest, NprobeClampedToK) {
  auto data = ThreeBlobs(10, 13);
  KMeansResult res = KMeans(data.data(), 30, 2, 3);
  EXPECT_EQ(NearestCentroids(res.centroids, data.data(), 10).size(), 3u);
}

// Reference ranking, one centroid at a time: single-pair distances in id
// order, a later centroid displacing a kept one only if strictly closer.
std::vector<int32_t> SinglePairRanking(const linalg::Matrix& centroids,
                                       const float* x, int nprobe) {
  std::vector<std::pair<float, int32_t>> kept;
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    const float dist =
        simd::L2Sqr(centroids.Row(c), x,
                    static_cast<std::size_t>(centroids.cols()));
    kept.emplace_back(dist, static_cast<int32_t>(c));
    std::stable_sort(kept.begin(), kept.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    if (static_cast<int>(kept.size()) > nprobe) kept.pop_back();
  }
  std::vector<int32_t> ids;
  for (const auto& entry : kept) ids.push_back(entry.second);
  return ids;
}

TEST(KMeansTest, NearestCentroidsMatchesBatchAndSinglePairRanking) {
  // The four-wide ranking must return the single-pair loop's ids in its
  // order at every SIMD level, with a tail of 3 centroids after the
  // four-wide groups and exact ties (duplicated centroid rows) inside one
  // group, across groups and in the tail. The first queries sit on a
  // duplicated row, so its pair ties for nearest; every nprobe is tried,
  // so each tied pair is split by the cut-off for some nprobe.
  const int64_t d = 24;
  linalg::Matrix centroids = resinfer::testing::RandomMatrix(39, d, 31);
  linalg::Matrix queries = resinfer::testing::RandomMatrix(13, d, 32);
  int64_t tied_query = 0;
  for (auto [from, to] : {std::pair<int64_t, int64_t>{5, 6}, {14, 17},
                          {36, 38}}) {
    std::copy(centroids.Row(from), centroids.Row(from) + d,
              centroids.Row(to));
    std::copy(centroids.Row(from), centroids.Row(from) + d,
              queries.Row(tied_query++));
  }

  for (simd::SimdLevel level : simd::SupportedLevels()) {
    simd::ScopedSimdLevel guard(level);
    for (int nprobe = 1; nprobe <= centroids.rows(); ++nprobe) {
      std::vector<int32_t> batch(
          static_cast<std::size_t>(queries.rows() * nprobe));
      NearestCentroidsBatch(centroids, queries, 0, queries.rows(), nprobe,
                            batch.data());
      for (int64_t q = 0; q < queries.rows(); ++q) {
        const std::vector<int32_t> got =
            NearestCentroids(centroids, queries.Row(q), nprobe);
        const std::vector<int32_t> want =
            SinglePairRanking(centroids, queries.Row(q), nprobe);
        const std::vector<int32_t> batch_row(
            batch.begin() + q * nprobe, batch.begin() + (q + 1) * nprobe);
        EXPECT_EQ(got, want) << simd::SimdLevelName(level)
                             << " nprobe=" << nprobe << " q=" << q;
        EXPECT_EQ(got, batch_row) << simd::SimdLevelName(level)
                                  << " nprobe=" << nprobe << " q=" << q;
      }
    }
  }
}

TEST(KMeansTest, NearestCentroidsBatchMatchesPerQuery) {
  // The tiled ranking must return exactly the per-query lists — ids AND
  // order, ties included — across SIMD levels, tile-partial query counts,
  // and nprobe up to a full sweep.
  const int64_t d = 24;
  linalg::Matrix centroids = resinfer::testing::RandomMatrix(37, d, 21);
  linalg::Matrix queries = resinfer::testing::RandomMatrix(21, d, 22);

  for (simd::SimdLevel level : simd::SupportedLevels()) {
    simd::ScopedSimdLevel guard(level);
    for (int nprobe : {1, 5, 37}) {
      for (int64_t begin : {int64_t{0}, int64_t{3}}) {
        const int64_t count = queries.rows() - begin;
        std::vector<int32_t> batch(static_cast<std::size_t>(count * nprobe));
        NearestCentroidsBatch(centroids, queries, begin, count, nprobe,
                              batch.data());
        for (int64_t i = 0; i < count; ++i) {
          std::vector<int32_t> want =
              NearestCentroids(centroids, queries.Row(begin + i), nprobe);
          ASSERT_EQ(static_cast<int>(want.size()), nprobe);
          for (int p = 0; p < nprobe; ++p) {
            EXPECT_EQ(batch[static_cast<std::size_t>(i * nprobe + p)],
                      want[static_cast<std::size_t>(p)])
                << simd::SimdLevelName(level) << " nprobe=" << nprobe
                << " begin=" << begin << " i=" << i << " p=" << p;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace resinfer::quant
