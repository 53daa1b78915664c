// Coalescing admission conformance. The load-bearing guarantee is
// bit-identity: every query submitted through IvfServer — in any arrival
// order, from any number of client threads, coalesced into whatever groups
// traffic produced — must resolve to exactly the neighbors a solo
// Search(query, k, nprobe) returns (ids and distances). On top of that,
// the flush triggers (full group, linger expiry, drain) and the occupancy
// accounting are pinned. The CI TSan job runs this suite.
#include "serve/admission.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/training_data.h"
#include "index/ivf_index.h"
#include "persist/persist.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/rng.h"

namespace resinfer::serve {
namespace {

using index::DistanceComputer;
using index::Neighbor;

struct ServingFixture {
  data::Dataset ds = testing::SmallDataset(1500, 24, 1.0, 131, 40, 140);
  index::IvfIndex ivf;
  core::PqEstimatorData pq;
  core::LinearCorrector pq_corrector;

  ServingFixture() {
    index::IvfOptions options;
    options.num_clusters = 24;
    ivf = index::IvfIndex::Build(ds.base, options);

    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 6;
    pq = core::BuildPqEstimatorData(ds.base, pq_options);
    core::TrainingDataOptions training;
    training.max_queries = 60;
    core::PqAdcEstimator estimator(&pq);
    pq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                           ds.train_queries, training);
    // Code-resident scans for the estimator path, as a real server runs.
    ivf.AttachCodesFrom(*DdcPqFactory()());
  }

  index::ComputerFactory ExactFactory() {
    return [this] {
      return std::make_unique<index::FlatDistanceComputer>(
          ds.base.data(), ds.size(), ds.dim());
    };
  }
  index::ComputerFactory DdcPqFactory() {
    return [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq),
          &pq_corrector);
    };
  }
};

ServingFixture& Fixture() {
  static ServingFixture* fixture = new ServingFixture();
  return *fixture;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& want,
                         const std::vector<Neighbor>& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << label << " rank " << i;
    EXPECT_EQ(want[i].distance, got[i].distance) << label << " rank " << i;
  }
}

// Solo answers computed through a fresh computer — the reference every
// serving-path result must match bit-for-bit.
std::vector<std::vector<Neighbor>> SoloAnswers(
    ServingFixture& f, const index::ComputerFactory& factory, int k,
    int nprobe) {
  auto computer = factory();
  std::vector<std::vector<Neighbor>> want;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    want.push_back(f.ivf.Search(*computer, f.ds.queries.Row(q), k, nprobe));
  }
  return want;
}

TEST(ServingTest, CoalescedAnswersBitIdenticalInAnyArrivalOrder) {
  ServingFixture& f = Fixture();
  const int k = 10, nprobe = 6;
  struct Case {
    const char* name;
    index::ComputerFactory factory;
  };
  std::vector<Case> cases = {{"exact", f.ExactFactory()},
                             {"ddc-pq", f.DdcPqFactory()}};
  for (auto& c : cases) {
    const auto want = SoloAnswers(f, c.factory, k, nprobe);
    // A shuffled arrival order: coalescing must reassemble co-probing
    // queries without ever mixing up whose answer is whose.
    std::vector<int64_t> order(static_cast<std::size_t>(f.ds.queries.rows()));
    std::iota(order.begin(), order.end(), int64_t{0});
    Rng rng(977);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.UniformInt(i))]);
    }
    AdmissionOptions options;
    options.num_threads = 2;
    options.max_group_size = 8;
    options.linger_micros = 500;
    IvfServer server(&f.ivf, c.factory, options);
    std::vector<std::future<std::vector<Neighbor>>> futures(order.size());
    for (int64_t q : order) {
      futures[static_cast<std::size_t>(q)] =
          server.Submit(f.ds.queries.Row(q), k, nprobe);
    }
    for (std::size_t q = 0; q < futures.size(); ++q) {
      ExpectSameNeighbors(want[q], futures[q].get(),
                          std::string(c.name) + " q=" + std::to_string(q));
    }
    server.Shutdown();
    ServingStats stats = server.stats();
    EXPECT_EQ(stats.requests, f.ds.queries.rows());
    EXPECT_EQ(stats.group_occupancy.sum(),
              static_cast<double>(f.ds.queries.rows()));
    EXPECT_EQ(stats.latency_seconds.count(), f.ds.queries.rows());
  }
}

TEST(ServingTest, ConcurrentClientsGetTheirOwnAnswers) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);
  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 8;
  options.linger_micros = 300;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  const int64_t n = f.ds.queries.rows();
  std::vector<std::future<std::vector<Neighbor>>> futures(
      static_cast<std::size_t>(n));
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t q = c; q < n; q += kClients) {
        futures[static_cast<std::size_t>(q)] =
            server.Submit(f.ds.queries.Row(q), k, nprobe);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int64_t q = 0; q < n; ++q) {
    ExpectSameNeighbors(want[static_cast<std::size_t>(q)],
                        futures[static_cast<std::size_t>(q)].get(),
                        "client-interleaved q=" + std::to_string(q));
  }
}

TEST(ServingTest, LingerExpiryFlushesPartialGroups) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 32;  // never fills with 3 requests
  options.linger_micros = 2000;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < 3; ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), 5, 4));
  }
  // No Flush, no Shutdown: only the linger deadline can release these.
  for (auto& future : futures) {
    EXPECT_FALSE(future.get().empty());
  }
  ServingStats stats = server.stats();
  EXPECT_GE(stats.linger_flushes, 1);
  EXPECT_EQ(stats.full_flushes, 0);
  EXPECT_EQ(stats.group_occupancy.sum(), 3.0);
}

TEST(ServingTest, FullGroupDispatchesWithoutWaitingForLinger) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 4;
  options.linger_micros = 60'000'000;  // a minute: linger cannot be the cause
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  // The same query four times shares one coalescing key by construction.
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.Submit(f.ds.queries.Row(0), 5, 4));
  }
  auto reference = futures[0].get();
  for (int i = 1; i < 4; ++i) {
    ExpectSameNeighbors(reference, futures[i].get(),
                        "duplicate " + std::to_string(i));
  }
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.full_flushes, 1);
  EXPECT_EQ(stats.groups, 1);
  EXPECT_DOUBLE_EQ(stats.MeanOccupancy(), 4.0);
}

TEST(ServingTest, ShutdownDrainsInFlightWork) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.ExactFactory(), k, nprobe);
  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 16;
  options.linger_micros = 60'000'000;  // only the drain can release these
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  server.Shutdown();  // must flush pending groups and wait for them
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ASSERT_EQ(futures[q].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "q=" << q;
    ExpectSameNeighbors(want[q], futures[q].get(),
                        "drain q=" + std::to_string(q));
  }
  ServingStats stats = server.stats();
  EXPECT_GE(stats.drain_flushes, 1);
  EXPECT_EQ(stats.latency_seconds.count(), f.ds.queries.rows());
}

TEST(ServingTest, SubmitAfterShutdownIsRefusedWithAReadyFuture) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  server.Shutdown();
  // Both the grouped path and the k <= 0 clamp refuse: nothing may be
  // filed once the pending groups have been drained.
  for (int k : {5, 0}) {
    auto future = server.Submit(f.ds.queries.Row(0), k, 4);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "k=" << k;
    try {
      future.get();
      ADD_FAILURE() << "k=" << k << ": refused request resolved to a value";
    } catch (const RequestRejected& rejected) {
      EXPECT_EQ(rejected.status().code(),
                util::StatusCode::kFailedPrecondition)
          << "k=" << k;
      EXPECT_FALSE(rejected.status().message().empty()) << "k=" << k;
    }
  }
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.groups, 0);
}

TEST(ServingTest, NonFiniteQueryIsRefusedAsInvalidArgument) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  const int64_t d = f.ds.queries.cols();
  std::vector<float> nan_first(f.ds.queries.Row(0), f.ds.queries.Row(0) + d);
  nan_first.front() = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> inf_last(f.ds.queries.Row(1), f.ds.queries.Row(1) + d);
  inf_last.back() = std::numeric_limits<float>::infinity();
  std::vector<float> neg_inf(f.ds.queries.Row(2), f.ds.queries.Row(2) + d);
  neg_inf[static_cast<std::size_t>(d / 2)] =
      -std::numeric_limits<float>::infinity();

  // Both the grouped path and the k <= 0 clamp refuse the query.
  for (int k : {5, 0}) {
    int which = 0;
    for (const std::vector<float>* query : {&nan_first, &inf_last, &neg_inf}) {
      const std::string where =
          "k=" + std::to_string(k) + " query=" + std::to_string(which++);
      auto future = server.Submit(query->data(), k, 4);
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << where;
      try {
        future.get();
        ADD_FAILURE() << where << ": refused request resolved to a value";
      } catch (const RequestRejected& rejected) {
        EXPECT_EQ(rejected.status().code(),
                  util::StatusCode::kInvalidArgument)
            << where;
        EXPECT_FALSE(rejected.status().message().empty()) << where;
      }
    }
  }
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.groups, 0);

  // The server keeps answering finite queries bit-identically.
  std::unique_ptr<index::DistanceComputer> computer = f.ExactFactory()();
  const std::vector<index::Neighbor> want =
      f.ivf.Search(*computer, f.ds.queries.Row(3), 5, 4);
  ExpectSameNeighbors(want, server.Submit(f.ds.queries.Row(3), 5, 4).get(),
                      "finite after refusals");
  EXPECT_EQ(server.stats().requests, 1);
}

TEST(ServingTest, DifferentParametersNeverShareAGroup) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 32;
  options.linger_micros = 1000;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  // Same query, three parameter sets: the answers must match the solo
  // search for each (k, nprobe), which a mixed group could not produce.
  auto fa = server.Submit(f.ds.queries.Row(0), 3, 2);
  auto fb = server.Submit(f.ds.queries.Row(0), 7, 4);
  auto fc = server.Submit(f.ds.queries.Row(0), 7, 8);
  auto computer = f.ExactFactory()();
  ExpectSameNeighbors(f.ivf.Search(*computer, f.ds.queries.Row(0), 3, 2),
                      fa.get(), "k=3 nprobe=2");
  ExpectSameNeighbors(f.ivf.Search(*computer, f.ds.queries.Row(0), 7, 4),
                      fb.get(), "k=7 nprobe=4");
  ExpectSameNeighbors(f.ivf.Search(*computer, f.ds.queries.Row(0), 7, 8),
                      fc.get(), "k=7 nprobe=8");
  server.Shutdown();
  EXPECT_EQ(server.stats().groups, 3);
}

TEST(ServingTest, NonPositiveKResolvesEmptyImmediately) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  auto future = server.Submit(f.ds.queries.Row(0), 0, 4);
  EXPECT_TRUE(future.get().empty());
  EXPECT_EQ(server.stats().groups, 0);
  EXPECT_EQ(server.stats().requests, 1);
}

TEST(ServingTest, CoalescingOffServesEveryRequestSolo) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);
  AdmissionOptions options;
  options.num_threads = 2;
  options.coalesce = false;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ExpectSameNeighbors(want[q], futures[q].get(),
                        "solo q=" + std::to_string(q));
  }
  server.Shutdown();
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.groups, f.ds.queries.rows());
  EXPECT_DOUBLE_EQ(stats.MeanOccupancy(), 1.0);
}

TEST(ServingTest, BackloggedTrafficCoalesces) {
  // With one worker and a burst of co-probing traffic, groups must form
  // (occupancy > 1): this is the property the serving bench quantifies.
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 8;
  options.linger_micros = 5000;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  constexpr int kRepeats = 16;  // same query => same key, a full backlog
  for (int i = 0; i < kRepeats; ++i) {
    futures.push_back(server.Submit(f.ds.queries.Row(1), 5, 4));
  }
  for (auto& future : futures) future.get();
  server.Shutdown();
  EXPECT_GE(server.stats().MeanOccupancy(), 2.0);
}

TEST(ServingTest, MmapLoadedIndexServesBitIdenticalAnswers) {
  // End-to-end storage tier check: save the fixture index (persist v6),
  // reload it zero-copy through the mmap backend, and serve coalesced
  // traffic from the mapped records. Every answer must be bit-identical to
  // the in-memory index's solo search — the serving layer pins the storage
  // handle per dispatched group, so the mapping cannot be unmapped under an
  // in-flight scan. The CI matrix also runs this whole suite with
  // RESINFER_STORAGE=mmap, covering the env-default route.
  ServingFixture& f = Fixture();
  const int k = 10, nprobe = 6;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("resinfer_serving_mmap_test_" +
                    std::to_string(static_cast<long long>(::getpid())));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ivf_v6.bin").string();
  util::Status saved = persist::SaveIvf(path, f.ivf);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  persist::IvfLoadOptions load_options;
  load_options.backend = storage::StorageBackend::kMmap;
  index::IvfIndex mapped;
  util::Status loaded = persist::LoadIvf(path, &mapped, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_TRUE(mapped.has_codes());
  ASSERT_EQ(mapped.codes().storage_backend(),
            storage::StorageBackend::kMmap);

  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 8;
  options.linger_micros = 500;
  IvfServer server(&mapped, f.DdcPqFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ExpectSameNeighbors(want[q], futures[q].get(),
                        "mmap q=" + std::to_string(q));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().requests, f.ds.queries.rows());
  std::filesystem::remove_all(dir);
}

TEST(ServingTest, StatsSnapshotsAreCoherentDuringTraffic) {
  // Regression for a lock-discipline hole the thread-safety annotations
  // surfaced: stats() used to sweep the live per-worker computers with no
  // lock, racing every in-flight scan (the old header even admitted the
  // result was "only coherent when no search is in flight"). Stats are now
  // folded per dispatched group under stats_mu_, so a reader hammering
  // stats() during traffic must see race-free (TSan-clean under the CI
  // TSan job, which runs this suite) and monotonically growing counters.
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 4;
  options.max_group_size = 8;
  options.linger_micros = 50;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  constexpr int k = 10;
  constexpr int nprobe = 6;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    index::ComputerStats last;
    while (!stop.load(std::memory_order_acquire)) {
      const ServingStats snapshot = server.stats();
      // Whole-group folding: every counter only ever grows, and the
      // internal relations hold at every instant — a torn read of a live
      // computer would violate both.
      EXPECT_GE(snapshot.computer_stats.candidates, last.candidates);
      EXPECT_GE(snapshot.computer_stats.pruned, last.pruned);
      EXPECT_GE(snapshot.computer_stats.dims_scanned, last.dims_scanned);
      EXPECT_GE(snapshot.computer_stats.candidates,
                snapshot.computer_stats.pruned);
      last = snapshot.computer_stats;
    }
  });

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<std::future<std::vector<Neighbor>>> futures;
      for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
        futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  server.Shutdown();

  const ServingStats final_stats = server.stats();
  EXPECT_EQ(final_stats.requests, kClients * f.ds.queries.rows());
  // Every request's scan work is folded in by shutdown.
  EXPECT_GE(final_stats.computer_stats.candidates, final_stats.requests);
}

}  // namespace
}  // namespace resinfer::serve
