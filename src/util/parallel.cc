#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace resinfer {

namespace {
std::atomic<int> g_thread_count{0};  // 0 = env override, then hardware

// Parses RESINFER_THREADS on every call (it is consulted once per batch /
// executor construction, never per query) so tests can flip the variable
// without ordering constraints. Returns 0 when unset or invalid.
int EnvThreadCount() {
  const char* env = std::getenv("RESINFER_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end != nullptr && *end == '\0' && value > 0 && value <= 1 << 20) {
    return static_cast<int>(value);
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "resinfer: ignoring invalid RESINFER_THREADS=%s "
                 "(expected a positive integer)\n",
                 env);
  }
  return 0;
}

// Set while the thread runs a parallel loop's callback; loops started
// there run inline instead of starting threads of their own.
thread_local bool t_in_parallel_loop = false;

class ParallelLoopScope {
 public:
  ParallelLoopScope() : saved_(t_in_parallel_loop) {
    t_in_parallel_loop = true;
  }
  ~ParallelLoopScope() { t_in_parallel_loop = saved_; }
  ParallelLoopScope(const ParallelLoopScope&) = delete;
  ParallelLoopScope& operator=(const ParallelLoopScope&) = delete;

 private:
  bool saved_;
};
}  // namespace

int DefaultThreadCount() {
  int configured = g_thread_count.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  if (int env = EnvThreadCount(); env > 0) return env;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int requested) {
  return requested > 0 ? requested : DefaultThreadCount();
}

void SetDefaultThreadCount(int threads) {
  RESINFER_CHECK(threads >= 0);
  g_thread_count.store(threads, std::memory_order_relaxed);
}

void ParallelForShards(int64_t n, int threads,
                       const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  const int64_t shards =
      t_in_parallel_loop ? 1
                         : std::min<int64_t>(ResolveThreadCount(threads), n);
  if (shards <= 1) {
    fn(0, n);
    return;
  }
  const int64_t chunk = (n + shards - 1) / shards;
  const auto run_shard = [&fn](int64_t begin, int64_t end) {
    ParallelLoopScope scope;
    fn(begin, end);
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(shards - 1));
  for (int64_t begin = chunk; begin < n; begin += chunk) {
    const int64_t end = std::min<int64_t>(begin + chunk, n);
    workers.emplace_back([&run_shard, begin, end] { run_shard(begin, end); });
  }
  // The calling thread takes the first shard instead of idling in join;
  // the workers are joined before anything it throws leaves this frame.
  std::exception_ptr error;
  try {
    run_shard(0, chunk);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& w : workers) w.join();
  if (error != nullptr) std::rethrow_exception(error);
}

void ParallelFor(int64_t n,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n < 1024) {
    if (n > 0) fn(0, n);
    return;
  }
  ParallelForShards(n, DefaultThreadCount(), fn);
}

void ParallelForEach(int64_t n,
                     const std::function<void(int64_t, int)>& fn) {
  if (n <= 0) return;
  int threads = std::min<int64_t>(DefaultThreadCount(), n);
  if (threads <= 1 || n < 256 || t_in_parallel_loop) {
    for (int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::atomic<int64_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&next, &fn, n, t] {
      ParallelLoopScope scope;
      // Grab moderately sized batches to amortize the atomic increment
      // while keeping load balanced for skewed per-item costs.
      constexpr int64_t kBatch = 64;
      while (true) {
        int64_t begin = next.fetch_add(kBatch, std::memory_order_relaxed);
        if (begin >= n) return;
        int64_t end = std::min<int64_t>(begin + kBatch, n);
        for (int64_t i = begin; i < end; ++i) fn(i, t);
      }
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace resinfer
