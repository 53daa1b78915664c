// Storage backends: heap deserialization vs mmap-resident serving
// (tracked in BENCH_storage.json).
//
// The v6 layout places the IVF code records (and the v3 matrix layout the
// base floats) at 64-byte-aligned file offsets, so the mmap backend serves
// both in place from a read-only mapping — no deserialization copy, and
// pages fault in only as scans and exact rescores touch them. This bench
// measures what that buys:
//
//   * memory     — LoadIvf + LoadMatrixMapped with the memory backend:
//                  every byte copied onto the heap (the pre-v6 behavior),
//   * mmap-cold  — the mmap backend right after the page cache for the
//                  files is dropped (first query wave pays the faults),
//   * mmap-warm  — the mmap backend with the cache hot (steady state).
//
// Each phase runs in its own re-exec'd child process and reads VmHWM from
// /proc/self/status, so the peak is that phase's alone — ru_maxrss would
// inherit the builder's resident set across fork/exec. Every phase
// reports a result-set checksum, and the parent refuses to print a table
// whose phases disagree: RSS and QPS deltas are storage effects, never
// accuracy.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "persist/persist.h"
#include "storage/storage.h"
#include "util/status.h"

using namespace resinfer;

namespace {

struct PhaseResult {
  std::string phase;
  double load_ms = 0.0;
  double qps = 0.0;
  double load_rss_mb = 0.0;  // resident set right after the two loads
  double peak_rss_mb = 0.0;  // VmHWM at the end of the query sweep
  uint64_t checksum = 0;
};

constexpr int kTopK = 10;
constexpr int kNprobe = 16;

std::string IvfPath(const std::string& dir) { return dir + "/ivf_v6.bin"; }
std::string BasePath(const std::string& dir) { return dir + "/base.bin"; }
std::string QueriesPath(const std::string& dir) {
  return dir + "/queries.bin";
}
std::string ArtifactsPath(const std::string& dir) {
  return dir + "/artifacts.bin";
}
std::string ResultPath(const std::string& dir, const std::string& phase) {
  return dir + "/result_" + phase + ".txt";
}

void Check(const util::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "[storage] %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

// Current resident set in MiB (VmRSS), for the per-stage breakdown the
// child logs to stderr alongside the headline ru_maxrss.
double CurrentRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Resident bytes of the mapping containing `addr`, from /proc/self/smaps —
// pinpoints how much of a mapped file the sweep actually paged in.
double MappingResidentMb(const void* addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  const uintptr_t target = reinterpret_cast<uintptr_t>(addr);
  bool inside = false;
  while (std::getline(smaps, line)) {
    uintptr_t lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2) {
      inside = lo <= target && target < hi;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      return std::strtod(line.c_str() + 4, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Mixes every (rank, id, distance-bits) triple into one order-sensitive
// value — equal across phases iff the answers are bit-identical.
uint64_t MixAnswer(uint64_t h, std::size_t rank, int64_t id, float distance) {
  uint32_t bits = 0;
  std::memcpy(&bits, &distance, sizeof(bits));
  h ^= (static_cast<uint64_t>(rank + 1) * 0x9E3779B97F4A7C15ull) +
       static_cast<uint64_t>(id + 1) * 0xC2B2AE3D27D4EB4Full + bits;
  return h * 0xD6E8FEB86659FD93ull;
}

// --- child: one measured phase -------------------------------------------

int RunPhase(const std::string& dir, const std::string& phase) {
  const storage::StorageBackend backend =
      phase == "memory" ? storage::StorageBackend::kMemory
                        : storage::StorageBackend::kMmap;

  linalg::Matrix queries;
  Check(persist::LoadMatrix(QueriesPath(dir), &queries), "load queries");
  core::DdcOpqArtifacts artifacts;
  Check(persist::LoadDdcOpqArtifacts(ArtifactsPath(dir), &artifacts),
        "load artifacts");

  // The measured loads: base floats and the IVF (with its v6 code
  // section) through the phase's backend.
  WallTimer load_timer;
  persist::MappedMatrix base;
  Check(persist::LoadMatrixMapped(BasePath(dir), &base, backend),
        "load base");
  index::IvfIndex ivf;
  persist::IvfLoadOptions ivf_options;
  ivf_options.backend = backend;
  Check(persist::LoadIvf(IvfPath(dir), &ivf, ivf_options), "load ivf");
  const double load_ms = load_timer.ElapsedMillis();
  const double load_rss_mb = CurrentRssMb();

  const auto owned = core::MakeDdcOpqComputer(&base.matrix, &artifacts);
  index::DistanceComputer& computer = *owned;
  if (!ivf.has_codes() || ivf.codes().tag() != computer.code_tag()) {
    std::fprintf(stderr, "[storage] %s: code tag mismatch — scans would "
                         "fall back to the gather path\n", phase.c_str());
    return 1;
  }

  uint64_t checksum = 0;
  WallTimer query_timer;
  for (int64_t q = 0; q < queries.rows(); ++q) {
    auto result = ivf.Search(computer, queries.Row(q), kTopK, kNprobe);
    for (std::size_t i = 0; i < result.size(); ++i) {
      checksum = MixAnswer(checksum, i, result[i].id, result[i].distance);
    }
  }
  const double seconds = query_timer.ElapsedSeconds();
  const double qps =
      seconds > 0.0 ? static_cast<double>(queries.rows()) / seconds : 0.0;
  const double peak_rss_mb = PeakRssMb();
  if (!base.pin.empty()) {
    std::fprintf(stderr,
                 "[storage] %s: base mapping resident %.1f MiB, "
                 "rss now %.1f MiB\n",
                 phase.c_str(), MappingResidentMb(base.pin.data()),
                 CurrentRssMb());
  }
  const index::ComputerStats& st = computer.stats();
  std::fprintf(stderr,
               "[storage] %s: candidates %lld pruned %lld exact %lld\n",
               phase.c_str(), static_cast<long long>(st.candidates),
               static_cast<long long>(st.pruned),
               static_cast<long long>(st.exact_computations));

  std::ofstream out(ResultPath(dir, phase));
  out << load_ms << " " << qps << " " << load_rss_mb << " " << peak_rss_mb
      << " " << checksum << "\n";
  return out ? 0 : 1;
}

// --- parent: build, save, orchestrate ------------------------------------

// Flushes the file to disk and asks the kernel to drop its page cache, so
// the next mapping faults from storage (the cold phase).
void DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

PhaseResult LaunchPhase(const std::string& self, const std::string& dir,
                        const std::string& phase) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(self.c_str(), self.c_str(), "--phase", phase.c_str(), "--dir",
            dir.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "[storage] phase %s failed (status %d)\n",
                 phase.c_str(), status);
    std::exit(1);
  }
  PhaseResult result;
  result.phase = phase;
  std::ifstream in(ResultPath(dir, phase));
  in >> result.load_ms >> result.qps >> result.load_rss_mb >>
      result.peak_rss_mb >> result.checksum;
  if (!in) {
    std::fprintf(stderr, "[storage] phase %s wrote no result\n",
                 phase.c_str());
    std::exit(1);
  }
  return result;
}

int RunParent(const std::string& self) {
  const benchutil::Scale scale = benchutil::GetScale();
  data::SyntheticSpec spec = data::SiftProxySpec();
  // The base matrix must dominate the process baseline for the RSS deltas
  // to mean anything, so this bench sets its own floor instead of the
  // (tiny) default small-scale size.
  spec.num_base = scale.paper ? 400000 : 150000;
  spec.num_queries = scale.paper ? 500 : 250;
  spec.num_train_queries = scale.paper ? 4000 : 800;
  data::Dataset ds = data::GenerateSynthetic(spec);
  std::fprintf(stderr, "[storage] dataset %s n=%ld d=%ld\n", ds.name.c_str(),
               static_cast<long>(ds.size()), static_cast<long>(ds.dim()));

  core::DdcOpqOptions options;
  options.opq.pq.num_subspaces = 32;
  options.opq.pq.nbits = 4;  // packed fast-scan records
  options.opq.num_iterations = scale.paper ? 5 : 1;
  options.training.max_queries = scale.CorrectorTrainQueries();
  core::DdcOpqArtifacts artifacts =
      core::TrainDdcOpq(ds.base, ds.train_queries, options);

  index::IvfOptions ivf_options;
  ivf_options.num_clusters = static_cast<int>(
      std::lround(std::sqrt(static_cast<double>(ds.size()))));
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, ivf_options);
  ivf.AttachCodesFrom(*core::MakeDdcOpqComputer(&ds.base, &artifacts));

  // Serving workload with cluster-skewed access: queries are base rows
  // drawn round-robin from a handful of hot regions (the largest buckets),
  // the regime where a beyond-RAM tier earns its keep — the mapped base
  // pages in only the hot regions' rows, while the heap backend pays for
  // every row regardless. A uniform sweep would eventually touch ~every
  // page on either backend and measure nothing but page granularity.
  constexpr int kHotRegions = 4;
  std::vector<int> hot(kHotRegions, 0);
  for (int b = 0; b < ivf.num_clusters(); ++b) {
    for (int h = 0; h < kHotRegions; ++h) {
      if (ivf.BucketSize(b) > ivf.BucketSize(hot[h])) {
        for (int j = kHotRegions - 1; j > h; --j) hot[j] = hot[j - 1];
        hot[h] = b;
        break;
      }
    }
  }
  // A bounded set of distinct queries per region (the workload keeps
  // re-asking about its hot working set, as real serving traffic does) —
  // the distinct-row footprint of the exact-rescore epilogue is what the
  // cold tier's RSS is proportional to.
  constexpr int64_t kDistinctPerRegion = 8;
  linalg::Matrix queries(spec.num_queries, ds.dim());
  for (int64_t q = 0; q < spec.num_queries; ++q) {
    const int region = hot[static_cast<int>(q) % kHotRegions];
    const int64_t* ids = ivf.BucketIds(region);
    const int64_t pick =
        (q / kHotRegions) %
        std::min(kDistinctPerRegion, ivf.BucketSize(region));
    std::memcpy(queries.Row(q), ds.base.Row(ids[pick]),
                static_cast<std::size_t>(ds.dim()) * sizeof(float));
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("resinfer_bench_storage_" +
        std::to_string(static_cast<long long>(::getpid()))))
          .string();
  std::filesystem::create_directories(dir);
  Check(persist::SaveIvf(IvfPath(dir), ivf), "save ivf");
  Check(persist::SaveMatrix(BasePath(dir), ds.base), "save base");
  Check(persist::SaveMatrix(QueriesPath(dir), queries), "save queries");
  Check(persist::SaveDdcOpqArtifacts(ArtifactsPath(dir), artifacts),
        "save artifacts");
  std::fprintf(stderr, "[storage] ivf file %.1f MiB, base file %.1f MiB\n",
               static_cast<double>(
                   std::filesystem::file_size(IvfPath(dir))) / (1 << 20),
               static_cast<double>(
                   std::filesystem::file_size(BasePath(dir))) / (1 << 20));

  // Cold first (cache just dropped), then warm (the cold run re-heated
  // it), then the heap baseline (backend-independent of cache state).
  DropPageCache(IvfPath(dir));
  DropPageCache(BasePath(dir));
  std::vector<PhaseResult> results;
  results.push_back(LaunchPhase(self, dir, "mmap_cold"));
  results.push_back(LaunchPhase(self, dir, "mmap_warm"));
  results.push_back(LaunchPhase(self, dir, "memory"));

  for (const PhaseResult& r : results) {
    if (r.checksum != results.front().checksum) {
      std::fprintf(stderr, "[storage] checksum mismatch: %s\n",
                   r.phase.c_str());
      std::filesystem::remove_all(dir);
      return 1;
    }
  }

  std::printf("phase,load_ms,qps,load_rss_mb,peak_rss_mb,checksum\n");
  for (const PhaseResult& r : results) {
    std::printf("%s,%.2f,%.0f,%.1f,%.1f,%016llx\n", r.phase.c_str(),
                r.load_ms, r.qps, r.load_rss_mb, r.peak_rss_mb,
                static_cast<unsigned long long>(r.checksum));
  }
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!benchutil::ApplyFlags(argc, argv)) return 2;
  std::string phase, dir;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--phase") == 0) phase = argv[i + 1];
    if (std::strcmp(argv[i], "--dir") == 0) dir = argv[i + 1];
  }
  if (!phase.empty()) return RunPhase(dir, phase);
  return RunParent("/proc/self/exe");
}
