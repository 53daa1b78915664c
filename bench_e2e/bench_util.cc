#include "bench_util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "data/metrics.h"
#include "data/synthetic.h"

namespace e2e {

using resinfer::index::ComputerStats;
using resinfer::index::Neighbor;

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  Metric m;
  m.value = value;
  m.unit = unit;
  m.q1 = value;
  m.q3 = value;
  metrics[name] = m;
}

void Report::SetMedian(const std::string& name, std::vector<double> samples,
                       const std::string& unit) {
  Metric m;
  m.unit = unit;
  m.samples = static_cast<int64_t>(samples.size());
  m.value = Quantile(samples, 0.5);
  m.q1 = Quantile(samples, 0.25);
  m.q3 = Quantile(samples, 0.75);
  metrics[name] = m;
}

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void Report::Echo(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  config[key] = buf;
}

double Quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

bool SameAnswer(const std::vector<Neighbor>& a,
                const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (std::memcmp(&a[i].distance, &b[i].distance, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t AnswerHash(const std::vector<Neighbor>& answer) {
  uint64_t h = 0xcbf29ce484222325ull ^ answer.size();
  for (const Neighbor& nb : answer) {
    uint32_t bits = 0;
    std::memcpy(&bits, &nb.distance, sizeof(bits));
    h = (h ^ static_cast<uint64_t>(nb.id)) * 0x100000001b3ull;
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

bool SameStats(const ComputerStats& a, const ComputerStats& b) {
  return a.candidates == b.candidates && a.pruned == b.pruned &&
         a.dims_scanned == b.dims_scanned &&
         a.exact_computations == b.exact_computations;
}

resinfer::linalg::Matrix HeadRows(const resinfer::linalg::Matrix& m,
                                  int64_t count) {
  count = std::min(count, m.rows());
  resinfer::linalg::Matrix out(count, m.cols());
  std::memcpy(out.Row(0), m.Row(0),
              static_cast<std::size_t>(count * m.cols()) * sizeof(float));
  return out;
}

double RecallOf(const std::vector<std::vector<Neighbor>>& answers,
                const std::vector<std::vector<int64_t>>& truth) {
  std::vector<std::vector<int64_t>> ids;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    std::vector<int64_t> row;
    for (const Neighbor& nb : answers[q]) row.push_back(nb.id);
    ids.push_back(std::move(row));
  }
  return resinfer::data::MeanRecallAtK(ids, truth, kTopK);
}

resinfer::data::Dataset MakeInputs(int64_t num_base, int64_t num_queries,
                                   int64_t num_train, uint64_t seed) {
  resinfer::data::SyntheticSpec spec = resinfer::data::SiftProxySpec();
  spec.dim = kDim;
  spec.num_base = num_base;
  spec.num_queries = 0;
  spec.num_train_queries = num_train;
  spec.seed = kCorpusSeed;
  resinfer::data::Dataset inputs = resinfer::data::GenerateSynthetic(spec);
  // In-distribution queries (no shift) drawn from the seed.
  inputs.queries = resinfer::data::GenerateOutOfDistributionQueries(
      spec, num_queries, /*shift_scale=*/0.0, seed);
  return inputs;
}

std::vector<std::vector<Neighbor>> PerQueryReference(
    const resinfer::index::IvfIndex& ivf,
    resinfer::index::DistanceComputer& computer,
    const resinfer::linalg::Matrix& queries) {
  std::vector<std::vector<Neighbor>> out(
      static_cast<std::size_t>(queries.rows()));
  for (int64_t q = 0; q < queries.rows(); ++q) {
    out[static_cast<std::size_t>(q)] =
        ivf.Search(computer, queries.Row(q), kTopK, kNprobe);
  }
  return out;
}

void ReportComputerCounts(const ComputerStats& stats, int64_t queries,
                          int64_t record_stride, int64_t row_bytes,
                          Report* report) {
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  report->Set("core.candidates_per_query", stats.candidates / n, "count");
  report->Set("core.pruned_frac", stats.PrunedRate(), "ratio");
  report->Set("core.exact_per_query", stats.exact_computations / n, "count");
  report->Set("core.dims_scanned_frac", stats.ScanRate(kDim), "ratio");
  report->Set("core.bytes_per_query",
              (static_cast<double>(stats.candidates) * record_stride +
               static_cast<double>(stats.exact_computations) * row_bytes) /
                  n,
              "B");
}

void ReportCoreTimes(const CoreTotals& totals, const ComputerStats& stats,
                     int64_t queries, Report* report) {
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  const double estimate_s = TicksToSeconds(totals.estimate_ticks);
  report->Set("core.state_us_per_query",
              TicksToSeconds(totals.state_ticks) * 1e6 / n, "us");
  report->Set("core.estimate_us_per_query", estimate_s * 1e6 / n, "us");
  report->Set("core.ns_per_candidate",
              stats.candidates > 0 ? estimate_s * 1e9 / stats.candidates
                                   : 0.0,
              "ns");
  report->Set("index.estimate_calls_per_query", totals.estimate_calls / n,
              "count");
  report->Set("index.members_per_stream",
              totals.streams > 0 ? static_cast<double>(totals.member_scans) /
                                       static_cast<double>(totals.streams)
                                 : 1.0,
              "ratio");
}

void CheckStages(double stage_sum_s, double wall_s,
                 const std::vector<double>& parts_s, Report* report) {
  const double err =
      wall_s > 0.0 ? std::fabs(stage_sum_s - wall_s) / wall_s * 100.0 : 100.0;
  report->Set("trace.stage_sum_err_pct", err, "%");
  if (err > 5.0) report->Fail("layer self times miss the wall by over 5%");
  for (double part : parts_s) {
    if (part < -0.01 * wall_s) {
      report->Fail("a layer's self time is negative");
    }
  }
}

void ZeroLayerMetrics(Report* report) {
  static const char* const kLayerMetrics[][2] = {
      {"index.build_s", "s"},
      {"index.self_us_per_query", "us"},
      {"index.members_per_stream", "ratio"},
      {"index.estimate_calls_per_query", "count"},
      {"quant.rank_us_per_query", "us"},
      {"core.train_s", "s"},
      {"core.state_us_per_query", "us"},
      {"core.estimate_us_per_query", "us"},
      {"core.ns_per_candidate", "ns"},
      {"core.candidates_per_query", "count"},
      {"core.pruned_frac", "ratio"},
      {"core.exact_per_query", "count"},
      {"core.dims_scanned_frac", "ratio"},
      {"core.bytes_per_query", "B"},
      {"serve.submit_us.p50", "us"},
      {"serve.submit_us.p99", "us"},
      {"serve.wait_ms.p50", "ms"},
      {"serve.wait_ms.p99", "ms"},
      {"serve.occupancy", "count"},
      {"serve.linger_flush_frac", "ratio"},
      {"serve.worker_busy_frac", "ratio"},
      {"serve.stolen", "count"},
      {"serve.gen_late_ms.p99", "ms"},
      {"serve.burst_qps", "1/s"},
      {"persist.save_s", "s"},
      {"persist.load_s", "s"},
      {"persist.file_mib", "MiB"},
      {"storage.minor_faults_per_query", "count"},
      {"storage.major_faults", "count"},
      {"storage.mapped_resident_mib", "MiB"},
      {"trace.overhead_pct", "%"},
      {"trace.stage_sum_err_pct", "%"},
  };
  for (const auto& m : kLayerMetrics) report->Set(m[0], 0.0, m[1]);
}

namespace {

// Value of a "Key:   123 kB" line of /proc/self/status, in MiB.
double StatusMib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMib() { return StatusMib("VmHWM:"); }

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

Faults ProcessFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  Faults f;
  f.minor = usage.ru_minflt;
  f.major = usage.ru_majflt;
  return f;
}

double MappingResidentMib(const void* addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  const uintptr_t target = reinterpret_cast<uintptr_t>(addr);
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2) {
      inside = lo <= target && target < hi;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      return std::strtod(line.c_str() + 4, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                int64_t dropped) {
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start);
  }
  std::ofstream out(path);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"thread\":" << s.thread
          << ",\"start_us\":" << TicksToSeconds(s.start - origin) * 1e6
          << ",\"end_us\":" << TicksToSeconds(s.end - origin) * 1e6
          << ",\"busy_us\":" << TicksToSeconds(s.busy) * 1e6
          << ",\"calls\":" << s.calls << "}\n";
    }
    dropped += log->dropped();
  }
  // Totals never depend on stored spans; the count says what the file
  // leaves out.
  out << "{\"dropped_spans\":" << dropped << "}\n";
}

}  // namespace e2e
