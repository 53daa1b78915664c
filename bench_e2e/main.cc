// End-to-end benchmark binary (run through bench_e2e/run.py).
//
//   bench_e2e --workload <grouped-opq|serve-open|single-pca-mmap>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --trace-path <file> [--source-id <id>]
//
// Prints one JSON line: the correctness verdict, operations attempted and
// failed, every metric with its unit and quartiles, the host fingerprint
// and the configuration echo.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "simd/dispatch.h"
#include "trace.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string FirstLineValue(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      std::size_t begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "unknown";
}

std::string ReadWord(const char* path) {
  std::ifstream in(path);
  std::string word;
  return (in >> word) ? word : "unknown";
}

void PrintReport(const e2e::Report& report, const e2e::Options& opt,
                 const std::string& source_id) {
  std::ostringstream out;
  out << "{\"correct\":" << (report.correct ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
        << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit)
        << ",\"q1\":" << JsonNumber(m.q1) << ",\"q3\":" << JsonNumber(m.q3)
        << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  out << "},\"host\":{\"cpu\":"
      << JsonString(FirstLineValue("/proc/cpuinfo", "model name"))
      << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"l3\":"
      << JsonString(ReadWord("/sys/devices/system/cpu/cpu0/cache/index3/size"))
      << ",\"simd\":"
      << JsonString(resinfer::simd::SimdLevelName(
             resinfer::simd::ActiveLevel()))
      << ",\"compiler\":" << JsonString(__VERSION__)
      << ",\"source\":" << JsonString(source_id) << "},\"config\":{";
  out << "\"workload\":" << JsonString(opt.workload)
      << ",\"seed\":" << opt.seed << ",\"seconds\":" << JsonNumber(opt.seconds)
      << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"k\":" << e2e::kTopK
      << ",\"nprobe\":" << e2e::kNprobe
      << ",\"setup_reps\":" << e2e::kSetupReps
      << ",\"gt_queries\":" << e2e::kGtQueries;
  for (const auto& [key, value] : report.config) {
    out << "," << JsonString(key) << ":" << JsonString(value);
  }
  out << "},\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out << (i ? "," : "") << JsonString(report.errors[i]);
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> --trace-path <file> "
               "[--source-id <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::StartTickCalibration();
  e2e::Options opt;
  std::string source_id = "unknown";
  std::string serve_dir;
  bool load_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--load-only") {
      load_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-path") {
      opt.trace_path = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--serve-mmap") {
      serve_dir = value;
    } else {
      return Usage();
    }
  }
  if (!serve_dir.empty()) {
    return e2e::ServeMappedChild(serve_dir, opt.seconds, opt.trace, load_only,
                                 opt.trace_path);
  }
  if (opt.work_dir.empty() || opt.seconds <= 0.0 ||
      (opt.trace && opt.trace_path.empty())) {
    return Usage();
  }
  std::filesystem::create_directories(opt.work_dir);

  e2e::SpanLog log(0);
  e2e::Report report;
  if (opt.workload == "grouped-opq") {
    report = e2e::RunGroupedOpq(opt, &log);
  } else if (opt.workload == "serve-open") {
    report = e2e::RunServeOpen(opt, &log);
  } else if (opt.workload == "single-pca-mmap") {
    report = e2e::RunSinglePcaMmap(opt, &log, "/proc/self/exe");
  } else {
    return Usage();
  }
  if (report.failed > 0) report.Fail("answers differ from IvfIndex::Search");
  PrintReport(report, opt, source_id);
  return report.correct ? 0 : 1;
}
