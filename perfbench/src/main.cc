// focus_perfbench: runs one benchmark workload and prints its metrics.
//
//   focus_perfbench --workload <batch_compare|ooc_compare|serve_mixed|
//                   serve_sharded> --seed N --seconds S --trace 0|1
//                   [--workdir DIR] [--build-type T] [--rev R]
//
// Prints a metadata line ({"meta":…}: host, build, seed, sample counts,
// wrong answers) and, last, the result object
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:value}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1) the workload measured; run.py checks them against
// BENCHMARK.json and adds the units. Exits 1 when any op failed or any
// answer was wrong, 2 on bad usage.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "workload.h"

namespace focus::perfbench {
namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
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

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: focus_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--build-type T] [--rev R]\n");
  return 2;
}

int Main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a large mapped block is
  // freed, so whether later large blocks are mapped (and returned on free)
  // or carved from an arena (and kept) depends on allocation history and
  // thread timing; peak_rss_mib then moved by 0.10-0.27 of its median
  // across seeds. Fixing the threshold at glibc's default start value
  // (128 KiB) turns that adaptation off and makes the figure repeatable.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunConfig config;
  std::string build_type = "unknown";
  std::string rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--build-type") {
      build_type = value;
    } else if (flag == "--rev") {
      rev = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0.0) return Usage();

  Report report;
  if (config.workload == "batch_compare") {
    report = RunBatchCompare(config);
  } else if (config.workload == "ooc_compare") {
    report = RunOocCompare(config);
  } else if (config.workload == "serve_mixed") {
    report = RunServe(config, /*sharded=*/false);
  } else if (config.workload == "serve_sharded") {
    report = RunServe(config, /*sharded=*/true);
  } else {
    return Usage();
  }
  if (report.failed > 0 && report.correct) {
    report.Wrong(std::to_string(report.failed) + " ops failed");
  }

  std::string meta = "{\"meta\":{\"workload\":" + JsonString(config.workload);
  meta += ",\"seed\":" + std::to_string(config.seed);
  meta += ",\"seconds\":" + Number(config.seconds);
  meta += ",\"trace\":" + std::string(config.trace ? "1" : "0");
  meta += ",\"host_cpus\":" +
          std::to_string(std::thread::hardware_concurrency());
  meta += ",\"build_type\":" + JsonString(build_type);
  meta += ",\"rev\":" + JsonString(rev);
  meta += ",\"samples\":{";
  const char* sep = "";
  for (const auto& [name, count] : report.samples) {
    meta += sep + JsonString(name) + ":" + std::to_string(count);
    sep = ",";
  }
  meta += "},\"self_ms\":{";
  sep = "";
  for (const auto& [name, self] : report.self_ms) {
    meta += sep + JsonString(name) + ":{\"median\":" + Number(self.first) +
            ",\"spans\":" + std::to_string(self.second) + "}";
    sep = ",";
  }
  meta += "},\"errors\":[";
  sep = "";
  for (const std::string& error : report.errors) {
    meta += sep + JsonString(error);
    sep = ",";
  }
  meta += "]}}";
  std::printf("%s\n", meta.c_str());

  std::string result = "{\"correct\":";
  result += report.correct ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(report.attempted);
  result += ",\"failed\":" + std::to_string(report.failed);
  result += ",\"metrics\":{";
  sep = "";
  // A value that is not finite was not measured (no samples) and is left
  // out; run.py rejects a missing end-to-end metric.
  for (const auto& [name, value] :
       config.trace ? report.per_layer : report.end_to_end) {
    if (!std::isfinite(value)) continue;
    result += sep + JsonString(name) + ":" + Number(value);
    sep = ",";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace focus::perfbench

int main(int argc, char** argv) {
  return focus::perfbench::Main(argc, argv);
}
