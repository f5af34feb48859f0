// The serving benchmark binary: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints a provenance line, a human-readable report, and last a line
// `RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}` that
// carries every metric the run measured. perfbench/run.py builds this
// binary and turns that line into the benchmark's result.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common.h"
#include "nn/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintProvenance() {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf(
      "PROVENANCE {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"simd_backend\": \"%s\"}\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
      JsonEscape(std::string("gcc ") + __VERSION__).c_str(),
      JsonEscape(build_type).c_str(),
      openbg::nn::simd::Active().name);
  if (build_type != "Release") {
    std::printf("WARNING: non-Release build (%s): timings are not "
                "comparable\n", build_type.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <net_mixed_open|topk_uncached|"
               "live_rw_zipf|sharded_neighbors> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      args.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      args.seconds = std::atof(v);
    } else if (std::strcmp(k, "--trace") == 0) {
      args.trace = std::atoi(v) != 0;
    } else if (std::strcmp(k, "--work-dir") == 0) {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return Usage();

  int (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "net_mixed_open") run = RunNetMixedOpen;
  if (args.workload == "topk_uncached") run = RunTopkUncached;
  if (args.workload == "live_rw_zipf") run = RunLiveRwZipf;
  if (args.workload == "sharded_neighbors") run = RunShardedNeighbors;
  if (run == nullptr) return Usage();

  PrintProvenance();
  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);
  Report rep;
  int rc = run(args, &rep);
  if (rc != 0) return rc;
  rep.Print(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
