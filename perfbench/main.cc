// Benchmark entry point: runs one workload and prints its result as the last line
// of stdout (see perfbench/README.md).
//
//   perfbench --workload serve_small|synth_bulk|fit_silos --seed N
//             --seconds S --trace 0|1 --out-dir DIR [--git-sha SHA]
//
// Exit status: 0 when every check passed, 1 when a check or an operation
// failed (the result line is still printed), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown workload '" + config.workload + "'");
  if (config.out_dir.empty()) return Usage("--out-dir is required");
  std::filesystem::create_directories(config.out_dir);

  std::string fingerprint = perfbench::FingerprintJson();
  if (!git_sha.empty()) {
    fingerprint.insert(fingerprint.size() - 1, ", \"git_sha\": \"" + git_sha + "\"");
  }
  std::cout << "fingerprint " << fingerprint << std::endl;

  perfbench::Tracer tracer(config.trace);
  perfbench::Report report;
  perfbench::RunWorkload(config, &tracer, &report);

  if (config.trace) {
    const std::string path =
        (std::filesystem::path(config.out_dir) /
         ("trace_" + config.workload + ".json"))
            .string();
    std::ofstream(path) << tracer.ChromeJson();
    std::cerr << "spans written to " << path << "\n";
  }
  // Checkpoints are set-up scratch; the span file stays.
  for (const auto& entry :
       std::filesystem::directory_iterator(config.out_dir)) {
    if (entry.path().extension() == ".ckpt") {
      std::filesystem::remove(entry.path());
    }
  }
  std::cout << report.Json() << std::endl;
  return report.correct() ? 0 : 1;
}
