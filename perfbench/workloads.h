// The three workloads of the repository benchmark. Each runs against the
// public API of src/ and reports into a Report: end-to-end metrics on an
// untraced run, per-layer metrics on a traced one.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // checkpoints, span file and result copy
};

const std::vector<std::string>& WorkloadNames();

/// Runs `config.workload`; spans (traced runs only) land in `tracer`.
void RunWorkload(const RunConfig& config, Tracer* tracer, Report* report);

/// Machine fingerprint as a one-line JSON object: nproc, NumThreads(),
/// GemmUsesSimd(), compiler, build type.
std::string FingerprintJson();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
