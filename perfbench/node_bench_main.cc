// Node benchmark: one workload of src/workloads over wire::WireClient into
// an in-process ChronoServer behind a simulated 20 ms WAN. See README.md.
//
//   node_bench --workload tpce-wan --seed 1 --seconds 30 --trace 0
//   node_bench --workload tpce-wan --seed 1 --seconds 30 --trace 1
//       --trace-out trace.json
//   node_bench --list-metrics
//
// The last stdout line is the result object; the line before it is the
// run's host and sample record.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "node_bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: node_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n"
               "       node_bench --list-metrics\n");
  return 2;
}

bool ParseInt(const char* text, long long min, long long max, long long* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using chrono::perfbench::Options;
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const auto& m : chrono::perfbench::Metrics()) {
        std::printf("%s %s %s\n", m.per_layer ? "per_layer" : "end_to_end",
                    m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseInt(value, 0, (1LL << 62), &n)) {
      options.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds" && ParseInt(value, 1, 3600, &n)) {
      options.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseInt(value, 0, 1, &n)) {
      options.trace = n == 1;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value);
      return Usage();
    }
  }
  if (options.workload.empty()) return Usage();
  if (options.trace && options.trace_path.empty()) {
    std::fprintf(stderr, "--trace 1 needs --trace-out PATH\n");
    return Usage();
  }
  return chrono::perfbench::RunBenchmark(options);
}
