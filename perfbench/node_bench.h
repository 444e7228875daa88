#ifndef CHRONOCACHE_PERFBENCH_NODE_BENCH_H_
#define CHRONOCACHE_PERFBENCH_NODE_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "sql/result_set.h"
#include "workloads/workload.h"

namespace chrono::perfbench {

/// Simulated WAN round trip between the node and its backend database
/// (ServerConfig::db_latency_us). Large enough that client latency is set
/// by round trips, not by host CPU noise (README.md, "Why 20 ms").
inline constexpr uint64_t kWanUs = 20'000;

/// Upper bound on concurrent client connections (each a closed loop).
inline constexpr int kMaxConnections = 4;

/// Floor on timed transactions across all connections: enough that at
/// least ten lie beyond the reported txn p99.
inline constexpr int kMinTimedTxns = 1100;

/// One benchmark workload: a transaction mix from src/workloads plus the
/// node configuration it runs against.
struct WorkloadSpec {
  const char* name;
  bool tpce;          // TPC-E when true, AuctionMark otherwise
  bool chronocache;   // false: learning and combining off (the LRU arm)
  int warmup_txns;    // untimed transactions per connection
  int timed_txns;     // timed transactions per connection
  int lockstep_statements;  // single-connection correctness pass size
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::unique_ptr<workloads::Workload> MakeWorkload(const WorkloadSpec& spec);

/// One metric the command can print: its name and unit exactly as in
/// BENCHMARK.json, and whether it belongs to the traced run.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;
};
const std::vector<MetricSpec>& Metrics();

/// Nearest-rank percentile of ascending `sorted` (q in (0, 1]).
double Percentile(const std::vector<double>& sorted, double q);
/// Samples strictly above the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);
/// The reporting rule: a percentile is reported only with at least ten
/// samples beyond it.
inline bool Reportable(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

/// Rng seed of client stream `stream` under benchmark seed `seed`. Streams
/// 0..kMaxConnections-1 are the measured connections; higher ones feed the
/// correctness and in-process passes.
uint64_t StreamSeed(uint64_t seed, int stream);
inline constexpr int kLockstepStream = 64;
inline constexpr int kInProcessStream = 128;

/// Runs `txns` transactions of stream `stream` directly against `db` and
/// returns the statements issued, in order. The stream depends only on
/// (seed, stream) and on the results `db` returns.
std::vector<std::string> StatementStream(workloads::Workload* workload,
                                         db::Database* db, uint64_t seed,
                                         int stream, int txns);

/// True when `sql` sorts its output (ORDER BY), so row order is part of
/// the result.
bool HasOrderBy(std::string_view sql);
/// Column names must match; rows must match as a sequence when `ordered`,
/// otherwise as a multiset.
bool SameResult(const sql::ResultSet& a, const sql::ResultSet& b,
                bool ordered);

/// \brief In-memory client spans of one thread, rendered as Chrome
/// trace-event JSON at exit. Ids are unique per recorder; `tid` separates
/// connections in the viewer.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;  // 0 = root
    uint64_t txn;     // transaction the span belongs to
    double start_us;
    double dur_us;
  };

  SpanRecorder(int tid, uint64_t id_base) : tid_(tid), next_id_(id_base) {}

  uint64_t NextId() { return next_id_++; }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

  /// Summed duration of spans named `name`.
  double TotalUs(std::string_view name) const;

 private:
  int tid_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// {"traceEvents":[...]} over every recorder's spans (complete "X"
/// events, µs timestamps, id/parent/txn in args).
std::string ChromeTraceJson(const std::vector<SpanRecorder>& recorders);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (required with trace).
  std::string trace_path;
};

/// Runs one workload end to end and prints the record and result lines.
/// Returns the process exit code.
int RunBenchmark(const Options& options);

}  // namespace chrono::perfbench

#endif  // CHRONOCACHE_PERFBENCH_NODE_BENCH_H_
