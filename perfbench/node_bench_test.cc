// The benchmark's own checks: the percentile rule, seeded stream
// determinism, result comparison and the trace JSON. Run with ctest in the
// benchmark build, or through `python3 perfbench/test_run.py`.

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "node_bench.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void PercentileRule() {
  using chrono::perfbench::Percentile;
  using chrono::perfbench::Reportable;
  using chrono::perfbench::SamplesBeyond;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Check(Percentile(v, 0.5) == 500, "p50 of 1..1000 is 500");
  Check(Percentile(v, 0.99) == 990, "p99 of 1..1000 is 990");
  Check(SamplesBeyond(1000, 0.99) == 10, "ten samples beyond p99 of 1000");
  Check(Reportable(1000, 0.99), "p99 reportable at 1000 samples");
  Check(!Reportable(999, 0.99), "p99 not reportable at 999 samples");
  Check(Reportable(20, 0.5), "p50 reportable at 20 samples");
  Check(!Reportable(19, 0.5), "p50 not reportable at 19 samples");
  Check(SamplesBeyond(0, 0.99) == 0, "no samples, none beyond");
  Check(Percentile({}, 0.5) == 0, "empty percentile is 0");
}

void StreamDeterminism() {
  using chrono::perfbench::FindWorkload;
  using chrono::perfbench::MakeWorkload;
  using chrono::perfbench::StatementStream;
  for (const char* name : {"tpce-wan", "auction-wan"}) {
    auto workload = MakeWorkload(*FindWorkload(name));
    auto stream = [&](uint64_t seed, int conn) {
      chrono::db::Database db;
      workload->Populate(&db);
      return StatementStream(workload.get(), &db, seed, conn, 25);
    };
    std::vector<std::string> a = stream(7, 0);
    Check(!a.empty(), "stream is not empty");
    Check(a == stream(7, 0), "same seed and connection, same stream");
    Check(a != stream(8, 0), "different seed, different stream");
    Check(a != stream(7, 1), "different connection, different stream");
  }
}

void ResultComparison() {
  using chrono::perfbench::HasOrderBy;
  using chrono::perfbench::SameResult;
  using chrono::sql::ResultSet;
  using chrono::sql::Value;
  ResultSet a({"x"});
  a.AddRow({Value::Int(1)});
  a.AddRow({Value::Int(2)});
  ResultSet b({"x"});
  b.AddRow({Value::Int(2)});
  b.AddRow({Value::Int(1)});
  Check(SameResult(a, b, false), "row order ignored without ORDER BY");
  Check(!SameResult(a, b, true), "row order compared with ORDER BY");
  ResultSet c({"y"});
  c.AddRow({Value::Int(1)});
  c.AddRow({Value::Int(2)});
  Check(!SameResult(a, c, false), "column names compared");
  Check(HasOrderBy("select a from t order by a"), "lower-case ORDER BY");
  Check(HasOrderBy("SELECT a FROM t ORDER BY a DESC LIMIT 5"), "ORDER BY");
  Check(!HasOrderBy("SELECT a FROM t WHERE b = 1"), "no ORDER BY");
}

void TraceJson() {
  using chrono::perfbench::ChromeTraceJson;
  using chrono::perfbench::SpanRecorder;
  std::vector<SpanRecorder> recorders;
  for (int tid = 1; tid <= 2; ++tid) {
    SpanRecorder rec(tid, static_cast<uint64_t>(tid) << 40);
    uint64_t txn = rec.NextId();
    rec.Add({"generate", rec.NextId(), txn, txn, 0.5, 1.25});
    rec.Add({"statement", rec.NextId(), txn, txn, 1.75, 20000.0});
    rec.Add({"txn", txn, 0, txn, 0.0, 20002.5});
    Check(rec.TotalUs("statement") == 20000.0, "span totals by name");
    recorders.push_back(rec);
  }
  std::string json = ChromeTraceJson(recorders);
  Check(chrono::ValidateJson(json).ok(), "trace JSON parses");
  Check(json.find("\"ph\":\"X\"") != std::string::npos, "complete events");
  Check(chrono::ValidateJson(ChromeTraceJson({})).ok(), "empty trace parses");
}

void MetricTable() {
  using chrono::perfbench::Metrics;
  size_t end_to_end = 0;
  for (const auto& m : Metrics()) end_to_end += m.per_layer ? 0 : 1;
  Check(end_to_end == 11, "eleven end-to-end metrics");
  for (size_t i = 0; i < Metrics().size(); ++i) {
    for (size_t j = i + 1; j < Metrics().size(); ++j) {
      Check(std::string(Metrics()[i].name) != Metrics()[j].name,
            "metric names unique");
    }
  }
}

}  // namespace

int main() {
  PercentileRule();
  StreamDeterminism();
  ResultComparison();
  TraceJson();
  MetricTable();
  if (failures == 0) std::printf("node_bench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
