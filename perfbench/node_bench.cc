#include "node_bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <optional>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "obs/audit.h"
#include "obs/build_info.h"
#include "obs/journal.h"
#include "runtime/server.h"
#include "runtime/sharded_cache.h"
#include "sql/template.h"
#include "wire/protocol.h"
#include "wire/wire_client.h"
#include "wire/wire_server.h"
#include "workloads/auctionmark.h"
#include "workloads/tpce.h"

namespace chrono::perfbench {

// ---- Tables ---------------------------------------------------------------

const std::vector<WorkloadSpec>& Workloads() {
  // timed_txns is per connection per ten seconds of --seconds, sized on a
  // 4-vCPU host at the 20 ms WAN; RunBenchmark never runs fewer than
  // kMinTimedTxns in total, which sets tpce-lru's length. auction-wan is
  // not in BENCHMARK.json: its txn p99 sits on a cliff between predicted
  // and fallen-back CloseAuctions loops and flips run to run (README.md).
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"tpce-wan", /*tpce=*/true, /*chronocache=*/true,
       /*warmup_txns=*/40, /*timed_txns=*/300, /*lockstep_statements=*/400},
      {"tpce-lru", /*tpce=*/true, /*chronocache=*/false,
       /*warmup_txns=*/20, /*timed_txns=*/65, /*lockstep_statements=*/250},
      {"auction-wan", /*tpce=*/false, /*chronocache=*/true,
       /*warmup_txns=*/60, /*timed_txns=*/300, /*lockstep_statements=*/400},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<workloads::Workload> MakeWorkload(const WorkloadSpec& spec) {
  if (spec.tpce) return std::make_unique<workloads::TpceWorkload>();
  return std::make_unique<workloads::AuctionMarkWorkload>();
}

const std::vector<MetricSpec>& Metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // End to end (timed phase, spans off).
      {"throughput_qps", "1/s", false},
      {"query_mean_ms", "ms", false},
      {"query_p50_ms", "ms", false},
      {"query_p99_ms", "ms", false},
      {"txn_p50_ms", "ms", false},
      {"txn_p99_ms", "ms", false},
      {"remote_calls_per_query", "calls/query", false},
      {"cpu_us_per_query", "us", false},
      {"peak_rss_mb", "MB", false},
      {"ok_share", "ratio", false},
      {"setup_s", "s", false},
      // Per layer (traced run).
      {"client.next_us", "us", true},
      {"wire.codec_us_per_query", "us", true},
      {"wire.bytes_per_query", "bytes", true},
      {"wire.hop_us_p50", "us", true},
      {"sql.analyze_us", "us", true},
      {"sql.template_hit_rate", "ratio", true},
      {"cache.hit_rate", "ratio", true},
      {"cache.reject_share", "ratio", true},
      {"cache.evictions_per_query", "count/query", true},
      {"cache.used_mb", "MB", true},
      {"cache.get_us", "us", true},
      {"cache.put_us", "us", true},
      {"core.combined_per_query", "count/query", true},
      {"core.prefetch_precision", "ratio", true},
      {"core.prefetched_hit_share", "ratio", true},
      {"core.fallbacks_per_query", "count/query", true},
      {"core.wasted_kb_per_query", "KB", true},
      {"runtime.execute_us_p50", "us", true},
      {"runtime.execute_us_p99", "us", true},
      {"runtime.coalesced_per_miss", "count/miss", true},
      {"runtime.prefetch_dropped_per_query", "count/query", true},
      {"db.execute_us", "us", true},
      {"db.plain_per_query", "count/query", true},
      {"db.writes_per_query", "count/query", true},
      {"net.wan_share", "ratio", true},
      {"net.retries_per_query", "count/query", true},
      {"net.timeouts_per_query", "count/query", true},
      {"net.breaker_rejects", "count", true},
      {"obs.journal_dropped", "count", true},
      {"obs.trace_overhead_pct", "%", true},
      {"trace.coverage", "ratio", true},
  };
  return kMetrics;
}

// ---- Statistics and streams -----------------------------------------------

namespace {

/// 1-based nearest rank of the q-percentile among n samples.
size_t NearestRank(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

uint64_t StreamSeed(uint64_t seed, int stream) {
  return SplitMix64(SplitMix64(seed) ^
                    (0x5bd1e995ULL * static_cast<uint64_t>(stream + 1)));
}

std::vector<std::string> StatementStream(workloads::Workload* workload,
                                         db::Database* db, uint64_t seed,
                                         int stream, int txns) {
  Rng rng(StreamSeed(seed, stream));
  std::vector<std::string> out;
  for (int t = 0; t < txns; ++t) {
    std::unique_ptr<workloads::TransactionProgram> program =
        workload->NextTransaction(&rng);
    sql::ResultSet last;
    const sql::ResultSet* prev = nullptr;
    while (std::optional<std::string> text = program->Next(prev)) {
      out.push_back(*text);
      Result<db::ExecOutcome> outcome = db->ExecuteText(*text);
      if (!outcome.ok()) break;
      last = std::move(outcome->result);
      prev = &last;
    }
  }
  return out;
}

bool HasOrderBy(std::string_view sql) {
  std::string upper(sql);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return upper.find("ORDER BY") != std::string::npos;
}

namespace {

std::vector<std::string> RenderRows(const sql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.row_count());
  for (const sql::Row& row : rs.rows()) {
    std::string line;
    for (const sql::Value& v : row) {
      line += v.ToSqlLiteral();
      line += '\x1f';
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

}  // namespace

bool SameResult(const sql::ResultSet& a, const sql::ResultSet& b,
                bool ordered) {
  if (a.columns() != b.columns() || a.row_count() != b.row_count()) {
    return false;
  }
  if (ordered) return a == b;
  std::vector<std::string> ra = RenderRows(a);
  std::vector<std::string> rb = RenderRows(b);
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  return ra == rb;
}

// ---- Spans ----------------------------------------------------------------

double SpanRecorder::TotalUs(std::string_view name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.dur_us;
  }
  return total;
}

std::string ChromeTraceJson(const std::vector<SpanRecorder>& recorders) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const SpanRecorder& rec : recorders) {
    for (const SpanRecorder::Span& s : rec.spans()) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"txn\":%llu}}",
                    first ? "" : ",", s.name, rec.tid(), s.start_us, s.dur_us,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.txn));
      out += buf;
      first = false;
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

// ---- The node and its clients ---------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

int Connections() {
  unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<int>(static_cast<int>(cores), 1, kMaxConnections);
}

/// Client ids: measured connections 1..N, the lockstep client and the
/// in-process pass use their own ranges so their sessions never mix.
constexpr uint64_t kLockstepClient = 1000;
constexpr int kSetups = 5;
/// In-process Execute calls: at least ten beyond the reported p99.
constexpr int kInProcessCalls = 1100;
constexpr int kInProcessClientBase = 2000;

/// One serving node: populated database, ChronoServer, WireServer and the
/// measured connections. Members are declared in dependency order, so
/// destruction tears the clients down first and the database last.
struct Node {
  std::unique_ptr<db::Database> db;
  std::unique_ptr<runtime::ChronoServer> server;
  std::unique_ptr<wire::WireServer> wire;
  std::vector<std::unique_ptr<wire::WireClient>> clients;

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() { Stop(); }

  /// Closes the connections, drains the frontend, then the runtime and
  /// its journal (the journal's final drain runs in Stop()).
  void Stop() {
    for (auto& client : clients) client->Close();
    clients.clear();
    if (wire != nullptr) wire->Stop();
    if (server != nullptr) {
      server->Shutdown();
      if (server->journal() != nullptr) server->journal()->Stop();
    }
  }
};

runtime::ServerConfig NodeConfig(const WorkloadSpec& spec) {
  runtime::ServerConfig config;
  config.db_latency_us = kWanUs;
  if (!spec.chronocache) {
    config.enable_learning = false;
    config.enable_combining = false;
  }
  return config;
}

/// Populate + node start + connect: the set-up a user of the node pays.
Status SetUp(const WorkloadSpec& spec, workloads::Workload* workload,
             int connections, Node* node) {
  node->db = std::make_unique<db::Database>();
  workload->Populate(node->db.get());
  node->server =
      std::make_unique<runtime::ChronoServer>(node->db.get(), NodeConfig(spec));
  node->wire = std::make_unique<wire::WireServer>(node->server.get(),
                                                  wire::WireServer::Options{});
  Status started = node->wire->Start();
  if (!started.ok()) return started;
  for (int c = 0; c < connections; ++c) {
    auto client = std::make_unique<wire::WireClient>();
    Status connected =
        client->Connect("127.0.0.1", node->wire->port(),
                        static_cast<uint64_t>(c + 1));
    if (!connected.ok()) return connected;
    node->clients.push_back(std::move(client));
  }
  return Status::OK();
}

/// One statement of the traced phase, kept for the single-threaded layer
/// replays.
struct Recorded {
  double start_us;
  std::string sql;
  sql::ResultSet result;
};

/// What one connection measured in one phase.
struct ConnResult {
  std::vector<double> stmt_ms;
  std::vector<double> txn_ms;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t transactions = 0;
  uint64_t next_calls = 0;
  double busy_s = 0;  // this connection's own start-to-finish time
  std::vector<Recorded> recorded;
  SpanRecorder spans;

  ConnResult(int tid, uint64_t id_base) : spans(tid, id_base) {}
};

/// Runs `txns` transactions of one closed-loop connection. With `trace`,
/// records txn/statement/generate spans and every statement with its
/// result; otherwise only latencies.
void RunTxns(wire::WireClient* client, workloads::Workload* workload,
             Rng* rng, int txns, bool trace, Clock::time_point epoch,
             ConnResult* out) {
  for (int t = 0; t < txns; ++t) {
    Clock::time_point txn_start = Clock::now();
    uint64_t txn_id = trace ? out->spans.NextId() : 0;
    std::unique_ptr<workloads::TransactionProgram> program =
        workload->NextTransaction(rng);
    sql::ResultSet last;
    const sql::ResultSet* prev = nullptr;
    bool txn_ok = true;
    while (true) {
      Clock::time_point g0 = Clock::now();
      std::optional<std::string> text = program->Next(prev);
      Clock::time_point g1 = Clock::now();
      if (trace) {
        out->spans.Add({"generate", out->spans.NextId(), txn_id, txn_id,
                        MicrosBetween(epoch, g0), MicrosBetween(g0, g1)});
        ++out->next_calls;
      }
      if (!text) break;
      Result<sql::ResultSet> result = client->Query(*text);
      Clock::time_point q1 = Clock::now();
      ++out->attempted;
      if (!result.ok()) {
        std::fprintf(stderr, "statement failed: %s: %s\n", text->c_str(),
                     result.status().ToString().c_str());
        txn_ok = false;
        break;
      }
      ++out->ok;
      out->stmt_ms.push_back(MicrosBetween(g1, q1) / 1000.0);
      if (trace) {
        out->spans.Add({"statement", out->spans.NextId(), txn_id, txn_id,
                        MicrosBetween(epoch, g1), MicrosBetween(g1, q1)});
        out->recorded.push_back(
            {MicrosBetween(epoch, g1), *text, result.value()});
      }
      last = std::move(result).value();
      prev = &last;
    }
    Clock::time_point txn_end = Clock::now();
    ++out->transactions;
    if (txn_ok) out->txn_ms.push_back(MicrosBetween(txn_start, txn_end) / 1000.0);
    if (trace) {
      out->spans.Add({"txn", txn_id, 0, txn_id, MicrosBetween(epoch, txn_start),
                      MicrosBetween(txn_start, txn_end)});
    }
  }
}

/// Counters of the node at one instant; phases report deltas.
struct NodeCounters {
  runtime::ServerMetrics m;
  uint64_t evictions = 0;
  uint64_t template_hits = 0;
  uint64_t template_misses = 0;
  uint64_t installed = 0;
  uint64_t used = 0;
  uint64_t wasted_bytes = 0;

  static NodeCounters Read(runtime::ChronoServer* server) {
    if (server->journal() != nullptr) server->journal()->Drain();
    NodeCounters c;
    c.m = server->metrics();
    c.evictions = server->cache().evictions();
    c.template_hits = server->template_cache_counters().hits.load();
    c.template_misses = server->template_cache_counters().misses.load();
    if (server->audit() != nullptr) {
      obs::PrefetchAudit::Snapshot snap = server->audit()->snapshot();
      c.installed = snap.TotalInstalled();
      c.used = snap.TotalUsed();
      c.wasted_bytes = snap.TotalWastedBytes();
    }
    return c;
  }
};

/// One closed-loop phase over every connection, started together.
struct Phase {
  std::vector<ConnResult> conns;
  double elapsed_s = 0;
  double cpu_s = 0;
  NodeCounters before;
  NodeCounters after;

  uint64_t Attempted() const {
    uint64_t n = 0;
    for (const ConnResult& c : conns) n += c.attempted;
    return n;
  }
  uint64_t Ok() const {
    uint64_t n = 0;
    for (const ConnResult& c : conns) n += c.ok;
    return n;
  }
  std::vector<double> Sorted(std::vector<double> ConnResult::*field) const {
    std::vector<double> all;
    for (const ConnResult& c : conns) {
      all.insert(all.end(), (c.*field).begin(), (c.*field).end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }
  /// Sum of the connections' own rates. With fixed work per connection,
  /// phase wall time would also count the tail where the last connection
  /// finishes alone, which makes short phases look slower.
  double Qps() const {
    double qps = 0;
    for (const ConnResult& c : conns) {
      if (c.busy_s > 0) qps += static_cast<double>(c.ok) / c.busy_s;
    }
    return qps;
  }
};

Phase RunPhase(Node* node, workloads::Workload* workload,
               std::vector<Rng>* rngs, int txns, bool trace,
               Clock::time_point epoch) {
  const int n = static_cast<int>(node->clients.size());
  Phase phase;
  for (int c = 0; c < n; ++c) {
    phase.conns.emplace_back(c + 1, static_cast<uint64_t>(c + 1) << 40);
  }
  phase.before = NodeCounters::Read(node->server.get());
  std::latch start(1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ConnResult& out = phase.conns[static_cast<size_t>(c)];
      start.wait();
      Clock::time_point t0 = Clock::now();
      RunTxns(node->clients[static_cast<size_t>(c)].get(), workload,
              &(*rngs)[static_cast<size_t>(c)], txns, trace, epoch, &out);
      out.busy_s = MicrosBetween(t0, Clock::now()) / 1e6;
    });
  }
  double cpu0 = ProcessCpuSeconds();
  Clock::time_point t0 = Clock::now();
  start.count_down();
  for (std::thread& t : threads) t.join();
  Clock::time_point t1 = Clock::now();
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  phase.elapsed_s = MicrosBetween(t0, t1) / 1e6;
  phase.after = NodeCounters::Read(node->server.get());
  return phase;
}

/// Single-connection correctness pass: the same statement stream runs on
/// the node (over the wire) and on an identically populated reference
/// database, in lockstep, so both see the same writes in the same order.
struct Lockstep {
  uint64_t statements = 0;
  uint64_t mismatches = 0;
  uint64_t failures = 0;
};

Lockstep RunLockstep(Node* node, db::Database* reference,
                     workloads::Workload* workload, uint64_t seed,
                     int max_statements) {
  Lockstep out;
  wire::WireClient client;
  Status connected =
      client.Connect("127.0.0.1", node->wire->port(), kLockstepClient);
  if (!connected.ok()) {
    std::fprintf(stderr, "lockstep connect: %s\n",
                 connected.ToString().c_str());
    out.failures = 1;
    return out;
  }
  Rng rng(StreamSeed(seed, kLockstepStream));
  while (out.statements < static_cast<uint64_t>(max_statements) &&
         out.failures == 0) {
    std::unique_ptr<workloads::TransactionProgram> program =
        workload->NextTransaction(&rng);
    sql::ResultSet last;
    const sql::ResultSet* prev = nullptr;
    while (std::optional<std::string> text = program->Next(prev)) {
      ++out.statements;
      Result<sql::ResultSet> got = client.Query(*text);
      Result<db::ExecOutcome> want = reference->ExecuteText(*text);
      if (!got.ok() || !want.ok()) {
        std::fprintf(stderr, "lockstep statement failed: %s: node %s, "
                     "reference %s\n", text->c_str(),
                     got.status().ToString().c_str(),
                     want.status().ToString().c_str());
        ++out.failures;
        break;
      }
      if (!SameResult(got.value(), want->result, HasOrderBy(*text))) {
        if (out.mismatches < 5) {
          std::fprintf(stderr, "lockstep mismatch: %s\nnode:\n%s\nreference:\n%s\n",
                       text->c_str(), got->ToString().c_str(),
                       want->result.ToString().c_str());
        }
        ++out.mismatches;
      }
      last = std::move(got).value();
      prev = &last;
    }
  }
  client.Close();
  return out;
}

/// Times ChronoServer::Execute in-process: `threads` sessions of their
/// own, each running transactions until it has issued `statements`.
std::vector<double> InProcessPass(runtime::ChronoServer* server,
                                  workloads::Workload* workload,
                                  uint64_t seed, int threads, int statements) {
  std::vector<std::vector<double>> per_thread(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      Rng rng(StreamSeed(seed, kInProcessStream + i));
      std::vector<double>& out = per_thread[static_cast<size_t>(i)];
      const int client = kInProcessClientBase + i;
      while (static_cast<int>(out.size()) < statements) {
        std::unique_ptr<workloads::TransactionProgram> program =
            workload->NextTransaction(&rng);
        runtime::SharedResult last;
        while (std::optional<std::string> text = program->Next(last.get())) {
          Clock::time_point t0 = Clock::now();
          Result<runtime::SharedResult> r = server->Execute(client, *text);
          out.push_back(MicrosBetween(t0, Clock::now()));
          if (!r.ok()) {
            std::fprintf(stderr, "in-process statement failed: %s: %s\n",
                         text->c_str(), r.status().ToString().c_str());
            break;
          }
          last = r.value();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  return all;
}

// ---- Output ----------------------------------------------------------------

/// Collects metric values; every name must be in Metrics(), so the command
/// cannot print a metric BENCHMARK.json does not declare.
class MetricSink {
 public:
  explicit MetricSink(bool per_layer) : per_layer_(per_layer) {}

  void Set(const char* name, double value) {
    for (const MetricSpec& spec : Metrics()) {
      if (std::string_view(name) == spec.name && spec.per_layer == per_layer_) {
        values_[spec.name] = {value, spec.unit};
        return;
      }
    }
    std::fprintf(stderr, "internal error: undeclared metric %s\n", name);
    std::abort();
  }

  /// True once every metric of this run kind has a value.
  bool Complete() const {
    for (const MetricSpec& spec : Metrics()) {
      if (spec.per_layer == per_layer_ && values_.count(spec.name) == 0) {
        std::fprintf(stderr, "internal error: metric %s not set\n", spec.name);
        return false;
      }
    }
    return true;
  }

  std::string Json() const {
    std::string out = "{";
    bool first = true;
    char buf[200];
    for (const MetricSpec& spec : Metrics()) {
      auto it = values_.find(spec.name);
      if (it == values_.end()) continue;
      std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    first ? "" : ",", spec.name,
                    std::isfinite(it->second.first) ? it->second.first : 0.0,
                    it->second.second);
      out += buf;
      first = false;
    }
    return out + "}";
  }

 private:
  bool per_layer_;
  std::map<std::string, std::pair<double, const char*>> values_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

/// [p50, p90, p95, p98, p99, max] of ascending `sorted`, for the record.
std::string Ladder(const std::vector<double>& sorted) {
  std::string out = "[";
  char buf[32];
  for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 1.0}) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", q == 0.5 ? "" : ",",
                  Percentile(sorted, q));
    out += buf;
  }
  return out + "]";
}

void PrintRecord(const WorkloadSpec& spec, const Options& options,
                 int connections, const Phase& measured,
                 const Lockstep& lockstep,
                 const std::vector<double>& setups) {
  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::vector<double> stmt = measured.Sorted(&ConnResult::stmt_ms);
  std::vector<double> txn = measured.Sorted(&ConnResult::txn_ms);
  uint64_t transactions = 0;
  for (const ConnResult& c : measured.conns) transactions += c.transactions;
  std::printf(
      "{\"record\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"nproc\":%u,\"connections\":%d,\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"git_sha\":\"%s\",\"wan_us\":%llu,"
      "\"transactions\":%llu,\"statements\":%llu,\"query_samples\":%zu,"
      "\"txn_samples\":%zu,\"query_beyond_p99\":%zu,\"txn_beyond_p99\":%zu,"
      "\"elapsed_s\":%.3f,\"setups\":%zu,\"lockstep_statements\":%llu,"
      "\"lockstep_mismatches\":%llu,\"query_ms_ladder\":%s,"
      "\"txn_ms_ladder\":%s}}\n",
      spec.name, static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, std::thread::hardware_concurrency(), connections,
      build.build_type.c_str(), "g++ " __VERSION__, build.git_sha.c_str(),
      static_cast<unsigned long long>(kWanUs),
      static_cast<unsigned long long>(transactions),
      static_cast<unsigned long long>(measured.Attempted()), stmt.size(),
      txn.size(), SamplesBeyond(stmt.size(), 0.99),
      SamplesBeyond(txn.size(), 0.99), measured.elapsed_s, setups.size(),
      static_cast<unsigned long long>(lockstep.statements),
      static_cast<unsigned long long>(lockstep.mismatches),
      Ladder(stmt).c_str(), Ladder(txn).c_str());
}

void EndToEnd(const Phase& p, double setup_s, MetricSink* sink) {
  std::vector<double> stmt = p.Sorted(&ConnResult::stmt_ms);
  std::vector<double> txn = p.Sorted(&ConnResult::txn_ms);
  double sum = 0;
  for (double v : stmt) sum += v;
  const double statements = static_cast<double>(p.Attempted());
  const runtime::ServerMetrics& a = p.after.m;
  const runtime::ServerMetrics& b = p.before.m;
  double remote = static_cast<double>((a.remote_plain - b.remote_plain) +
                                      (a.remote_combined - b.remote_combined) +
                                      (a.writes - b.writes));
  sink->Set("throughput_qps", p.Qps());
  sink->Set("query_mean_ms", Ratio(sum, static_cast<double>(stmt.size())));
  sink->Set("query_p50_ms", Percentile(stmt, 0.5));
  sink->Set("query_p99_ms", Percentile(stmt, 0.99));
  sink->Set("txn_p50_ms", Percentile(txn, 0.5));
  sink->Set("txn_p99_ms", Percentile(txn, 0.99));
  sink->Set("remote_calls_per_query", Ratio(remote, statements));
  sink->Set("cpu_us_per_query", Ratio(p.cpu_s * 1e6, statements));
  sink->Set("peak_rss_mb", PeakRssMb());
  sink->Set("ok_share", Ratio(static_cast<double>(p.Ok()), statements));
  sink->Set("setup_s", setup_s);
}

/// Per-layer numbers of the traced run: node counter deltas over the
/// traced phase, the in-process Execute pass, and single-threaded replays
/// of the phase's recorded statements through each layer's public calls.
void PerLayer(const Phase& traced,
              double untraced_qps, const std::vector<double>& execute_us,
              runtime::ChronoServer* server, workloads::Workload* workload,
              MetricSink* sink) {
  const runtime::ServerMetrics& a = traced.after.m;
  const runtime::ServerMetrics& b = traced.before.m;
  const double q = static_cast<double>(traced.Attempted());
  auto delta = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };

  std::vector<const Recorded*> recorded;
  for (const ConnResult& c : traced.conns) {
    for (const Recorded& r : c.recorded) recorded.push_back(&r);
  }
  std::sort(recorded.begin(), recorded.end(),
            [](const Recorded* x, const Recorded* y) {
              return x->start_us < y->start_us;
            });
  const double n = static_cast<double>(recorded.size());

  // workloads
  double next_us = 0, txn_us = 0, covered_us = 0;
  uint64_t next_calls = 0;
  for (const ConnResult& c : traced.conns) {
    next_us += c.spans.TotalUs("generate");
    covered_us += c.spans.TotalUs("generate") + c.spans.TotalUs("statement");
    txn_us += c.spans.TotalUs("txn");
    next_calls += c.next_calls;
  }
  sink->Set("client.next_us", Ratio(next_us, static_cast<double>(next_calls)));

  // wire: codec replay over the recorded statements and results.
  {
    double bytes = 0;
    size_t decoded = 0;
    Clock::time_point t0 = Clock::now();
    uint64_t id = 1;
    for (const Recorded* r : recorded) {
      wire::Frame frame;
      size_t consumed = 0;
      Status error;
      std::string query = wire::EncodeQuery(id, r->sql);
      wire::DecodeFrame(query.data(), query.size(), 0, &frame, &consumed,
                        &error);
      Result<wire::QueryBody> body =
          wire::DecodeQuery(frame.payload, frame.header.flags);
      std::string result = wire::EncodeResult(id, r->result);
      wire::DecodeFrame(result.data(), result.size(), 0, &frame, &consumed,
                        &error);
      Result<sql::ResultSet> rows = wire::DecodeResult(frame.payload);
      if (body.ok() && rows.ok()) ++decoded;
      bytes += static_cast<double>(query.size() + result.size());
      ++id;
    }
    double us = MicrosBetween(t0, Clock::now());
    if (decoded != recorded.size()) {
      std::fprintf(stderr, "warning: codec replay decoded %zu of %zu\n",
                   decoded, recorded.size());
    }
    sink->Set("wire.codec_us_per_query", Ratio(us, n));
    sink->Set("wire.bytes_per_query", Ratio(bytes, n));
    std::vector<double> stmt_ms = traced.Sorted(&ConnResult::stmt_ms);
    sink->Set("wire.hop_us_p50",
              Percentile(stmt_ms, 0.5) * 1000.0 - Percentile(execute_us, 0.5));
  }

  // sql
  {
    Clock::time_point t0 = Clock::now();
    size_t analyzed = 0;
    for (const Recorded* r : recorded) {
      analyzed += sql::AnalyzeQuery(r->sql).ok() ? 1 : 0;
    }
    double us = MicrosBetween(t0, Clock::now());
    if (analyzed != recorded.size()) {
      std::fprintf(stderr, "warning: analyzed %zu of %zu\n", analyzed,
                   recorded.size());
    }
    sink->Set("sql.analyze_us", Ratio(us, n));
    double th = static_cast<double>(traced.after.template_hits -
                                    traced.before.template_hits);
    double tm = static_cast<double>(traced.after.template_misses -
                                    traced.before.template_misses);
    sink->Set("sql.template_hit_rate", Ratio(th, th + tm));
  }

  // cache
  const double reads = delta(a.reads, b.reads);
  const double hits = delta(a.cache_hits, b.cache_hits);
  sink->Set("cache.hit_rate", Ratio(hits, reads));
  sink->Set("cache.reject_share", Ratio(delta(a.cache_rejects, b.cache_rejects), reads));
  sink->Set("cache.evictions_per_query",
            Ratio(delta(traced.after.evictions, traced.before.evictions), q));
  sink->Set("cache.used_mb",
            static_cast<double>(server->cache().used_bytes()) / (1 << 20));
  {
    const runtime::ServerConfig& config = server->config();
    runtime::ShardedCache cache(config.cache_bytes, config.cache_shards);
    std::vector<std::shared_ptr<const sql::ResultSet>> payloads;
    payloads.reserve(recorded.size());
    for (const Recorded* r : recorded) {
      payloads.push_back(std::make_shared<const sql::ResultSet>(r->result));
    }
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < recorded.size(); ++i) {
      cache::CachedResult entry;
      entry.SetResult(payloads[i]);
      cache.Put(recorded[i]->sql, std::move(entry));
    }
    Clock::time_point t1 = Clock::now();
    size_t found = 0;
    for (const Recorded* r : recorded) found += cache.Get(r->sql).has_value();
    Clock::time_point t2 = Clock::now();
    if (found != recorded.size()) {
      std::fprintf(stderr, "warning: cache replay found %zu of %zu\n", found,
                   recorded.size());
    }
    sink->Set("cache.put_us", Ratio(MicrosBetween(t0, t1), n));
    sink->Set("cache.get_us", Ratio(MicrosBetween(t1, t2), n));
  }

  // core
  sink->Set("core.combined_per_query",
            Ratio(delta(a.remote_combined, b.remote_combined), q));
  sink->Set("core.prefetch_precision",
            Ratio(delta(traced.after.used, traced.before.used),
                  delta(traced.after.installed, traced.before.installed)));
  sink->Set("core.prefetched_hit_share",
            Ratio(delta(a.prefetched_hits, b.prefetched_hits), hits));
  sink->Set("core.fallbacks_per_query",
            Ratio(delta(a.prediction_fallbacks, b.prediction_fallbacks), q));
  sink->Set("core.wasted_kb_per_query",
            Ratio(delta(traced.after.wasted_bytes, traced.before.wasted_bytes) /
                      1024.0,
                  q));

  // runtime
  sink->Set("runtime.execute_us_p50", Percentile(execute_us, 0.5));
  sink->Set("runtime.execute_us_p99", Percentile(execute_us, 0.99));
  sink->Set("runtime.coalesced_per_miss",
            Ratio(delta(a.backend_coalesced, b.backend_coalesced), reads - hits));
  sink->Set("runtime.prefetch_dropped_per_query",
            Ratio(delta(a.prefetches_dropped, b.prefetches_dropped), q));

  // db: replay on a fresh, identically populated copy, in start order.
  {
    db::Database fresh;
    workload->Populate(&fresh);
    Clock::time_point t0 = Clock::now();
    for (const Recorded* r : recorded) (void)fresh.ExecuteText(r->sql);
    sink->Set("db.execute_us", Ratio(MicrosBetween(t0, Clock::now()), n));
  }
  sink->Set("db.plain_per_query", Ratio(delta(a.remote_plain, b.remote_plain), q));
  sink->Set("db.writes_per_query", Ratio(delta(a.writes, b.writes), q));

  // net
  {
    double remote = delta(a.remote_plain, b.remote_plain) +
                    delta(a.remote_combined, b.remote_combined) +
                    delta(a.writes, b.writes);
    double latency_us = 0;
    for (const ConnResult& c : traced.conns) {
      for (double ms : c.stmt_ms) latency_us += ms * 1000.0;
    }
    sink->Set("net.wan_share",
              Ratio(remote * static_cast<double>(kWanUs), latency_us));
    sink->Set("net.retries_per_query",
              Ratio(delta(a.backend_retries, b.backend_retries), q));
    sink->Set("net.timeouts_per_query",
              Ratio(delta(a.backend_timeouts, b.backend_timeouts), q));
    sink->Set("net.breaker_rejects", delta(a.breaker_rejects, b.breaker_rejects));
  }

  // obs
  sink->Set("obs.trace_overhead_pct",
            (Ratio(untraced_qps, traced.Qps()) - 1.0) * 100.0);
  sink->Set("trace.coverage", Ratio(covered_us, txn_us));
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int RunBenchmark(const Options& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  std::unique_ptr<workloads::Workload> workload = MakeWorkload(*spec);
  const int connections = Connections();
  const Clock::time_point epoch = Clock::now();

  // Set up kSetups times (populate + node start + connect) and report the
  // median. All but the last node are torn down; the next-to-last one's
  // database is kept as the lockstep reference, untouched by its node
  // apart from the index warm-up.
  std::vector<double> setups;
  std::unique_ptr<db::Database> reference;
  Node node;
  for (int i = 0; i < kSetups; ++i) {
    Node scratch;
    Node* target = i == kSetups - 1 ? &node : &scratch;
    Clock::time_point t0 = Clock::now();
    Status up = SetUp(*spec, workload.get(), connections, target);
    setups.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    if (!up.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", up.ToString().c_str());
      return 1;
    }
    if (i == kSetups - 2) {
      scratch.Stop();
      scratch.wire.reset();
      scratch.server.reset();
      reference = std::move(scratch.db);
    }
  }
  const double setup_s = Median(setups);

  Lockstep lockstep = RunLockstep(&node, reference.get(), workload.get(),
                                  options.seed, spec->lockstep_statements);
  reference.reset();

  // Fixed, seeded work per connection: warm-up, then the timed phase.
  std::vector<Rng> rngs;
  for (int c = 0; c < connections; ++c) rngs.emplace_back(StreamSeed(options.seed, c));
  const int min_per_conn = (kMinTimedTxns + connections - 1) / connections;
  const int timed = std::max(min_per_conn, spec->timed_txns * options.seconds / 10);
  RunPhase(&node, workload.get(), &rngs, spec->warmup_txns, false, epoch);

  MetricSink sink(options.trace);
  Phase measured;
  if (!options.trace) {
    measured = RunPhase(&node, workload.get(), &rngs, timed, false, epoch);
    EndToEnd(measured, setup_s, &sink);
  } else {
    // Untraced quarter, traced half, untraced quarter on the same warm
    // node: the untraced/traced throughput ratio is the span overhead, with
    // drift over the run cancelled by the symmetric order. The traced half
    // feeds the layer numbers.
    Phase before =
        RunPhase(&node, workload.get(), &rngs, timed / 4, false, epoch);
    measured = RunPhase(&node, workload.get(), &rngs, timed / 2, true, epoch);
    Phase after =
        RunPhase(&node, workload.get(), &rngs, timed / 4, false, epoch);
    const double untraced_qps = (before.Qps() + after.Qps()) / 2;
    std::vector<double> execute_us =
        InProcessPass(node.server.get(), workload.get(), options.seed,
                      connections, kInProcessCalls / connections + 1);
    PerLayer(measured, untraced_qps, execute_us, node.server.get(),
             workload.get(), &sink);
  }

  node.Stop();
  obs::EventJournal* journal = node.server->journal();
  const uint64_t journal_dropped = journal->events_dropped();
  const bool journal_ok = journal->events_recorded() == journal->events_drained() &&
                          journal_dropped == 0;
  if (!journal_ok) {
    std::fprintf(stderr, "journal accounting: recorded %llu, drained %llu, "
                 "dropped %llu\n",
                 static_cast<unsigned long long>(journal->events_recorded()),
                 static_cast<unsigned long long>(journal->events_drained()),
                 static_cast<unsigned long long>(journal_dropped));
  }
  if (options.trace) {
    sink.Set("obs.journal_dropped", static_cast<double>(journal_dropped));
    std::vector<SpanRecorder> recorders;
    for (const ConnResult& c : measured.conns) recorders.push_back(c.spans);
    std::string trace = ChromeTraceJson(recorders);
    Status valid = ValidateJson(trace);
    if (!valid.ok() || !WriteFile(options.trace_path, trace)) {
      std::fprintf(stderr, "trace %s: %s\n", options.trace_path.c_str(),
                   valid.ok() ? "write failed" : valid.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", options.trace_path.c_str(),
                 trace.size());
  }

  std::vector<double> stmt = measured.Sorted(&ConnResult::stmt_ms);
  std::vector<double> txn = measured.Sorted(&ConnResult::txn_ms);
  if (!options.trace && (!Reportable(stmt.size(), 0.99) ||
                         !Reportable(txn.size(), 0.99))) {
    std::fprintf(stderr, "too few samples for p99: %zu statements, %zu txns\n",
                 stmt.size(), txn.size());
    return 1;
  }

  PrintRecord(*spec, options, connections, measured, lockstep, setups);
  const bool correct = lockstep.mismatches == 0 && lockstep.failures == 0;
  if (!sink.Complete()) return 1;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(measured.Attempted()),
              static_cast<unsigned long long>(measured.Attempted() - measured.Ok()),
              sink.Json().c_str());
  std::fflush(stdout);
  return correct && journal_ok ? 0 : 1;
}

}  // namespace chrono::perfbench
