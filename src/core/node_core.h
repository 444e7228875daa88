#ifndef CHRONOCACHE_CORE_NODE_CORE_H_
#define CHRONOCACHE_CORE_NODE_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/lru_map.h"
#include "common/result.h"
#include "common/stats.h"
#include "core/dependency_manager.h"
#include "core/loop_detector.h"
#include "core/param_mapper.h"
#include "core/result_splitter.h"
#include "core/session.h"
#include "core/template_registry.h"
#include "core/transition_graph.h"
#include "db/executor.h"
#include "obs/contention.h"
#include "obs/journal.h"
#include "runtime/sharded_cache.h"
#include "sql/template.h"

namespace chrono::core {

/// \brief The decisions one ChronoCache node (Fig. 2) makes the same way on
/// either clock: memoized query analysis, the per-session learned models
/// and plan building, the §5.2 version vectors, and the result cache with
/// its entry policy (keys, install tags, security + version checks,
/// lifecycle journaling). Two drivers own everything else: core::Middleware
/// runs the core from the simulator's event queue in virtual µs, and
/// runtime::ChronoServer from a thread pool in wall-clock µs. Calls that
/// read the clock take the caller's `now_us`.
///
/// Every method is safe to call concurrently. Locks (DESIGN.md §8): the
/// template cache, the registry, the session table and the version vectors
/// are node-level locks taken one at a time, with one sanctioned nesting —
/// the registry's reader side held across learn/combine while the session
/// lock is taken inside it. Cache-shard locks are leaves; the eviction
/// journal runs under them and only records journal events.
class NodeCore {
 public:
  struct Options {
    size_t template_cache_entries = 512;  // memoized AnalyzeQuery results
    SimTime delta_t = 200'000;            // Δt window, in the caller's µs
    GraphExtractor::Options extractor;
    int min_validations = 2;
    size_t extract_every = 4;             // model-mining cadence
    bool enable_subsumption = true;
    size_t cache_bytes = 64ull << 20;
    size_t cache_shards = 1;              // 1 = one exact LRU
    bool share_across_clients = true;     // false: per-client cache keys
    bool multi_node = false;              // §5.2 multi-node rule + node keys
    int node_id = 0;
    /// Journal events carry the caller's now_us (virtual time) instead of
    /// the journal's own wall clock.
    bool journal_virtual_time = false;
    /// Read only by the eviction journal, which fires inside cache calls.
    std::function<uint64_t()> clock;
    /// Lock-site source for the core's locks (null: untimed locks).
    obs::ContentionRegistry* contention = nullptr;
  };

  /// One client's learned models (§3), guarded by `mutex` (NodeCore takes
  /// it; a single-threaded driver may read the members directly).
  struct Session {
    Session(const Options& options, obs::LockSite* lock_site);

    obs::TimedMutex mutex;
    TransitionGraph transitions;
    ParamMapper mapper;
    DependencyManager manager;
    std::map<TemplateId, std::vector<sql::Value>> latest_params;
    uint64_t observations = 0;
  };

  /// A combined plan built from one ready graph, with its journal id.
  struct Plan {
    std::shared_ptr<const CombinedQuery> query;
    uint64_t id = 0;
  };

  enum class LookupStatus { kMiss, kHit, kGroupRejected, kVersionRejected };

  /// A cache lookup's verdict. `entry` holds the hit, or the entry that
  /// failed the version check (the runtime's stale-serve candidate).
  struct LookupResult {
    LookupStatus status = LookupStatus::kMiss;
    std::optional<cache::CachedResult> entry;

    bool hit() const { return status == LookupStatus::kHit; }
    bool rejected() const {
      return status == LookupStatus::kGroupRejected ||
             status == LookupStatus::kVersionRejected;
    }
  };

  explicit NodeCore(Options options);

  /// Attaches the lifecycle journal (non-owning; null detaches) and the
  /// eviction journal on the cache. Call before serving starts.
  void AttachJournal(obs::EventJournal* journal);
  /// Records one event under the options' timestamp rule (no journal: no-op).
  void Journal(obs::JournalEvent event, uint64_t now_us) const;

  // ---- Analysis ---------------------------------------------------------

  /// AnalyzeQuery through the memoizing template cache; a new template is
  /// registered in the shared registry.
  Result<sql::ParsedQuery> Analyze(const std::string& sql);
  /// Registered template or nullptr; templates are immutable and never
  /// unregistered, so the pointer stays valid for the core's lifetime.
  const sql::QueryTemplate* FindTemplate(TemplateId id) const;
  const CacheCounters& template_cache_counters() const {
    return template_cache_.counters();
  }
  uint64_t template_cache_evictions() const;
  size_t template_cache_size() const;

  // ---- Per-session models -----------------------------------------------

  /// The client's session, created on first use (stable address).
  Session* SessionFor(ClientId client);
  size_t session_count() const;

  /// Records one read arrival in the session's models, mines graphs on the
  /// extraction cadence and returns copies of the graphs that became ready.
  std::vector<DependencyGraph> Learn(Session* session,
                                     const sql::ParsedQuery& parsed,
                                     uint64_t now_us);
  /// Builds the combined plan for `graph` from the session's latest
  /// parameters, takes a plan id and journals kPlanMined with `trigger`
  /// (the template whose arrival made the graph ready). Error if the
  /// graph cannot be combined.
  Result<Plan> Combine(Session* session, const DependencyGraph& graph,
                       TemplateId trigger, uint64_t now_us);
  /// Journals a combined plan's response (kCombinedFetched).
  void JournalFetched(const Plan& plan, ClientId client,
                      const Result<db::ExecOutcome>& outcome,
                      uint64_t round_us, uint64_t now_us) const;
  /// Splits a combined plan's rows into per-query slices (§4.1.1), installs
  /// each tagged with the plan, and syncs the client that fired it to the
  /// database (it observed fresh state). A non-null `learner` session also
  /// observes every slice's rows and parameters. Returns the slices.
  Result<std::vector<SplitEntry>> InstallSplit(
      ClientId client, int security_group, const Plan& plan,
      const sql::ResultSet& rows, uint64_t now_us, Session* learner = nullptr);
  /// Feeds a served result to the session's parameter mapper.
  void ObserveResult(Session* session, TemplateId tmpl,
                     const sql::ResultSet& result);
  /// Algorithm 1 line 7 (split_mark_text_avail): a prefetched slice's
  /// text arrived; returns the graphs it made ready (none if the template
  /// is irrelevant to the session's graphs).
  std::vector<DependencyGraph> MarkSplitAvail(
      Session* session, TemplateId tmpl,
      const std::vector<sql::Value>& params);
  /// §5.1: true if every result `graph` would prefetch is already cached
  /// and usable by this client.
  bool PredictionsCached(ClientId client, Session* session, int security_group,
                         const DependencyGraph& graph);

  /// Dependency-graph count across sessions (learning progress probe).
  size_t TotalGraphs() const;

  // ---- §5.2 versions ----------------------------------------------------

  void OnRemoteAccess();
  void OnClientWrite(ClientId client, const std::vector<std::string>& writes);
  /// A fresh database read: Vc = Vd.
  void SyncClientToDb(ClientId client);
  /// Vd restricted to the template's read set.
  cache::VersionVector SnapshotVersions(TemplateId tmpl);
  /// CanUse + AbsorbResult under one lock; false leaves Vc untouched.
  bool AbsorbIfUsable(ClientId client, const cache::VersionVector& version);

  // ---- Result cache -----------------------------------------------------

  /// Shared (`text`), per-client (`c<id>#text`) and multi-node
  /// (`n<node>#text`) forms; the two prefixes compose.
  std::string CacheKey(ClientId client, const std::string& bound_text) const;
  /// Installs `result` tagged with the read-set version snapshot, the
  /// security group, node, plan, edge source, template and install time;
  /// journals kEntryInstalled for a prefetched entry (`plan` != 0).
  void Install(ClientId client, int security_group, TemplateId tmpl,
               const std::string& bound_text,
               std::shared_ptr<const sql::ResultSet> result, uint64_t now_us,
               uint64_t plan = 0, uint64_t src = 0);
  /// Security check, then version check; a usable entry's versions are
  /// absorbed into the client's session and its first use is journaled
  /// (kEntryUsed). A prefetched entry that fails the version check is
  /// invalidated (journaled kEntryInvalidated) unless `keep_rejected`.
  LookupResult Lookup(ClientId client, int security_group,
                      const std::string& bound_text, uint64_t now_us,
                      bool keep_rejected = false);
  /// Presence only: no recency, accounting or session checks.
  bool Contains(ClientId client, const std::string& bound_text) const;

  const runtime::ShardedCache& cache() const { return cache_; }

 private:
  Options options_;
  GraphExtractor extractor_;  // stateless after construction

  mutable obs::TimedMutex template_mutex_;
  cache::LruMap<std::string, sql::ParsedQuery> template_cache_;

  mutable obs::TimedSharedMutex registry_mutex_;
  TemplateRegistry registry_;

  mutable obs::TimedMutex versions_mutex_;
  SessionManager versions_;

  mutable obs::TimedMutex sessions_mutex_;
  /// Resolved once at construction: SessionFor creates sessions while
  /// holding sessions_mutex_, and asking the contention registry for a
  /// site there would nest its mutex inside ours.
  obs::LockSite* session_site_ = nullptr;
  std::unordered_map<ClientId, std::unique_ptr<Session>> sessions_;

  runtime::ShardedCache cache_;

  std::atomic<uint64_t> next_plan_id_{1};
  obs::EventJournal* journal_ = nullptr;  // null until attached
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_NODE_CORE_H_
