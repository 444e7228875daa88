#include "core/node_core.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/combiner_lateral.h"

namespace chrono::core {

namespace {

obs::LockSite* SiteOf(obs::ContentionRegistry* contention, const char* name) {
  return contention == nullptr ? nullptr : contention->Site(name);
}

uint64_t Since(uint64_t now_us, uint64_t then_us) {
  return now_us > then_us ? now_us - then_us : 0;
}

}  // namespace

NodeCore::Session::Session(const Options& options, obs::LockSite* lock_site)
    : mutex(lock_site),
      transitions(options.delta_t),
      mapper(options.min_validations),
      manager(DependencyManager::Options{options.enable_subsumption}) {}

NodeCore::NodeCore(Options options)
    : options_(std::move(options)),
      extractor_(options_.extractor),
      template_mutex_(SiteOf(options_.contention, "server.template_cache")),
      template_cache_(options_.template_cache_entries),
      registry_mutex_(SiteOf(options_.contention, "server.registry.write"),
                      SiteOf(options_.contention, "server.registry.read")),
      versions_mutex_(SiteOf(options_.contention, "server.versions")),
      versions_(options_.multi_node),
      sessions_mutex_(SiteOf(options_.contention, "server.sessions")),
      session_site_(SiteOf(options_.contention, "server.session")),
      cache_(options_.cache_bytes, options_.cache_shards,
             SiteOf(options_.contention, "cache.shard")) {}

void NodeCore::Journal(obs::JournalEvent event, uint64_t now_us) const {
  if (journal_ == nullptr) return;
  if (options_.journal_virtual_time && event.ts_us == 0) {
    event.ts_us = now_us == 0 ? 1 : now_us;
  }
  journal_->Record(event);
}

void NodeCore::AttachJournal(obs::EventJournal* journal) {
  journal_ = journal;
  // Runs under the owning shard's mutex (a leaf lock); journal Record is
  // the only side effect. Only prefetch-attributed entries are journaled.
  // kErased is Lookup's staleness invalidation, which always follows a Get
  // that bumped use_count — so "served a real hit" is use_count > 1 there
  // and use_count > 0 everywhere else.
  cache_.SetEvictionCallback([this](const std::string& /*key*/,
                                    const cache::CachedResult& value,
                                    size_t bytes, cache::EvictReason reason) {
    if (journal_ == nullptr || value.prefetch_plan == 0 ||
        reason == cache::EvictReason::kCleared) {
      return;
    }
    const uint64_t now_us = options_.clock ? options_.clock() : 0;
    obs::JournalEvent event;
    event.plan = value.prefetch_plan;
    event.src = value.prefetch_src;
    event.tmpl = value.tmpl;
    event.a = bytes;
    event.b = Since(now_us, value.install_us);
    if (reason == cache::EvictReason::kErased) {
      event.type = obs::JournalEventType::kEntryInvalidated;
      event.flags = value.use_count > 1 ? obs::kJournalFlagUsed : 0;
    } else {
      event.type = obs::JournalEventType::kEntryEvicted;
      event.flags = (value.use_count > 0 ? obs::kJournalFlagUsed : 0) |
                    (reason == cache::EvictReason::kReplaced
                         ? obs::kJournalEvictReplaced
                         : obs::kJournalEvictCapacity);
    }
    Journal(event, now_us);
  });
}

Result<sql::ParsedQuery> NodeCore::Analyze(const std::string& sql) {
  // Clients resubmit the same texts constantly, so the analysis — lex,
  // parse, literal extraction, canonical render — is memoized on the raw
  // text. Entries are pure functions of the text: never invalidated.
  {
    std::lock_guard<obs::TimedMutex> lock(template_mutex_);
    if (const sql::ParsedQuery* hit = template_cache_.Get(sql)) {
      return *hit;  // copy out while the lock pins the entry
    }
  }
  // Analyze unlocked. Two threads racing on the same new text both analyze
  // and both Put — the second Put replaces an identical value.
  auto analyzed = sql::AnalyzeQuery(sql);
  if (!analyzed.ok()) return analyzed.status();
  sql::ParsedQuery parsed;
  {
    std::lock_guard<obs::TimedMutex> lock(template_mutex_);
    parsed = *template_cache_.Put(sql, std::move(*analyzed));
  }
  {
    std::unique_lock<obs::TimedSharedMutex> lock(registry_mutex_);
    registry_.Register(parsed.tmpl);
  }
  return parsed;
}

const sql::QueryTemplate* NodeCore::FindTemplate(TemplateId id) const {
  std::shared_lock<obs::TimedSharedMutex> lock(registry_mutex_);
  return registry_.Find(id);
}

uint64_t NodeCore::template_cache_evictions() const {
  std::lock_guard<obs::TimedMutex> lock(template_mutex_);
  return template_cache_.evictions();
}

size_t NodeCore::template_cache_size() const {
  std::lock_guard<obs::TimedMutex> lock(template_mutex_);
  return template_cache_.size();
}

NodeCore::Session* NodeCore::SessionFor(ClientId client) {
  std::lock_guard<obs::TimedMutex> lock(sessions_mutex_);
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    auto session = std::make_unique<Session>(options_, session_site_);
    it = sessions_.emplace(client, std::move(session)).first;
  }
  return it->second.get();
}

size_t NodeCore::session_count() const {
  std::lock_guard<obs::TimedMutex> lock(sessions_mutex_);
  return sessions_.size();
}

namespace {

std::vector<DependencyGraph> Copies(
    const std::vector<const DependencyGraph*>& graphs) {
  std::vector<DependencyGraph> out;
  out.reserve(graphs.size());
  for (const DependencyGraph* graph : graphs) out.push_back(*graph);
  return out;
}

}  // namespace

std::vector<DependencyGraph> NodeCore::Learn(Session* session,
                                             const sql::ParsedQuery& parsed,
                                             uint64_t now_us) {
  const TemplateId tmpl = parsed.tmpl->id;
  // Extraction reads the shared registry while this session's models move.
  std::shared_lock<obs::TimedSharedMutex> registry_lock(registry_mutex_);
  std::lock_guard<obs::TimedMutex> session_lock(session->mutex);
  session->transitions.Observe(tmpl, static_cast<SimTime>(now_us));
  session->mapper.ObserveQuery(tmpl, parsed.params);
  session->latest_params[tmpl] = parsed.params;
  ++session->observations;
  if (session->observations % options_.extract_every == 0) {
    for (auto& graph : extractor_.Extract(session->transitions,
                                          session->mapper, registry_)) {
      session->manager.AddGraph(std::move(graph));
    }
  }
  // Copies: another request of the same client may replace the graphs once
  // the session lock drops.
  return Copies(session->manager.MarkTextAvail(tmpl));
}

Result<NodeCore::Plan> NodeCore::Combine(Session* session,
                                         const DependencyGraph& graph,
                                         TemplateId trigger, uint64_t now_us) {
  std::shared_lock<obs::TimedSharedMutex> registry_lock(registry_mutex_);
  std::lock_guard<obs::TimedMutex> session_lock(session->mutex);
  CombineInput input{&graph, &registry_, &session->latest_params};
  auto combined = CombineGraph(input);
  if (!combined.ok()) return combined.status();
  Plan plan;
  plan.query = std::make_shared<const CombinedQuery>(std::move(*combined));
  plan.id = next_plan_id_.fetch_add(1, std::memory_order_relaxed);
  obs::JournalEvent mined;
  mined.type = obs::JournalEventType::kPlanMined;
  mined.plan = plan.id;
  mined.tmpl = static_cast<uint64_t>(trigger);
  mined.a = plan.query->slots.size();
  Journal(mined, now_us);
  return plan;
}

void NodeCore::JournalFetched(const Plan& plan, ClientId client,
                              const Result<db::ExecOutcome>& outcome,
                              uint64_t round_us, uint64_t now_us) const {
  if (journal_ == nullptr) return;
  obs::JournalEvent fetched;
  fetched.type = obs::JournalEventType::kCombinedFetched;
  fetched.plan = plan.id;
  fetched.client = static_cast<uint32_t>(client);
  fetched.flags = outcome.ok() ? obs::kJournalFlagOk : 0;
  if (outcome.ok()) {
    fetched.a = outcome->result.row_count();
    fetched.b = outcome->result.ByteSize();
  }
  fetched.c = round_us;
  Journal(fetched, now_us);
}

Result<std::vector<SplitEntry>> NodeCore::InstallSplit(
    ClientId client, int security_group, const Plan& plan,
    const sql::ResultSet& rows, uint64_t now_us, Session* learner) {
  Result<std::vector<SplitEntry>> split = Status::OK();
  {
    std::shared_lock<obs::TimedSharedMutex> lock(registry_mutex_);
    split = SplitResult(*plan.query, rows, registry_);
  }
  if (!split.ok()) return split;
  for (const SplitEntry& entry : *split) {
    Install(client, security_group, entry.tmpl, entry.key, entry.result,
            now_us, plan.id, static_cast<uint64_t>(entry.src));
  }
  SyncClientToDb(client);
  if (learner != nullptr) {
    std::lock_guard<obs::TimedMutex> lock(learner->mutex);
    for (const SplitEntry& entry : *split) {
      learner->mapper.ObserveResult(entry.tmpl, *entry.result);
      learner->latest_params[entry.tmpl] = entry.params;
    }
  }
  return split;
}

void NodeCore::ObserveResult(Session* session, TemplateId tmpl,
                             const sql::ResultSet& result) {
  std::lock_guard<obs::TimedMutex> lock(session->mutex);
  session->mapper.ObserveResult(tmpl, result);
}

std::vector<DependencyGraph> NodeCore::MarkSplitAvail(
    Session* session, TemplateId tmpl, const std::vector<sql::Value>& params) {
  std::lock_guard<obs::TimedMutex> lock(session->mutex);
  if (!session->manager.IsRelevant(tmpl)) return {};
  session->latest_params[tmpl] = params;
  return Copies(session->manager.MarkTextAvail(tmpl));
}

bool NodeCore::PredictionsCached(ClientId client, Session* session,
                                 int security_group,
                                 const DependencyGraph& graph) {
  std::vector<TemplateId> roots = graph.DependencyQueries();
  if (roots.size() != 1) return false;
  const TemplateId root = roots[0];
  // Registry templates are immutable and never unregistered, and the
  // latest parameters are copied out, so the checks below hold no model
  // lock while they take the shard and version locks.
  const sql::QueryTemplate* root_tmpl = FindTemplate(root);
  if (root_tmpl == nullptr) return false;
  std::map<TemplateId, std::vector<sql::Value>> latest;
  {
    std::lock_guard<obs::TimedMutex> lock(session->mutex);
    for (TemplateId node : graph.nodes) {
      auto it = session->latest_params.find(node);
      if (it != session->latest_params.end()) latest.emplace(*it);
    }
  }
  auto lp_it = latest.find(root);
  if (lp_it == latest.end()) return false;
  auto usable = [&](const std::optional<cache::CachedResult>& entry) {
    if (!entry.has_value() || entry->security_group != security_group) {
      return false;
    }
    std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
    return versions_.CanUse(client, entry->version);
  };
  std::optional<cache::CachedResult> root_hit =
      cache_.Peek(CacheKey(client,
                           sql::RenderBoundText(*root_tmpl, lp_it->second)));
  if (!usable(root_hit)) return false;
  const sql::ResultSet& root_rows = *root_hit->result;

  for (TemplateId node : graph.nodes) {
    if (node == root) continue;
    if (graph.RoleOf(node) == NodeRole::kDependency) return false;
    const sql::QueryTemplate* tmpl = FindTemplate(node);
    if (tmpl == nullptr) return false;
    // Only direct children of the root can be checked without executing;
    // deeper hierarchies are conservatively treated as not cached.
    std::vector<const DepEdge*> incoming;
    for (const auto& e : graph.edges) {
      if (e.dst != node) continue;
      if (e.src != root) return false;
      incoming.push_back(&e);
    }
    // Constants for unmapped positions.
    std::vector<sql::Value> base(static_cast<size_t>(tmpl->param_count),
                                 sql::Value::Null());
    if (auto it = latest.find(node); it != latest.end()) {
      std::copy_n(it->second.begin(), std::min(base.size(), it->second.size()),
                  base.begin());
    }
    for (size_t r = 0; r < root_rows.row_count(); ++r) {
      std::vector<sql::Value> params = base;
      for (const auto* e : incoming) {
        for (const auto& b : e->bindings) {
          int col = root_rows.ColumnIndex(b.src_column);
          if (col < 0) return false;
          params[static_cast<size_t>(b.dst_param)] =
              root_rows.row(r)[static_cast<size_t>(col)];
        }
      }
      for (const auto& v : params) {
        if (v.is_null()) return false;  // unknown constant: cannot verify
      }
      if (!usable(cache_.Peek(
              CacheKey(client, sql::RenderBoundText(*tmpl, params))))) {
        return false;
      }
    }
  }
  return true;
}

size_t NodeCore::TotalGraphs() const {
  std::vector<Session*> sessions;
  {
    std::lock_guard<obs::TimedMutex> lock(sessions_mutex_);
    for (const auto& entry : sessions_) sessions.push_back(entry.second.get());
  }
  size_t n = 0;
  for (Session* session : sessions) {
    std::lock_guard<obs::TimedMutex> lock(session->mutex);
    n += session->manager.graph_count();
  }
  return n;
}

void NodeCore::OnRemoteAccess() {
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  versions_.OnRemoteAccess();
}

void NodeCore::OnClientWrite(ClientId client,
                             const std::vector<std::string>& writes) {
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  versions_.OnClientWrite(client, writes);
}

void NodeCore::SyncClientToDb(ClientId client) {
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  versions_.SyncClientToDb(client);
}

cache::VersionVector NodeCore::SnapshotVersions(TemplateId tmpl) {
  std::vector<std::string> reads;
  if (const sql::QueryTemplate* qt = FindTemplate(tmpl)) {
    reads = sql::CollectTableAccess(*qt->ast).reads;
  }
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  return versions_.SnapshotFor(reads);
}

bool NodeCore::AbsorbIfUsable(ClientId client,
                              const cache::VersionVector& version) {
  std::lock_guard<obs::TimedMutex> lock(versions_mutex_);
  if (!versions_.CanUse(client, version)) return false;
  versions_.AbsorbResult(client, version);
  return true;
}

std::string NodeCore::CacheKey(ClientId client,
                               const std::string& bound_text) const {
  std::string key;
  if (!options_.share_across_clients) key = "c" + std::to_string(client) + "#";
  if (options_.multi_node) key += "n" + std::to_string(options_.node_id) + "#";
  return key + bound_text;
}

void NodeCore::Install(ClientId client, int security_group, TemplateId tmpl,
                       const std::string& bound_text,
                       std::shared_ptr<const sql::ResultSet> result,
                       uint64_t now_us, uint64_t plan, uint64_t src) {
  cache::CachedResult entry;
  entry.SetResult(std::move(result));
  entry.version = SnapshotVersions(tmpl);
  entry.security_group = security_group;
  entry.node_id = options_.node_id;
  entry.prefetch_plan = plan;
  entry.prefetch_src = src;
  entry.tmpl = static_cast<uint64_t>(tmpl);
  entry.install_us = now_us;
  std::string key = CacheKey(client, bound_text);
  if (journal_ != nullptr && plan != 0) {
    obs::JournalEvent installed;
    installed.type = obs::JournalEventType::kEntryInstalled;
    installed.plan = plan;
    installed.src = src;
    installed.tmpl = entry.tmpl;
    installed.a = cache::LruCache::EntryBytes(key, entry);
    installed.client = static_cast<uint32_t>(client);
    Journal(installed, now_us);
  }
  cache_.Put(key, std::move(entry));
}

NodeCore::LookupResult NodeCore::Lookup(ClientId client, int security_group,
                                        const std::string& bound_text,
                                        uint64_t now_us, bool keep_rejected) {
  LookupResult out;
  const std::string key = CacheKey(client, bound_text);
  out.entry = cache_.Get(key);
  if (!out.entry.has_value()) return out;
  if (out.entry->security_group != security_group) {
    out.status = LookupStatus::kGroupRejected;
    out.entry.reset();
    return out;
  }
  if (!AbsorbIfUsable(client, out.entry->version)) {
    out.status = LookupStatus::kVersionRejected;
    // A prefetched entry that fails the version check is stale for every
    // client that has seen the write (database versions are monotonic):
    // drop it now, so the audit sees invalidated-by-write instead of a
    // misleading evicted-unused later.
    if (out.entry->prefetch_plan != 0 && !keep_rejected) {
      cache_.Invalidate(key);
    }
    return out;
  }
  out.status = LookupStatus::kHit;
  // First demand hit on a prefetched entry: the cache just bumped
  // use_count, so our copy reading 1 means this very lookup was the first.
  const cache::CachedResult& entry = *out.entry;
  if (journal_ != nullptr && entry.prefetch_plan != 0 &&
      entry.use_count == 1) {
    obs::JournalEvent used;
    used.type = obs::JournalEventType::kEntryUsed;
    used.plan = entry.prefetch_plan;
    used.src = entry.prefetch_src;
    used.tmpl = entry.tmpl;
    used.a = cache::LruCache::EntryBytes(key, entry);
    used.b = Since(now_us, entry.install_us);
    used.client = static_cast<uint32_t>(client);
    Journal(used, now_us);
  }
  return out;
}

bool NodeCore::Contains(ClientId client, const std::string& bound_text) const {
  return cache_.Contains(CacheKey(client, bound_text));
}

}  // namespace chrono::core
