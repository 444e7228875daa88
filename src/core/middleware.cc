#include "core/middleware.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/rng.h"

namespace chrono::core {

const char* SystemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kLru: return "LRU";
    case SystemMode::kApollo: return "Apollo";
    case SystemMode::kScalpelE: return "Scalpel-E";
    case SystemMode::kScalpelCC: return "Scalpel-CC";
    case SystemMode::kChrono: return "ChronoCache";
  }
  return "?";
}

void MiddlewareConfig::Finalize() {
  switch (mode) {
    case SystemMode::kLru:
      enable_learning = false;
      enable_loops = false;
      enable_loop_constants = false;
      enable_combining = false;
      share_across_clients = true;
      break;
    case SystemMode::kApollo:
      enable_learning = true;
      enable_loops = false;
      enable_loop_constants = false;
      enable_combining = false;
      share_across_clients = true;
      break;
    case SystemMode::kScalpelE:
      enable_learning = true;
      enable_loops = true;
      enable_loop_constants = false;
      enable_combining = true;
      share_across_clients = false;
      break;
    case SystemMode::kScalpelCC:
      enable_learning = true;
      enable_loops = true;
      enable_loop_constants = false;
      enable_combining = true;
      share_across_clients = true;
      break;
    case SystemMode::kChrono:
      enable_learning = true;
      enable_loops = true;
      enable_loop_constants = true;
      enable_combining = true;
      share_across_clients = true;
      break;
  }
}

// ---- RemoteDbServer ----------------------------------------------------

RemoteDbServer::RemoteDbServer(EventQueue* events, db::Database* database,
                               const net::LatencyModel& latency, int workers)
    : events_(events),
      database_(database),
      latency_(latency),
      workers_(workers) {}

void RemoteDbServer::Submit(std::string sql_text, DbCallback done) {
  Submit(DbRequest{std::move(sql_text), nullptr}, std::move(done));
}

void RemoteDbServer::Submit(DbRequest request, DbCallback done) {
  ++requests_;
  double service_multiplier = 1.0;
  if (fault_ != nullptr && fault_->enabled()) {
    net::FaultDecision fd = fault_->Decide(events_->now());
    if (fd.fail) {
      // The call dies on the WAN: the caller still pays the full round
      // trip before Unavailable comes back. Blackout failures take the
      // same path — virtual time has no client deadline to cut short.
      events_->ScheduleAfter(latency_.wan_rtt,
                             [done = std::move(done)](SimTime now) {
                               done(now, Status::Unavailable(
                                             "injected backend failure"));
                             });
      return;
    }
    service_multiplier = fd.latency_multiplier;
  }
  // Outbound WAN half, then queue for a database worker.
  events_->ScheduleAfter(
      latency_.wan_rtt / 2,
      [this, req = std::move(request), done = std::move(done),
       service_multiplier](SimTime) mutable {
        waiting_.push_back(
            Job{std::move(req), std::move(done), service_multiplier});
        TryDispatch();
      });
}

void RemoteDbServer::TryDispatch() {
  while (busy_ < workers_ && !waiting_.empty()) {
    Job job = std::move(waiting_.front());
    waiting_.pop_front();
    ++busy_;
    // Execute at dispatch time so statements apply in virtual order; the
    // result is held until the service time elapses.
    // Zero-reparse path: execute a handed-off parse tree directly.
    const bool handoff = job.request.ast != nullptr && !text_roundtrip_;
    if (handoff) ++ast_handoffs_;
    auto outcome = handoff ? database_->Execute(*job.request.ast)
                           : database_->ExecuteText(job.request.sql);
    uint64_t rows = outcome.ok() ? outcome->stats.rows_scanned : 0;
    if (outcome.ok()) rows_scanned_ += rows;
    SimTime service = latency_.DbServiceTime(rows);
    if (job.service_multiplier > 1.0) {
      service = static_cast<SimTime>(static_cast<double>(service) *
                                     job.service_multiplier);
    }
    busy_time_ += service;
    auto shared =
        std::make_shared<Result<db::ExecOutcome>>(std::move(outcome));
    events_->ScheduleAfter(
        service, [this, shared, done = std::move(job.done)](SimTime) {
          --busy_;
          TryDispatch();
          // Inbound WAN half back to the middleware node.
          events_->ScheduleAfter(latency_.wan_rtt / 2,
                                 [shared, done](SimTime now2) {
                                   done(now2, std::move(*shared));
                                 });
        });
  }
}

// ---- Middleware ----------------------------------------------------------

Middleware::ClientState::ClientState(const MiddlewareConfig& config)
    : transitions(std::make_unique<TransitionGraph>(config.delta_t)),
      mapper(config.min_validations),
      manager(DependencyManager::Options{config.enable_subsumption}) {}

Middleware::Middleware(EventQueue* events, RemoteDbServer* remote,
                       const net::LatencyModel& latency,
                       MiddlewareConfig config)
    : events_(events),
      remote_(remote),
      latency_(latency),
      config_(config),
      template_cache_(config.template_cache_entries),
      cache_(std::make_unique<cache::LruCache>(config.cache_bytes)),
      mw_pool_(events, config.workers),
      sessions_(config.multi_node),
      extractor_(GraphExtractor::Options{
          config.tau, config.min_occurrences, config.enable_loops,
          config.enable_loop_constants, /*max_nodes=*/8}),
      retry_(config.retry) {}

void Middleware::AttachJournal(obs::EventJournal* journal) {
  journal_ = journal;
  // Mirror the runtime server's eviction journaling: only
  // prefetch-attributed entries, kErased = staleness invalidation (which
  // always follows a Get that bumped use_count, hence use_count > 1).
  cache_->SetEvictionCallback([this](const std::string& key,
                                     const cache::CachedResult& value,
                                     size_t bytes,
                                     cache::EvictReason reason) {
    (void)key;
    if (journal_ == nullptr || value.prefetch_plan == 0 ||
        reason == cache::EvictReason::kCleared) {
      return;
    }
    obs::JournalEvent event;
    event.plan = value.prefetch_plan;
    event.src = value.prefetch_src;
    event.tmpl = value.tmpl;
    event.a = bytes;
    uint64_t now = static_cast<uint64_t>(events_->now());
    event.b = now > value.install_us ? now - value.install_us : 0;
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
    Journal(event);
  });
}

void Middleware::Journal(obs::JournalEvent event) {
  if (journal_ == nullptr) return;
  if (event.ts_us == 0) {
    SimTime now = events_->now();
    event.ts_us = now == 0 ? 1 : static_cast<uint64_t>(now);
  }
  journal_->Record(event);
}

void Middleware::JournalRequest(ClientId client, TemplateId tmpl,
                                obs::TraceOutcome outcome,
                                uint64_t prefetch_plan,
                                uint64_t prefetch_src) {
  if (journal_ == nullptr) return;
  obs::JournalEvent event;
  event.type = obs::JournalEventType::kRequest;
  event.client = static_cast<uint32_t>(client);
  event.tmpl = static_cast<uint64_t>(tmpl);
  event.plan = prefetch_plan;
  event.src = prefetch_src;
  event.flags =
      static_cast<uint8_t>(outcome) | obs::kJournalFlagNoLatency;
  Journal(event);
}

Middleware::ClientState* Middleware::StateFor(ClientId client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    it = clients_.emplace(client, std::make_unique<ClientState>(config_)).first;
  }
  return it->second.get();
}

std::string Middleware::CacheKey(ClientId client,
                                 const std::string& bound_text) const {
  std::string key;
  if (!config_.share_across_clients) {
    key += "c" + std::to_string(client) + "#";
  }
  if (config_.multi_node) {
    key += "n" + std::to_string(config_.node_id) + "#";
  }
  key += bound_text;
  return key;
}

size_t Middleware::TotalGraphs() const {
  size_t n = 0;
  for (const auto& [id, state] : clients_) {
    (void)id;
    n += state->manager.graph_count();
  }
  return n;
}

std::vector<std::string> Middleware::DumpDependencyGraphs(
    ClientId client) const {
  std::vector<std::string> out;
  auto it = clients_.find(client);
  if (it == clients_.end()) return out;
  for (const DependencyGraph* graph : it->second->manager.Graphs()) {
    std::map<TemplateId, std::string> labels;
    for (TemplateId node : graph->nodes) {
      const sql::QueryTemplate* tmpl = registry_.Find(node);
      if (tmpl == nullptr) continue;
      std::string text = tmpl->canonical_text.substr(0, 48);
      // Escape for DOT string literals.
      std::string escaped;
      for (char c : text) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      labels[node] = escaped;
    }
    out.push_back(graph->ToDot(labels));
  }
  return out;
}

void Middleware::SubmitQuery(ClientId client, int security_group,
                             std::string sql_text, ResponseCallback done) {
  // Client -> middleware edge hop, then middleware service.
  events_->ScheduleAfter(
      latency_.edge_rtt / 2,
      [this, client, security_group, sql = std::move(sql_text),
       done = std::move(done)](SimTime) mutable {
        mw_pool_.Submit(latency_.mw_base_service,
                        [this, client, security_group, sql = std::move(sql),
                         done = std::move(done)](SimTime now2) mutable {
                          Process(now2, client, security_group, std::move(sql),
                                  std::move(done));
                        });
      });
}

void Middleware::Process(SimTime now, ClientId client, int security_group,
                         std::string sql_text, ResponseCallback done) {
  // Memoized AnalyzeQuery: clients resubmit the same texts constantly
  // (point lookups in loops, pattern repetitions), so the analysis —
  // lex + parse + literal extraction + canonical render — is cached
  // keyed on the raw text. Entries are immutable (template + params are
  // derived from the text alone), so no invalidation is ever needed.
  sql::ParsedQuery parsed;
  if (const sql::ParsedQuery* hit = template_cache_.Get(sql_text)) {
    parsed = *hit;
  } else {
    auto analyzed = sql::AnalyzeQuery(sql_text);
    if (!analyzed.ok()) {
      JournalRequest(client, /*tmpl=*/0, obs::TraceOutcome::kError);
      events_->ScheduleAfter(latency_.edge_rtt / 2,
                             [done, st = analyzed.status()](SimTime now2) {
                               done(now2, st);
                             });
      return;
    }
    parsed = *template_cache_.Put(std::move(sql_text), std::move(*analyzed));
  }
  registry_.Register(parsed.tmpl);
  if (!parsed.tmpl->read_only) {
    ++metrics_.writes;
    HandleWrite(client, std::move(parsed), std::move(done));
    return;
  }
  ++metrics_.reads;
  HandleRead(now, client, security_group, std::move(parsed), std::move(done));
}

void Middleware::HandleWrite(ClientId client, sql::ParsedQuery parsed,
                             ResponseCallback done) {
  // Writes bypass the cache entirely; ChronoCache never predicts updates
  // (§5, "focuses on predictively caching read queries").
  auto access = sql::CollectTableAccess(*parsed.tmpl->ast);
  remote_->Submit(
      parsed.bound_text,
      [this, client, tmpl = parsed.tmpl->id, writes = access.writes,
       done = std::move(done)](SimTime, Result<db::ExecOutcome> outcome) {
        sessions_.OnRemoteAccess();
        if (outcome.ok()) sessions_.OnClientWrite(client, writes);
        JournalRequest(client, tmpl,
                       outcome.ok() ? obs::TraceOutcome::kWrite
                                    : obs::TraceOutcome::kError);
        events_->ScheduleAfter(
            latency_.edge_rtt / 2,
            [outcome = std::move(outcome), done](SimTime now2) {
              if (!outcome.ok()) {
                done(now2, outcome.status());
              } else {
                done(now2, outcome->result);
              }
            });
      });
}

void Middleware::Learn(SimTime now, ClientId client,
                       const sql::ParsedQuery& parsed) {
  ClientState* state = StateFor(client);
  TemplateId tmpl = parsed.tmpl->id;
  state->transitions->Observe(tmpl, now);
  state->mapper.ObserveQuery(tmpl, parsed.params);
  state->latest_params[tmpl] = parsed.params;
  ++state->observations;
  if (state->observations % config_.extract_every == 0) {
    for (auto& graph :
         extractor_.Extract(*state->transitions, state->mapper, registry_)) {
      state->manager.AddGraph(std::move(graph));
    }
  }
}

void Middleware::HandleRead(SimTime now, ClientId client, int security_group,
                            sql::ParsedQuery parsed, ResponseCallback done) {
  TemplateId tmpl = parsed.tmpl->id;
  ClientState* state = StateFor(client);

  std::vector<const DependencyGraph*> ready;
  if (config_.enable_learning) {
    Learn(now, client, parsed);
    ready = state->manager.MarkTextAvail(tmpl);
  }

  // §5.1: suppress graphs whose predictions are already fully cached.
  std::vector<const DependencyGraph*> to_fire;
  for (const DependencyGraph* g : ready) {
    if (config_.enable_redundancy_check &&
        PredictionsCached(client, security_group, *g)) {
      ++metrics_.redundant_skips;
      continue;
    }
    to_fire.push_back(g);
  }

  const std::string key = CacheKey(client, parsed.bound_text);
  const cache::CachedResult* hit = CacheGet(client, security_group,
                                            parsed.bound_text);
  if (hit != nullptr) {
    ++metrics_.cache_hits;
    JournalRequest(client, tmpl, obs::TraceOutcome::kCacheHit,
                   hit->prefetch_plan, hit->prefetch_src);
    // Share the immutable payload (safe across any later cache mutation).
    // Answer from the edge cache first (Respond records the fresh result
    // into the mapper), then fire background predictions off it.
    Respond(client, tmpl, hit->result, done);
    for (const DependencyGraph* g : to_fire) {
      if (config_.enable_combining) {
        FireGraph(client, security_group, *g, /*wait_key=*/"");
      } else {
        FireSequential(client, security_group, *g);
      }
    }
    return;
  }

  // Duplicate-request coalescing (§5.1).
  auto inflight_it = inflight_.find(key);
  if (inflight_it != inflight_.end()) {
    ++metrics_.inflight_joins;
    inflight_it->second.push_back(PendingRequest{client, std::move(done)});
    for (const DependencyGraph* g : to_fire) {
      if (config_.enable_combining) {
        FireGraph(client, security_group, *g, "");
      } else {
        // Predictions bind from this query's result: run them when it lands.
        deferred_seq_[key].emplace_back(security_group, *g);
      }
    }
    return;
  }

  // Pick a primary graph whose combined query will produce our result.
  const DependencyGraph* primary = nullptr;
  if (config_.enable_combining) {
    for (const DependencyGraph* g : to_fire) {
      if (g->ContainsNode(tmpl)) {
        primary = g;
        break;
      }
    }
  }

  bool waiting = false;
  for (const DependencyGraph* g : to_fire) {
    if (config_.enable_combining) {
      bool wait_here = (g == primary);
      if (FireGraph(client, security_group, *g, wait_here ? key : "")) {
        if (wait_here) {
          inflight_[key].push_back(PendingRequest{client, done});
          inflight_tmpl_[key] = {tmpl, parsed.bound_text, security_group};
          waiting = true;
        }
      } else if (wait_here) {
        primary = nullptr;  // combination failed; fall through to plain
      }
    } else {
      // Apollo-style sequential prediction needs this query's fresh result
      // for parameter bindings; defer it to the plain execution's landing.
      deferred_seq_[key].emplace_back(security_group, *g);
    }
  }
  if (waiting) return;

  RemotePlain(client, security_group, tmpl, parsed.bound_text,
              std::move(done));
}

void Middleware::RemotePlain(ClientId client, int security_group,
                             TemplateId tmpl, std::string bound_text,
                             ResponseCallback done) {
  const std::string key = CacheKey(client, bound_text);
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    ++metrics_.inflight_joins;
    it->second.push_back(PendingRequest{client, std::move(done)});
    return;
  }
  inflight_[key].push_back(PendingRequest{client, std::move(done)});
  inflight_tmpl_[key] = {tmpl, bound_text, security_group};
  ++metrics_.remote_plain;
  IssuePlainFetch(client, security_group, tmpl, std::move(bound_text), key,
                  /*attempts=*/1);
}

void Middleware::IssuePlainFetch(ClientId client, int security_group,
                                 TemplateId tmpl, std::string bound_text,
                                 std::string key, int attempts) {
  remote_->Submit(
      bound_text,
      [this, client, security_group, tmpl, key, bound_text, attempts](
          SimTime, Result<db::ExecOutcome> outcome) {
        sessions_.OnRemoteAccess();
        if (!outcome.ok()) {
          // Idempotent demand read: reschedule after a full-jitter backoff
          // while the waiters (and any late joiners) stay parked under the
          // in-flight key. Writes and prefetch never take this path.
          if (config_.enable_retries &&
              net::RetryPolicy::IsRetryable(outcome.status()) &&
              retry_.ShouldRetry(attempts)) {
            ++metrics_.backend_retries;
            double u =
                HashToUnit(SplitMix64(config_.retry_seed ^ retry_ordinal_++));
            SimTime backoff =
                static_cast<SimTime>(retry_.BackoffUs(attempts, u));
            obs::JournalEvent event;
            event.type = obs::JournalEventType::kBackendRetry;
            event.tmpl = static_cast<uint64_t>(tmpl);
            event.client = static_cast<uint32_t>(client);
            event.a = static_cast<uint64_t>(attempts);
            event.b = static_cast<uint64_t>(backoff);
            event.c = 0;  // no per-request deadline in virtual time
            Journal(event);
            events_->ScheduleAfter(
                backoff, [this, client, security_group, tmpl, bound_text, key,
                          attempts](SimTime) {
                  IssuePlainFetch(client, security_group, tmpl, bound_text,
                                  key, attempts + 1);
                });
            return;
          }
          auto waiters = std::move(inflight_[key]);
          inflight_.erase(key);
          inflight_tmpl_.erase(key);
          deferred_seq_.erase(key);
          for (auto& w : waiters) {
            JournalRequest(w.client, tmpl, obs::TraceOutcome::kError);
            events_->ScheduleAfter(
                latency_.edge_rtt / 2,
                [done = std::move(w.done), st = outcome.status()](
                    SimTime now2) { done(now2, st); });
          }
          return;
        }
        auto waiters = std::move(inflight_[key]);
        inflight_.erase(key);
        inflight_tmpl_.erase(key);
        // Freeze the fetched rows once; the cache entry and every waiter
        // share the same immutable payload.
        auto payload = std::make_shared<const sql::ResultSet>(
            std::move(outcome->result));
        CachePut(client, security_group, tmpl, bound_text, payload);
        for (auto& w : waiters) {
          // Fresh database read: Vc = Vd (§5.2).
          sessions_.SyncClientToDb(w.client);
          JournalRequest(w.client, tmpl, obs::TraceOutcome::kRemotePlain);
          Respond(w.client, tmpl, payload, w.done);
        }
        // Fire deferred sequential predictions now that the result they
        // bind from is recorded in the mapper.
        auto deferred_it = deferred_seq_.find(key);
        if (deferred_it != deferred_seq_.end()) {
          auto deferred = std::move(deferred_it->second);
          deferred_seq_.erase(deferred_it);
          for (auto& [group, graph] : deferred) {
            FireSequential(client, group, graph);
          }
        }
      });
}

bool Middleware::FireGraph(ClientId client, int security_group,
                           const DependencyGraph& graph,
                           const std::string& wait_key, int cascade_depth) {
  ClientState* state = StateFor(client);
  CombineInput input{&graph, &registry_, &state->latest_params};
  auto combined = CombineGraph(input);
  if (!combined.ok()) return false;

  ++metrics_.remote_combined;
  // Charge the combination + split work to this node's worker pool.
  auto plan = std::make_shared<CombinedQuery>(std::move(*combined));
  mw_pool_.Submit(latency_.mw_combine_service, [](SimTime) {});

  const uint64_t plan_id = next_plan_id_++;
  const SimTime issued_at = events_->now();
  if (journal_ != nullptr) {
    std::vector<TemplateId> roots = graph.DependencyQueries();
    obs::JournalEvent mined;
    mined.type = obs::JournalEventType::kPlanMined;
    mined.plan = plan_id;
    mined.tmpl =
        roots.empty() ? 0 : static_cast<uint64_t>(roots.front());
    mined.a = plan->slots.size();
    Journal(mined);
    obs::JournalEvent issued;
    issued.type = obs::JournalEventType::kCombinedIssued;
    issued.plan = plan_id;
    issued.client = static_cast<uint32_t>(client);
    Journal(issued);
  }

  // Hand the combiner-built AST to the server alongside the text: the
  // combined query executes without ever being re-parsed.
  remote_->Submit(
      RemoteDbServer::DbRequest{plan->sql, plan->ast},
      [this, client, security_group, plan, plan_id, issued_at, wait_key,
       cascade_depth](SimTime landed, Result<db::ExecOutcome> outcome) {
        sessions_.OnRemoteAccess();
        if (journal_ != nullptr) {
          obs::JournalEvent fetched;
          fetched.type = obs::JournalEventType::kCombinedFetched;
          fetched.plan = plan_id;
          fetched.client = static_cast<uint32_t>(client);
          fetched.flags = outcome.ok() ? obs::kJournalFlagOk : 0;
          if (outcome.ok()) {
            fetched.a = outcome->result.row_count();
            fetched.b = outcome->result.ByteSize();
          }
          fetched.c = landed > issued_at
                          ? static_cast<uint64_t>(landed - issued_at)
                          : 0;
          Journal(fetched);
        }
        if (outcome.ok()) {
          auto split = SplitResult(*plan, outcome->result, registry_);
          if (split.ok()) {
            for (const auto& entry : *split) {
              CachePut(client, security_group, entry.tmpl, entry.key,
                       entry.result, plan_id,
                       static_cast<uint64_t>(entry.src));
              ++metrics_.predictions_cached;
            }
            // The triggering client observed fresh database state.
            sessions_.SyncClientToDb(client);
            // Algorithm 1 line 7: the prefetched texts may make further
            // dependency graphs ready; fire them in the background.
            for (const auto& entry : *split) {
              SplitMarkTextAvail(client, security_group, entry.tmpl,
                                 entry.params, cascade_depth + 1);
            }
          }
        }
        if (!wait_key.empty()) ResolveInflight(wait_key);
      });
  return true;
}

void Middleware::SplitMarkTextAvail(ClientId client, int security_group,
                                    TemplateId tmpl,
                                    const std::vector<sql::Value>& params,
                                    int cascade_depth) {
  // Bound the cascade: a graph whose own split re-supplies its dependency
  // text would otherwise re-fire forever when the §5.1 redundancy check is
  // disabled.
  constexpr int kMaxCascadeDepth = 3;
  if (cascade_depth > kMaxCascadeDepth) return;
  ClientState* state = StateFor(client);
  if (!state->manager.IsRelevant(tmpl)) return;
  state->latest_params[tmpl] = params;
  for (const DependencyGraph* graph : state->manager.MarkTextAvail(tmpl)) {
    if (config_.enable_redundancy_check &&
        PredictionsCached(client, security_group, *graph)) {
      ++metrics_.redundant_skips;
      continue;
    }
    if (FireGraph(client, security_group, *graph, "", cascade_depth)) {
      ++metrics_.cascaded_fires;
    }
  }
}

void Middleware::ResolveInflight(const std::string& key) {
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  auto info_it = inflight_tmpl_.find(key);
  if (info_it == inflight_tmpl_.end()) return;
  InflightInfo info = info_it->second;
  auto waiters = std::move(it->second);
  inflight_.erase(it);
  inflight_tmpl_.erase(info_it);

  std::vector<PendingRequest> unresolved;
  for (auto& w : waiters) {
    const cache::CachedResult* hit =
        CacheGet(w.client, info.security_group, info.bound_text);
    if (hit != nullptr) {
      JournalRequest(w.client, info.tmpl, obs::TraceOutcome::kPredictionHit,
                     hit->prefetch_plan, hit->prefetch_src);
      Respond(w.client, info.tmpl, hit->result, w.done);
    } else {
      unresolved.push_back(std::move(w));
    }
  }
  if (!unresolved.empty()) {
    // Misprediction: the combined result did not cover this query. Fall
    // back to plain remote execution; RemotePlain coalesces duplicates.
    ++metrics_.prediction_fallbacks;
    for (auto& w : unresolved) {
      RemotePlain(w.client, info.security_group, info.tmpl, info.bound_text,
                  std::move(w.done));
    }
  }
}

void Middleware::FireSequential(ClientId client, int security_group,
                                const DependencyGraph& graph) {
  // Apollo-style prediction (§6 "Systems"): predicted queries are issued
  // to the database sequentially and uncombined. Without loop support only
  // the first iteration's bindings (row 0 of the source result) are used.
  ClientState* state = StateFor(client);
  std::vector<TemplateId> topo = graph.TopologicalOrder();
  if (topo.empty()) return;

  for (TemplateId node : topo) {
    if (graph.RoleOf(node) != NodeRole::kPredicted) continue;
    const sql::QueryTemplate* tmpl = registry_.Find(node);
    if (tmpl == nullptr) continue;
    // Bind parameters from the sources' last observed result sets.
    std::vector<sql::Value> params(static_cast<size_t>(tmpl->param_count),
                                   sql::Value::Null());
    bool ok = true;
    for (const auto& e : graph.edges) {
      if (e.dst != node) continue;
      const sql::ResultSet* src_rs = state->mapper.LastResult(e.src);
      if (src_rs == nullptr || src_rs->empty()) {
        ok = false;
        break;
      }
      for (const auto& b : e.bindings) {
        int col = src_rs->ColumnIndex(b.src_column);
        if (col < 0) {
          ok = false;
          break;
        }
        params[static_cast<size_t>(b.dst_param)] =
            src_rs->row(0)[static_cast<size_t>(col)];
      }
    }
    if (!ok) continue;
    std::string bound = sql::RenderBoundText(*tmpl, params);
    const std::string key = CacheKey(client, bound);
    if (cache_->Contains(key)) continue;
    if (inflight_.count(key) > 0) continue;
    ++metrics_.sequential_prefetches;
    remote_->Submit(bound, [this, client, security_group, node, bound](
                               SimTime, Result<db::ExecOutcome> outcome) {
      sessions_.OnRemoteAccess();
      if (!outcome.ok()) return;
      auto payload = std::make_shared<const sql::ResultSet>(
          std::move(outcome->result));
      CachePut(client, security_group, node, bound, payload);
      // Feed the model so deeper predictions can bind next time.
      StateFor(client)->mapper.ObserveResult(node, *payload);
    });
  }
}

bool Middleware::PredictionsCached(ClientId client, int security_group,
                                   const DependencyGraph& graph) {
  ClientState* state = StateFor(client);
  std::vector<TemplateId> roots = graph.DependencyQueries();
  if (roots.size() != 1) return false;
  TemplateId root = roots[0];
  const sql::QueryTemplate* root_tmpl = registry_.Find(root);
  if (root_tmpl == nullptr) return false;
  auto lp_it = state->latest_params.find(root);
  if (lp_it == state->latest_params.end()) return false;
  std::string root_key =
      CacheKey(client, sql::RenderBoundText(*root_tmpl, lp_it->second));
  const cache::CachedResult* root_hit = cache_->Peek(root_key);
  if (root_hit == nullptr || root_hit->security_group != security_group ||
      !sessions_.CanUse(client, root_hit->version)) {
    return false;
  }

  for (TemplateId node : graph.nodes) {
    if (node == root) continue;
    NodeRole role = graph.RoleOf(node);
    if (role == NodeRole::kDependency) return false;
    const sql::QueryTemplate* tmpl = registry_.Find(node);
    if (tmpl == nullptr) return false;
    // Only direct children of the root can be checked without executing;
    // deeper hierarchies are conservatively treated as not cached.
    std::vector<const DepEdge*> incoming;
    for (const auto& e : graph.edges) {
      if (e.dst == node) incoming.push_back(&e);
    }
    for (const auto* e : incoming) {
      if (e->src != root) return false;
    }
    // Constants for unmapped positions.
    std::vector<sql::Value> base(static_cast<size_t>(tmpl->param_count),
                                 sql::Value::Null());
    auto node_lp = state->latest_params.find(node);
    if (node_lp != state->latest_params.end()) {
      for (size_t p = 0; p < base.size() && p < node_lp->second.size(); ++p) {
        base[p] = node_lp->second[p];
      }
    }
    for (size_t r = 0; r < root_hit->result->row_count(); ++r) {
      std::vector<sql::Value> params = base;
      bool bindable = true;
      for (const auto* e : incoming) {
        for (const auto& b : e->bindings) {
          int col = root_hit->result->ColumnIndex(b.src_column);
          if (col < 0) {
            bindable = false;
            break;
          }
          params[static_cast<size_t>(b.dst_param)] =
              root_hit->result->row(r)[static_cast<size_t>(col)];
        }
      }
      if (!bindable) return false;
      for (const auto& v : params) {
        if (v.is_null()) return false;  // unknown constant: cannot verify
      }
      std::string child_key =
          CacheKey(client, sql::RenderBoundText(*tmpl, params));
      const cache::CachedResult* child_hit = cache_->Peek(child_key);
      if (child_hit == nullptr ||
          child_hit->security_group != security_group ||
          !sessions_.CanUse(client, child_hit->version)) {
        return false;
      }
    }
  }
  return true;
}

void Middleware::Respond(ClientId client, TemplateId tmpl,
                         std::shared_ptr<const sql::ResultSet> result,
                         const ResponseCallback& done) {
  if (config_.enable_learning) {
    StateFor(client)->mapper.ObserveResult(tmpl, *result);
  }
  // The scheduled delivery carries only the shared_ptr; the single copy
  // into the client's Result<ResultSet> happens at the LAN edge.
  events_->ScheduleAfter(latency_.edge_rtt / 2,
                         [done, result = std::move(result)](SimTime now2) {
                           done(now2, *result);
                         });
}

void Middleware::CachePut(ClientId client, int security_group, TemplateId tmpl,
                          const std::string& bound_text,
                          std::shared_ptr<const sql::ResultSet> result,
                          uint64_t prefetch_plan, uint64_t prefetch_src) {
  const sql::QueryTemplate* qt = registry_.Find(tmpl);
  std::vector<std::string> reads;
  if (qt != nullptr) reads = sql::CollectTableAccess(*qt->ast).reads;
  cache::CachedResult entry;
  entry.SetResult(std::move(result));
  entry.version = sessions_.SnapshotFor(reads);
  entry.security_group = security_group;
  entry.node_id = config_.node_id;
  entry.prefetch_plan = prefetch_plan;
  entry.prefetch_src = prefetch_src;
  entry.tmpl = static_cast<uint64_t>(tmpl);
  entry.install_us = static_cast<uint64_t>(events_->now());
  std::string key = CacheKey(client, bound_text);
  if (journal_ != nullptr && prefetch_plan != 0) {
    obs::JournalEvent installed;
    installed.type = obs::JournalEventType::kEntryInstalled;
    installed.plan = prefetch_plan;
    installed.src = prefetch_src;
    installed.tmpl = static_cast<uint64_t>(tmpl);
    installed.a = cache::LruCache::EntryBytes(key, entry);
    installed.client = static_cast<uint32_t>(client);
    Journal(installed);
  }
  cache_->Put(key, std::move(entry));
}

const cache::CachedResult* Middleware::CacheGet(ClientId client,
                                                int security_group,
                                                const std::string& bound_text) {
  const std::string key = CacheKey(client, bound_text);
  const cache::CachedResult* entry = cache_->Get(key);
  if (entry == nullptr) return nullptr;
  if (entry->security_group != security_group) {
    ++metrics_.cache_rejects;
    return nullptr;
  }
  if (!sessions_.CanUse(client, entry->version)) {
    ++metrics_.cache_rejects;
    // A version-rejected prefetched entry can never become usable again
    // (database versions are monotonic), so erase it now: the eviction
    // callback journals it as invalidated instead of letting it age out
    // as an ordinary capacity eviction.
    if (entry->prefetch_plan != 0) cache_->Erase(key);
    return nullptr;
  }
  sessions_.AbsorbResult(client, entry->version);
  if (journal_ != nullptr && entry->prefetch_plan != 0 &&
      entry->use_count == 1) {
    obs::JournalEvent used;
    used.type = obs::JournalEventType::kEntryUsed;
    used.plan = entry->prefetch_plan;
    used.src = entry->prefetch_src;
    used.tmpl = entry->tmpl;
    used.a = cache::LruCache::EntryBytes(key, *entry);
    const uint64_t now = static_cast<uint64_t>(events_->now());
    used.b = now > entry->install_us ? now - entry->install_us : 0;
    used.client = static_cast<uint32_t>(client);
    Journal(used);
  }
  return entry;
}

}  // namespace chrono::core
