#include "core/middleware.h"

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
  // LRU learns nothing; Apollo learns but fires uncombined, loop-free
  // predictions; the Scalpel variants combine loops without per-loop
  // constants, and Scalpel-E keeps a per-client cache.
  enable_learning = mode != SystemMode::kLru;
  enable_loops = mode == SystemMode::kScalpelE ||
                 mode == SystemMode::kScalpelCC || mode == SystemMode::kChrono;
  enable_loop_constants = mode == SystemMode::kChrono;
  enable_combining = enable_loops;
  share_across_clients = mode != SystemMode::kScalpelE;
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

namespace {

NodeCore::Options CoreOptions(const MiddlewareConfig& config,
                              EventQueue* events) {
  return {.template_cache_entries = config.template_cache_entries,
          .delta_t = config.delta_t,
          .extractor = {config.tau, config.min_occurrences,
                        config.enable_loops, config.enable_loop_constants,
                        /*max_nodes=*/8},
          .min_validations = config.min_validations,
          .extract_every = config.extract_every,
          .enable_subsumption = config.enable_subsumption,
          .cache_bytes = config.cache_bytes,
          .cache_shards = 1,  // one exact LRU over the whole budget
          .share_across_clients = config.share_across_clients,
          .multi_node = config.multi_node,
          .node_id = config.node_id,
          .journal_virtual_time = true,
          .clock = [events] { return static_cast<uint64_t>(events->now()); }};
}

}  // namespace

Middleware::Middleware(EventQueue* events, RemoteDbServer* remote,
                       const net::LatencyModel& latency,
                       MiddlewareConfig config)
    : events_(events),
      remote_(remote),
      latency_(latency),
      config_(config),
      core_(CoreOptions(config, events)),
      mw_pool_(events, config.workers),
      retry_(config.retry) {}

void Middleware::JournalRequest(ClientId client, TemplateId tmpl,
                                obs::TraceOutcome outcome,
                                uint64_t prefetch_plan,
                                uint64_t prefetch_src) {
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

std::optional<cache::CachedResult> Middleware::LookupCounted(
    ClientId client, int security_group, const std::string& bound_text) {
  NodeCore::LookupResult lookup =
      core_.Lookup(client, security_group, bound_text, Now());
  if (lookup.rejected()) ++metrics_.cache_rejects;
  if (!lookup.hit()) return std::nullopt;
  return std::move(lookup.entry);
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
  auto parsed = core_.Analyze(sql_text);
  if (!parsed.ok()) {
    JournalRequest(client, /*tmpl=*/0, obs::TraceOutcome::kError);
    events_->ScheduleAfter(latency_.edge_rtt / 2,
                           [done, st = parsed.status()](SimTime now2) {
                             done(now2, st);
                           });
    return;
  }
  if (!parsed->tmpl->read_only) {
    ++metrics_.writes;
    HandleWrite(client, std::move(*parsed), std::move(done));
    return;
  }
  ++metrics_.reads;
  HandleRead(now, client, security_group, std::move(*parsed), std::move(done));
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
        core_.OnRemoteAccess();
        if (outcome.ok()) core_.OnClientWrite(client, writes);
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

std::vector<DependencyGraph> Middleware::DropRedundant(
    ClientId client, int security_group, std::vector<DependencyGraph> ready) {
  if (!config_.enable_redundancy_check) return ready;
  Session* session = core_.SessionFor(client);
  std::vector<DependencyGraph> to_fire;
  for (DependencyGraph& g : ready) {
    if (core_.PredictionsCached(client, session, security_group, g)) {
      ++metrics_.redundant_skips;
      continue;
    }
    to_fire.push_back(std::move(g));
  }
  return to_fire;
}

void Middleware::HandleRead(SimTime now, ClientId client, int security_group,
                            sql::ParsedQuery parsed, ResponseCallback done) {
  TemplateId tmpl = parsed.tmpl->id;

  // §5.1: suppress graphs whose predictions are already fully cached.
  std::vector<DependencyGraph> to_fire;
  if (config_.enable_learning) {
    to_fire = DropRedundant(
        client, security_group,
        core_.Learn(core_.SessionFor(client), parsed,
                    static_cast<uint64_t>(now)));
  }

  const std::string key = core_.CacheKey(client, parsed.bound_text);
  std::optional<cache::CachedResult> hit =
      LookupCounted(client, security_group, parsed.bound_text);
  if (hit.has_value()) {
    ++metrics_.cache_hits;
    JournalRequest(client, tmpl, obs::TraceOutcome::kCacheHit,
                   hit->prefetch_plan, hit->prefetch_src);
    // Answer from the edge cache first (Respond records the fresh result
    // into the mapper), then fire background predictions off it.
    Respond(client, tmpl, hit->result, done);
    FireBackground(client, security_group, std::move(to_fire), tmpl, "");
    return;
  }

  // Duplicate-request coalescing (§5.1).
  auto inflight_it = inflight_.find(key);
  if (inflight_it != inflight_.end()) {
    ++metrics_.inflight_joins;
    inflight_it->second.push_back(PendingRequest{client, std::move(done)});
    FireBackground(client, security_group, std::move(to_fire), tmpl, key);
    return;
  }

  if (!config_.enable_combining) {
    FireBackground(client, security_group, std::move(to_fire), tmpl, key);
    RemotePlain(client, security_group, tmpl, parsed.bound_text,
                std::move(done));
    return;
  }
  // The first graph containing our template is the primary: its combined
  // query will produce our result, so we wait on it.
  bool primary_seen = false;
  bool waiting = false;
  for (const DependencyGraph& g : to_fire) {
    const bool wait_here = !primary_seen && g.ContainsNode(tmpl);
    primary_seen = primary_seen || wait_here;
    if (FireGraph(client, security_group, g, tmpl, wait_here ? key : "") &&
        wait_here) {
      inflight_[key].push_back(PendingRequest{client, done});
      inflight_tmpl_[key] = {tmpl, parsed.bound_text, security_group};
      waiting = true;
    }
  }
  if (waiting) return;
  // No covering plan (or it failed to combine): fall through to plain.
  RemotePlain(client, security_group, tmpl, parsed.bound_text,
              std::move(done));
}

void Middleware::FireBackground(ClientId client, int security_group,
                                std::vector<DependencyGraph> graphs,
                                TemplateId trigger,
                                const std::string& defer_key) {
  for (DependencyGraph& g : graphs) {
    if (config_.enable_combining) {
      FireGraph(client, security_group, g, trigger, /*wait_key=*/"");
    } else if (defer_key.empty()) {
      FireSequential(client, security_group, g);
    } else {
      // Apollo-style predictions bind from the deferring query's result:
      // run them when it lands.
      deferred_seq_[defer_key].emplace_back(security_group, std::move(g));
    }
  }
}

void Middleware::RemotePlain(ClientId client, int security_group,
                             TemplateId tmpl, std::string bound_text,
                             ResponseCallback done) {
  const std::string key = core_.CacheKey(client, bound_text);
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
        core_.OnRemoteAccess();
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
        core_.Install(client, security_group, tmpl, bound_text, payload,
                      Now());
        for (auto& w : waiters) {
          // Fresh database read: Vc = Vd (§5.2).
          core_.SyncClientToDb(w.client);
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
                           const DependencyGraph& graph, TemplateId trigger,
                           const std::string& wait_key, int cascade_depth) {
  auto plan = core_.Combine(core_.SessionFor(client), graph, trigger, Now());
  if (!plan.ok()) return false;

  ++metrics_.remote_combined;
  // Charge the combination + split work to this node's worker pool.
  mw_pool_.Submit(latency_.mw_combine_service, [](SimTime) {});

  const SimTime issued_at = events_->now();
  obs::JournalEvent issued;
  issued.type = obs::JournalEventType::kCombinedIssued;
  issued.plan = plan->id;
  issued.client = static_cast<uint32_t>(client);
  Journal(issued);

  // Hand the combiner-built AST to the server alongside the text: the
  // combined query executes without ever being re-parsed.
  remote_->Submit(
      RemoteDbServer::DbRequest{plan->query->sql, plan->query->ast},
      [this, client, security_group, plan = *plan, issued_at, wait_key,
       cascade_depth](SimTime landed, Result<db::ExecOutcome> outcome) {
        core_.OnRemoteAccess();
        core_.JournalFetched(plan, client, outcome,
                             static_cast<uint64_t>(landed - issued_at), Now());
        if (outcome.ok()) {
          auto split = core_.InstallSplit(client, security_group, plan,
                                          outcome->result, Now());
          if (split.ok()) {
            metrics_.predictions_cached += split->size();
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
  std::vector<DependencyGraph> ready = DropRedundant(
      client, security_group,
      core_.MarkSplitAvail(core_.SessionFor(client), tmpl, params));
  for (const DependencyGraph& graph : ready) {
    if (FireGraph(client, security_group, graph, tmpl, "", cascade_depth)) {
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
    std::optional<cache::CachedResult> hit =
        LookupCounted(w.client, info.security_group, info.bound_text);
    if (hit.has_value()) {
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
  // The simulator is single-threaded, so the session's mapper is read
  // without its lock.
  const Session* session = core_.SessionFor(client);
  std::vector<TemplateId> topo = graph.TopologicalOrder();
  if (topo.empty()) return;

  for (TemplateId node : topo) {
    if (graph.RoleOf(node) != NodeRole::kPredicted) continue;
    const sql::QueryTemplate* tmpl = core_.FindTemplate(node);
    if (tmpl == nullptr) continue;
    // Bind parameters from the sources' last observed result sets.
    std::vector<sql::Value> params(static_cast<size_t>(tmpl->param_count),
                                   sql::Value::Null());
    bool ok = true;
    for (const auto& e : graph.edges) {
      if (e.dst != node) continue;
      const sql::ResultSet* src_rs = session->mapper.LastResult(e.src);
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
    if (core_.Contains(client, bound)) continue;
    if (inflight_.count(core_.CacheKey(client, bound)) > 0) continue;
    ++metrics_.sequential_prefetches;
    remote_->Submit(bound, [this, client, security_group, node, bound](
                               SimTime, Result<db::ExecOutcome> outcome) {
      core_.OnRemoteAccess();
      if (!outcome.ok()) return;
      auto payload = std::make_shared<const sql::ResultSet>(
          std::move(outcome->result));
      core_.Install(client, security_group, node, bound, payload, Now());
      // Feed the model so deeper predictions can bind next time.
      core_.ObserveResult(core_.SessionFor(client), node, *payload);
    });
  }
}

void Middleware::Respond(ClientId client, TemplateId tmpl,
                         std::shared_ptr<const sql::ResultSet> result,
                         const ResponseCallback& done) {
  if (config_.enable_learning) {
    core_.ObserveResult(core_.SessionFor(client), tmpl, *result);
  }
  // The scheduled delivery carries only the shared_ptr; the single copy
  // into the client's Result<ResultSet> happens at the LAN edge.
  events_->ScheduleAfter(latency_.edge_rtt / 2,
                         [done, result = std::move(result)](SimTime now2) {
                           done(now2, *result);
                         });
}

}  // namespace chrono::core
