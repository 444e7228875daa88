// chrono_audit — offline analyzer for prefetch-efficacy event journals
// (serve_bench --journal-out / chronocache_sim --journal-out). Replays the
// binary event stream through the same PrefetchAudit fold the live
// /prefetch endpoint uses, then prints the cost/benefit report:
//
//   chrono_audit serve.journal
//   chrono_audit serve.journal --json      # the /prefetch JSON document
//
// Exit 0 on success, 2 on a malformed or unreadable journal.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/journal.h"
#include "obs/trace.h"

using namespace chrono;

namespace {

void Usage() {
  std::printf(
      "chrono_audit — prefetch-efficacy journal analyzer\n\n"
      "  chrono_audit FILE [--json]\n\n"
      "  FILE     binary journal written by serve_bench --journal-out or\n"
      "           chronocache_sim --journal-out\n"
      "  --json   emit the /prefetch JSON document instead of the report\n");
}

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 10ull << 20) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= 10ull << 10) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

void PrintScoreTable(const char* title,
                     const std::vector<obs::PrefetchAudit::Score>& scores,
                     bool plan_columns) {
  if (scores.empty()) return;
  std::printf("\n%s\n", title);
  if (plan_columns) {
    std::printf("  %-12s %7s %7s %6s %6s %6s %9s %11s %10s %12s\n", "plan",
                "issued", "install", "used", "evict-", "inval", "precision",
                "wasted", "ttfu-p50", "net-saved");
  } else {
    std::printf("  %-12s %7s %6s %6s %6s %9s %11s %10s %12s\n", "edge",
                "install", "used", "evict-", "inval", "precision", "wasted",
                "ttfu-p50", "net-saved");
  }
  for (const obs::PrefetchAudit::Score& s : scores) {
    std::string key = s.key.size() > 12 ? s.key.substr(0, 11) + "…" : s.key;
    if (plan_columns) {
      std::printf("  %-12s %7llu %7llu %6llu %6llu %6llu %8.1f%% %11s "
                  "%8.1fms %10.1fms\n",
                  key.c_str(), static_cast<unsigned long long>(s.issued),
                  static_cast<unsigned long long>(s.installed),
                  static_cast<unsigned long long>(s.used),
                  static_cast<unsigned long long>(s.evicted_unused),
                  static_cast<unsigned long long>(s.invalidated),
                  100.0 * s.precision, HumanBytes(s.wasted_bytes).c_str(),
                  s.median_ttfu_us / 1e3, s.net_saved_us / 1e3);
    } else {
      std::printf("  %-12s %7llu %6llu %6llu %6llu %8.1f%% %11s %8.1fms "
                  "%10.1fms\n",
                  key.c_str(), static_cast<unsigned long long>(s.installed),
                  static_cast<unsigned long long>(s.used),
                  static_cast<unsigned long long>(s.evicted_unused),
                  static_cast<unsigned long long>(s.invalidated),
                  100.0 * s.precision, HumanBytes(s.wasted_bytes).c_str(),
                  s.median_ttfu_us / 1e3, s.net_saved_us / 1e3);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }

  Result<std::vector<obs::JournalEvent>> events =
      obs::ReadJournalFile(path);
  if (!events.ok()) {
    std::fprintf(stderr, "chrono_audit: %s\n",
                 events.status().ToString().c_str());
    return 2;
  }

  obs::PrefetchAudit audit;
  audit.OnEvents(events->data(), events->size());
  obs::PrefetchAudit::Snapshot snap = audit.snapshot();

  if (json) {
    std::string doc = obs::PrefetchAuditJson(snap);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  std::printf("journal: %s (%zu events)\n", path.c_str(), events->size());
  std::printf("requests: %llu",
              static_cast<unsigned long long>(snap.requests));
  for (int o = 0; o < obs::kTraceOutcomeCount; ++o) {
    if (snap.outcome_counts[o] == 0) continue;
    std::printf("  %s=%llu",
                obs::TraceOutcomeName(static_cast<obs::TraceOutcome>(o)),
                static_cast<unsigned long long>(snap.outcome_counts[o]));
  }
  std::printf("\n");

  // Overall prefetch verdict.
  std::printf("\nprefetch efficacy\n");
  std::printf("  installed        : %llu\n",
              static_cast<unsigned long long>(snap.TotalInstalled()));
  std::printf("  used             : %llu\n",
              static_cast<unsigned long long>(snap.TotalUsed()));
  std::printf("  precision        : %.1f%%\n",
              100.0 * snap.OverallPrecision());
  std::printf("  invalidated      : %llu\n",
              static_cast<unsigned long long>(snap.TotalInvalidated()));
  std::printf("  wasted WAN bytes : %s\n",
              HumanBytes(snap.TotalWastedBytes()).c_str());

  // Availability/degradation board: how the fault-tolerant remote path
  // behaved — retries absorbed, calls timed out, breaker trips, stale
  // fallbacks served, best-effort work shed.
  if (snap.availability.Any()) {
    const obs::PrefetchAudit::Availability& av = snap.availability;
    std::printf("\navailability / degradation\n");
    std::printf("  backend retries  : %llu (%.1f ms backoff waited)\n",
                static_cast<unsigned long long>(av.backend_retries),
                static_cast<double>(av.backoff_us) / 1e3);
    std::printf("  backend timeouts : %llu (%llu on writes)\n",
                static_cast<unsigned long long>(av.backend_timeouts),
                static_cast<unsigned long long>(av.write_timeouts));
    std::printf("  breaker trips    : %llu open, %llu half-open, "
                "%llu re-closed\n",
                static_cast<unsigned long long>(av.breaker_open),
                static_cast<unsigned long long>(av.breaker_half_open),
                static_cast<unsigned long long>(av.breaker_closed));
    std::printf("  stale serves     : %llu",
                static_cast<unsigned long long>(av.stale_serves));
    if (av.stale_serves > 0) {
      std::printf("  (mean age %.1f ms)",
                  static_cast<double>(av.stale_age_us) /
                      static_cast<double>(av.stale_serves) / 1e3);
    }
    std::printf("\n");
    std::printf("  prefetches shed  : %llu queue-full, %llu breaker\n",
                static_cast<unsigned long long>(av.shed_queue),
                static_cast<unsigned long long>(av.shed_breaker));
    std::printf("  coalesced fetches: %llu joined an in-flight demand call\n",
                static_cast<unsigned long long>(av.backend_coalesced));
    std::printf("  rejected parks   : %llu refetched (session moved past the "
                "flight)\n",
                static_cast<unsigned long long>(av.coalesced_rejected));
  }

  // Overload control (§17): what the brownout ladder refused, deadlines
  // that expired while queued, and the must-stay-zero late-execution
  // violation count.
  if (snap.overload.Any()) {
    const obs::PrefetchAudit::Overload& ov = snap.overload;
    std::printf("\noverload control\n");
    std::printf("  shed             : %llu prefetch, %llu pipeline, "
                "%llu admission\n",
                static_cast<unsigned long long>(ov.shed_prefetch),
                static_cast<unsigned long long>(ov.shed_pipeline),
                static_cast<unsigned long long>(ov.shed_admission));
    std::printf("  expired in queue : %llu rejected unexecuted "
                "(%llu during drain)",
                static_cast<unsigned long long>(ov.deadline_expired),
                static_cast<unsigned long long>(ov.expired_in_drain));
    if (ov.deadline_expired > 0) {
      std::printf("  (mean %.1f ms past deadline)",
                  static_cast<double>(ov.expired_lateness_us) /
                      static_cast<double>(ov.deadline_expired) / 1e3);
    }
    std::printf("\n");
    std::printf("  brownout steps   : %llu transitions, peak level %llu\n",
                static_cast<unsigned long long>(ov.brownout_transitions),
                static_cast<unsigned long long>(ov.max_level));
    std::printf("  late executions  : %llu%s\n",
                static_cast<unsigned long long>(ov.late_executions),
                ov.late_executions == 0 ? " (invariant holds)"
                                        : "  ** VIOLATION **");
  }

  // Wire frontend (present only when the journal was recorded behind TCP).
  if (snap.wire.Any()) {
    const obs::PrefetchAudit::Wire& wire = snap.wire;
    std::printf("\nwire frontend\n");
    std::printf("  requests         : %llu (%llu answered with Error)\n",
                static_cast<unsigned long long>(wire.requests),
                static_cast<unsigned long long>(wire.failed));
    std::printf("  response bytes   : %s\n",
                HumanBytes(wire.response_bytes).c_str());
    std::printf("  wire latency     : mean %.1f us, p50 %.1f us, "
                "p99 %.1f us\n",
                wire.mean_latency_us, wire.p50_latency_us,
                wire.p99_latency_us);
  }

  // Stage-time profile across all requests that carried latency.
  if (snap.requests_with_latency > 0) {
    std::printf("\nstage-time profile (%llu requests)\n",
                static_cast<unsigned long long>(snap.requests_with_latency));
    uint64_t total = snap.stage_sum_us[obs::PrefetchAudit::kStageSlots - 1];
    for (int s = 0; s < obs::PrefetchAudit::kStageSlots; ++s) {
      const char* name = obs::PrefetchAudit::StageSlotName(s);
      uint64_t sum = snap.stage_sum_us[s];
      std::printf("  %-14s %12.3f s  (%5.1f%%)\n", name,
                  static_cast<double>(sum) / 1e6,
                  total > 0 ? 100.0 * static_cast<double>(sum) /
                                  static_cast<double>(total)
                            : 0.0);
    }
  }

  PrintScoreTable("per-plan scoreboard (key = root template)", snap.plans,
                  /*plan_columns=*/true);
  PrintScoreTable("per-edge scoreboard", snap.edges, /*plan_columns=*/false);

  // Waste report: who is burning WAN bytes without earning hits.
  std::vector<obs::PrefetchAudit::Score> wasteful;
  for (const auto& s : snap.plans) {
    if (s.wasted_bytes > 0) wasteful.push_back(s);
  }
  std::sort(wasteful.begin(), wasteful.end(),
            [](const obs::PrefetchAudit::Score& a,
               const obs::PrefetchAudit::Score& b) {
              return a.wasted_bytes > b.wasted_bytes;
            });
  if (!wasteful.empty()) {
    std::printf("\nwaste report (plans by unused bytes)\n");
    for (const auto& s : wasteful) {
      std::printf("  plan %-12s %11s wasted  (%llu unused evictions, "
                  "%llu unused invalidations, precision %.1f%%)\n",
                  s.key.c_str(), HumanBytes(s.wasted_bytes).c_str(),
                  static_cast<unsigned long long>(s.evicted_unused),
                  static_cast<unsigned long long>(s.invalidated_unused),
                  100.0 * s.precision);
    }
  }

  // Per-template latency breakdown by outcome.
  if (!snap.templates.empty()) {
    std::printf("\nper-template latency (µs)\n");
    std::printf("  %-20s %9s  %-14s %8s %10s %10s %10s\n", "template",
                "requests", "outcome", "count", "mean", "p50", "p99");
    for (const auto& t : snap.templates) {
      char tmpl_buf[24], req_buf[24];
      std::snprintf(tmpl_buf, sizeof(tmpl_buf), "%" PRIu64, t.tmpl);
      std::snprintf(req_buf, sizeof(req_buf), "%" PRIu64, t.requests);
      bool first = true;
      for (int o = 0; o < obs::kTraceOutcomeCount; ++o) {
        const obs::PrefetchAudit::OutcomeLatency& lat = t.outcomes[o];
        if (lat.count == 0) continue;
        std::printf("  %-20s %9s  %-14s %8llu %10.1f %10.1f %10.1f\n",
                    first ? tmpl_buf : "", first ? req_buf : "",
                    obs::TraceOutcomeName(static_cast<obs::TraceOutcome>(o)),
                    static_cast<unsigned long long>(lat.count), lat.mean_us,
                    lat.p50_us, lat.p99_us);
        first = false;
      }
    }
  }
  return 0;
}
