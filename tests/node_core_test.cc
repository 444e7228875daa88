// The node core's own contract (DESIGN.md §8): cache-key forms, the
// security and version checks of Lookup, invalidation of version-rejected
// prefetched entries, and first-use journaling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/node_core.h"
#include "obs/journal.h"

namespace chrono::core {
namespace {

class CollectSink : public obs::JournalSink {
 public:
  void OnEvents(const obs::JournalEvent* events, size_t count) override {
    events_.insert(events_.end(), events, events + count);
  }

  int Count(obs::JournalEventType type) const {
    int n = 0;
    for (const obs::JournalEvent& e : events_) {
      if (static_cast<obs::JournalEventType>(e.type) == type) ++n;
    }
    return n;
  }

  const obs::JournalEvent* Last(obs::JournalEventType type) const {
    const obs::JournalEvent* last = nullptr;
    for (const obs::JournalEvent& e : events_) {
      if (static_cast<obs::JournalEventType>(e.type) == type) last = &e;
    }
    return last;
  }

 private:
  std::vector<obs::JournalEvent> events_;
};

NodeCore::Options VirtualTimeOptions() {
  NodeCore::Options options;
  options.cache_bytes = 1 << 20;
  options.journal_virtual_time = true;
  options.clock = [] { return uint64_t{500}; };
  return options;
}

class NodeCoreTest : public ::testing::Test {
 protected:
  NodeCoreTest() : core_(VirtualTimeOptions()) {
    obs::EventJournal::Options options;
    options.drain_interval_ms = 0;  // manual Drain(): deterministic
    journal_ = std::make_unique<obs::EventJournal>(options);
    journal_->AddSink(&sink_);
    core_.AttachJournal(journal_.get());
    auto parsed = core_.Analyze(kSql);
    EXPECT_TRUE(parsed.ok());
    tmpl_ = parsed->tmpl->id;
  }

  /// Installs one row for kSql, tagged with `plan` (0 = demand fill).
  void InstallRow(int security_group, uint64_t plan, uint64_t now_us) {
    auto rows = std::make_shared<const sql::ResultSet>();
    core_.Install(/*client=*/1, security_group, tmpl_, kSql, rows, now_us,
                  plan, /*src=*/plan == 0 ? 0 : 3);
  }

  const CollectSink& Drained() {
    journal_->Drain();
    return sink_;
  }

  static constexpr const char* kSql = "SELECT v FROM t WHERE id = 1";
  NodeCore core_;
  CollectSink sink_;
  std::unique_ptr<obs::EventJournal> journal_;
  TemplateId tmpl_ = 0;
};

TEST(NodeCoreKeys, SharedPerClientAndMultiNodeForms) {
  NodeCore::Options options;
  EXPECT_EQ(NodeCore(options).CacheKey(7, "SELECT 1"), "SELECT 1");

  options.share_across_clients = false;
  EXPECT_EQ(NodeCore(options).CacheKey(7, "SELECT 1"), "c7#SELECT 1");

  options.share_across_clients = true;
  options.multi_node = true;
  options.node_id = 3;
  EXPECT_EQ(NodeCore(options).CacheKey(7, "SELECT 1"), "n3#SELECT 1");

  options.share_across_clients = false;
  EXPECT_EQ(NodeCore(options).CacheKey(7, "SELECT 1"), "c7#n3#SELECT 1");
}

TEST_F(NodeCoreTest, RejectsAnotherSecurityGroup) {
  InstallRow(/*security_group=*/1, /*plan=*/0, /*now_us=*/10);
  NodeCore::LookupResult other =
      core_.Lookup(2, /*security_group=*/2, kSql, 20);
  EXPECT_EQ(other.status, NodeCore::LookupStatus::kGroupRejected);
  EXPECT_TRUE(other.rejected());
  EXPECT_FALSE(other.entry.has_value());  // never handed across groups

  NodeCore::LookupResult same =
      core_.Lookup(2, /*security_group=*/1, kSql, 20);
  EXPECT_TRUE(same.hit());
  ASSERT_TRUE(same.entry.has_value());
  EXPECT_EQ(same.entry->security_group, 1);
}

TEST_F(NodeCoreTest, RejectsAVersionOlderThanTheClientsSession) {
  InstallRow(/*security_group=*/0, /*plan=*/0, /*now_us=*/10);
  core_.OnClientWrite(1, {"t"});  // client 1 now must see its own write

  NodeCore::LookupResult stale = core_.Lookup(1, 0, kSql, 20);
  EXPECT_EQ(stale.status, NodeCore::LookupStatus::kVersionRejected);
  // The rejected entry comes back as the stale-serve candidate, and a
  // demand-filled entry stays resident.
  ASSERT_TRUE(stale.entry.has_value());
  EXPECT_EQ(stale.entry->install_us, 10u);
  EXPECT_TRUE(core_.Contains(1, kSql));

  // Another client has not seen the write: the entry is still good for it.
  EXPECT_TRUE(core_.Lookup(2, 0, kSql, 20).hit());
}

TEST_F(NodeCoreTest, VersionRejectedPrefetchIsInvalidatedAndJournaled) {
  InstallRow(/*security_group=*/0, /*plan=*/5, /*now_us=*/100);
  core_.OnClientWrite(1, {"t"});

  NodeCore::LookupResult stale = core_.Lookup(1, 0, kSql, 200);
  EXPECT_EQ(stale.status, NodeCore::LookupStatus::kVersionRejected);
  EXPECT_FALSE(core_.Contains(1, kSql));

  const CollectSink& sink = Drained();
  EXPECT_EQ(sink.Count(obs::JournalEventType::kEntryInstalled), 1);
  ASSERT_EQ(sink.Count(obs::JournalEventType::kEntryInvalidated), 1);
  const obs::JournalEvent* gone =
      sink.Last(obs::JournalEventType::kEntryInvalidated);
  EXPECT_EQ(gone->plan, 5u);
  EXPECT_EQ(gone->src, 3u);
  EXPECT_EQ(gone->tmpl, static_cast<uint64_t>(tmpl_));
  EXPECT_EQ(gone->b, 400u);  // resident time read from the options' clock
  EXPECT_EQ(gone->flags & obs::kJournalFlagUsed, 0u);
}

TEST_F(NodeCoreTest, VersionRejectedPrefetchKeptWhenTheCallerAsks) {
  InstallRow(/*security_group=*/0, /*plan=*/5, /*now_us=*/100);
  core_.OnClientWrite(1, {"t"});

  NodeCore::LookupResult stale =
      core_.Lookup(1, 0, kSql, 200, /*keep_rejected=*/true);
  EXPECT_EQ(stale.status, NodeCore::LookupStatus::kVersionRejected);
  EXPECT_TRUE(stale.entry.has_value());
  EXPECT_TRUE(core_.Contains(1, kSql));
  EXPECT_EQ(Drained().Count(obs::JournalEventType::kEntryInvalidated), 0);
}

TEST_F(NodeCoreTest, EntryUsedJournaledOnFirstUseOnly) {
  InstallRow(/*security_group=*/0, /*plan=*/9, /*now_us=*/100);
  EXPECT_TRUE(core_.Lookup(1, 0, kSql, 130).hit());
  EXPECT_TRUE(core_.Lookup(2, 0, kSql, 170).hit());
  EXPECT_TRUE(core_.Lookup(1, 0, kSql, 190).hit());

  const CollectSink& sink = Drained();
  ASSERT_EQ(sink.Count(obs::JournalEventType::kEntryUsed), 1);
  const obs::JournalEvent* used = sink.Last(obs::JournalEventType::kEntryUsed);
  EXPECT_EQ(used->plan, 9u);
  EXPECT_EQ(used->client, 1u);
  EXPECT_EQ(used->b, 30u);      // time to first use
  EXPECT_EQ(used->ts_us, 130u);  // stamped with the caller's virtual clock
}

TEST_F(NodeCoreTest, DemandFillsAreNotJournaled) {
  InstallRow(/*security_group=*/0, /*plan=*/0, /*now_us=*/100);
  EXPECT_TRUE(core_.Lookup(1, 0, kSql, 130).hit());
  const CollectSink& sink = Drained();
  EXPECT_EQ(sink.Count(obs::JournalEventType::kEntryInstalled), 0);
  EXPECT_EQ(sink.Count(obs::JournalEventType::kEntryUsed), 0);
}

}  // namespace
}  // namespace chrono::core
