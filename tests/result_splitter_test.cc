// Direct unit tests for the result-set splitter (§4.1.1), using
// hand-constructed decode plans that mirror the paper's Fig. 8 example.

#include <gtest/gtest.h>

#include "core/result_splitter.h"
#include "sql/template.h"

namespace chrono::core {
namespace {

using sql::ResultSet;
using sql::Value;

class SplitterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Q1: SELECT symb FROM watch_item WHERE wl = ?   (params: [1])
    auto q1 = sql::AnalyzeQuery("SELECT symb FROM watch_item WHERE wl = 1");
    ASSERT_TRUE(q1.ok());
    q1_ = q1->tmpl->id;
    registry_.Register(q1->tmpl);
    // Q2: SELECT num_out FROM security WHERE s_symb = ?
    auto q2 =
        sql::AnalyzeQuery("SELECT num_out FROM security WHERE s_symb = 'X'");
    ASSERT_TRUE(q2.ok());
    q2_ = q2->tmpl->id;
    registry_.Register(q2->tmpl);
  }

  /// Combined layout (Fig. 8): [symb, q1ck, num_out, q2ck].
  CombinedQuery MakePlan() {
    CombinedQuery plan;
    DecodeSlot s1;
    s1.tmpl = q1_;
    s1.result_cols = {0};
    s1.result_names = {"symb"};
    s1.ck_cols = {1};
    s1.bound_params = {Value::Int(1)};
    plan.slots.push_back(s1);
    DecodeSlot s2;
    s2.tmpl = q2_;
    s2.result_cols = {2};
    s2.result_names = {"num_out"};
    s2.ck_cols = {3};
    s2.parents = {0};
    s2.bound_params = {Value::Null()};
    s2.mapped_params = {{0, 0}};  // param 0 <- combined column 0 (symb)
    plan.slots.push_back(s2);
    return plan;
  }

  static ResultSet Combined(std::vector<std::vector<Value>> rows) {
    ResultSet rs({"symb", "q1ck", "num_out", "q2ck"});
    for (auto& r : rows) rs.AddRow(std::move(r));
    return rs;
  }

  TemplateRegistry registry_;
  TemplateId q1_ = 0;
  TemplateId q2_ = 0;
};

TEST_F(SplitterTest, BasicLoopDecomposition) {
  auto split = SplitResult(
      MakePlan(),
      Combined({{Value::String("AAA"), Value::Int(1), Value::Int(100),
                 Value::Int(11)},
                {Value::String("BBB"), Value::Int(2), Value::Int(200),
                 Value::Int(12)}}),
      registry_);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->size(), 3u);  // Q1 + two Q2 iterations

  const auto& q1_entry = (*split)[2];  // root closes last (flush order)
  std::vector<const SplitEntry*> q2_entries;
  const SplitEntry* root = nullptr;
  for (const auto& e : *split) {
    if (e.tmpl == q1_) root = &e;
    if (e.tmpl == q2_) q2_entries.push_back(&e);
  }
  (void)q1_entry;
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->result->row_count(), 2u);
  ASSERT_EQ(q2_entries.size(), 2u);
  EXPECT_EQ(q2_entries[0]->result->row_count(), 1u);
  EXPECT_EQ(q2_entries[0]->result->row(0)[0], Value::Int(100));
  // Iteration keys are the parameterised query texts (§4.1.1).
  EXPECT_NE(q2_entries[0]->key.find("'AAA'"), std::string::npos);
  EXPECT_NE(q2_entries[1]->key.find("'BBB'"), std::string::npos);
}

// The Fig. 8 fan-out case: a Q1 row matching multiple Q2 rows repeats
// Q1's values with the same candidate key; repeated symbols with distinct
// candidate keys are different rows.
TEST_F(SplitterTest, Figure8Deduplication) {
  auto split = SplitResult(
      MakePlan(),
      Combined({
          // symb=ABC (ck 1) joins two security rows -> Q1 row repeated.
          {Value::String("ABC"), Value::Int(1), Value::Int(100), Value::Int(11)},
          {Value::String("ABC"), Value::Int(1), Value::Int(150), Value::Int(12)},
          // Same symbol again but a NEW watch-item row (ck 2).
          {Value::String("ABC"), Value::Int(2), Value::Int(100), Value::Int(11)},
      }),
      registry_);
  ASSERT_TRUE(split.ok());
  const SplitEntry* root = nullptr;
  std::vector<const SplitEntry*> children;
  for (const auto& e : *split) {
    if (e.tmpl == q1_) root = &e;
    else children.push_back(&e);
  }
  ASSERT_NE(root, nullptr);
  // Rows 1+2 deduplicate (same ck); row 3 is kept (different ck).
  EXPECT_EQ(root->result->row_count(), 2u);
  // First Q2 iteration has BOTH matched rows; second has one.
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->result->row_count(), 2u);
  EXPECT_EQ(children[1]->result->row_count(), 1u);
}

TEST_F(SplitterTest, NullChildCandidateKeyMeansEmptyIteration) {
  auto split = SplitResult(
      MakePlan(),
      Combined({{Value::String("AAA"), Value::Int(1), Value::Null(),
                 Value::Null()}}),
      registry_);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->size(), 2u);
  for (const auto& e : *split) {
    if (e.tmpl == q2_) {
      EXPECT_TRUE(e.result->empty());
      EXPECT_NE(e.key.find("'AAA'"), std::string::npos);
    }
  }
}

TEST_F(SplitterTest, EmptyCombinedStillEmitsEmptyRoot) {
  auto split = SplitResult(MakePlan(), Combined({}), registry_);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->size(), 1u);
  EXPECT_EQ((*split)[0].tmpl, q1_);
  EXPECT_TRUE((*split)[0].result->empty());
  EXPECT_EQ((*split)[0].result->columns(), (std::vector<std::string>{"symb"}));
}

TEST_F(SplitterTest, SplitColumnsMatchOriginalNames) {
  auto split = SplitResult(
      MakePlan(),
      Combined({{Value::String("AAA"), Value::Int(1), Value::Int(100),
                 Value::Int(11)}}),
      registry_);
  ASSERT_TRUE(split.ok());
  for (const auto& e : *split) {
    if (e.tmpl == q1_) {
      EXPECT_EQ(e.result->columns(), (std::vector<std::string>{"symb"}));
    } else {
      EXPECT_EQ(e.result->columns(), (std::vector<std::string>{"num_out"}));
    }
  }
}

TEST_F(SplitterTest, RootKeyUsesBoundParams) {
  auto split = SplitResult(
      MakePlan(),
      Combined({{Value::String("AAA"), Value::Int(1), Value::Int(100),
                 Value::Int(11)}}),
      registry_);
  ASSERT_TRUE(split.ok());
  for (const auto& e : *split) {
    if (e.tmpl == q1_) {
      EXPECT_NE(e.key.find("wl = 1"), std::string::npos) << e.key;
    }
  }
}

// Hit attribution is decided here, once: a child slot's entries carry
// the template of its first parent slot (the graph edge that prefetched
// them), a root slot's entries carry 0.
TEST_F(SplitterTest, EntriesCarryTheirPrefetchingEdgeSource) {
  auto split = SplitResult(
      MakePlan(),
      Combined({{Value::String("AAA"), Value::Int(1), Value::Int(100),
                 Value::Int(11)},
                {Value::String("BBB"), Value::Int(2), Value::Int(200),
                 Value::Int(12)}}),
      registry_);
  ASSERT_TRUE(split.ok());
  int roots = 0, children = 0;
  for (const auto& e : *split) {
    if (e.tmpl == q1_) {
      EXPECT_EQ(e.src, 0u);
      ++roots;
    } else if (e.tmpl == q2_) {
      EXPECT_EQ(e.src, q1_);
      ++children;
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(children, 2);
}

}  // namespace
}  // namespace chrono::core
