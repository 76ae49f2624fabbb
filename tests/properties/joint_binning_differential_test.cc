// Differential property check for multi-attribute binning: on a few
// hundred seeded small tables over random hierarchies, MultiAttributeBin
// must return exactly what a straightforward row-scan implementation of
// the search returns — the same ultimate generalization,
// candidates_considered, specificity loss and status — for both
// strategies, several k values, random minimal/maximal cuts, with and
// without an encoded view, and at 1, 2 and hardware-many workers.
//
// The reference below is the oracle. It regroups every row for every
// k-check; greedy scores each candidate merge by scanning every violating
// row, with the production tie-breaks (score, then loss, then column,
// then node id); exhaustive walks the combinations in odometer order.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "binning/multi_attribute.h"
#include "common/parallel.h"
#include "common/random.h"
#include "hierarchy/encoded_view.h"
#include "hierarchy/generalization.h"

namespace privmark {
namespace {

// Random tree with fanout 2..max_children and about `target_leaves` leaves;
// deterministic in `rng`.
DomainHierarchy RandomTree(Random* rng, const std::string& name,
                           size_t target_leaves, size_t max_children) {
  HierarchyBuilder builder(name, name + "_root");
  std::vector<NodeId> frontier = {0};
  size_t next_label = 0;
  size_t leaves = 1;
  while (leaves < target_leaves && !frontier.empty()) {
    const size_t pick = rng->Uniform(frontier.size());
    const NodeId parent = frontier[pick];
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick));
    const size_t fanout = 2 + rng->Uniform(max_children - 1);
    leaves += fanout - 1;
    for (size_t i = 0; i < fanout; ++i) {
      frontier.push_back(
          builder.AddChild(parent, name + std::to_string(next_label++))
              .ValueOrDie());
    }
  }
  return builder.Build().ValueOrDie();
}

// One random generalization between `lower` and `upper`.
GeneralizationSet RandomBetween(Random* rng, const GeneralizationSet& lower,
                                const GeneralizationSet& upper) {
  const auto all = EnumerateBetween(lower, upper, 100000).ValueOrDie();
  return all[rng->Uniform(all.size())];
}

struct ReferenceResult {
  std::vector<GeneralizationSet> ultimate;
  size_t candidates_considered = 0;
  double total_specificity_loss = 0.0;
};

double ReferenceLoss(const std::vector<GeneralizationSet>& gens) {
  double total = 0;
  for (const auto& g : gens) total += g.SpecificityLoss();
  return total;
}

// Row-level regrouping: bin sizes keyed by each row's node vector.
Result<std::map<std::vector<NodeId>, size_t>> ReferenceBins(
    const std::vector<std::vector<NodeId>>& row_leaves,
    const std::vector<GeneralizationSet>& gens) {
  std::map<std::vector<NodeId>, size_t> bins;
  if (row_leaves.empty()) return bins;
  std::vector<NodeId> key(gens.size());
  for (size_t r = 0; r < row_leaves[0].size(); ++r) {
    for (size_t c = 0; c < gens.size(); ++c) {
      PRIVMARK_ASSIGN_OR_RETURN(key[c], gens[c].NodeForLeaf(row_leaves[c][r]));
    }
    ++bins[key];
  }
  return bins;
}

Result<bool> ReferenceJointlyKAnonymous(
    const std::vector<std::vector<NodeId>>& row_leaves,
    const std::vector<GeneralizationSet>& gens, size_t k) {
  PRIVMARK_ASSIGN_OR_RETURN(auto bins, ReferenceBins(row_leaves, gens));
  for (const auto& [key, size] : bins) {
    if (size < k) return false;
  }
  return true;
}

// The exhaustive search (Fig. 7): every allowable combination in odometer
// order (column 0 fastest), k-checked only on a strict loss improvement.
Result<ReferenceResult> ReferenceExhaustive(
    const std::vector<std::vector<NodeId>>& row_leaves,
    const std::vector<GeneralizationSet>& minimal,
    const std::vector<GeneralizationSet>& maximal,
    const MultiBinningOptions& options) {
  const size_t num_cols = minimal.size();
  const size_t cap = options.max_enumerations;
  std::vector<std::vector<GeneralizationSet>> allowable(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(allowable[c],
                              EnumerateBetween(minimal[c], maximal[c], cap));
  }
  size_t combo_count = 1;
  for (size_t c = 0; c < num_cols; ++c) {
    if (combo_count > cap / allowable[c].size() + 1) {
      return Status::CapacityExceeded(
          "exhaustive multi-attribute binning would evaluate more than " +
          std::to_string(cap) + " combinations");
    }
    combo_count *= allowable[c].size();
  }
  if (combo_count > cap) {
    return Status::CapacityExceeded(
        "exhaustive multi-attribute binning would evaluate " +
        std::to_string(combo_count) + " combinations (cap " +
        std::to_string(cap) + ")");
  }
  ReferenceResult result;
  result.candidates_considered = combo_count;
  result.total_specificity_loss = std::numeric_limits<double>::infinity();
  std::vector<size_t> odometer(num_cols, 0);
  std::vector<GeneralizationSet> candidate(num_cols);
  for (size_t iter = 0; iter < combo_count; ++iter) {
    for (size_t c = 0; c < num_cols; ++c) {
      candidate[c] = allowable[c][odometer[c]];
    }
    const double loss = ReferenceLoss(candidate);
    if (loss < result.total_specificity_loss) {
      PRIVMARK_ASSIGN_OR_RETURN(
          bool ok, ReferenceJointlyKAnonymous(row_leaves, candidate,
                                              options.k));
      if (ok) {
        result.total_specificity_loss = loss;
        result.ultimate = candidate;
      }
    }
    for (size_t c = 0; c < num_cols; ++c) {
      if (++odometer[c] < allowable[c].size()) break;
      odometer[c] = 0;
    }
  }
  if (result.ultimate.empty()) {
    return Status::Unbinnable(
        "no allowable generalization combination is jointly k-anonymous");
  }
  return result;
}

// The whole search: leaf resolution, the minimal/maximal checks, then the
// chosen strategy; greedy rescans every row for every candidate merge.
Result<ReferenceResult> ReferenceMultiBin(
    const Table& table, const std::vector<size_t>& qi_columns,
    const std::vector<GeneralizationSet>& minimal,
    const std::vector<GeneralizationSet>& maximal,
    const MultiBinningOptions& options) {
  const size_t k = options.k;
  const size_t num_cols = qi_columns.size();
  std::vector<std::vector<NodeId>> row_leaves(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    for (size_t r = 0; r < table.num_rows(); ++r) {
      PRIVMARK_ASSIGN_OR_RETURN(
          NodeId leaf,
          minimal[c].tree()->LeafForValue(table.at(r, qi_columns[c])));
      row_leaves[c].push_back(leaf);
    }
  }

  ReferenceResult result;
  PRIVMARK_ASSIGN_OR_RETURN(bool min_ok,
                            ReferenceJointlyKAnonymous(row_leaves, minimal, k));
  if (min_ok) {
    result.ultimate = minimal;
    result.candidates_considered = 1;
    result.total_specificity_loss = ReferenceLoss(minimal);
    return result;
  }
  PRIVMARK_ASSIGN_OR_RETURN(bool max_ok,
                            ReferenceJointlyKAnonymous(row_leaves, maximal, k));
  if (!max_ok) {
    return Status::Unbinnable(
        "even the maximal generalization nodes are not jointly " +
        std::to_string(k) + "-anonymous; the data is not binnable "
        "within the usage metrics");
  }
  if (options.strategy == SearchStrategy::kExhaustive) {
    return ReferenceExhaustive(row_leaves, minimal, maximal, options);
  }

  struct Step {
    size_t column;
    NodeId parent;
    double delta_loss;
    size_t violating_covered;
  };
  std::vector<GeneralizationSet> current = minimal;
  const size_t num_rows = table.num_rows();
  for (;;) {
    PRIVMARK_ASSIGN_OR_RETURN(auto bins, ReferenceBins(row_leaves, current));
    std::vector<std::vector<NodeId>> row_nodes(num_cols,
                                               std::vector<NodeId>(num_rows));
    for (size_t c = 0; c < num_cols; ++c) {
      for (size_t r = 0; r < num_rows; ++r) {
        PRIVMARK_ASSIGN_OR_RETURN(row_nodes[c][r],
                                  current[c].NodeForLeaf(row_leaves[c][r]));
      }
    }
    std::vector<char> violating(num_rows, 0);
    size_t num_violating = 0;
    std::vector<NodeId> key(num_cols);
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t c = 0; c < num_cols; ++c) key[c] = row_nodes[c][r];
      if (bins.at(key) < k) {
        violating[r] = 1;
        ++num_violating;
      }
    }
    if (num_violating == 0) break;

    std::vector<Step> steps;
    for (size_t c = 0; c < num_cols; ++c) {
      const DomainHierarchy& tree = *current[c].tree();
      std::set<NodeId> parents;
      for (NodeId member : current[c].nodes()) {
        const NodeId p = tree.Parent(member);
        if (p != kInvalidNode) parents.insert(p);
      }
      for (NodeId p : parents) {
        const NodeId first_leaf = tree.FirstLeafUnder(p);
        PRIVMARK_ASSIGN_OR_RETURN(NodeId cover,
                                  current[c].NodeForLeaf(first_leaf));
        if (cover == p || !tree.IsAncestorOrSelf(p, cover)) continue;
        PRIVMARK_ASSIGN_OR_RETURN(NodeId max_cover,
                                  maximal[c].NodeForLeaf(first_leaf));
        if (!tree.IsAncestorOrSelf(max_cover, p)) continue;
        size_t members_merged = 0;
        for (NodeId member : current[c].nodes()) {
          if (tree.IsAncestorOrSelf(p, member)) ++members_merged;
        }
        size_t covered = 0;
        for (size_t r = 0; r < num_rows; ++r) {
          if (violating[r] && tree.IsAncestorOrSelf(p, row_nodes[c][r])) {
            ++covered;
          }
        }
        steps.push_back(Step{
            c, p,
            static_cast<double>(members_merged - 1) /
                static_cast<double>(tree.Leaves().size()),
            covered});
      }
    }
    if (steps.empty()) {
      return Status::Unbinnable(
          "greedy multi-attribute binning ran out of merge steps before "
          "reaching joint k-anonymity");
    }
    const Step* best = &steps[0];
    for (const Step& step : steps) {
      const double score =
          static_cast<double>(step.violating_covered) /
          (step.delta_loss + 1e-12);
      const double best_score =
          static_cast<double>(best->violating_covered) /
          (best->delta_loss + 1e-12);
      bool better;
      if (score != best_score) {
        better = score > best_score;
      } else if (step.delta_loss != best->delta_loss) {
        better = step.delta_loss < best->delta_loss;
      } else if (step.column != best->column) {
        better = step.column < best->column;
      } else {
        better = step.parent < best->parent;
      }
      if (better) best = &step;
    }

    const DomainHierarchy& tree = *current[best->column].tree();
    std::vector<NodeId> next_nodes;
    for (NodeId member : current[best->column].nodes()) {
      if (!tree.IsAncestorOrSelf(best->parent, member)) {
        next_nodes.push_back(member);
      }
    }
    next_nodes.push_back(best->parent);
    PRIVMARK_ASSIGN_OR_RETURN(
        current[best->column],
        GeneralizationSet::Create(&tree, std::move(next_nodes)));
    ++result.candidates_considered;
  }
  result.ultimate = std::move(current);
  result.total_specificity_loss = ReferenceLoss(result.ultimate);
  return result;
}

// One random scenario: 2-3 QI columns over random trees, a skewed random
// table, random maximal depth cuts and a random minimal refinement of them.
struct Scenario {
  std::vector<std::unique_ptr<DomainHierarchy>> trees;
  Table table;
  std::vector<size_t> qi_columns;
  std::vector<GeneralizationSet> minimal;
  std::vector<GeneralizationSet> maximal;
  bool has_unknown_value = false;
};

Scenario MakeScenario(uint64_t seed) {
  Random rng(seed);
  Scenario s;
  const size_t num_cols = 2 + rng.Uniform(2);
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  for (size_t c = 0; c < num_cols; ++c) {
    const std::string name = "q" + std::to_string(c);
    s.trees.push_back(std::make_unique<DomainHierarchy>(
        RandomTree(&rng, name, 3 + rng.Uniform(8), 2 + rng.Uniform(3))));
    EXPECT_TRUE(schema.AddColumn({name, ColumnRole::kQuasiCategorical,
                                  ValueType::kString}).ok());
    s.qi_columns.push_back(c + 1);
  }
  s.table = Table(schema);

  // Skew: each column draws from a random weight per leaf, so some joint
  // cells are crowded and others sparse.
  std::vector<std::vector<double>> weights(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    for (size_t i = 0; i < s.trees[c]->Leaves().size(); ++i) {
      weights[c].push_back(0.05 + rng.NextDouble());
    }
  }
  const size_t num_rows = 40 + rng.Uniform(200);
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<Value> row = {Value::String("id" + std::to_string(r))};
    for (size_t c = 0; c < num_cols; ++c) {
      const DomainHierarchy& tree = *s.trees[c];
      row.push_back(Value::String(
          tree.node(tree.Leaves()[rng.WeightedIndex(weights[c])]).label));
    }
    EXPECT_TRUE(s.table.AppendRow(row).ok());
  }
  // A few scenarios carry a value outside its column's domain, so the
  // leaf-resolution error must surface identically too.
  if (rng.Uniform(20) == 0) {
    s.has_unknown_value = true;
    std::vector<Value> row = {Value::String("stray")};
    for (size_t c = 0; c < num_cols; ++c) {
      row.push_back(Value::String("not-a-leaf"));
    }
    EXPECT_TRUE(s.table.AppendRow(row).ok());
  }

  // Mostly loose maximal cuts (the root, or depth 1 for one column in
  // three) so most cases need merge steps; one scenario in four cuts each
  // column at any depth, which often leaves the data unbinnable.
  const bool tight = rng.Uniform(4) == 0;
  for (size_t c = 0; c < num_cols; ++c) {
    const DomainHierarchy* tree = s.trees[c].get();
    int height = 0;
    for (NodeId leaf : tree->Leaves()) {
      height = std::max(height, tree->Depth(leaf));
    }
    const int max_depth =
        static_cast<int>(tight ? rng.Uniform(height) : rng.Uniform(3) == 0);
    s.maximal.push_back(CutAtDepth(tree, max_depth));
    s.minimal.push_back(RandomBetween(
        &rng, GeneralizationSet::AllLeaves(tree), s.maximal.back()));
  }
  return s;
}

void ExpectSameAsReference(const Result<MultiBinningResult>& actual,
                           const Result<ReferenceResult>& expected,
                           const std::string& where) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << where << ": " << actual.status().ToString() << " vs "
      << expected.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(actual.status(), expected.status()) << where;
    return;
  }
  EXPECT_EQ(actual->ultimate, expected->ultimate) << where;
  EXPECT_EQ(actual->candidates_considered, expected->candidates_considered)
      << where;
  EXPECT_EQ(actual->total_specificity_loss, expected->total_specificity_loss)
      << where;
}

class JointBinningDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

constexpr uint64_t kSeedsPerShard = 50;

TEST_P(JointBinningDifferentialTest, MatchesRowScanReference) {
  const auto pool_2 = MakeThreadPool(2);
  const auto pool_hw = MakeThreadPool(0);
  const std::vector<std::pair<std::string, ThreadPool*>> pools = {
      {"1 thread", nullptr}, {"2 threads", pool_2.get()},
      {"hw threads", pool_hw.get()}};
  const std::vector<std::pair<size_t, SearchStrategy>> cases = {
      {2, SearchStrategy::kGreedy},     {3, SearchStrategy::kGreedy},
      {5, SearchStrategy::kGreedy},     {9, SearchStrategy::kGreedy},
      {3, SearchStrategy::kExhaustive}, {9, SearchStrategy::kExhaustive}};
  size_t checked_errors = 0;
  for (uint64_t i = 0; i < kSeedsPerShard; ++i) {
    const uint64_t seed = GetParam() * kSeedsPerShard + i + 1;
    const Scenario s = MakeScenario(seed);
    std::unique_ptr<EncodedView> view;
    if (!s.has_unknown_value) {
      std::vector<const DomainHierarchy*> trees;
      for (const auto& tree : s.trees) trees.push_back(tree.get());
      view = std::make_unique<EncodedView>(
          EncodedView::Leaves(s.table, s.qi_columns, trees).ValueOrDie());
    }
    for (const auto& [k, strategy] : cases) {
      MultiBinningOptions options;
      options.k = k;
      options.strategy = strategy;
      options.max_enumerations = 400;
      const auto expected = ReferenceMultiBin(s.table, s.qi_columns,
                                              s.minimal, s.maximal, options);
      if (!expected.ok()) ++checked_errors;
      for (const auto& [threads, pool] : pools) {
        const std::string where =
            "seed " + std::to_string(seed) + ", k " + std::to_string(k) +
            (strategy == SearchStrategy::kGreedy ? ", greedy, "
                                                 : ", exhaustive, ") +
            threads;
        ExpectSameAsReference(
            MultiAttributeBin(s.table, s.qi_columns, s.minimal, s.maximal,
                              options, nullptr, pool),
            expected, where);
        if (view != nullptr) {
          ExpectSameAsReference(
              MultiAttributeBin(s.table, s.qi_columns, s.minimal, s.maximal,
                                options, view.get(), pool),
              expected, where + ", encoded view");
        }
      }
    }
  }
  // Every shard exercises some error statuses (tight maximal cuts).
  EXPECT_GT(checked_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeedShards, JointBinningDifferentialTest,
                         ::testing::Range<uint64_t>(0, 6));

}  // namespace
}  // namespace privmark
