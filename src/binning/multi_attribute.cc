#include "binning/multi_attribute.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/parallel.h"

namespace privmark {

namespace {

// The joint histogram: each distinct row tuple of per-column generalization
// nodes, with its row count. Tuples live back to back in one flat arena
// (`stride` NodeIds each) behind an open-addressing index, so interning a
// tuple allocates nothing per key. Group order depends on insertion order,
// which nothing downstream observes: the search only sums counts, checks
// them against k, and regroups.
class JointHistogram {
 public:
  explicit JointHistogram(size_t stride) : stride_(stride) {}

  size_t num_groups() const { return counts_.size(); }
  const NodeId* tuple(size_t g) const { return tuples_.data() + g * stride_; }
  size_t count(size_t g) const { return counts_[g]; }

  bool AllAtLeast(size_t k) const {
    return std::all_of(counts_.begin(), counts_.end(),
                       [k](size_t n) { return n >= k; });
  }

  // Adds `count` rows to the group of `tuple`, interning it if new.
  void Add(const NodeId* tuple, size_t count) {
    if (2 * (counts_.size() + 1) > slots_.size()) Grow();
    size_t& slot = Slot(tuple);
    if (slot == 0) {
      slot = counts_.size() + 1;
      tuples_.insert(tuples_.end(), tuple, tuple + stride_);
      counts_.push_back(0);
    }
    counts_[slot - 1] += count;
  }

 private:
  // The slot holding `tuple`'s group, or the empty slot it would take
  // (linear probing; the index is at most half full).
  size_t& Slot(const NodeId* tuple) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the tuple
    for (size_t c = 0; c < stride_; ++c) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(tuple[c]));
      h *= 1099511628211ull;
    }
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(h ^ (h >> 32)) & mask;
    while (slots_[i] != 0 &&
           !std::equal(tuple, tuple + stride_, this->tuple(slots_[i] - 1))) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
    for (size_t g = 0; g < counts_.size(); ++g) Slot(tuple(g)) = g + 1;
  }

  size_t stride_;
  std::vector<NodeId> tuples_;  // group g's tuple at [g * stride_, +stride_)
  std::vector<size_t> counts_;  // rows per group
  std::vector<size_t> slots_;   // group + 1; 0 marks an empty slot
};

// Counts the table's rows by their node tuple under `level`: the one pass
// over rows. Leaves come from the caller's encoded view when given, and
// are resolved once into a view of our own otherwise. Rows shard
// contiguously into per-shard histograms folded in shard order (integer
// sums, so the counts are the same for any shard split); the
// lowest-numbered failing shard's error is the serial pass's first error
// (rows in order, columns within a row). No columns means no groups.
Result<JointHistogram> CountRows(const Table& table,
                                 const std::vector<size_t>& qi_columns,
                                 const std::vector<GeneralizationSet>& level,
                                 const EncodedView* view, ThreadPool* pool) {
  const size_t num_cols = qi_columns.size();
  EncodedView owned;
  if (view == nullptr) {
    std::vector<const DomainHierarchy*> trees;
    for (const GeneralizationSet& gens : level) trees.push_back(gens.tree());
    PRIVMARK_ASSIGN_OR_RETURN(
        owned, EncodedView::Leaves(table, qi_columns, trees, pool));
    view = &owned;
  }
  for (size_t c = 0; c < num_cols; ++c) {
    if (view->column(c).tree() != level[c].tree()) {
      return Status::InvalidArgument(
          "MultiAttributeBin: encoded view column " + std::to_string(c) +
          " uses a different tree than its minimal nodes");
    }
  }
  if (num_cols == 0) return JointHistogram(0);
  return ParallelReduce<JointHistogram>(
      pool, view->num_rows(), JointHistogram(num_cols),
      [&](size_t, size_t begin, size_t end) -> Result<JointHistogram> {
        JointHistogram local(num_cols);
        std::vector<NodeId> key(num_cols);
        for (size_t r = begin; r < end; ++r) {
          for (size_t c = 0; c < num_cols; ++c) {
            PRIVMARK_ASSIGN_OR_RETURN(
                key[c], level[c].NodeForLeaf(view->column(c).id(r)));
          }
          local.Add(key.data(), 1);
        }
        return local;
      },
      [](JointHistogram* acc, JointHistogram&& local) {
        // The first shard moves in whole; later ones fold group by group.
        if (acc->num_groups() == 0) std::swap(*acc, local);
        for (size_t g = 0; g < local.num_groups(); ++g) {
          acc->Add(local.tuple(g), local.count(g));
        }
      });
}

// Regroups a histogram counted at `from` under the coarser `to`. Every set
// the search visits is coarser than the one its histogram was counted at,
// so a row's node under `to` is a function of its `from` node: each tuple
// lifts through a per-column table over from's members.
Result<JointHistogram> Regroup(const JointHistogram& hist,
                               const std::vector<GeneralizationSet>& from,
                               const std::vector<GeneralizationSet>& to) {
  const size_t num_cols = from.size();
  std::vector<std::vector<NodeId>> lift(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    const DomainHierarchy& tree = *from[c].tree();
    lift[c].assign(tree.num_nodes(), kInvalidNode);
    for (NodeId member : from[c].nodes()) {
      PRIVMARK_ASSIGN_OR_RETURN(lift[c][member],
                                to[c].NodeForLeaf(tree.FirstLeafUnder(member)));
    }
  }
  JointHistogram out(num_cols);
  std::vector<NodeId> key(num_cols);
  for (size_t g = 0; g < hist.num_groups(); ++g) {
    for (size_t c = 0; c < num_cols; ++c) key[c] = lift[c][hist.tuple(g)[c]];
    out.Add(key.data(), hist.count(g));
  }
  return out;
}

double TotalSpecificityLoss(const std::vector<GeneralizationSet>& gens) {
  double total = 0;
  for (const auto& g : gens) total += g.SpecificityLoss();
  return total;
}

// One greedy merge step: replace all members under `parent` with `parent`.
struct MergeStep {
  size_t column;
  NodeId parent;
  double delta_loss;       // specificity-loss increase
  size_t violating_covered;  // rows in sub-k bins whose node is under parent
};

}  // namespace

Result<bool> IsJointlyKAnonymous(const Table& table,
                                 const std::vector<size_t>& qi_columns,
                                 const std::vector<GeneralizationSet>& gens,
                                 size_t k) {
  PRIVMARK_ASSIGN_OR_RETURN(
      auto hist, CountRows(table, qi_columns, gens, nullptr, nullptr));
  return hist.AllAtLeast(k);
}

Result<MultiBinningResult> MultiAttributeBin(
    const Table& table, const std::vector<size_t>& qi_columns,
    const std::vector<GeneralizationSet>& minimal,
    const std::vector<GeneralizationSet>& maximal,
    const MultiBinningOptions& options, const EncodedView* view,
    ThreadPool* pool) {
  const size_t num_cols = qi_columns.size();
  if (minimal.size() != num_cols || maximal.size() != num_cols) {
    return Status::InvalidArgument(
        "MultiAttributeBin: minimal/maximal size mismatch with qi_columns");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("MultiAttributeBin: k must be >= 1");
  }
  for (size_t c = 0; c < num_cols; ++c) {
    if (!minimal[c].IsRefinementOf(maximal[c])) {
      return Status::InvalidArgument(
          "MultiAttributeBin: minimal nodes of column " + std::to_string(c) +
          " are not a refinement of its maximal nodes");
    }
  }

  if (view != nullptr && view->num_columns() != num_cols) {
    return Status::InvalidArgument(
        "MultiAttributeBin: encoded view covers " +
        std::to_string(view->num_columns()) + " columns, expected " +
        std::to_string(num_cols));
  }

  // The only pass over rows: distinct tuples at the minimal nodes, which
  // refine every generalization the search visits (greedy merges upward
  // from them; exhaustive candidates lie between minimal and maximal).
  PRIVMARK_ASSIGN_OR_RETURN(
      JointHistogram hist,
      CountRows(table, qi_columns, minimal, view, pool));

  MultiBinningResult result;

  // Fast path: the minimal nodes may already be jointly k-anonymous.
  if (hist.AllAtLeast(options.k)) {
    result.ultimate = minimal;
    result.candidates_considered = 1;
    result.already_satisfied = true;
    result.total_specificity_loss = TotalSpecificityLoss(minimal);
    return result;
  }

  // The data is binnable only if the all-maximal combination works.
  PRIVMARK_ASSIGN_OR_RETURN(auto at_maximal, Regroup(hist, minimal, maximal));
  if (!at_maximal.AllAtLeast(options.k)) {
    return Status::Unbinnable(
        "even the maximal generalization nodes are not jointly " +
        std::to_string(options.k) + "-anonymous; the data is not binnable "
        "within the usage metrics");
  }

  if (options.strategy == SearchStrategy::kExhaustive) {
    // Fig. 7: enumerate allowable generalizations per column, take the
    // cross product, keep valid ones, select the least specificity loss.
    std::vector<std::vector<GeneralizationSet>> allowable(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      PRIVMARK_ASSIGN_OR_RETURN(
          allowable[c],
          EnumerateBetween(minimal[c], maximal[c], options.max_enumerations));
    }
    size_t combo_count = 1;
    for (size_t c = 0; c < num_cols; ++c) {
      if (combo_count > options.max_enumerations / allowable[c].size() + 1) {
        return Status::CapacityExceeded(
            "exhaustive multi-attribute binning would evaluate more than " +
            std::to_string(options.max_enumerations) + " combinations");
      }
      combo_count *= allowable[c].size();
    }
    if (combo_count > options.max_enumerations) {
      return Status::CapacityExceeded(
          "exhaustive multi-attribute binning would evaluate " +
          std::to_string(combo_count) + " combinations (cap " +
          std::to_string(options.max_enumerations) + ")");
    }

    // Candidates are independent: shard the enumeration index space and
    // fold the per-shard winners in shard order. Each shard keeps the
    // serial pruning rule (k-check only on a strict loss improvement), so
    // its winner is the earliest minimal-loss valid candidate of its
    // range; strict-< folding then picks the earliest global one — the
    // exact candidate the serial odometer loop selects. Each k-check
    // regroups the shared minimal histogram (read-only across shards).
    struct ShardBest {
      double loss = std::numeric_limits<double>::infinity();
      std::vector<GeneralizationSet> gens;
    };
    PRIVMARK_ASSIGN_OR_RETURN(
        ShardBest best,
        ParallelReduce<ShardBest>(
            pool, combo_count, ShardBest{},
            [&](size_t, size_t begin, size_t end) -> Result<ShardBest> {
              ShardBest local;
              // Mixed-radix decomposition of the start index (column 0 is
              // the fastest-advancing digit, as in the serial loop).
              std::vector<size_t> odometer(num_cols, 0);
              size_t index = begin;
              for (size_t c = 0; c < num_cols; ++c) {
                odometer[c] = index % allowable[c].size();
                index /= allowable[c].size();
              }
              std::vector<GeneralizationSet> candidate(num_cols);
              for (size_t iter = begin; iter < end; ++iter) {
                for (size_t c = 0; c < num_cols; ++c) {
                  candidate[c] = allowable[c][odometer[c]];
                }
                const double loss = TotalSpecificityLoss(candidate);
                if (loss < local.loss) {
                  PRIVMARK_ASSIGN_OR_RETURN(
                      auto bins, Regroup(hist, minimal, candidate));
                  if (bins.AllAtLeast(options.k)) {
                    local.loss = loss;
                    local.gens = candidate;
                  }
                }
                for (size_t c = 0; c < num_cols; ++c) {
                  if (++odometer[c] < allowable[c].size()) break;
                  odometer[c] = 0;
                }
              }
              return local;
            },
            [](ShardBest* acc, ShardBest&& local) {
              if (local.loss < acc->loss) *acc = std::move(local);
            }));
    result.candidates_considered = combo_count;
    if (best.gens.empty()) {
      return Status::Unbinnable(
          "no allowable generalization combination is jointly k-anonymous");
    }
    result.ultimate = std::move(best.gens);
    result.total_specificity_loss = best.loss;
    return result;
  }

  // Greedy strategy: start at the minimal nodes; while some bin is smaller
  // than k, apply the parent-merge with the best
  // (violating-rows-covered / specificity-loss) ratio. `hist` always holds
  // the bins at `current`: each applied merge rolls it up through the one
  // changed column, so later steps regroup ever fewer tuples.
  std::vector<GeneralizationSet> current = minimal;
  std::vector<std::vector<size_t>> violating(num_cols);
  for (;;) {
    if (hist.AllAtLeast(options.k)) break;
    // violating[c][node]: rows in sub-k bins whose column-c node is `node`.
    for (size_t c = 0; c < num_cols; ++c) {
      violating[c].assign(current[c].tree()->num_nodes(), 0);
      for (size_t g = 0; g < hist.num_groups(); ++g) {
        if (hist.count(g) < options.k) {
          violating[c][hist.tuple(g)[c]] += hist.count(g);
        }
      }
    }

    // Enumerate candidate merge steps. A row's node is a current member,
    // so the violating rows under `p` are the sum over members under it.
    std::vector<MergeStep> steps;
    for (size_t c = 0; c < num_cols; ++c) {
      const DomainHierarchy& tree = *current[c].tree();
      std::set<NodeId> parents;
      for (NodeId member : current[c].nodes()) {
        const NodeId p = tree.Parent(member);
        if (p != kInvalidNode) parents.insert(p);
      }
      for (NodeId p : parents) {
        // Eligible iff p's leaves are currently covered strictly below p
        // (checking one leaf suffices for a valid antichain) and p stays at
        // or below the maximal nodes.
        const NodeId first_leaf = tree.FirstLeafUnder(p);
        PRIVMARK_ASSIGN_OR_RETURN(NodeId cover,
                                  current[c].NodeForLeaf(first_leaf));
        if (cover == p || !tree.IsAncestorOrSelf(p, cover)) continue;
        PRIVMARK_ASSIGN_OR_RETURN(NodeId max_cover,
                                  maximal[c].NodeForLeaf(first_leaf));
        if (!tree.IsAncestorOrSelf(max_cover, p)) continue;

        size_t members_merged = 0;
        size_t covered = 0;
        for (NodeId member : current[c].nodes()) {
          if (tree.IsAncestorOrSelf(p, member)) {
            ++members_merged;
            covered += violating[c][member];
          }
        }
        const double n_leaves = static_cast<double>(tree.Leaves().size());
        steps.push_back(MergeStep{
            c, p, static_cast<double>(members_merged - 1) / n_leaves,
            covered});
      }
    }
    if (steps.empty()) {
      return Status::Unbinnable(
          "greedy multi-attribute binning ran out of merge steps before "
          "reaching joint k-anonymity");
    }
    // Best ratio of violating rows fixed per unit of specificity loss;
    // deterministic tie-breaks (smaller loss, then column, then node id).
    const MergeStep* best = &steps[0];
    auto better = [](const MergeStep& a, const MergeStep& b) {
      const double score_a =
          static_cast<double>(a.violating_covered) / (a.delta_loss + 1e-12);
      const double score_b =
          static_cast<double>(b.violating_covered) / (b.delta_loss + 1e-12);
      if (score_a != score_b) return score_a > score_b;
      if (a.delta_loss != b.delta_loss) return a.delta_loss < b.delta_loss;
      if (a.column != b.column) return a.column < b.column;
      return a.parent < b.parent;
    };
    for (const MergeStep& step : steps) {
      if (better(step, *best)) best = &step;
    }

    // Apply the step: members under `parent` are replaced by `parent`, and
    // the bins roll up to the new nodes.
    const DomainHierarchy& tree = *current[best->column].tree();
    std::vector<NodeId> next_nodes;
    for (NodeId member : current[best->column].nodes()) {
      if (!tree.IsAncestorOrSelf(best->parent, member)) {
        next_nodes.push_back(member);
      }
    }
    next_nodes.push_back(best->parent);
    std::vector<GeneralizationSet> next = current;
    PRIVMARK_ASSIGN_OR_RETURN(
        next[best->column],
        GeneralizationSet::Create(&tree, std::move(next_nodes)));
    PRIVMARK_ASSIGN_OR_RETURN(hist, Regroup(hist, current, next));
    current = std::move(next);
    ++result.candidates_considered;
  }

  result.ultimate = std::move(current);
  result.total_specificity_loss = TotalSpecificityLoss(result.ultimate);
  return result;
}

}  // namespace privmark
