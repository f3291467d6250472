#include "core/group_context.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cf/top_k.h"
#include "common/logging.h"

namespace fairrec {

namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

bool IsDefined(double v) { return !std::isnan(v); }

}  // namespace

Result<GroupContext> GroupContext::Build(
    const std::vector<MemberRelevance>& members, GroupContextOptions options) {
  if (members.empty()) {
    return Status::InvalidArgument("group context needs >= 1 member");
  }
  if (options.top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  for (const MemberRelevance& m : members) {
    for (size_t i = 1; i < m.relevance.size(); ++i) {
      if (m.relevance[i].item <= m.relevance[i - 1].item) {
        return Status::InvalidArgument(
            "member relevance lists must be strictly ascending by item id");
      }
    }
  }

  GroupContext ctx;
  ctx.options_ = options;
  const size_t n = members.size();
  ctx.members_.reserve(n);
  size_t shortest = members[0].relevance.size();
  for (const MemberRelevance& m : members) {
    ctx.members_.push_back(m.user);
    shortest = std::min(shortest, m.relevance.size());
  }
  if (options.require_all_members) ctx.candidates_.reserve(shortest);

  // n-way cursor merge of the (strictly item-ascending) lists: each step takes
  // the smallest item under any cursor and advances every cursor on it. A
  // member is undefined on an item it lacks or scores NaN; the aggregation
  // runs over the defined scores in member order.
  std::vector<size_t> cursor(n, 0);
  std::vector<double> scores(n);
  std::vector<double> defined;
  defined.reserve(n);
  for (;;) {
    bool any = false;
    ItemId item = kInvalidItemId;
    for (size_t m = 0; m < n; ++m) {
      const std::vector<ScoredItem>& list = members[m].relevance;
      if (cursor[m] < list.size() && (!any || list[cursor[m]].item < item)) {
        item = list[cursor[m]].item;
        any = true;
      }
    }
    if (!any) break;
    defined.clear();
    for (size_t m = 0; m < n; ++m) {
      const std::vector<ScoredItem>& list = members[m].relevance;
      scores[m] = kUndefined;
      if (cursor[m] < list.size() && list[cursor[m]].item == item) {
        scores[m] = list[cursor[m]++].score;
        if (IsDefined(scores[m])) defined.push_back(scores[m]);
      }
    }
    // An item no member defines has nothing to aggregate, whatever the policy.
    if (defined.empty()) continue;
    if (options.require_all_members && defined.size() != n) continue;
    GroupCandidate& candidate = ctx.candidates_.emplace_back();
    candidate.item = item;
    candidate.group_relevance =
        Aggregate(std::span<const double>(defined), options.aggregation,
                  options.aggregation_params);
    candidate.member_relevance = scores;
  }

  ctx.RebuildTopKSets();
  return ctx;
}

void GroupContext::RebuildTopKSets() {
  const size_t n = members_.size();
  const size_t num = candidates_.size();
  top_k_.assign(n, {});
  top_k_flags_.assign(n * num, 0);
  // One buffer for every member. It carries the candidate *index* in the item
  // slot: candidates ascend by item id, so index order is item order and the
  // (score desc, item asc) top-k is the same selection, with no lookup back.
  std::vector<ScoredItem> scored;
  scored.reserve(num);
  for (size_t m = 0; m < n; ++m) {
    scored.clear();
    for (size_t c = 0; c < num; ++c) {
      const double s = candidates_[c].member_relevance[m];
      if (IsDefined(s)) scored.push_back({static_cast<ItemId>(c), s});
    }
    const size_t k =
        std::min(scored.size(), static_cast<size_t>(options_.top_k));
    const auto kth = scored.begin() + static_cast<ptrdiff_t>(k);
    std::partial_sort(scored.begin(), kth, scored.end(), ScoredItemBetter);
    std::vector<ScoredItem>& top = top_k_[m];
    top.reserve(k);
    for (size_t r = 0; r < k; ++r) {
      const size_t c = static_cast<size_t>(scored[r].item);
      top.push_back({candidates_[c].item, scored[r].score});
      top_k_flags_[m * num + c] = 1;
    }
  }
}

GroupContext GroupContext::RestrictToTopM(int32_t m) const {
  GroupContext out;
  out.members_ = members_;
  out.options_ = options_;
  if (m >= num_candidates()) {
    out.candidates_ = candidates_;
  } else {
    std::vector<int32_t> order(candidates_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
    std::sort(order.begin(), order.end(), [this](int32_t a, int32_t b) {
      const GroupCandidate& ca = candidates_[static_cast<size_t>(a)];
      const GroupCandidate& cb = candidates_[static_cast<size_t>(b)];
      if (ca.group_relevance != cb.group_relevance) {
        return ca.group_relevance > cb.group_relevance;
      }
      return ca.item < cb.item;
    });
    order.resize(static_cast<size_t>(std::max(m, 0)));
    std::sort(order.begin(), order.end());  // restore ascending item id order
    out.candidates_.reserve(order.size());
    for (const int32_t index : order) {
      out.candidates_.push_back(candidates_[static_cast<size_t>(index)]);
    }
  }
  out.RebuildTopKSets();
  return out;
}

const GroupCandidate& GroupContext::candidate(int32_t index) const {
  FAIRREC_DCHECK(index >= 0 && index < num_candidates());
  return candidates_[static_cast<size_t>(index)];
}

int32_t GroupContext::CandidateIndexOf(ItemId item) const {
  const auto it = std::lower_bound(
      candidates_.begin(), candidates_.end(), item,
      [](const GroupCandidate& c, ItemId target) { return c.item < target; });
  if (it == candidates_.end() || it->item != item) return -1;
  return static_cast<int32_t>(it - candidates_.begin());
}

bool GroupContext::InMemberTopK(int32_t member_index,
                                int32_t candidate_index) const {
  FAIRREC_DCHECK(member_index >= 0 && member_index < group_size());
  FAIRREC_DCHECK(candidate_index >= 0 && candidate_index < num_candidates());
  return top_k_flags_[static_cast<size_t>(member_index) * candidates_.size() +
                      static_cast<size_t>(candidate_index)] != 0;
}

const std::vector<ScoredItem>& GroupContext::MemberTopK(
    int32_t member_index) const {
  FAIRREC_DCHECK(member_index >= 0 && member_index < group_size());
  return top_k_[static_cast<size_t>(member_index)];
}

}  // namespace fairrec
