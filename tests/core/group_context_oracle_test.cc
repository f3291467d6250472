// Differential test of GroupContext against a reference copy of the
// map-based merge it replaced: random member lists, every aggregation, both
// member policies, and top_k from 1 to past the candidate count must give
// bit-identical candidates, A_u lists and flags, before and after
// RestrictToTopM.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "cf/top_k.h"
#include "common/random.h"
#include "core/aggregation.h"
#include "core/group_context.h"

namespace fairrec {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The reference: std::map merge into per-item rows, SelectTopK per member and
// a binary search per A_u item. It differs from the merge it was copied from
// in one place: an item that no member defines (possible only with
// require_all_members off and a NaN score in every list holding it) is
// skipped, as the option's contract says, instead of aggregated over an
// empty set.
struct ReferenceContext {
  std::vector<GroupCandidate> candidates;
  std::vector<std::vector<ScoredItem>> top_k;
  std::vector<std::vector<uint8_t>> flags;
};

int32_t ReferenceIndexOf(const std::vector<GroupCandidate>& candidates,
                         ItemId item) {
  const auto it = std::lower_bound(
      candidates.begin(), candidates.end(), item,
      [](const GroupCandidate& c, ItemId target) { return c.item < target; });
  if (it == candidates.end() || it->item != item) return -1;
  return static_cast<int32_t>(it - candidates.begin());
}

void ReferenceTopKSets(size_t n, int32_t top_k, ReferenceContext& ref) {
  ref.top_k.assign(n, {});
  ref.flags.assign(n, std::vector<uint8_t>(ref.candidates.size(), 0));
  for (size_t m = 0; m < n; ++m) {
    std::vector<ScoredItem> defined;
    for (const GroupCandidate& c : ref.candidates) {
      const double s = c.member_relevance[m];
      if (!std::isnan(s)) defined.push_back({c.item, s});
    }
    ref.top_k[m] = SelectTopK(defined, top_k);
    for (const ScoredItem& s : ref.top_k[m]) {
      const int32_t index = ReferenceIndexOf(ref.candidates, s.item);
      ref.flags[m][static_cast<size_t>(index)] = 1;
    }
  }
}

ReferenceContext ReferenceBuild(const std::vector<MemberRelevance>& members,
                                const GroupContextOptions& options) {
  const size_t n = members.size();
  std::map<ItemId, std::vector<double>> rows;
  for (size_t m = 0; m < n; ++m) {
    for (const ScoredItem& s : members[m].relevance) {
      auto [it, inserted] = rows.try_emplace(s.item);
      if (inserted) it->second.assign(n, kNaN);
      it->second[m] = s.score;
    }
  }
  ReferenceContext ref;
  for (auto& [item, scores] : rows) {
    std::vector<double> defined;
    for (const double s : scores) {
      if (!std::isnan(s)) defined.push_back(s);
    }
    if (defined.empty()) continue;
    if (options.require_all_members && defined.size() != n) continue;
    GroupCandidate candidate;
    candidate.item = item;
    candidate.group_relevance =
        Aggregate(std::span<const double>(defined), options.aggregation,
                  options.aggregation_params);
    candidate.member_relevance = std::move(scores);
    ref.candidates.push_back(std::move(candidate));
  }
  ReferenceTopKSets(n, options.top_k, ref);
  return ref;
}

ReferenceContext ReferenceRestrict(const ReferenceContext& full, size_t n,
                                   int32_t top_k, int32_t m) {
  ReferenceContext out;
  if (m >= static_cast<int32_t>(full.candidates.size())) {
    out.candidates = full.candidates;
  } else {
    std::vector<int32_t> order(full.candidates.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int32_t>(i);
    }
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      const GroupCandidate& ca = full.candidates[static_cast<size_t>(a)];
      const GroupCandidate& cb = full.candidates[static_cast<size_t>(b)];
      if (ca.group_relevance != cb.group_relevance) {
        return ca.group_relevance > cb.group_relevance;
      }
      return ca.item < cb.item;
    });
    order.resize(static_cast<size_t>(std::max(m, 0)));
    std::sort(order.begin(), order.end());
    for (const int32_t index : order) {
      out.candidates.push_back(full.candidates[static_cast<size_t>(index)]);
    }
  }
  ReferenceTopKSets(n, top_k, out);
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// What a GroupContext exposes, in the reference's shape.
ReferenceContext Observe(const GroupContext& ctx) {
  ReferenceContext seen;
  seen.candidates = ctx.candidates();
  for (int32_t m = 0; m < ctx.group_size(); ++m) {
    seen.top_k.push_back(ctx.MemberTopK(m));
    std::vector<uint8_t>& flags = seen.flags.emplace_back();
    for (int32_t c = 0; c < ctx.num_candidates(); ++c) {
      flags.push_back(ctx.InMemberTopK(m, c) ? 1 : 0);
    }
  }
  return seen;
}

// A context flattened to integers so one comparison checks it bit for bit
// (NaN payloads and signed zeros included): candidates (item, group
// relevance, member relevance), then per member the A_u list and the
// InMemberTopK flag of every candidate.
std::vector<uint64_t> Signature(const ReferenceContext& ctx) {
  std::vector<uint64_t> sig;
  for (const GroupCandidate& c : ctx.candidates) {
    sig.push_back(static_cast<uint64_t>(c.item));
    sig.push_back(Bits(c.group_relevance));
    sig.push_back(c.member_relevance.size());
    for (const double s : c.member_relevance) sig.push_back(Bits(s));
  }
  for (size_t m = 0; m < ctx.top_k.size(); ++m) {
    sig.push_back(ctx.top_k[m].size());
    for (const ScoredItem& s : ctx.top_k[m]) {
      sig.push_back(static_cast<uint64_t>(s.item));
      sig.push_back(Bits(s.score));
    }
    for (const uint8_t flag : ctx.flags[m]) sig.push_back(flag);
  }
  return sig;
}

// Compares a context with the reference; reports the first differing word.
void ExpectMatches(const GroupContext& ctx, const ReferenceContext& ref,
                   const std::vector<MemberRelevance>& members) {
  ASSERT_EQ(ctx.group_size(), static_cast<int32_t>(members.size()));
  for (size_t m = 0; m < members.size(); ++m) {
    ASSERT_EQ(ctx.members()[m], members[m].user);
  }
  ASSERT_EQ(ctx.num_candidates(), static_cast<int32_t>(ref.candidates.size()));
  const std::vector<uint64_t> got = Signature(Observe(ctx));
  const std::vector<uint64_t> want = Signature(ref);
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin(),
                                  want.end());
  ASSERT_TRUE(diff.first == got.end() && diff.second == want.end())
      << "first difference at signature word " << (diff.first - got.begin())
      << " of " << want.size();
  for (size_t c = 0; c < ref.candidates.size(); ++c) {
    ASSERT_EQ(ctx.CandidateIndexOf(ref.candidates[c].item),
              static_cast<int32_t>(c));
  }
}

// Scores on a coarse grid (ties, for the top-k and RestrictToTopM
// tie-breaks), both signed zeros, continuous values, and NaN.
double RandomScore(Rng& rng, double nan_rate) {
  if (rng.NextBool(nan_rate)) return kNaN;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return 1.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 8));
    case 1:
      return rng.NextBool() ? 0.0 : -0.0;
    default:
      return rng.UniformReal(-2.0, 5.0);
  }
}

// 1-8 members over a universe of up to 400 items. Each list is a random
// subset of 0-300 items, or empty; some instances instead split the universe
// into pairwise disjoint lists.
std::vector<MemberRelevance> RandomMembers(Rng& rng) {
  const int32_t n = static_cast<int32_t>(rng.UniformInt(1, 8));
  const int32_t universe = static_cast<int32_t>(rng.UniformInt(0, 400));
  const bool disjoint = rng.NextBool(0.15);
  const double nan_rate = rng.NextBool(0.5) ? 0.0 : rng.UniformReal(0.0, 0.3);
  std::vector<MemberRelevance> members(static_cast<size_t>(n));
  for (int32_t m = 0; m < n; ++m) {
    MemberRelevance& member = members[static_cast<size_t>(m)];
    member.user = static_cast<UserId>(100 + 7 * m);
    std::vector<int32_t> items;
    if (disjoint) {
      for (int32_t i = m; i < universe; i += n) {
        if (rng.NextBool(0.7)) items.push_back(i);
      }
    } else if (!rng.NextBool(0.05)) {  // else: an empty list
      const int32_t size = static_cast<int32_t>(
          rng.UniformInt(0, std::min<int32_t>(universe, 300)));
      items = rng.SampleWithoutReplacement(universe, size);
    }
    std::sort(items.begin(), items.end());
    for (const int32_t i : items) {
      member.relevance.push_back({i, RandomScore(rng, nan_rate)});
    }
  }
  return members;
}

std::vector<GroupContextOptions> AggregationDesigns() {
  std::vector<GroupContextOptions> designs;
  for (const AggregationKind kind :
       {AggregationKind::kMinimum, AggregationKind::kAverage,
        AggregationKind::kMaximum, AggregationKind::kMedian}) {
    GroupContextOptions options;
    options.aggregation = kind;
    designs.push_back(options);
  }
  for (const double alpha : {0.0, 0.3, 1.0}) {
    GroupContextOptions options;
    options.aggregation = AggregationKind::kMiseryBlend;
    options.aggregation_params.misery_alpha = alpha;
    designs.push_back(options);
  }
  return designs;
}

TEST(GroupContextOracleTest, MatchesMapMergeBitForBit) {
  Rng rng(20170417);
  int64_t candidates_seen = 0;
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::vector<MemberRelevance> members = RandomMembers(rng);
    for (GroupContextOptions options : AggregationDesigns()) {
      for (const bool require_all : {true, false}) {
        options.require_all_members = require_all;
        // top_k from 1 up to past the largest possible candidate count, half
        // the time within the shortest list (the usual A_u-smaller-than-
        // candidates case under require_all_members).
        int64_t shortest = std::numeric_limits<int64_t>::max();
        int64_t union_bound = 3;
        for (const MemberRelevance& m : members) {
          const auto size = static_cast<int64_t>(m.relevance.size());
          shortest = std::min(shortest, size);
          union_bound += size;
        }
        const int64_t k_max = rng.NextBool() ? shortest + 1 : union_bound;
        options.top_k = static_cast<int32_t>(
            rng.NextBool(0.2) ? 1 : rng.UniformInt(1, k_max));
        SCOPED_TRACE(testing::Message()
                     << "aggregation "
                     << AggregationKindToString(options.aggregation)
                     << " alpha " << options.aggregation_params.misery_alpha
                     << " require_all " << require_all << " top_k "
                     << options.top_k);
        Result<GroupContext> built = GroupContext::Build(members, options);
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        const GroupContext& ctx = built.value();
        const ReferenceContext ref = ReferenceBuild(members, options);
        ExpectMatches(ctx, ref, members);
        if (testing::Test::HasFatalFailure()) return;
        candidates_seen += ctx.num_candidates();

        const int32_t count = ctx.num_candidates();
        // Truncations to nothing, to a third, to all but the last, and the
        // no-op copy path.
        for (const int32_t m : {0, count / 3, count - 1, count + 2}) {
          if (m < 0) continue;
          SCOPED_TRACE(testing::Message() << "RestrictToTopM(" << m << ")");
          const ReferenceContext ref_top_m =
              ReferenceRestrict(ref, members.size(), options.top_k, m);
          ExpectMatches(ctx.RestrictToTopM(m), ref_top_m, members);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The instances must exercise real merges, not only empty contexts.
  EXPECT_GT(candidates_seen, 50000) << candidates_seen;
}

}  // namespace
}  // namespace fairrec
