// An independent reference for the general meet (paper §3.2, Fig. 5)
// and a seeded property suite that checks core::MeetGeneral against it
// on random trees, random input sets and every option the kernel takes.
//
// The reference is written from the paper, not from the kernel: one
// record per distinct association, a roll-up over the schema deepest
// paths first, a per-node count of the live items on each path, and a
// witness distance that is the number of edges its item climbed. It
// has no BATs, heap, arena, hash map or ceiling; restrictions, the
// ceiling and LIMIT are applied to its full answer afterwards. A
// failure names the seed and the case, so it can be replayed.

#include <algorithm>
#include <atomic>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/meet_general.h"
#include "data/random_tree.h"
#include "model/shredder.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace meetxml {
namespace core {
namespace {

using meetxml::testing::ReferenceLca;

// ---- The reference meet --------------------------------------------------

struct RefItem {
  PathId path;  // where the item sits now: its schema path
  Oid node;     // and node (the owner element on an attribute path)
  int climbed;  // edges climbed since seeding
  std::vector<std::pair<Assoc, size_t>> witnesses;  // (association, set)
};

struct RefAnswer {
  std::vector<GeneralMeet> meets;
  MeetGeneralStats stats;  // materialized/pruned are not modelled
};

bool WitnessBefore(const MeetWitness& a, const MeetWitness& b) {
  return std::tie(a.assoc.node, a.assoc.path, a.source) <
         std::tie(b.assoc.node, b.assoc.path, b.source);
}

RefAnswer ReferenceMeet(const model::StoredDocument& doc,
                        const std::vector<AssocSet>& inputs,
                        const MeetOptions& options) {
  const model::PathSummary& paths = doc.paths();
  RefAnswer answer;
  // Seed: equal associations, from any sets, are one item.
  std::vector<RefItem> items;
  for (size_t s = 0; s < inputs.size(); ++s) {
    for (Oid node : inputs[s].nodes) {
      Assoc assoc{inputs[s].path, node};
      auto it = std::find_if(items.begin(), items.end(),
                             [&](const RefItem& item) {
                               return item.path == assoc.path &&
                                      item.node == assoc.node;
                             });
      if (it == items.end()) {
        items.push_back(RefItem{assoc.path, assoc.node, 0, {}});
        it = items.end() - 1;
      }
      it->witnesses.emplace_back(assoc, s);
    }
  }
  answer.stats.items_seeded = items.size();

  // Children before parents: any path is deeper than its parent.
  std::vector<PathId> order;
  for (PathId p = 0; p < paths.size(); ++p) order.push_back(p);
  std::stable_sort(order.begin(), order.end(), [&](PathId a, PathId b) {
    return paths.depth(a) > paths.depth(b);
  });
  std::vector<bool> live(items.size(), true);
  std::vector<int> count(doc.node_count(), 0);
  for (PathId p : order) {
    std::vector<size_t> here;
    for (size_t i = 0; i < items.size(); ++i) {
      if (live[i] && items[i].path == p) here.push_back(i);
    }
    if (here.empty()) continue;
    ++answer.stats.paths_touched;
    for (size_t i : here) ++count[items[i].node];
    // A node holding two live items, or one item with two witnesses, is
    // a meet; it consumes everything on it.
    for (size_t i : here) {
      Oid node = items[i].node;
      if (count[node] == 0) continue;  // already emitted
      if (count[node] == 1 && items[i].witnesses.size() == 1) continue;
      GeneralMeet meet{node, doc.path(node), {}, 0};
      for (size_t j : here) {
        if (items[j].node != node) continue;
        live[j] = false;
        for (const auto& [assoc, source] : items[j].witnesses) {
          meet.witnesses.push_back(
              MeetWitness{assoc, source, items[j].climbed});
        }
      }
      count[node] = 0;
      std::vector<int> dist;
      for (const MeetWitness& w : meet.witnesses) dist.push_back(w.distance);
      std::sort(dist.rbegin(), dist.rend());
      meet.witness_distance = dist[0] + dist[1];
      std::sort(meet.witnesses.begin(), meet.witnesses.end(), WitnessBefore);
      if (options.PathAllowed(meet.meet_path) &&
          meet.witness_distance <= options.max_distance) {
        ++answer.stats.meets_found;
        answer.meets.push_back(std::move(meet));
      }
    }
    // Every item still here is alone on its node: it climbs one edge,
    // or, on a root-level path, drops out.
    for (size_t i : here) {
      count[items[i].node] = 0;
      if (!live[i]) continue;
      PathId up = paths.parent(p);
      if (up == bat::kInvalidPathId) {
        live[i] = false;
        continue;
      }
      if (paths.kind(p) != model::StepKind::kAttribute) {
        items[i].node = doc.parent(items[i].node);
      }
      items[i].path = up;
      ++items[i].climbed;
      ++answer.stats.lifts;
    }
  }

  if (options.shared_max_distance != nullptr) {
    int ceiling = options.shared_max_distance->load();
    std::erase_if(answer.meets, [&](const GeneralMeet& meet) {
      return meet.witness_distance > ceiling;
    });
  }
  // Rank by (witness distance, meet OID); two meets on one node (an
  // attribute's duplicate match and its owner element) are ordered by
  // their witness lists.
  std::sort(answer.meets.begin(), answer.meets.end(),
            [](const GeneralMeet& a, const GeneralMeet& b) {
              if (a.witness_distance != b.witness_distance) {
                return a.witness_distance < b.witness_distance;
              }
              if (a.meet != b.meet) return a.meet < b.meet;
              return std::lexicographical_compare(
                  a.witnesses.begin(), a.witnesses.end(),
                  b.witnesses.begin(), b.witnesses.end(), WitnessBefore);
            });
  if (options.max_results > 0 && answer.meets.size() > options.max_results) {
    answer.meets.resize(options.max_results);
  }
  return answer;
}

// ---- Random cases --------------------------------------------------------

struct Case {
  uint64_t seed;
  model::StoredDocument doc;
  std::vector<AssocSet> inputs;
};

// A random tree (size, fan-out and vocabulary drawn from the seed) and
// two to six input sets: element, cdata and attribute paths, some paths
// fed by several sets, nodes drawn with replacement so duplicates occur
// within and across sets, and some sets left unsorted.
Case MakeCase(uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  data::RandomTreeOptions tree;
  tree.seed = seed;
  tree.target_elements = static_cast<int>(rng.NextInRange(20, 220));
  tree.max_fanout = static_cast<int>(rng.NextInRange(2, 7));
  tree.max_depth = static_cast<int>(rng.NextInRange(3, 10));
  tree.tag_vocabulary = static_cast<int>(rng.NextInRange(2, 8));
  auto generated = data::GenerateRandomTree(tree);
  EXPECT_TRUE(generated.ok()) << generated.status();
  auto doc = model::Shred(*generated);
  EXPECT_TRUE(doc.ok()) << doc.status();
  Case c{seed, std::move(*doc), {}};

  const model::PathSummary& paths = c.doc.paths();
  std::vector<std::vector<Oid>> nodes_of(paths.size());
  for (Oid node = 0; node < c.doc.node_count(); ++node) {
    nodes_of[c.doc.path(node)].push_back(node);
  }
  for (PathId path : c.doc.string_paths()) {
    if (paths.kind(path) != model::StepKind::kAttribute) continue;
    const model::OidStrBat& owners = c.doc.StringsAt(path);
    for (size_t row = 0; row < owners.size(); ++row) {
      nodes_of[path].push_back(owners.head(row));
    }
  }
  std::vector<PathId> attribute_paths;
  for (PathId path = 0; path < paths.size(); ++path) {
    if (paths.kind(path) == model::StepKind::kAttribute &&
        !nodes_of[path].empty()) {
      attribute_paths.push_back(path);
    }
  }
  int sets = static_cast<int>(rng.NextInRange(2, 6));
  for (int s = 0; s < sets; ++s) {
    // Another set on an earlier set's path, an attribute path, or the
    // path of a random node (populous paths come up more often).
    PathId path;
    if (s > 0 && rng.NextBool(0.25)) {
      path = c.inputs[rng.NextBelow(s)].path;
    } else if (!attribute_paths.empty() && rng.NextBool(0.25)) {
      path = rng.Pick(attribute_paths);
    } else {
      path = c.doc.path(static_cast<Oid>(rng.NextBelow(c.doc.node_count())));
    }
    AssocSet set{path, {}};
    int n = static_cast<int>(rng.NextInRange(1, 12));
    for (int i = 0; i < n; ++i) {
      set.nodes.push_back(i > 0 && rng.NextBool(0.1)
                              ? set.nodes[rng.NextBelow(i)]
                              : rng.Pick(nodes_of[path]));
    }
    if (rng.NextBool(0.7)) std::sort(set.nodes.begin(), set.nodes.end());
    c.inputs.push_back(std::move(set));
  }
  return c;
}

// Concatenates by appending, numbers through std::to_string: GCC 12
// raises a false -Wrestrict on `"literal" + std::string` at -O3.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  auto append = [&out](const auto& part) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  return out;
}

std::string Describe(const std::vector<GeneralMeet>& meets) {
  std::string out;
  for (const GeneralMeet& meet : meets) {
    out += Cat("meet ", meet.meet, " path ", meet.meet_path, " wd ",
               meet.witness_distance, ":");
    for (const MeetWitness& w : meet.witnesses) {
      out += Cat(" (", w.assoc.node, ",", w.assoc.path, ",s", w.source,
                 ",d", w.distance, ")");
    }
    out += "\n";
  }
  return out;
}

std::string Describe(const std::vector<AssocSet>& inputs) {
  std::string out;
  for (const AssocSet& set : inputs) {
    out += Cat(" path ", set.path, " {");
    for (Oid node : set.nodes) out += Cat(" ", node);
    out += " }";
  }
  return out;
}

std::vector<GeneralMeet> MustMeet(const Case& c,
                                  const std::vector<AssocSet>& inputs,
                                  const MeetOptions& options,
                                  MeetGeneralStats* stats = nullptr) {
  auto meets = MeetGeneral(c.doc, inputs, options, stats);
  EXPECT_TRUE(meets.ok()) << meets.status();
  return meets.ok() ? std::move(*meets) : std::vector<GeneralMeet>{};
}

std::vector<GeneralMeet> Filtered(std::vector<GeneralMeet> meets,
                                  int max_distance) {
  std::erase_if(meets, [&](const GeneralMeet& meet) {
    return meet.witness_distance > max_distance;
  });
  return meets;
}

constexpr uint64_t kSeeds = 60;

std::string CaseName(const Case& c) {
  return Cat("seed=", c.seed, " inputs:", Describe(c.inputs));
}

// ---- Kernel against the reference ----------------------------------------

// Restriction sets the sweep crosses with every distance and LIMIT: none,
// root excluded, a random blacklist, and a random whitelist.
std::vector<std::pair<std::string, MeetOptions>> Restrictions(
    const Case& c, util::Rng* rng) {
  std::vector<std::pair<std::string, MeetOptions>> out;
  out.emplace_back("none", MeetOptions{});
  out.emplace_back("exclude-root", ExcludeRootOptions(c.doc));
  const size_t path_count = c.doc.paths().size();
  MeetOptions excluded;
  MeetOptions allowed;
  std::string excluded_name = "excluded";
  std::string allowed_name = "allowed";
  for (int i = 0; i < 3; ++i) {
    PathId a = static_cast<PathId>(rng->NextBelow(path_count));
    PathId b = static_cast<PathId>(rng->NextBelow(path_count));
    excluded.excluded_paths.insert(a);
    allowed.allowed_paths.insert(b);
    excluded_name += Cat(" ", a);
    allowed_name += Cat(" ", b);
  }
  out.emplace_back(excluded_name, excluded);
  out.emplace_back(allowed_name, allowed);
  return out;
}

TEST(MeetGeneralOracle, MatchesReferenceAcrossOptions) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Case c = MakeCase(seed);
    SCOPED_TRACE(CaseName(c));
    util::Rng rng(seed);
    for (auto& [restriction, base] : Restrictions(c, &rng)) {
      for (int within : {-1, 0, 1, 2, 3, 5}) {
        MeetOptions options = base;
        if (within >= 0) options.max_distance = within;
        const size_t answer_size = ReferenceMeet(c.doc, c.inputs, options)
                                       .meets.size();
        const size_t k = 2 + rng.NextBelow(4);
        for (size_t limit : {size_t{0}, size_t{1}, k, answer_size,
                             answer_size + 1 + rng.NextBelow(3)}) {
          for (int ceiling : {-1, 0, 2, 4}) {
            std::atomic<int> shared(ceiling);
            options.max_results = limit;
            options.shared_max_distance = ceiling >= 0 ? &shared : nullptr;
            SCOPED_TRACE(Cat(restriction, " within=", within, " limit=",
                             limit, " ceiling=", ceiling));
            RefAnswer want = ReferenceMeet(c.doc, c.inputs, options);
            MeetGeneralStats stats;
            std::vector<GeneralMeet> got = MustMeet(c, c.inputs, options,
                                                    &stats);
            ASSERT_EQ(Describe(got), Describe(want.meets));
            ASSERT_EQ(stats.items_seeded, want.stats.items_seeded);
            ASSERT_EQ(stats.lifts, want.stats.lifts);
            ASSERT_EQ(stats.paths_touched, want.stats.paths_touched);
            ASSERT_EQ(stats.meets_found, want.stats.meets_found);
            ASSERT_EQ(stats.meets_materialized + stats.meets_pruned,
                      stats.meets_found);
          }
        }
      }
    }
  }
}

// ---- Properties ----------------------------------------------------------

TEST(MeetGeneralOracle, PermutingInputsChangesNothing) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Case c = MakeCase(seed);
    SCOPED_TRACE(CaseName(c));
    util::Rng rng(seed + 1000);
    // Set i of the permuted input is set from[i] of the original.
    std::vector<size_t> from(c.inputs.size());
    for (size_t i = 0; i < from.size(); ++i) from[i] = i;
    for (size_t i = from.size(); i > 1; --i) {
      std::swap(from[i - 1], from[rng.NextBelow(i)]);
    }
    std::vector<AssocSet> permuted;
    for (size_t i : from) {
      AssocSet set = c.inputs[i];
      for (size_t j = set.nodes.size(); j > 1; --j) {
        std::swap(set.nodes[j - 1], set.nodes[rng.NextBelow(j)]);
      }
      permuted.push_back(std::move(set));
    }
    for (size_t limit : {size_t{0}, size_t{1}, size_t{3}}) {
      for (int within : {-1, 2}) {
        SCOPED_TRACE(Cat("limit=", limit, " within=", within));
        MeetOptions options = ExcludeRootOptions(c.doc);
        options.max_results = limit;
        if (within >= 0) options.max_distance = within;
        MeetGeneralStats want_stats;
        MeetGeneralStats got_stats;
        std::vector<GeneralMeet> want =
            MustMeet(c, c.inputs, options, &want_stats);
        std::vector<GeneralMeet> got =
            MustMeet(c, permuted, options, &got_stats);
        for (GeneralMeet& meet : got) {
          for (MeetWitness& w : meet.witnesses) w.source = from[w.source];
          std::sort(meet.witnesses.begin(), meet.witnesses.end(),
                    WitnessBefore);
        }
        EXPECT_EQ(Describe(got), Describe(want));
        EXPECT_EQ(got_stats.items_seeded, want_stats.items_seeded);
        EXPECT_EQ(got_stats.lifts, want_stats.lifts);
        EXPECT_EQ(got_stats.paths_touched, want_stats.paths_touched);
        EXPECT_EQ(got_stats.meets_found, want_stats.meets_found);
        EXPECT_EQ(got_stats.meets_materialized,
                  want_stats.meets_materialized);
        EXPECT_EQ(got_stats.meets_pruned, want_stats.meets_pruned);
      }
    }
  }
}

TEST(MeetGeneralOracle, LimitIsAPrefixOfTheUnlimitedAnswer) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Case c = MakeCase(seed);
    SCOPED_TRACE(CaseName(c));
    MeetOptions options;
    std::vector<GeneralMeet> all = MustMeet(c, c.inputs, options);
    for (size_t limit = 1; limit <= all.size() + 1; ++limit) {
      SCOPED_TRACE(Cat("limit=", limit));
      options.max_results = limit;
      std::vector<GeneralMeet> prefix(
          all.begin(), all.begin() + std::min(limit, all.size()));
      EXPECT_EQ(Describe(MustMeet(c, c.inputs, options)), Describe(prefix));
    }
  }
}

TEST(MeetGeneralOracle, WithinFiltersTheUnboundedAnswer) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Case c = MakeCase(seed);
    SCOPED_TRACE(CaseName(c));
    std::vector<GeneralMeet> all = MustMeet(c, c.inputs, MeetOptions{});
    for (int within = 0; within <= 8; ++within) {
      SCOPED_TRACE(Cat("within=", within));
      MeetOptions options;
      options.max_distance = within;
      EXPECT_EQ(Describe(MustMeet(c, c.inputs, options)),
                Describe(Filtered(all, within)));
    }
  }
}

TEST(MeetGeneralOracle, CeilingRestrictsTheUnboundedAnswer) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Case c = MakeCase(seed);
    SCOPED_TRACE(CaseName(c));
    std::vector<GeneralMeet> all = MustMeet(c, c.inputs, MeetOptions{});
    for (int ceiling = 0; ceiling <= 8; ++ceiling) {
      for (size_t limit : {size_t{0}, size_t{2}}) {
        SCOPED_TRACE(Cat("ceiling=", ceiling, " limit=", limit));
        std::atomic<int> shared(ceiling);
        MeetOptions options;
        options.shared_max_distance = &shared;
        options.max_results = limit;
        std::vector<GeneralMeet> want = Filtered(all, ceiling);
        if (limit > 0 && want.size() > limit) want.resize(limit);
        EXPECT_EQ(Describe(MustMeet(c, c.inputs, options)), Describe(want));
      }
    }
  }
}

TEST(MeetGeneralOracle, EveryMeetIsMinimal) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Case c = MakeCase(seed);
    SCOPED_TRACE(CaseName(c));
    std::vector<std::tuple<Oid, PathId, size_t>> consumed;
    for (const GeneralMeet& meet : MustMeet(c, c.inputs, MeetOptions{})) {
      SCOPED_TRACE(Cat("meet=", meet.meet));
      ASSERT_GE(meet.witnesses.size(), 2u);
      // The meet is the lowest common ancestor of every pair of its
      // witnesses: no deeper node holds two of them.
      for (size_t i = 0; i < meet.witnesses.size(); ++i) {
        const MeetWitness& a = meet.witnesses[i];
        consumed.emplace_back(a.assoc.node, a.assoc.path, a.source);
        for (size_t j = i + 1; j < meet.witnesses.size(); ++j) {
          EXPECT_EQ(ReferenceLca(c.doc, a.assoc.node,
                                 meet.witnesses[j].assoc.node),
                    meet.meet);
        }
      }
    }
    // No input association is consumed by two meets.
    std::sort(consumed.begin(), consumed.end());
    std::vector<std::tuple<Oid, PathId, size_t>> input;
    for (size_t s = 0; s < c.inputs.size(); ++s) {
      for (Oid node : c.inputs[s].nodes) {
        input.emplace_back(node, c.inputs[s].path, s);
      }
    }
    std::sort(input.begin(), input.end());
    EXPECT_TRUE(std::includes(input.begin(), input.end(), consumed.begin(),
                              consumed.end()));
  }
}

}  // namespace
}  // namespace core
}  // namespace meetxml
