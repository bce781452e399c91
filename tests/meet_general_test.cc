// Tests for the general meet (paper Fig. 5): minimal meets over many
// input sets, order invariance, no combinatorial explosion, options.

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/meet_general.h"
#include "core/meet_pair.h"
#include "data/dblp_gen.h"
#include "data/paper_example.h"
#include "data/random_tree.h"
#include "model/shredder.h"
#include "tests/test_util.h"
#include "text/search.h"
#include "util/rng.h"

namespace meetxml {
namespace core {
namespace {

using meetxml::testing::FindCdataNode;
using meetxml::testing::FindElement;
using meetxml::testing::MustShred;
using meetxml::testing::ReferenceLca;

AssocSet SingletonSet(const model::StoredDocument& doc, Oid node) {
  return AssocSet{doc.path(node), {node}};
}

// ---- Semantics on the paper example ------------------------------------

TEST(MeetGeneral, TwoSingletonsReduceToPairMeet) {
  auto doc = MustShred(data::PaperExampleXml());
  Oid ben = FindCdataNode(doc, "Ben");
  Oid bit = FindCdataNode(doc, "Bit");
  auto results = MeetGeneral(
      doc, {SingletonSet(doc, ben), SingletonSet(doc, bit)});
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(doc.tag((*results)[0].meet), "author");
  EXPECT_EQ((*results)[0].witnesses.size(), 2u);
  EXPECT_EQ((*results)[0].witness_distance, 4);
}

TEST(MeetGeneral, DuplicateAssociationMeetsAtItself) {
  // "Bob" and "Byte" both hit the same cdata node: the meet is that
  // node, at distance 0.
  auto doc = MustShred(data::PaperExampleXml());
  Oid bob_byte = FindCdataNode(doc, "Bob Byte");
  auto results = MeetGeneral(
      doc, {SingletonSet(doc, bob_byte), SingletonSet(doc, bob_byte)});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].meet, bob_byte);
  EXPECT_EQ((*results)[0].witness_distance, 0);
  // One merged item carrying both sources.
  ASSERT_EQ((*results)[0].witnesses.size(), 2u);
  EXPECT_NE((*results)[0].witnesses[0].source,
            (*results)[0].witnesses[1].source);
}

TEST(MeetGeneral, PaperQueryBitAnd1999) {
  // The reformulated intro query: meet over matches of 'Bit' and '1999'.
  // Expected answer: exactly { article } (the paper's §3.2 result).
  auto doc = MustShred(data::PaperExampleXml());
  Oid bit = FindCdataNode(doc, "Bit");

  AssocSet years;
  for (PathId path : doc.string_paths()) {
    const auto& table = doc.StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      if (table.tail(row) == "1999") {
        years.path = path;
        years.nodes.push_back(table.head(row));
      }
    }
  }
  ASSERT_EQ(years.nodes.size(), 2u);

  auto results =
      MeetGeneral(doc, {SingletonSet(doc, bit), years});
  ASSERT_TRUE(results.ok());
  // Bit + its own article's 1999 -> article. The other 1999 climbs
  // alone and is dropped: no bibliography/institute noise.
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(doc.tag((*results)[0].meet), "article");
  Oid first_article = FindElement(doc, "article", 0);
  EXPECT_EQ((*results)[0].meet, first_article);
}

TEST(MeetGeneral, ThreeItemsConvergeToOneMeet) {
  auto doc = MustShred(data::PaperExampleXml());
  Oid ben = FindCdataNode(doc, "Ben");
  Oid bit = FindCdataNode(doc, "Bit");
  Oid title = FindCdataNode(doc, "How to Hack");
  auto results = MeetGeneral(doc, {SingletonSet(doc, ben),
                                   SingletonSet(doc, bit),
                                   SingletonSet(doc, title)});
  ASSERT_TRUE(results.ok());
  // Ben+Bit meet at author (deepest); the title cdata then climbs alone
  // and dies at the root: exactly one meet.
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(doc.tag((*results)[0].meet), "author");
  EXPECT_EQ((*results)[0].witnesses.size(), 2u);
}

TEST(MeetGeneral, SameSetConvergenceCountsAsMeet) {
  // Fig. 5's extension: a node is a meet if it is the LCA of at least
  // two input nodes, regardless of which input relation they came from.
  auto doc = MustShred(data::PaperExampleXml());
  AssocSet years;
  for (PathId path : doc.string_paths()) {
    const auto& table = doc.StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      if (table.tail(row) == "1999") {
        years.path = path;
        years.nodes.push_back(table.head(row));
      }
    }
  }
  ASSERT_EQ(years.nodes.size(), 2u);
  auto results = MeetGeneral(doc, {years});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(doc.tag((*results)[0].meet), "institute");
}

TEST(MeetGeneral, LoneItemProducesNothing) {
  auto doc = MustShred(data::PaperExampleXml());
  Oid bit = FindCdataNode(doc, "Bit");
  auto results = MeetGeneral(doc, {SingletonSet(doc, bit)});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(MeetGeneral, EmptyInputProducesNothing) {
  auto doc = MustShred(data::PaperExampleXml());
  auto results = MeetGeneral(doc, {});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

// ---- Options -----------------------------------------------------------

TEST(MeetGeneral, ExcludeRootSuppressesRootMeets) {
  auto doc = MustShred("<r><a>x</a><b>y</b></r>");
  Oid x = FindCdataNode(doc, "x");
  Oid y = FindCdataNode(doc, "y");
  auto all = MeetGeneral(doc, {SingletonSet(doc, x), SingletonSet(doc, y)});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].meet, doc.root());

  auto restricted =
      MeetGeneral(doc, {SingletonSet(doc, x), SingletonSet(doc, y)},
                  ExcludeRootOptions(doc));
  ASSERT_TRUE(restricted.ok());
  EXPECT_TRUE(restricted->empty());
}

TEST(MeetGeneral, MaxDistanceDropsWideMeets) {
  auto doc = MustShred(data::PaperExampleXml());
  Oid ben = FindCdataNode(doc, "Ben");
  Oid bit = FindCdataNode(doc, "Bit");
  MeetOptions options;
  options.max_distance = 3;
  auto results = MeetGeneral(
      doc, {SingletonSet(doc, ben), SingletonSet(doc, bit)}, options);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(MeetGeneral, OverDistanceItemStillConsumesItsPartnerAtItsMeet) {
  // Regression: a lone item whose climb distance already exceeds
  // max_distance must not be dropped early. It can never appear in a
  // *reported* meet, but at its (unreported) meet it still consumes
  // its partner — dropping it would free that partner to climb on and
  // form extra meets higher in the tree, changing d-meet answers.
  auto doc = MustShred(
      "<r><host><d1><d2><d3><d4><d5>far</d5></d4></d3></d2></d1>"
      "<near>mid</near></host><top>beta</top></r>");
  std::vector<AssocSet> inputs = {
      SingletonSet(doc, FindCdataNode(doc, "far")),
      SingletonSet(doc, FindCdataNode(doc, "mid")),
      SingletonSet(doc, FindCdataNode(doc, "beta"))};

  // far/mid meet at <host> with span 6+2=8: over the bound, so the
  // meet is unreported — but far and mid are consumed there. beta then
  // climbs to the root alone: the answer is empty. An early drop of
  // far (its distance exceeds 5 once it lifts into <host>) would
  // instead leave mid free to meet beta at <r> with span 3+2=5 <= 5.
  MeetOptions bounded;
  bounded.max_distance = 5;
  MeetGeneralStats stats;
  auto results = MeetGeneral(doc, inputs, bounded, &stats);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_TRUE(results->empty());
  EXPECT_EQ(stats.meets_found, 0u);

  // Widening the bound to the host meet's span reports exactly that
  // meet — <r> never appears in any d-meet answer for these inputs.
  MeetOptions wide;
  wide.max_distance = 8;
  auto host_only = MeetGeneral(doc, inputs, wide);
  ASSERT_TRUE(host_only.ok()) << host_only.status();
  ASSERT_EQ(host_only->size(), 1u);
  EXPECT_EQ(doc.tag((*host_only)[0].meet), "host");
  EXPECT_EQ((*host_only)[0].witness_distance, 8);
}

TEST(MeetGeneral, MaxResultsTruncatesAfterRanking) {
  auto doc = MustShred(
      "<r><p><q>a1</q><q>a2</q></p><s>b1</s><s>b2</s></r>");
  // Two meets: {a1,a2} at <p> (distance 4), {b1,b2} at <r> (distance 4)
  // ... both pairs converge; limit to 1 result.
  std::vector<AssocSet> inputs;
  for (const char* text : {"a1", "a2", "b1", "b2"}) {
    inputs.push_back(SingletonSet(doc, FindCdataNode(doc, text)));
  }
  MeetOptions options;
  options.max_results = 1;
  auto results = MeetGeneral(doc, inputs, options);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(MeetGeneral, ResultsRankedByWitnessDistance) {
  auto doc = MustShred(
      "<r><deep><deeper><x>a1</x><x>a2</x></deeper></deep>"
      "<wide><l><m>b1</m></l><n><o>b2</o></n></wide></r>");
  std::vector<AssocSet> inputs;
  for (const char* text : {"a1", "a2", "b1", "b2"}) {
    inputs.push_back(SingletonSet(doc, FindCdataNode(doc, text)));
  }
  auto results = MeetGeneral(doc, inputs);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  // a1/a2 are 4 edges apart (meet at deeper); b1/b2 are 6 apart.
  EXPECT_EQ(doc.tag((*results)[0].meet), "deeper");
  EXPECT_EQ(doc.tag((*results)[1].meet), "wide");
  EXPECT_LE((*results)[0].witness_distance,
            (*results)[1].witness_distance);
}

// ---- Attribute associations --------------------------------------------

TEST(MeetGeneral, AttributeAndCdataMeetAtOwnerSubtree) {
  auto doc = MustShred(data::PaperExampleXml());
  Oid article = FindElement(doc, "article");
  PathId key_path = doc.paths().Find(doc.path(article),
                                     model::StepKind::kAttribute, "key");
  ASSERT_NE(key_path, bat::kInvalidPathId);
  Oid bit = FindCdataNode(doc, "Bit");

  AssocSet key_set{key_path, {article}};
  auto results =
      MeetGeneral(doc, {key_set, SingletonSet(doc, bit)});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].meet, article);
  EXPECT_EQ((*results)[0].witness_distance, 4);  // @key arc + 3 edges
}

TEST(MeetGeneral, TwoMeetsOnOneNodeRankByWitnessList) {
  // The same @key matched twice meets on the key's arc, and the article
  // matched twice meets on the article's own path: two meets on one
  // node, tied on distance and OID. Their witness lists order them, so
  // the answer and its LIMIT 1 do not depend on the input order.
  auto doc = MustShred(data::PaperExampleXml());
  Oid article = FindElement(doc, "article");
  PathId article_path = doc.path(article);
  PathId key_path =
      doc.paths().Find(article_path, model::StepKind::kAttribute, "key");
  ASSERT_NE(key_path, bat::kInvalidPathId);
  std::vector<AssocSet> inputs = {{key_path, {article}},
                                  {article_path, {article}},
                                  {key_path, {article}},
                                  {article_path, {article}}};
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "inputs as listed" : "inputs reversed");
    auto all = MeetGeneral(doc, inputs);
    ASSERT_TRUE(all.ok()) << all.status();
    ASSERT_EQ(all->size(), 2u);
    EXPECT_EQ((*all)[0].meet, article);
    EXPECT_EQ((*all)[1].meet, article);
    EXPECT_EQ((*all)[0].witnesses[0].assoc.path, article_path);
    EXPECT_EQ((*all)[1].witnesses[0].assoc.path, key_path);
    MeetOptions first;
    first.max_results = 1;
    auto top = MeetGeneral(doc, inputs, first);
    ASSERT_TRUE(top.ok()) << top.status();
    ASSERT_EQ(top->size(), 1u);
    EXPECT_EQ((*top)[0].witnesses[0].assoc.path, article_path);
    std::reverse(inputs.begin(), inputs.end());
  }
}

TEST(MeetGeneral, WitnessesOfOneAssociationKeepSourceOrder) {
  // Twenty sets matching one cdata node merge into one item that meets
  // at itself. Its witnesses are equal on (node, path); they come out in
  // ascending source order, also past the size where a sort stops being
  // an insertion sort.
  auto doc = MustShred(data::PaperExampleXml());
  std::vector<AssocSet> inputs(20,
                               SingletonSet(doc, FindCdataNode(doc, "Bit")));
  auto results = MeetGeneral(doc, inputs);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);
  ASSERT_EQ((*results)[0].witnesses.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ((*results)[0].witnesses[i].source, i);
  }
}

// ---- Invariance and explosion control ----------------------------------

TEST(MeetGeneral, InputOrderDoesNotChangeResults) {
  auto doc = MustShred(data::PaperExampleXml());
  std::vector<AssocSet> inputs;
  for (const char* text : {"Ben", "Bit", "Bob Byte", "How to Hack"}) {
    inputs.push_back(SingletonSet(doc, FindCdataNode(doc, text)));
  }
  auto forward = MeetGeneral(doc, inputs);
  std::reverse(inputs.begin(), inputs.end());
  auto backward = MeetGeneral(doc, inputs);
  ASSERT_TRUE(forward.ok() && backward.ok());
  ASSERT_EQ(forward->size(), backward->size());
  for (size_t i = 0; i < forward->size(); ++i) {
    EXPECT_EQ((*forward)[i].meet, (*backward)[i].meet);
    EXPECT_EQ((*forward)[i].witness_distance,
              (*backward)[i].witness_distance);
  }
}

TEST(MeetGeneral, NoCombinatorialExplosion) {
  // n left matches and n right matches under one parent produce O(n)
  // consumed witnesses in O(1) meets — not n^2 pairs.
  std::string xml_text = "<r>";
  for (int i = 0; i < 100; ++i) xml_text += "<l>left</l>";
  for (int i = 0; i < 100; ++i) xml_text += "<m>right</m>";
  xml_text += "</r>";
  auto doc = MustShred(xml_text);

  std::vector<AssocSet> inputs(2);
  for (PathId path : doc.string_paths()) {
    const auto& table = doc.StringsAt(path);
    for (size_t row = 0; row < table.size(); ++row) {
      int which = table.tail(row) == "left" ? 0 : 1;
      inputs[which].path = path;
      inputs[which].nodes.push_back(table.head(row));
    }
  }
  ASSERT_EQ(inputs[0].nodes.size(), 100u);
  ASSERT_EQ(inputs[1].nodes.size(), 100u);

  auto results = MeetGeneral(doc, inputs);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].meet, doc.root());
  EXPECT_EQ((*results)[0].witnesses.size(), 200u);
}

// ---- Stats ---------------------------------------------------------------

TEST(MeetGeneral, ReportsExecutionStats) {
  auto doc = MustShred(data::PaperExampleXml());
  Oid ben = FindCdataNode(doc, "Ben");
  Oid bit = FindCdataNode(doc, "Bit");
  MeetGeneralStats stats;
  auto results = MeetGeneral(
      doc, {SingletonSet(doc, ben), SingletonSet(doc, bit)}, {}, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.items_seeded, 2u);
  // Ben lifts cdata->firstname (2 steps), Bit cdata->lastname (2);
  // they converge at author: 4 lifts total.
  EXPECT_EQ(stats.lifts, 4u);
  EXPECT_GT(stats.paths_touched, 0u);
}

TEST(MeetGeneral, StatsLiftsBoundedByDepthSum) {
  auto doc = MustShred(data::PaperExampleXml());
  std::vector<Oid> all;
  for (Oid oid = 0; oid < doc.node_count(); ++oid) all.push_back(oid);
  MeetGeneralStats stats;
  std::vector<AssocSet> inputs;
  {
    // Group by path (uniformly typed sets).
    std::map<PathId, AssocSet> grouped;
    for (Oid oid : all) {
      auto& set = grouped[doc.path(oid)];
      set.path = doc.path(oid);
      set.nodes.push_back(oid);
    }
    for (auto& [path, set] : grouped) inputs.push_back(std::move(set));
  }
  auto results = MeetGeneral(doc, inputs, {}, &stats);
  ASSERT_TRUE(results.ok());
  size_t depth_sum = 0;
  for (Oid oid : all) depth_sum += doc.depth(oid);
  EXPECT_LE(stats.lifts, depth_sum);
  EXPECT_EQ(stats.items_seeded, all.size());
}

// ---- Bounded-heap oracle -------------------------------------------------

// Everything the oracle compares of one meet, ordered by the ranking
// key (witness_distance, meet OID) first.
using MeetKey = std::tuple<int, Oid, PathId,
                           std::vector<std::tuple<Oid, PathId, size_t, int>>>;

std::vector<MeetKey> KeysOf(const std::vector<GeneralMeet>& meets,
                            size_t k) {
  std::vector<MeetKey> keys;
  for (size_t r = 0; r < meets.size() && r < k; ++r) {
    const GeneralMeet& meet = meets[r];
    keys.emplace_back(meet.witness_distance, meet.meet, meet.meet_path,
                      std::vector<std::tuple<Oid, PathId, size_t, int>>{});
    for (const MeetWitness& w : meet.witnesses) {
      std::get<3>(keys.back())
          .emplace_back(w.assoc.node, w.assoc.path, w.source, w.distance);
    }
  }
  return keys;
}

// The bounded mode (max_results = k) must equal full collection
// (max_results = 0) truncated to k — meets, paths, distances and
// witness lists — with the same meets_found, every found meet either
// materialized or pruned, and rows strictly ascending in (distance,
// meet OID). Checked with and without root exclusion, unbounded and at
// WITHIN 4 and 8, for k = 1, a k that cuts a run of equal distances,
// and k at and beyond the total. Returns how many configurations had
// such a run to cut.
int ExpectBoundedMatchesFullCollection(const model::StoredDocument& doc,
                                       const std::vector<AssocSet>& inputs) {
  int tie_cuts = 0;
  for (bool exclude_root : {false, true}) {
    for (int within : {0, 4, 8}) {
      MeetOptions options =
          exclude_root ? ExcludeRootOptions(doc) : MeetOptions{};
      if (within > 0) options.max_distance = within;
      MeetGeneralStats full_stats;
      auto full = MeetGeneral(doc, inputs, options, &full_stats);
      EXPECT_TRUE(full.ok()) << full.status();
      if (!full.ok()) return tie_cuts;
      EXPECT_TRUE(exclude_root || within > 0 || !full->empty());
      std::vector<size_t> ks = {1, full->size(), full->size() + 5};
      for (size_t i = 1; i < full->size(); ++i) {
        if ((*full)[i].witness_distance == (*full)[i - 1].witness_distance) {
          ks.push_back(i);
          ++tie_cuts;
          break;
        }
      }
      for (size_t k : ks) {
        SCOPED_TRACE("exclude_root=" + std::to_string(exclude_root) +
                     " within=" + std::to_string(within) +
                     " k=" + std::to_string(k));
        options.max_results = k;
        MeetGeneralStats stats;
        auto bounded = MeetGeneral(doc, inputs, options, &stats);
        EXPECT_TRUE(bounded.ok()) << bounded.status();
        if (!bounded.ok()) return tie_cuts;
        std::vector<MeetKey> got = KeysOf(*bounded, bounded->size());
        EXPECT_EQ(got, KeysOf(*full, k));
        EXPECT_EQ(std::adjacent_find(got.begin(), got.end(),
                                     [](const MeetKey& a, const MeetKey& b) {
                                       return !(a < b);
                                     }),
                  got.end());
        EXPECT_EQ(stats.meets_found, full_stats.meets_found);
        EXPECT_EQ(stats.meets_found,
                  stats.meets_materialized + stats.meets_pruned);
      }
    }
  }
  return tie_cuts;
}

std::vector<AssocSet> SearchInputs(const model::StoredDocument& doc,
                                   const std::vector<std::string>& terms) {
  auto search = text::FullTextSearch::Build(doc);
  EXPECT_TRUE(search.ok()) << search.status();
  auto matches = search->SearchAll(terms, text::MatchMode::kContains);
  EXPECT_TRUE(matches.ok()) << matches.status();
  return text::FullTextSearch::ToMeetInput(*matches);
}

TEST(MeetGeneralTopK, BoundedHeapMatchesFullCollectionOnPaperExample) {
  auto doc = MustShred(data::PaperExampleXml());
  ExpectBoundedMatchesFullCollection(doc,
                                     SearchInputs(doc, {"B", "1999"}));
}

TEST(MeetGeneralTopK, BoundedHeapMatchesFullCollectionOnDblp) {
  data::DblpOptions options;
  options.start_year = 1980;
  options.end_year = 1981;
  auto generated = data::GenerateDblp(options);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto doc = model::Shred(*generated);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_GT(ExpectBoundedMatchesFullCollection(
                *doc, SearchInputs(*doc, {"ICDE", "198"})),
            0);
}

TEST(MeetGeneralTopK, BoundedHeapMatchesFullCollectionOnRandomTrees) {
  for (uint64_t seed : {7u, 21u, 99u}) {
    data::RandomTreeOptions options;
    options.seed = seed;
    options.target_elements = 300;
    options.tag_vocabulary = 5;
    auto generated = data::GenerateRandomTree(options);
    ASSERT_TRUE(generated.ok()) << generated.status();
    auto doc = model::Shred(*generated);
    ASSERT_TRUE(doc.ok()) << doc.status();
    // Three sources of random nodes, grouped into sets by path.
    util::Rng rng(seed);
    std::vector<AssocSet> inputs;
    for (int source = 0; source < 3; ++source) {
      std::map<PathId, AssocSet> grouped;
      for (int i = 0; i < 30; ++i) {
        Oid node = static_cast<Oid>(rng.NextBelow(doc->node_count()));
        AssocSet& set = grouped[doc->path(node)];
        set.path = doc->path(node);
        set.nodes.push_back(node);
      }
      for (auto& [path, set] : grouped) {
        std::sort(set.nodes.begin(), set.nodes.end());
        set.nodes.erase(std::unique(set.nodes.begin(), set.nodes.end()),
                        set.nodes.end());
        inputs.push_back(std::move(set));
      }
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_GT(ExpectBoundedMatchesFullCollection(*doc, inputs), 0);
  }
}

// ---- Property tests -----------------------------------------------------

class MeetGeneralProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeetGeneralProperty, WitnessesPartitionAndMeetsAreLcas) {
  data::RandomTreeOptions options;
  options.seed = GetParam();
  options.target_elements = 250;
  options.tag_vocabulary = 4;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  auto shredded = model::Shred(*generated);
  ASSERT_TRUE(shredded.ok());
  const model::StoredDocument& doc = *shredded;

  util::Rng rng(GetParam() * 7 + 5);
  std::vector<Oid> sample;
  for (int i = 0; i < 40; ++i) {
    sample.push_back(static_cast<Oid>(rng.NextBelow(doc.node_count())));
  }
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  auto results = MeetGeneralNodes(doc, sample);
  ASSERT_TRUE(results.ok());

  std::vector<Oid> consumed;
  for (const GeneralMeet& meet : *results) {
    ASSERT_GE(meet.witnesses.size(), 2u);
    // The meet is an ancestor of every witness, and for at least one
    // witness pair it is the exact LCA.
    bool exact = false;
    for (const MeetWitness& w : meet.witnesses) {
      EXPECT_TRUE(doc.IsAncestorOrSelf(meet.meet, w.assoc.node));
      consumed.push_back(w.assoc.node);
    }
    for (size_t i = 0; i < meet.witnesses.size() && !exact; ++i) {
      for (size_t j = i + 1; j < meet.witnesses.size(); ++j) {
        if (ReferenceLca(doc, meet.witnesses[i].assoc.node,
                         meet.witnesses[j].assoc.node) == meet.meet) {
          exact = true;
          break;
        }
      }
    }
    EXPECT_TRUE(exact);
  }

  // Consumed witnesses are unique (each input node in at most one meet).
  std::sort(consumed.begin(), consumed.end());
  EXPECT_TRUE(std::adjacent_find(consumed.begin(), consumed.end()) ==
              consumed.end());
  // Every input is either consumed by some meet or climbs to the root
  // alone; since >= 2 arrivals at the root converge there, at most one
  // input can end unconsumed.
  EXPECT_GE(consumed.size() + 1, sample.size());
}

TEST_P(MeetGeneralProperty, MinimalityNoDeeperCommonAncestorExists) {
  data::RandomTreeOptions options;
  options.seed = GetParam() + 99;
  options.target_elements = 150;
  auto generated = data::GenerateRandomTree(options);
  ASSERT_TRUE(generated.ok());
  auto shredded = model::Shred(*generated);
  ASSERT_TRUE(shredded.ok());
  const model::StoredDocument& doc = *shredded;

  util::Rng rng(GetParam());
  std::vector<Oid> sample;
  for (int i = 0; i < 20; ++i) {
    sample.push_back(static_cast<Oid>(rng.NextBelow(doc.node_count())));
  }
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  auto results = MeetGeneralNodes(doc, sample);
  ASSERT_TRUE(results.ok());
  // Minimality (Definition 6 as generalized in §3.2): the roll-up moves
  // all items up in lockstep, so two witnesses that ended up in the same
  // meet must have their exact LCA at that meet — a deeper common
  // ancestor would have consumed them in an earlier bucket.
  for (const GeneralMeet& meet : *results) {
    for (size_t i = 0; i < meet.witnesses.size(); ++i) {
      for (size_t j = i + 1; j < meet.witnesses.size(); ++j) {
        Oid lca = ReferenceLca(doc, meet.witnesses[i].assoc.node,
                               meet.witnesses[j].assoc.node);
        EXPECT_EQ(lca, meet.meet);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetGeneralProperty,
                         ::testing::Values(17, 23, 42, 71, 101));

}  // namespace
}  // namespace core
}  // namespace meetxml
