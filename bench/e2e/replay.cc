#include "replay.h"

#include <algorithm>
#include <limits>
#include <map>

#include "obs/trace.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "server/protocol.h"
#include "text/search.h"

namespace e2e {

namespace core = meetxml::core;
namespace query = meetxml::query;
namespace server = meetxml::server;
namespace store = meetxml::store;

namespace {

bool IsDistanceConjunct(const query::BoolExpr& expr) {
  return expr.op == query::BoolExpr::Op::kLeaf &&
         expr.leaf.kind == query::Predicate::Kind::kDistanceLe;
}

// The variable a single-variable conjunct tests (its leftmost leaf's).
const std::string& ConjunctVariable(const query::BoolExpr& expr) {
  const query::BoolExpr* cur = &expr;
  while (cur->op != query::BoolExpr::Op::kLeaf) cur = &cur->children.front();
  return cur->leaf.var;
}

// `query` reduced to one binding, its predicates and a projection of
// `kind` over its variable.
query::Query SubQuery(const query::Query& full, const query::Binding& binding,
                      query::Projection::Kind kind) {
  query::Query sub;
  sub.projections.push_back(query::Projection{kind, {binding.var}});
  sub.bindings.push_back(binding);
  for (const query::BoolExpr& conjunct : full.where) {
    if (!IsDistanceConjunct(conjunct) &&
        ConjunctVariable(conjunct) == binding.var) {
      sub.where.push_back(conjunct);
    }
  }
  return sub;
}

// The executor's index anchor for a variable: its first conjunct that
// is a bare CONTAINS leaf (query/executor.cc, EvaluateBinding).
std::string AnchorOf(const query::Query& full, const std::string& var) {
  for (const query::BoolExpr& conjunct : full.where) {
    if (IsDistanceConjunct(conjunct) || ConjunctVariable(conjunct) != var) {
      continue;
    }
    if (conjunct.op == query::BoolExpr::Op::kLeaf &&
        conjunct.leaf.kind == query::Predicate::Kind::kContains) {
      return conjunct.leaf.literal;
    }
  }
  return "";
}

// Every predicate leaf under `expr` that the text layer can answer, with
// the search mode matching its predicate.
void CollectTerms(const query::BoolExpr& expr,
                  std::vector<SearchTerm>* terms) {
  if (expr.op != query::BoolExpr::Op::kLeaf) {
    for (const query::BoolExpr& child : expr.children) {
      CollectTerms(child, terms);
    }
    return;
  }
  using Kind = query::Predicate::Kind;
  using meetxml::text::MatchMode;
  switch (expr.leaf.kind) {
    case Kind::kContains:
      terms->push_back(SearchTerm{expr.leaf.literal, MatchMode::kContains});
      break;
    case Kind::kIcontains:
      terms->push_back(
          SearchTerm{expr.leaf.literal, MatchMode::kContainsIgnoreCase});
      break;
    case Kind::kWord:
      terms->push_back(SearchTerm{expr.leaf.literal, MatchMode::kWord});
      break;
    case Kind::kPhrase:
      terms->push_back(SearchTerm{expr.leaf.literal, MatchMode::kPhrase});
      break;
    default:
      break;
  }
}

// The binding's match sets exactly as the executor builds them, read
// back from a SELECT var projection (one row per node, grouped by path,
// cells: tag, path, "o<oid>").
Result<std::vector<core::AssocSet>> BindingSets(
    const query::Executor& executor, const query::Query& full,
    const query::Binding& binding) {
  const meetxml::model::StoredDocument& doc = executor.doc();
  MEETXML_ASSIGN_OR_RETURN(
      std::vector<meetxml::bat::PathId> paths,
      query::MatchPattern(doc.paths(), binding.pattern));
  std::map<std::string, meetxml::bat::PathId> by_name;
  for (meetxml::bat::PathId path : paths) {
    by_name.emplace(doc.paths().ToString(path), path);
  }
  query::ExecuteOptions unlimited;
  unlimited.max_rows = std::numeric_limits<size_t>::max();
  MEETXML_ASSIGN_OR_RETURN(
      query::QueryResult rows,
      executor.Execute(SubQuery(full, binding, query::Projection::Kind::kVar),
                       unlimited));
  std::vector<core::AssocSet> sets;
  for (const std::vector<std::string>& row : rows.rows) {
    auto path = by_name.find(row[1]);
    if (path == by_name.end() || row[2].size() < 2) {
      return Status::Internal("unexpected binding row for path ", row[1]);
    }
    if (sets.empty() || sets.back().path != path->second) {
      sets.push_back(core::AssocSet{path->second, {}});
    }
    sets.back().nodes.push_back(
        static_cast<meetxml::bat::Oid>(std::stoull(row[2].substr(1))));
  }
  return sets;
}

}  // namespace

Result<QueryReplay> PrepareReplay(const store::Catalog& catalog,
                                  const std::string& scope,
                                  const std::string& text,
                                  const query::ExecuteOptions& options) {
  QueryReplay replay;
  replay.scope = scope;
  replay.text = text;
  MEETXML_ASSIGN_OR_RETURN(query::Query parsed, query::ParseQuery(text));
  store::MultiExecutor multi(&catalog);
  MEETXML_ASSIGN_OR_RETURN(replay.result,
                           multi.Execute(scope, parsed, options));

  const query::Projection& projection = parsed.projections.front();
  size_t row_cap = options.max_rows;
  if (parsed.limit.has_value()) {
    row_cap = std::min(row_cap, static_cast<size_t>(*parsed.limit));
  }
  if (options.limit_hint > 0) row_cap = std::min(row_cap, options.limit_hint);

  std::vector<std::string> names = catalog.MatchNames(scope);
  for (size_t i = 0; i < names.size(); ++i) {
    DocReplay doc;
    MEETXML_ASSIGN_OR_RETURN(doc.executor, catalog.ExecutorFor(names[i]));
    for (const query::Binding& binding : parsed.bindings) {
      doc.patterns.push_back(binding.pattern);
      BindingReplay replay_binding{
          SubQuery(parsed, binding, query::Projection::Kind::kCount),
          AnchorOf(parsed, binding.var),
          {}};
      for (const query::BoolExpr& conjunct :
           replay_binding.count_query.where) {
        CollectTerms(conjunct, &replay_binding.terms);
      }
      doc.bindings.push_back(std::move(replay_binding));
    }
    for (const query::PathPattern& exclude : parsed.excludes) {
      doc.patterns.push_back(exclude);
    }
    if (projection.kind == query::Projection::Kind::kMeet && row_cap > 0) {
      doc.meet = true;
      std::map<std::string, std::vector<core::AssocSet>> bound;
      for (const query::Binding& binding : parsed.bindings) {
        MEETXML_ASSIGN_OR_RETURN(bound[binding.var],
                                 BindingSets(*doc.executor, parsed, binding));
      }
      for (const std::string& var : projection.vars) {
        doc.meet_inputs.insert(doc.meet_inputs.end(), bound[var].begin(),
                               bound[var].end());
      }
      const meetxml::model::StoredDocument& stored = doc.executor->doc();
      for (const query::PathPattern& exclude : parsed.excludes) {
        MEETXML_ASSIGN_OR_RETURN(std::vector<meetxml::bat::PathId> excluded,
                                 query::MatchPattern(stored.paths(), exclude));
        doc.meet_options.excluded_paths.insert(excluded.begin(),
                                               excluded.end());
      }
      if (parsed.within.has_value()) {
        doc.meet_options.max_distance = *parsed.within;
      }
      for (const query::BoolExpr& conjunct : parsed.where) {
        if (IsDistanceConjunct(conjunct)) {
          doc.meet_options.max_distance =
              std::min(doc.meet_options.max_distance, conjunct.leaf.bound);
        }
      }
      doc.meet_options.max_results = row_cap;
      doc.served_meets_found =
          replay.result.per_document[i].result.meet_stats.meets_found;
    }
    replay.docs.push_back(std::move(doc));
  }
  return replay;
}

TracedRoundtrip RoundtripTraced(server::InProcessClient* client,
                                const server::QueryService& service,
                                const std::string& scope,
                                const std::string& text,
                                TracedRequest* request, uint64_t parent) {
  TracedRoundtrip out;
  const uint64_t logged_before = service.query_log().total_pushed();
  double start = NowUs();
  out.response = client->Query(scope, text);
  double end = NowUs();
  out.span = request->Record(parent, "server.roundtrip", start, end);
  std::vector<meetxml::obs::QueryLogEntry> log =
      service.query_log().Snapshot();
  out.staged =
      service.query_log().total_pushed() == logged_before + 1 && !log.empty();
  if (out.staged) {
    for (size_t s = 0; s < meetxml::obs::kStageCount; ++s) {
      out.stage_us[s] = static_cast<double>(log.back().stage_us[s]);
      std::string name(
          meetxml::obs::StageName(static_cast<meetxml::obs::Stage>(s)));
      request->stages_us[name] += out.stage_us[s];
    }
  }
  return out;
}

ReplayMeasure ReplayLayers(const QueryReplay& replay,
                           const TracedRoundtrip& roundtrip,
                           TracedRequest* request, LayerSamples* samples) {
  ReplayMeasure measure;
  const uint64_t root = roundtrip.span;
  // Every replayed call must succeed; a failure means the replay no
  // longer mirrors what the service ran.
  auto expect = [&](bool ok) { measure.consistent = measure.consistent && ok; };
  expect(roundtrip.staged);

  // server: rendering and the wire codec, as HandleQuery and
  // InProcessClient::Roundtrip run them.
  std::string table;
  uint64_t render = request->Time(root, "server.render",
                                  [&] { table = replay.result.ToText(); });
  size_t response_bytes = 0;
  uint64_t codec = request->Time(root, "server.codec", [&] {
    server::Request wire_request;
    wire_request.opcode = server::Opcode::kQuery;
    wire_request.scope = replay.scope;
    wire_request.query = replay.text;
    server::FrameBuffer frames;
    frames.Append(server::EncodeFrame(server::EncodeRequest(wire_request)));
    auto payload = frames.Next();
    expect(payload.ok() && payload->has_value() &&
           server::DecodeRequest(**payload).ok());
    server::Response response;
    response.ok = true;
    response.opcode = server::Opcode::kQuery;
    response.row_count = replay.result.rows.size();
    response.truncated = replay.result.truncated;
    response.table = table;
    std::string encoded = server::EncodeResponse(response);
    response_bytes = encoded.size();
    expect(server::DecodeResponse(encoded).ok());
  });

  double path_match_us = 0, anchor_us = 0, search_us = 0, postings = 0;
  core::MeetGeneralStats meet_totals;
  for (const DocReplay& doc : replay.docs) {
    uint64_t match = request->Time(root, "query.path_match", [&] {
      for (const meetxml::query::PathPattern& pattern : doc.patterns) {
        expect(query::MatchPattern(doc.executor->doc().paths(), pattern).ok());
      }
    });
    path_match_us += request->Duration(match);
    auto search = doc.executor->TextSearch();
    expect(search.ok());
    if (!search.ok()) continue;
    for (const BindingReplay& binding : doc.bindings) {
      uint64_t bind = request->Time(root, "query.bind", [&] {
        expect(doc.executor->Execute(binding.count_query).ok());
      });
      measure.bind_us += request->Duration(bind);
      if (!binding.anchor.empty()) {
        uint64_t anchor = request->Time(bind, "text.anchor", [&] {
          expect((*search)
                     ->Search(binding.anchor,
                              meetxml::text::MatchMode::kContains)
                     .ok());
        });
        anchor_us += request->Duration(anchor);
      }
      for (const SearchTerm& term : binding.terms) {
        uint64_t span = request->Time(root, "text.search", [&] {
          auto matches = (*search)->Search(term.literal, term.mode);
          expect(matches.ok());
          if (matches.ok()) postings += static_cast<double>(matches->total());
        });
        search_us += request->Duration(span);
      }
    }
    if (!doc.meet) continue;
    core::MeetGeneralStats stats;
    uint64_t meet = request->Time(root, "core.meet", [&] {
      expect(core::MeetGeneral(doc.executor->doc(), doc.meet_inputs,
                               doc.meet_options, &stats)
                 .ok());
    });
    measure.meet_us += request->Duration(meet);
    expect(stats.meets_found == doc.served_meets_found);
    measure.meets_found += stats.meets_found;
    meet_totals.items_seeded += stats.items_seeded;
    meet_totals.lifts += stats.lifts;
    meet_totals.paths_touched += stats.paths_touched;
    meet_totals.meets_found += stats.meets_found;
    meet_totals.meets_materialized += stats.meets_materialized;
    meet_totals.meets_pruned += stats.meets_pruned;
  }

  // Self time. The stage times nest inside the round trip, and the
  // replays decompose the execute stage; the five shares add up to the
  // round trip by construction, unless a replay outran the stage it
  // decomposes and its share is clamped.
  const double* s = roundtrip.stage_us;
  const double parse = s[0], route = s[1], decode = s[2], build = s[3],
               execute = s[4], merge = s[5];
  const double stages = parse + route + decode + build + execute + merge;
  const double total = request->Duration(root);
  request->Attribute(kServer, total - stages);
  request->Attribute(kStore, route + decode + build + merge);
  request->Attribute(kQuery, parse + execute - anchor_us - measure.meet_us);
  request->Attribute(kText, anchor_us);
  request->Attribute(kCore, measure.meet_us);

  samples->Add("server.roundtrip_us", total);
  samples->Add("server.render_us", request->Duration(render));
  samples->Add("server.codec_us", request->Duration(codec));
  samples->Add("server.response_bytes", static_cast<double>(response_bytes));
  samples->Add("query.parse_us", parse);
  samples->Add("query.path_match_us", path_match_us);
  samples->Add("query.bind_us", measure.bind_us);
  samples->Add("query.execute_us", execute);
  samples->Add("store.execute_us", stages);
  samples->Add("store.route_us", route);
  samples->Add("store.merge_us", merge);
  samples->Add("store.rows_found",
               static_cast<double>(replay.result.rows_found));
  samples->Add("store.rows_examined",
               static_cast<double>(replay.result.rows_examined));
  samples->Add("store.rows_pruned",
               static_cast<double>(replay.result.rows_pruned));
  samples->Add("store.rows_returned",
               static_cast<double>(replay.result.rows.size()));
  samples->Add("text.search_us", search_us);
  samples->Add("text.postings", postings);
  samples->Add("core.meet_us", measure.meet_us);
  samples->Add("core.items_seeded",
               static_cast<double>(meet_totals.items_seeded));
  samples->Add("core.lifts", static_cast<double>(meet_totals.lifts));
  samples->Add("core.paths_touched",
               static_cast<double>(meet_totals.paths_touched));
  samples->Add("core.meets_found",
               static_cast<double>(meet_totals.meets_found));
  samples->Add("core.meets_materialized",
               static_cast<double>(meet_totals.meets_materialized));
  samples->Add("core.meets_pruned",
               static_cast<double>(meet_totals.meets_pruned));
  return measure;
}

}  // namespace e2e
