#include "query/parser.h"

#include <unordered_set>

#include "query/lexer.h"

namespace meetxml {
namespace query {

using util::Result;
using util::Status;

namespace {

class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<Query> ParseQueryText() {
    Query query;
    MEETXML_RETURN_NOT_OK(Expect(TokenKind::kSelect));
    MEETXML_RETURN_NOT_OK(ParseProjections(&query));
    MEETXML_RETURN_NOT_OK(Expect(TokenKind::kFrom));
    MEETXML_RETURN_NOT_OK(ParseBindings(&query));
    if (ConsumeIf(TokenKind::kWhere)) {
      MEETXML_RETURN_NOT_OK(ParseWhere(&query));
    }
    while (true) {
      if (ConsumeIf(TokenKind::kExclude)) {
        MEETXML_ASSIGN_OR_RETURN(PathPattern pattern, ParsePattern());
        query.excludes.push_back(std::move(pattern));
        while (ConsumeIf(TokenKind::kComma)) {
          MEETXML_ASSIGN_OR_RETURN(PathPattern more, ParsePattern());
          query.excludes.push_back(std::move(more));
        }
        continue;
      }
      if (ConsumeIf(TokenKind::kWithin)) {
        MEETXML_ASSIGN_OR_RETURN(int bound, ParseInteger());
        query.within = bound;
        continue;
      }
      if (ConsumeIf(TokenKind::kLimit)) {
        MEETXML_ASSIGN_OR_RETURN(int bound, ParseInteger());
        query.limit = bound;
        continue;
      }
      break;
    }
    MEETXML_RETURN_NOT_OK(Expect(TokenKind::kEof));
    MEETXML_RETURN_NOT_OK(Check(query));
    return query;
  }

  Result<PathPattern> ParsePatternOnly() {
    MEETXML_ASSIGN_OR_RETURN(PathPattern pattern, ParsePattern());
    MEETXML_RETURN_NOT_OK(Expect(TokenKind::kEof));
    return pattern;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool ConsumeIf(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status Expect(TokenKind kind) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument("expected ", TokenKindName(kind),
                                     " but found ",
                                     TokenKindName(Peek().kind),
                                     " at offset ", Peek().position);
    }
    ++pos_;
    return Status::OK();
  }

  Result<int> ParseInteger() {
    if (Peek().kind != TokenKind::kInteger) {
      return Status::InvalidArgument("expected integer at offset ",
                                     Peek().position);
    }
    return std::stoi(Advance().text);
  }

  Result<std::string> ParseVariable() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected variable name at offset ",
                                     Peek().position);
    }
    return Advance().text;
  }

  Result<std::vector<std::string>> ParseVarList() {
    MEETXML_RETURN_NOT_OK(Expect(TokenKind::kLparen));
    std::vector<std::string> vars;
    MEETXML_ASSIGN_OR_RETURN(std::string first, ParseVariable());
    vars.push_back(std::move(first));
    while (ConsumeIf(TokenKind::kComma)) {
      MEETXML_ASSIGN_OR_RETURN(std::string next, ParseVariable());
      vars.push_back(std::move(next));
    }
    MEETXML_RETURN_NOT_OK(Expect(TokenKind::kRparen));
    return vars;
  }

  Status ParseProjections(Query* query) {
    do {
      Projection projection;
      switch (Peek().kind) {
        case TokenKind::kMeet:
          Advance();
          projection.kind = Projection::Kind::kMeet;
          break;
        case TokenKind::kGraphMeet:
          Advance();
          projection.kind = Projection::Kind::kGraphMeet;
          break;
        case TokenKind::kAncestors:
          Advance();
          projection.kind = Projection::Kind::kAncestors;
          break;
        case TokenKind::kTag:
          Advance();
          projection.kind = Projection::Kind::kTag;
          break;
        case TokenKind::kPath:
          Advance();
          projection.kind = Projection::Kind::kPath;
          break;
        case TokenKind::kXml:
          Advance();
          projection.kind = Projection::Kind::kXml;
          break;
        case TokenKind::kCount:
          Advance();
          projection.kind = Projection::Kind::kCount;
          break;
        case TokenKind::kIdentifier: {
          projection.kind = Projection::Kind::kVar;
          projection.vars.push_back(Advance().text);
          query->projections.push_back(std::move(projection));
          continue;
        }
        default:
          return Status::InvalidArgument(
              "expected projection (variable, MEET, ANCESTORS, TAG, PATH, "
              "XML or COUNT) at offset ",
              Peek().position);
      }
      MEETXML_ASSIGN_OR_RETURN(projection.vars, ParseVarList());
      query->projections.push_back(std::move(projection));
    } while (ConsumeIf(TokenKind::kComma));
    return Status::OK();
  }

  Result<PathPattern> ParsePattern() {
    PathPattern pattern;
    bool expect_step = true;
    while (true) {
      const Token& token = Peek();
      if (expect_step) {
        if (token.kind == TokenKind::kIdentifier) {
          Advance();
          if (token.text == "cdata") {
            pattern.steps.push_back(
                PatternStep{PatternStep::Kind::kCdata, ""});
            pattern.text += "cdata";
          } else {
            pattern.steps.push_back(
                PatternStep{PatternStep::Kind::kName, token.text});
            pattern.text += token.text;
          }
          expect_step = false;
          continue;
        }
        if (token.kind == TokenKind::kStar) {
          Advance();
          pattern.steps.push_back(
              PatternStep{PatternStep::Kind::kAnyElement, ""});
          pattern.text += "*";
          expect_step = false;
          continue;
        }
        if (token.kind == TokenKind::kAt) {
          Advance();
          if (Peek().kind != TokenKind::kIdentifier) {
            return Status::InvalidArgument(
                "expected attribute name after '@' at offset ",
                Peek().position);
          }
          pattern.steps.push_back(PatternStep{
              PatternStep::Kind::kAttribute, Advance().text});
          pattern.text += "@" + pattern.steps.back().label;
          expect_step = false;
          continue;
        }
        return Status::InvalidArgument(
            "expected path step (name, '*', '@attr' or 'cdata') at "
            "offset ",
            token.position);
      }
      // After a step: '/' continues, '//' continues with a descendant
      // gap, anything else ends the pattern.
      if (token.kind == TokenKind::kSlash) {
        Advance();
        pattern.text += "/";
        expect_step = true;
        continue;
      }
      if (token.kind == TokenKind::kDoubleSlash) {
        Advance();
        pattern.steps.push_back(
            PatternStep{PatternStep::Kind::kDescendant, ""});
        pattern.text += "//";
        expect_step = true;
        continue;
      }
      break;
    }
    if (pattern.steps.empty()) {
      return Status::InvalidArgument("empty path pattern");
    }
    return pattern;
  }

  Status ParseBindings(Query* query) {
    do {
      Binding binding;
      MEETXML_ASSIGN_OR_RETURN(binding.pattern, ParsePattern());
      ConsumeIf(TokenKind::kAs);  // AS is optional
      MEETXML_ASSIGN_OR_RETURN(binding.var, ParseVariable());
      query->bindings.push_back(std::move(binding));
    } while (ConsumeIf(TokenKind::kComma));
    return Status::OK();
  }

  // WHERE grammar with conventional precedence (NOT > AND > OR):
  //   or_expr   := and_expr (OR and_expr)*
  //   and_expr  := unary (AND unary)*
  //   unary     := NOT unary | '(' or_expr ')' | atom
  //   atom      := var CONTAINS|ICONTAINS|WORD|= 'str'
  //              | DISTANCE(v1, v2) <= int
  // The parsed expression's top-level AND spine is then flattened into
  // Query::where conjuncts, so the executor can route each conjunct to
  // its variable.
  Status ParseWhere(Query* query) {
    MEETXML_ASSIGN_OR_RETURN(BoolExpr expr, ParseOrExpr());
    FlattenConjuncts(std::move(expr), &query->where);
    return Status::OK();
  }

  static void FlattenConjuncts(BoolExpr expr,
                               std::vector<BoolExpr>* out) {
    if (expr.op == BoolExpr::Op::kAnd) {
      for (BoolExpr& child : expr.children) {
        FlattenConjuncts(std::move(child), out);
      }
      return;
    }
    out->push_back(std::move(expr));
  }

  Result<BoolExpr> ParseOrExpr() {
    MEETXML_ASSIGN_OR_RETURN(BoolExpr left, ParseAndExpr());
    while (Peek().kind == TokenKind::kOr) {
      Advance();
      MEETXML_ASSIGN_OR_RETURN(BoolExpr right, ParseAndExpr());
      BoolExpr node;
      node.op = BoolExpr::Op::kOr;
      node.children.push_back(std::move(left));
      node.children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<BoolExpr> ParseAndExpr() {
    MEETXML_ASSIGN_OR_RETURN(BoolExpr left, ParseUnary());
    while (Peek().kind == TokenKind::kAnd) {
      Advance();
      MEETXML_ASSIGN_OR_RETURN(BoolExpr right, ParseUnary());
      BoolExpr node;
      node.op = BoolExpr::Op::kAnd;
      node.children.push_back(std::move(left));
      node.children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<BoolExpr> ParseUnary() {
    if (ConsumeIf(TokenKind::kNot)) {
      MEETXML_ASSIGN_OR_RETURN(BoolExpr inner, ParseUnary());
      BoolExpr node;
      node.op = BoolExpr::Op::kNot;
      node.children.push_back(std::move(inner));
      return node;
    }
    if (ConsumeIf(TokenKind::kLparen)) {
      MEETXML_ASSIGN_OR_RETURN(BoolExpr inner, ParseOrExpr());
      MEETXML_RETURN_NOT_OK(Expect(TokenKind::kRparen));
      return inner;
    }
    return ParseAtom();
  }

  Result<BoolExpr> ParseAtom() {
    BoolExpr node;
    node.op = BoolExpr::Op::kLeaf;
    Predicate& predicate = node.leaf;
    if (Peek().kind == TokenKind::kDistance) {
      Advance();
      MEETXML_ASSIGN_OR_RETURN(std::vector<std::string> vars,
                               ParseVarList());
      if (vars.size() != 2) {
        return Status::InvalidArgument(
            "DISTANCE takes exactly two variables");
      }
      predicate.kind = Predicate::Kind::kDistanceLe;
      predicate.var = vars[0];
      predicate.var2 = vars[1];
      MEETXML_RETURN_NOT_OK(Expect(TokenKind::kLessEqual));
      MEETXML_ASSIGN_OR_RETURN(predicate.bound, ParseInteger());
      return node;
    }

    MEETXML_ASSIGN_OR_RETURN(predicate.var, ParseVariable());
    switch (Peek().kind) {
      case TokenKind::kContains:
        predicate.kind = Predicate::Kind::kContains;
        break;
      case TokenKind::kIcontains:
        predicate.kind = Predicate::Kind::kIcontains;
        break;
      case TokenKind::kWord:
        predicate.kind = Predicate::Kind::kWord;
        break;
      case TokenKind::kPhrase:
        predicate.kind = Predicate::Kind::kPhrase;
        break;
      case TokenKind::kSynonym:
        predicate.kind = Predicate::Kind::kSynonym;
        break;
      case TokenKind::kEquals:
        predicate.kind = Predicate::Kind::kEquals;
        break;
      default:
        return Status::InvalidArgument(
            "expected CONTAINS, ICONTAINS, WORD, PHRASE, SYNONYM or '=' at "
            "offset ",
            Peek().position);
    }
    Advance();
    if (Peek().kind != TokenKind::kString) {
      return Status::InvalidArgument("expected string literal at offset ",
                                     Peek().position);
    }
    int literal_position = Peek().position;
    predicate.literal = Advance().text;
    // An empty search literal has no meaning (every string contains
    // it); only full-string equality may test for the empty string.
    if (predicate.literal.empty() &&
        predicate.kind != Predicate::Kind::kEquals) {
      return Status::InvalidArgument("empty search literal at offset ",
                                     literal_position,
                                     "; only '=' may compare with ''");
    }
    return node;
  }

  // Collects the variables of all string-predicate leaves; rejects
  // DISTANCE atoms below boolean operators.
  static Status CollectLeafVars(const BoolExpr& expr,
                                std::vector<std::string>* vars,
                                bool top_level) {
    if (expr.op == BoolExpr::Op::kLeaf) {
      if (expr.leaf.kind == Predicate::Kind::kDistanceLe && !top_level) {
        return Status::InvalidArgument(
            "DISTANCE may only appear as a top-level conjunct");
      }
      vars->push_back(expr.leaf.var);
      return Status::OK();
    }
    for (const BoolExpr& child : expr.children) {
      MEETXML_RETURN_NOT_OK(CollectLeafVars(child, vars, false));
    }
    return Status::OK();
  }

  template <typename Require>
  static Status CheckConjunct(const BoolExpr& conjunct,
                              const Require& require) {
    if (conjunct.op == BoolExpr::Op::kLeaf) {
      const Predicate& predicate = conjunct.leaf;
      MEETXML_RETURN_NOT_OK(require(predicate.var));
      if (predicate.kind == Predicate::Kind::kDistanceLe) {
        MEETXML_RETURN_NOT_OK(require(predicate.var2));
        if (predicate.bound < 0) {
          return Status::InvalidArgument("DISTANCE bound must be >= 0");
        }
      }
      return Status::OK();
    }
    // A boolean tree: every leaf must test the same variable (the
    // set-based model has no cross-variable tuples to evaluate OR/NOT
    // over).
    std::vector<std::string> vars;
    MEETXML_RETURN_NOT_OK(CollectLeafVars(conjunct, &vars, true));
    for (const std::string& var : vars) {
      MEETXML_RETURN_NOT_OK(require(var));
      if (var != vars.front()) {
        return Status::InvalidArgument(
            "boolean predicate mixes variables '", vars.front(),
            "' and '", var,
            "'; OR/NOT must stay within one variable");
      }
    }
    return Status::OK();
  }

  // Semantic checks: variables declared once, references resolve.
  static Status Check(const Query& query) {
    std::unordered_set<std::string> declared;
    for (const Binding& binding : query.bindings) {
      if (!declared.insert(binding.var).second) {
        return Status::InvalidArgument("duplicate variable '", binding.var,
                                       "' in FROM");
      }
    }
    auto require = [&declared](const std::string& var) {
      if (!declared.count(var)) {
        return Status::InvalidArgument("undeclared variable '", var, "'");
      }
      return Status::OK();
    };
    for (const Projection& projection : query.projections) {
      for (const std::string& var : projection.vars) {
        MEETXML_RETURN_NOT_OK(require(var));
      }
      if ((projection.kind == Projection::Kind::kMeet ||
           projection.kind == Projection::Kind::kAncestors) &&
          projection.vars.empty()) {
        return Status::InvalidArgument(
            "MEET/ANCESTORS needs at least one variable");
      }
      if (projection.kind == Projection::Kind::kGraphMeet &&
          projection.vars.size() != 2) {
        return Status::InvalidArgument(
            "GMEET takes exactly two variables");
      }
    }
    for (const BoolExpr& conjunct : query.where) {
      MEETXML_RETURN_NOT_OK(CheckConjunct(conjunct, require));
    }
    if (query.within.has_value() && *query.within < 0) {
      return Status::InvalidArgument("WITHIN bound must be >= 0");
    }
    if (query.limit.has_value() && *query.limit < 0) {
      return Status::InvalidArgument("LIMIT must be >= 0");
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  MEETXML_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  ParserImpl parser(std::move(tokens));
  return parser.ParseQueryText();
}

Result<PathPattern> ParsePathPattern(std::string_view text) {
  MEETXML_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  ParserImpl parser(std::move(tokens));
  return parser.ParsePatternOnly();
}

}  // namespace query
}  // namespace meetxml
