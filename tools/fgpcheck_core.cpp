// fgpcheck analyzer core (see fgpcheck.h for the rule catalogue and
// DESIGN.md §14 for the contract mapping). Everything here is stdlib-only
// and linear in the input size: one tokenizer pass, one bracket-matching
// pass, then rule passes that walk the token vector without backtracking.
#include "fgpcheck.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace fgpcheck {

namespace {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer

TokenizeResult tokenize(std::string_view src, const std::string& file) {
  TokenizeResult out;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto diag = [&](std::size_t at_line, const std::string& msg) {
    out.diagnostics.push_back({file, at_line, "tokenizer", msg});
  };

  while (i < n) {
    const char c = src[i];
    const char next = i + 1 < n ? src[i + 1] : '\0';

    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && next == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && next == '*') {
      const std::size_t start_line = line;
      i += 2;
      bool closed = false;
      while (i < n) {
        if (src[i] == '\n') ++line;
        if (src[i] == '*' && i + 1 < n && src[i + 1] == '/') {
          i += 2;
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) diag(start_line, "unterminated block comment");
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && next == '"' && (i == 0 || !is_word_char(src[i - 1]))) {
      const std::size_t start_line = line;
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(' && src[p] != '\n' &&
             delim.size() <= 16)
        delim += src[p++];
      if (p >= n || src[p] != '(') {
        diag(start_line, "malformed raw string delimiter");
        i = p;
        continue;
      }
      const std::string close = ")" + delim + "\"";
      const std::size_t body = p + 1;
      const std::size_t end = src.find(close, body);
      if (end == std::string_view::npos) {
        diag(start_line, "unterminated raw string literal");
        // Consume the rest of the file; counting the remaining newlines
        // keeps later diagnostics (there are none) well-formed.
        for (std::size_t q = body; q < n; ++q)
          if (src[q] == '\n') ++line;
        i = n;
        continue;
      }
      out.tokens.push_back({TokKind::Str,
                            std::string(src.substr(body, end - body)),
                            start_line});
      for (std::size_t q = body; q < end; ++q)
        if (src[q] == '\n') ++line;
      i = end + close.size();
      continue;
    }
    // String literal.
    if (c == '"') {
      const std::size_t start_line = line;
      std::string text;
      ++i;
      bool closed = false;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          if (src[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (src[i] == '"') {
          ++i;
          closed = true;
          break;
        }
        if (src[i] == '\n') {
          // Unescaped newline terminates the (malformed) literal; the
          // preprocessor would have rejected it too.
          break;
        }
        text += src[i++];
      }
      if (!closed) diag(start_line, "unterminated string literal");
      out.tokens.push_back({TokKind::Str, std::move(text), start_line});
      continue;
    }
    // Character literal (the word-char guard keeps 1'000'000 separators
    // inside numbers, which are consumed by the number scanner below).
    if (c == '\'' && (i == 0 || !is_word_char(src[i - 1]))) {
      const std::size_t start_line = line;
      std::string text;
      ++i;
      bool closed = false;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          i += 2;
          continue;
        }
        if (src[i] == '\'') {
          ++i;
          closed = true;
          break;
        }
        if (src[i] == '\n') break;
        text += src[i++];
      }
      if (!closed) diag(start_line, "unterminated character literal");
      out.tokens.push_back({TokKind::Chr, std::move(text), start_line});
      continue;
    }
    // Number (digits, hex, floats, digit separators, exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(next)) != 0)) {
      const std::size_t start = i;
      ++i;
      while (i < n) {
        const char d = src[i];
        if (is_word_char(d) || d == '\'' || d == '.') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.tokens.push_back(
          {TokKind::Number, std::string(src.substr(start, i - start)), line});
      continue;
    }
    // Identifier / keyword.
    if (is_ident_start(c)) {
      const std::size_t start = i;
      while (i < n && is_word_char(src[i])) ++i;
      out.tokens.push_back(
          {TokKind::Ident, std::string(src.substr(start, i - start)), line});
      continue;
    }
    // Punctuation, maximal munch.
    static constexpr std::array<std::string_view, 21> kOps3 = {
        "<<=", ">>=", "->*", "...", "<=>",
        // padding entries keep the array aggregate simple
        "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", ""};
    static constexpr std::array<std::string_view, 20> kOps2 = {
        "::", "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
        "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "++", "--"};
    std::string_view rest = src.substr(i);
    std::string op;
    for (const auto& o : kOps3)
      if (!o.empty() && rest.substr(0, 3) == o) {
        op = o;
        break;
      }
    if (op.empty())
      for (const auto& o : kOps2)
        if (rest.substr(0, 2) == o) {
          op = o;
          break;
        }
    if (op.empty()) op = std::string(1, c);
    out.tokens.push_back({TokKind::Punct, op, line});
    i += op.size();
  }
  out.tokens.push_back({TokKind::Eof, "", line});
  return out;
}

// ---------------------------------------------------------------------------
// Token helpers

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::Punct && t.text == s;
}

bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::Ident && t.text == s;
}

/// match[i] = index of the bracket matching tokens[i] for ( ) [ ] { },
/// or npos when unmatched. One stack pass, linear time — safe against
/// hostile deeply-nested input.
std::vector<std::size_t> build_match_map(const Tokens& toks) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> match(toks.size(), npos);
  std::vector<std::size_t> paren, brack, brace;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Punct) continue;
    if (t.text == "(") paren.push_back(i);
    else if (t.text == "[") brack.push_back(i);
    else if (t.text == "{") brace.push_back(i);
    else if (t.text == ")" && !paren.empty()) {
      match[i] = paren.back();
      match[paren.back()] = i;
      paren.pop_back();
    } else if (t.text == "]" && !brack.empty()) {
      match[i] = brack.back();
      match[brack.back()] = i;
      brack.pop_back();
    } else if (t.text == "}" && !brace.empty()) {
      match[i] = brace.back();
      match[brace.back()] = i;
      brace.pop_back();
    }
  }
  return match;
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Control / declaration keywords that can never be part of a type name.
bool is_control_keyword(std::string_view s) {
  static const std::set<std::string_view> kw = {
      "if",     "else",   "for",      "while",  "do",     "switch",
      "case",   "return", "break",    "continue", "goto", "throw",
      "try",    "catch",  "new",      "delete", "sizeof", "using",
      "typedef", "namespace", "template", "class", "struct", "enum",
      "public", "private", "protected", "operator", "default"};
  return kw.count(s) != 0;
}

/// Declarations found by the statement scanner.
struct Decl {
  std::string name;
  std::size_t line = 0;
  bool is_float = false;      // declared float/double
  bool is_atomic = false;     // std::atomic<...>
  bool is_unordered = false;  // std::unordered_map/set/... (or alias)
  bool is_event = false;      // sim::Event (or a container of them)
};

/// Scans [begin, end) for declaration-shaped statements:
///   <type tokens>+ NAME (= | ; | { | , | : | ( | [)
/// where the type tokens are a contiguous run of identifiers, '::',
/// balanced <...> groups, '&', '&&', '*', and cv-qualifiers immediately
/// before NAME, and the statement does not start with a control keyword.
/// This is a heuristic — no semantic analysis — biased towards
/// over-collecting locals, which only ever *suppresses* findings.
void scan_declarations(const Tokens& toks, const std::vector<std::size_t>& match,
                       std::size_t begin, std::size_t end,
                       const std::set<std::string>& unordered_aliases,
                       std::vector<Decl>& out) {
  auto type_ish = [](const Token& t) {
    if (t.kind == TokKind::Ident) return !is_control_keyword(t.text);
    return t.kind == TokKind::Punct &&
           (t.text == "::" || t.text == "&" || t.text == "&&" ||
            t.text == "*");
  };

  std::size_t i = begin;
  while (i < end) {
    const Token& t = toks[i];
    // Statement boundaries; also skip whole preprocessor-ish noise fast.
    if (t.kind == TokKind::Punct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      ++i;
      continue;
    }
    // `using NAME = <...unordered...>;` registers a type alias; handled
    // by the caller via collect_names (aliases are file-global).
    // Candidate statement: walk a run of type-ish tokens (skipping
    // balanced template argument lists) and look for the declarator.
    std::size_t j = i;
    std::vector<std::size_t> idents;  // identifier positions in the run
    bool saw_unordered = false, saw_atomic = false, saw_float = false;
    bool saw_event = false;
    while (j < end) {
      const Token& u = toks[j];
      if (is_punct(u, "<")) {
        // Balanced template argument list: scan forward for the matching
        // '>' at depth 0, bailing out at statement terminators (operator<
        // comparisons). Bounded by the statement, so still linear-ish.
        std::size_t depth = 1;
        std::size_t k = j + 1;
        while (k < end && depth > 0) {
          const Token& v = toks[k];
          if (is_punct(v, "<")) ++depth;
          else if (is_punct(v, ">")) --depth;
          else if (is_punct(v, ">>")) depth = depth >= 2 ? depth - 2 : 0;
          else if (v.kind == TokKind::Punct &&
                   (v.text == ";" || v.text == "{" || v.text == "}"))
            break;
          if (saw_unordered || saw_atomic) {
            // template args don't change the outer type
          }
          if (v.kind == TokKind::Ident) {
            if (v.text.rfind("unordered_", 0) == 0) saw_unordered = true;
            if (v.text == "atomic") saw_atomic = true;
            if (v.text == "Event") saw_event = true;
          }
          ++k;
        }
        if (k >= end || depth > 0) {
          j = k;
          break;  // unbalanced: not a declaration
        }
        j = k;
        continue;
      }
      if (!type_ish(u)) break;
      if (u.kind == TokKind::Ident) {
        idents.push_back(j);
        if (u.text.rfind("unordered_", 0) == 0) saw_unordered = true;
        if (u.text == "atomic" || u.text.rfind("atomic_", 0) == 0)
          saw_atomic = true;
        if (u.text == "float" || u.text == "double") saw_float = true;
        if (u.text == "Event") saw_event = true;
        if (unordered_aliases.count(u.text) != 0) saw_unordered = true;
      }
      ++j;
    }
    // Need at least two identifiers: type... NAME. The declarator is the
    // last identifier of the run; everything before it must contain at
    // least one identifier (the type).
    if (idents.size() >= 2 && j < end) {
      const Token& after = toks[j];
      const bool terminator =
          after.kind == TokKind::Punct &&
          (after.text == "=" || after.text == ";" || after.text == "{" ||
           after.text == "," || after.text == ":" || after.text == "(" ||
           after.text == "[");
      const std::size_t name_pos = idents.back();
      // `NAME (` is only a declaration when a type identifier precedes
      // NAME directly or through qualifiers — `foo(bar);` has one ident.
      if (terminator) {
        Decl d;
        d.name = toks[name_pos].text;
        d.line = toks[name_pos].line;
        d.is_float = saw_float;
        d.is_atomic = saw_atomic;
        d.is_unordered = saw_unordered;
        d.is_event = saw_event;
        out.push_back(std::move(d));
        // Multi-declarator lists: after '=' or ',' further declarators of
        // the same type may follow; walk initializers at top level.
        if (after.text == "=" || after.text == ",") {
          std::size_t k = j;
          while (k < end) {
            const Token& v = toks[k];
            if (v.kind == TokKind::Punct) {
              if (v.text == ";") break;
              if (v.text == "(" || v.text == "[" || v.text == "{") {
                if (match[k] == kNpos || match[k] > end) break;
                k = match[k];
              } else if (v.text == ",") {
                // next declarator: IDENT followed by = , or ;
                if (k + 1 < end && toks[k + 1].kind == TokKind::Ident) {
                  Decl d2;
                  d2.name = toks[k + 1].text;
                  d2.line = toks[k + 1].line;
                  d2.is_float = saw_float;
                  d2.is_atomic = saw_atomic;
                  d2.is_unordered = saw_unordered;
                  out.push_back(std::move(d2));
                }
              }
            }
            ++k;
          }
        }
      }
    }
    // Advance to the next statement boundary.
    while (i < end) {
      const Token& v = toks[i];
      if (v.kind == TokKind::Punct) {
        if (v.text == ";" || v.text == "{" || v.text == "}" ||
            v.text == ":") {
          ++i;
          break;
        }
        if (v.text == "(") {
          // Descend into parens: for-init declarations etc. live there.
          ++i;
          break;
        }
      }
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// Lambda discovery

struct Lambda {
  std::size_t intro = kNpos;       // '[' token index
  std::size_t header_end = kNpos;  // '{' body-open token index
  std::size_t body_begin = kNpos;  // first token inside the body
  std::size_t body_end = kNpos;    // '}' token index
  std::size_t line = 0;
  bool default_ref = false;   // [&]
  bool default_copy = false;  // [=]
  bool is_mutable = false;
  std::set<std::string> ref_captures;
  std::set<std::string> copy_captures;
  std::set<std::string> params;
  std::string bound_name;  // `auto NAME = [...]`
  bool parallel = false;
};

/// True when the '[' at `i` introduces a lambda rather than a subscript
/// or attribute.
bool is_lambda_intro(const Tokens& toks, std::size_t i) {
  if (!is_punct(toks[i], "[")) return false;
  if (i + 1 < toks.size() && is_punct(toks[i + 1], "["))
    return false;  // [[attribute]]
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::Ident)
    return is_control_keyword(prev.text) && prev.text != "operator";
  if (prev.kind == TokKind::Number || prev.kind == TokKind::Str) return false;
  if (prev.kind == TokKind::Punct &&
      (prev.text == "]" || prev.text == ")" || prev.text == "["))
    return false;
  return true;
}

std::vector<Lambda> find_lambdas(const Tokens& toks,
                                 const std::vector<std::size_t>& match) {
  std::vector<Lambda> out;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_lambda_intro(toks, i)) continue;
    const std::size_t close = match[i];
    if (close == kNpos) continue;
    Lambda lam;
    lam.intro = i;
    lam.line = toks[i].line;
    // `auto NAME = [...]`.
    if (i >= 2 && is_punct(toks[i - 1], "=") &&
        toks[i - 2].kind == TokKind::Ident)
      lam.bound_name = toks[i - 2].text;
    // Capture list: items separated by top-level commas.
    std::size_t j = i + 1;
    while (j < close) {
      // One capture item.
      bool by_ref = false;
      if (is_punct(toks[j], "&")) {
        by_ref = true;
        ++j;
      }
      if (j >= close) {
        if (by_ref) lam.default_ref = true;
        break;
      }
      if (is_punct(toks[j], ",")) {
        if (by_ref) lam.default_ref = true;
        ++j;
        continue;
      }
      if (is_punct(toks[j], "=") && !by_ref) {
        lam.default_copy = true;
        ++j;
        continue;
      }
      if (is_ident(toks[j], "this") || is_punct(toks[j], "*")) {
        // this / *this captures: member writes are not tracked.
        ++j;
        continue;
      }
      if (toks[j].kind == TokKind::Ident) {
        const std::string name = toks[j].text;
        if (by_ref)
          lam.ref_captures.insert(name);
        else
          lam.copy_captures.insert(name);
        ++j;
        // Init-capture: skip ` = expr` to the next top-level comma.
        while (j < close && !is_punct(toks[j], ",")) {
          if (toks[j].kind == TokKind::Punct &&
              (toks[j].text == "(" || toks[j].text == "[" ||
               toks[j].text == "{") &&
              match[j] != kNpos && match[j] < close)
            j = match[j];
          ++j;
        }
        continue;
      }
      ++j;  // anything else: skip
    }
    // After the capture list: optional template-parameter list, optional
    // parameter list, then specifiers up to the body brace.
    j = close + 1;
    if (j < toks.size() && is_punct(toks[j], "<")) {
      // C++20 template lambda: scan to the matching '>' at depth 0.
      std::size_t depth = 1;
      ++j;
      while (j < toks.size() && depth > 0) {
        if (is_punct(toks[j], "<")) ++depth;
        else if (is_punct(toks[j], ">")) --depth;
        else if (is_punct(toks[j], ">>")) depth = depth >= 2 ? depth - 2 : 0;
        else if (is_punct(toks[j], "{") || is_punct(toks[j], ";")) break;
        ++j;
      }
    }
    if (j < toks.size() && is_punct(toks[j], "(") && match[j] != kNpos) {
      const std::size_t pclose = match[j];
      // Parameter names: last identifier of each top-level comma segment,
      // ignoring anything after '=' (default arguments).
      std::string last_ident;
      bool in_default = false;
      for (std::size_t k = j + 1; k < pclose; ++k) {
        const Token& t = toks[k];
        if (t.kind == TokKind::Punct &&
            (t.text == "(" || t.text == "[" || t.text == "{") &&
            match[k] != kNpos && match[k] < pclose) {
          k = match[k];
          continue;
        }
        if (is_punct(t, ",")) {
          if (!last_ident.empty()) lam.params.insert(last_ident);
          last_ident.clear();
          in_default = false;
          continue;
        }
        if (is_punct(t, "=")) {
          in_default = true;
          continue;
        }
        if (!in_default && t.kind == TokKind::Ident) last_ident = t.text;
      }
      if (!last_ident.empty()) lam.params.insert(last_ident);
      j = pclose + 1;
    }
    // Specifiers (mutable, noexcept, -> ret) until the body '{'.
    while (j < toks.size() && !is_punct(toks[j], "{")) {
      if (is_ident(toks[j], "mutable")) lam.is_mutable = true;
      if (toks[j].kind == TokKind::Punct &&
          (toks[j].text == ";" || toks[j].text == ")" || toks[j].text == "}"))
        break;  // not a lambda after all (e.g. array of lambdas — bail)
      if (is_punct(toks[j], "(") && match[j] != kNpos) {
        j = match[j];  // noexcept(...) / trailing return type parens
      }
      ++j;
    }
    if (j >= toks.size() || !is_punct(toks[j], "{") || match[j] == kNpos)
      continue;
    lam.header_end = j;
    lam.body_begin = j + 1;
    lam.body_end = match[j];
    out.push_back(std::move(lam));
  }
  return out;
}

/// Function names whose callable argument runs on pool workers. The
/// ThreadPool API (parallel_for) plus the known local fan-out wrappers;
/// extend this list when adding a new fan-out entry point.
bool is_parallel_sink(std::string_view name) {
  return name == "parallel_for" || name == "for_each_chunk";
}

void mark_parallel_lambdas(const Tokens& toks,
                           const std::vector<std::size_t>& match,
                           std::vector<Lambda>& lambdas) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || !is_parallel_sink(toks[i].text))
      continue;
    if (!is_punct(toks[i + 1], "(") || match[i + 1] == kNpos) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match[open];
    // Inline lambdas anywhere inside the argument list run (possibly
    // indirectly) on pool workers; named arguments at the top level that
    // match a bound lambda mark that lambda.
    for (auto& lam : lambdas)
      if (lam.intro > open && lam.intro < close) lam.parallel = true;
    for (std::size_t k = open + 1; k < close; ++k) {
      const Token& t = toks[k];
      if (t.kind == TokKind::Punct &&
          (t.text == "(" || t.text == "[" || t.text == "{") &&
          match[k] != kNpos && match[k] < close) {
        k = match[k];
        continue;
      }
      if (t.kind == TokKind::Ident)
        for (auto& lam : lambdas)
          if (!lam.bound_name.empty() && lam.bound_name == t.text)
            lam.parallel = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Writes inside parallel lambdas

struct Write {
  std::string base;    // leftmost identifier of the lvalue path
  bool subscript = false;  // lvalue path goes through [...]
  std::size_t line = 0;
  std::string op;
};

/// Walks backwards from the assignment operator at `op_idx` and extracts
/// the lvalue path: IDENT ((. | -> | ::) IDENT | [..])*. Returns false
/// when the lvalue is not a simple path (call results, derefs, ...).
bool extract_lvalue(const Tokens& toks, const std::vector<std::size_t>& match,
                    std::size_t op_idx, std::size_t lo, Write& w) {
  std::size_t j = op_idx;
  bool have_ident = false;
  while (j > lo) {
    --j;
    const Token& t = toks[j];
    if (is_punct(t, "]")) {
      if (match[j] == kNpos || match[j] < lo) return false;
      w.subscript = true;
      j = match[j];
      continue;
    }
    if (t.kind == TokKind::Ident) {
      if (is_control_keyword(t.text)) return false;
      w.base = t.text;
      w.line = t.line;
      have_ident = true;
      if (j > lo) {
        const Token& prev = toks[j - 1];
        if (is_punct(prev, ".") || is_punct(prev, "->") ||
            is_punct(prev, "::")) {
          --j;  // consume the separator, keep walking left
          continue;
        }
      }
      return true;
    }
    return have_ident;
  }
  return have_ident;
}

// ---------------------------------------------------------------------------
// Per-file rule engine

struct RawLines {
  std::vector<std::string> lines;

  explicit RawLines(std::string_view src) {
    std::string cur;
    for (char c : src) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) lines.push_back(std::move(cur));
  }

  const std::string& at(std::size_t ln) const {
    static const std::string empty;
    return ln >= 1 && ln <= lines.size() ? lines[ln - 1] : empty;
  }
};

const char kAllowTag[] = "fgpcheck: " "allow";

/// Rules exempted on this raw line via an allow(rule) annotation with the
/// tool-name prefix; a blanket annotation (no rule) yields the special
/// entry "*". The tag only counts inside a // comment — tags inside
/// string literals (this analyzer's own sources, say) are inert.
std::set<std::string> allows_on(const std::string& line) {
  std::set<std::string> out;
  std::size_t pos = line.find("//");
  if (pos == std::string::npos) return out;
  while ((pos = line.find(kAllowTag, pos)) != std::string::npos) {
    std::size_t p = pos + sizeof(kAllowTag) - 1;
    if (p < line.size() && line[p] == '(') {
      const std::size_t close = line.find(')', p);
      if (close != std::string::npos && close > p + 1)
        out.insert(line.substr(p + 1, close - p - 1));
      else
        out.insert("*");
    } else {
      out.insert("*");
    }
    pos = p;
  }
  return out;
}

struct ModuleRank {
  std::string_view module;
  int rank;
};

/// Layer ranks mirroring the target link graph in src/CMakeLists.txt:
///   util(0) → obs(1) → sim(2) → repository|grid(3) → datagen|freeride(4)
///   → apps|core(5) → service(6).
/// An include edge is legal only into a strictly lower rank (or the same
/// module); equal-rank cross-module edges are rejected because they are
/// one commit away from a cycle.
constexpr ModuleRank kRanks[] = {
    {"util", 0},    {"obs", 1},      {"sim", 2},
    {"repository", 3}, {"grid", 3},  {"datagen", 4},
    {"freeride", 4},  {"apps", 5},   {"core", 5},
    {"service", 6},
};

std::string_view module_of(std::string_view rel_path) {
  if (rel_path.rfind("src/", 0) != 0) return {};
  std::string_view rest = rel_path.substr(4);
  const std::size_t slash = rest.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : rest.substr(0, slash);
}

int rank_of_module(std::string_view module) {
  for (const auto& r : kRanks)
    if (r.module == module) return r.rank;
  return -1;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// ---------------------------------------------------------------------------
// Hygiene bans: identifiers, calls and system headers with a path scope

/// Where a ban binds (repo-relative paths).
enum class Scope {
  Everywhere,
  Src,          ///< src/
  SrcButUtil,   ///< src/ outside src/util/
  AllButUtil,   ///< every scanned file outside src/util/
  SrcAndTests,  ///< src/ and tests/ — tools, bench and examples own stdio
};

bool in_scope(Scope scope, std::string_view rel_path) {
  const bool src = starts_with(rel_path, "src/");
  const bool util = starts_with(rel_path, "src/util/");
  switch (scope) {
    case Scope::Everywhere: return true;
    case Scope::Src: return src;
    case Scope::SrcButUtil: return src && !util;
    case Scope::AllButUtil: return !util;
    case Scope::SrcAndTests: return src || starts_with(rel_path, "tests/");
  }
  return false;
}

/// One rule's bans: identifiers banned on any mention, identifiers banned
/// only as calls (`name (`, so a field or type sharing a C function's name
/// stays legal), and system headers banned from `#include <...>`.
struct Ban {
  std::string_view rule;
  Scope scope;
  std::string_view why;
  std::vector<std::string_view> names;
  std::vector<std::string_view> calls;
  std::vector<std::string_view> headers;
};

const std::vector<Ban>& bans() {
  static const std::vector<Ban> kBans = {
      {"wall-clock", Scope::SrcButUtil,
       "outside src/util/ — virtual time comes from the runtime's phase "
       "accounting; real timing goes through util::Stopwatch",
       {"system_clock", "steady_clock", "high_resolution_clock",
        "clock_gettime", "gettimeofday", "timespec_get"},
       {"time", "localtime", "gmtime", "clock"},
       {"ctime", "time.h"}},
      {"unseeded-rng", Scope::Src,
       "in src/ — derive all randomness from explicit seeds via util::Rng",
       {"random_device"},
       {"rand", "srand"},
       {}},
      {"check-convention", Scope::AllButUtil,
       "— use FGP_CHECK (input precondition) or FGP_ASSERT (internal "
       "invariant) from util/check.h",
       {},
       {"assert"},
       {"cassert", "assert.h"}},
      {"check-convention", Scope::SrcButUtil,
       "outside src/util/ — use FGP_ASSERT from util/check.h",
       {},
       {"abort"},
       {}},
      {"console-io", Scope::SrcAndTests,
       "outside tools/bench/examples — libraries report through return "
       "values, exceptions and the obs layer (snprintf into a buffer is "
       "fine)",
       {"cout", "cerr", "clog"},
       {"printf", "fprintf", "vfprintf", "puts", "fputs", "putchar", "fputc"},
       {}},
      {"naked-new", Scope::Everywhere,
       "— use std::make_unique/std::make_shared or a container",
       {"new"},
       {},
       {}},
  };
  return kBans;
}

bool contains(const std::vector<std::string_view>& v, std::string_view s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// The hygiene rules: the bans() table, naked `delete`, raw std
/// exceptions, payload const_casts, `#pragma once` in headers, and the
/// mechanical formatting basics over the raw lines.
void check_hygiene(const Tokens& toks, const RawLines& raw,
                   std::string_view src, const std::string& rel_path,
                   std::vector<Finding>& findings) {
  const auto add = [&](std::size_t line, std::string_view rule,
                       std::string message) {
    findings.push_back({rel_path, line, std::string(rule), std::move(message)});
  };
  std::vector<const Ban*> active;
  for (const Ban& b : bans())
    if (in_scope(b.scope, rel_path)) active.push_back(&b);
  std::set<std::size_t> const_cast_lines, payload_lines;
  bool pragma_once = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "#") && i + 2 < toks.size() &&
        is_ident(toks[i + 1], "pragma") && is_ident(toks[i + 2], "once"))
      pragma_once = true;
    if (is_punct(t, "#") && i + 2 < toks.size() &&
        is_ident(toks[i + 1], "include") && is_punct(toks[i + 2], "<")) {
      std::string header;
      for (std::size_t k = i + 3; k < toks.size() && !is_punct(toks[k], ">") &&
                                  toks[k].line == t.line;
           ++k)
        header += toks[k].text;
      for (const Ban* b : active)
        if (contains(b->headers, header))
          add(t.line, b->rule,
              "<" + header + "> include " + std::string(b->why));
    }
    if (t.kind != TokKind::Ident) continue;
    const bool call = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    for (const Ban* b : active) {
      if (contains(b->names, t.text))
        add(t.line, b->rule, t.text + " " + std::string(b->why));
      if (call && contains(b->calls, t.text))
        add(t.line, b->rule, t.text + "() " + std::string(b->why));
    }
    // `= delete` (deleted special member functions) is idiomatic.
    if (t.text == "delete" && (i == 0 || !is_punct(toks[i - 1], "=")))
      add(t.line, "naked-new",
          "naked delete — owning raw pointers are forbidden");
    if (t.text == "throw" && i + 2 < toks.size() &&
        is_ident(toks[i + 1], "std") && is_punct(toks[i + 2], "::") &&
        in_scope(Scope::SrcButUtil, rel_path))
      add(t.line, "check-convention",
          "raw std exception — throw a fgp::util::Error subclass");
    if (t.text == "const_cast") const_cast_lines.insert(t.line);
    if (t.text.find("payload") != std::string::npos)
      payload_lines.insert(t.line);
  }
  for (const std::size_t ln : const_cast_lines)
    if (payload_lines.count(ln) != 0)
      add(ln, "payload-const-cast",
          "const_cast on a payload — chunk payload slabs are shared "
          "immutable views (DESIGN.md §13); copy the bytes instead of "
          "writing through an alias");
  if (rel_path.ends_with(".h") && !pragma_once)
    add(1, "header-hygiene", "header is missing #pragma once");

  for (std::size_t ln = 1; ln <= raw.lines.size(); ++ln) {
    const std::string& line = raw.at(ln);
    if (line.find('\t') != std::string::npos)
      add(ln, "formatting", "tab character (use spaces)");
    if (!line.empty() && line.back() == '\r')
      add(ln, "formatting", "CRLF line ending");
    else if (!line.empty() &&
             std::isspace(static_cast<unsigned char>(line.back())) != 0)
      add(ln, "formatting", "trailing whitespace");
  }
  if (!src.empty() && src.back() != '\n')
    add(raw.lines.size(), "formatting", "no newline at end of file");
}

}  // namespace

int layer_rank(std::string_view rel_path) {
  return rank_of_module(module_of(rel_path));
}

void collect_names(std::string_view src, const std::string& rel_path,
                   NameIndex& index) {
  const TokenizeResult tr = tokenize(src, rel_path);
  const Tokens& toks = tr.tokens;
  const auto match = build_match_map(toks);

  // `using NAME = ...unordered_*...;` aliases.
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "using") || toks[i + 1].kind != TokKind::Ident ||
        !is_punct(toks[i + 2], "="))
      continue;
    for (std::size_t k = i + 3; k < toks.size(); ++k) {
      if (is_punct(toks[k], ";")) break;
      if (toks[k].kind == TokKind::Ident &&
          toks[k].text.rfind("unordered_", 0) == 0) {
        index.unordered_aliases.insert(toks[i + 1].text);
        break;
      }
    }
  }

  std::vector<Decl> decls;
  scan_declarations(toks, match, 0, toks.size(), index.unordered_aliases,
                    decls);
  for (const auto& d : decls) {
    if (d.is_unordered) index.unordered_vars.insert(d.name);
    if (d.is_atomic) index.atomic_vars.insert(d.name);
    // Event-typed names only matter inside the event engine's home module
    // (the event-order rule is scoped to src/sim).
    if (d.is_event && starts_with(rel_path, "src/sim"))
      index.event_vars.insert(d.name);
  }
}

FileAnalysis analyze_source(std::string_view src, const std::string& rel_path,
                            const NameIndex& index) {
  FileAnalysis out;
  const RawLines raw(src);

  // Scope flags.
  const bool in_src = starts_with(rel_path, "src/");
  const bool in_apps = starts_with(rel_path, "src/apps/");
  const bool in_sim = starts_with(rel_path, "src/sim");
  const bool is_simd_helpers = rel_path == "src/util/simd.h";
  const int my_rank = layer_rank(rel_path);
  const std::string_view my_module = module_of(rel_path);

  TokenizeResult tr = tokenize(src, rel_path);
  std::vector<Finding> findings = std::move(tr.diagnostics);
  const Tokens& toks = tr.tokens;
  const auto match = build_match_map(toks);

  // --- layering ----------------------------------------------------------
  if (my_rank >= 0) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_punct(toks[i], "#") || !is_ident(toks[i + 1], "include") ||
          toks[i + 2].kind != TokKind::Str)
        continue;
      const std::string& target = toks[i + 2].text;
      const std::size_t slash = target.find('/');
      if (slash == std::string::npos) continue;
      const std::string target_module = target.substr(0, slash);
      if (target_module == my_module) continue;
      const int target_rank = rank_of_module(target_module);
      if (target_rank < 0) continue;  // not a layered module
      if (target_rank >= my_rank) {
        std::ostringstream msg;
        msg << "src/" << my_module << " (layer " << my_rank
            << ") must not include \"" << target << "\" (layer "
            << target_rank << "): the src/CMakeLists.txt layering is "
            << "util < obs < sim < repository|grid < datagen|freeride < "
            << "apps|core < service, and "
            << (target_rank == my_rank ? "equal-rank cross-module"
                                       : "upward")
            << " edges create cycles";
        findings.push_back(
            {rel_path, toks[i].line, "layering", msg.str()});
      }
    }
  }

  // --- declaration index for this file -----------------------------------
  std::vector<Decl> file_decls;
  scan_declarations(toks, match, 0, toks.size(), index.unordered_aliases,
                    file_decls);
  std::set<std::string> unordered_here = index.unordered_vars;
  std::set<std::string> atomics_here = index.atomic_vars;
  std::set<std::string> float_locals;
  for (const auto& d : file_decls) {
    if (d.is_unordered) unordered_here.insert(d.name);
    if (d.is_atomic) atomics_here.insert(d.name);
    if (d.is_float) float_locals.insert(d.name);
  }

  // --- unordered-iteration (src/ only) ------------------------------------
  if (in_src) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      // Range-for: `for ( ... : RANGE )` — flag when RANGE mentions an
      // unordered-typed variable.
      if (is_ident(toks[i], "for") && is_punct(toks[i + 1], "(") &&
          match[i + 1] != kNpos) {
        const std::size_t open = i + 1;
        const std::size_t close = match[open];
        // The range-for ':' sits at the top parenthesis level.
        std::size_t colon = kNpos;
        for (std::size_t k = open + 1; k < close; ++k) {
          const Token& t = toks[k];
          if (t.kind == TokKind::Punct &&
              (t.text == "(" || t.text == "[" || t.text == "{") &&
              match[k] != kNpos && match[k] < close) {
            k = match[k];
            continue;
          }
          if (is_punct(t, ";")) break;  // classic for loop
          if (is_punct(t, ":") ) {
            colon = k;
            break;
          }
        }
        if (colon != kNpos) {
          for (std::size_t k = colon + 1; k < close; ++k)
            if (toks[k].kind == TokKind::Ident &&
                unordered_here.count(toks[k].text) != 0) {
              findings.push_back(
                  {rel_path, toks[k].line, "unordered-iteration",
                   "range-for over unordered container '" + toks[k].text +
                       "' — iteration order is implementation-defined and "
                       "breaks bit-determinism (DESIGN.md §14); use an "
                       "order-pinned container or sort the keys first"});
              break;
            }
        }
      }
      // Iterator walks: VAR.begin() / VAR.cbegin() / VAR.rbegin().
      if (toks[i].kind == TokKind::Ident &&
          unordered_here.count(toks[i].text) != 0 && i + 3 < toks.size() &&
          (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
          (is_ident(toks[i + 2], "begin") || is_ident(toks[i + 2], "cbegin") ||
           is_ident(toks[i + 2], "rbegin")) &&
          is_punct(toks[i + 3], "(")) {
        findings.push_back(
            {rel_path, toks[i].line, "unordered-iteration",
             "iterator walk over unordered container '" + toks[i].text +
                 "' — iteration order is implementation-defined and breaks "
                 "bit-determinism (DESIGN.md §14)"});
      }
    }
  }

  // --- event-order (src/sim only) -----------------------------------------
  // A heap or sort over sim::Event values that does not name one of the
  // canonical tie-break comparators (EventAfter / EventBefore /
  // event_order_less) orders events by some partial key — usually bare
  // time — and ties then dispatch in container order, which is not part
  // of the replay contract (DESIGN.md §18).
  if (in_sim) {
    std::set<std::string> event_here = index.event_vars;
    for (const auto& d : file_decls)
      if (d.is_event) event_here.insert(d.name);
    static const std::set<std::string> kOrderingAlgos = {
        "sort",      "stable_sort", "partial_sort", "nth_element",
        "sort_heap", "push_heap",   "pop_heap",     "make_heap"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::Ident) continue;
      const bool is_queue = t.text == "priority_queue";
      const bool is_algo =
          kOrderingAlgos.count(t.text) != 0 && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(");
      if (!is_queue && !is_algo) continue;
      // Statement span: forward to the top-level ';' (balanced groups
      // skipped), bounded so hostile input stays linear.
      bool touches_event = false;
      bool canonical = false;
      std::size_t k = i + 1;
      std::size_t steps = 0;
      while (k < toks.size() && steps++ < 512) {
        const Token& u = toks[k];
        if (u.kind == TokKind::Punct &&
            (u.text == ";" || u.text == "}"))
          break;
        if (u.kind == TokKind::Ident) {
          if (u.text == "Event" || event_here.count(u.text) != 0)
            touches_event = true;
          if (u.text == "EventAfter" || u.text == "EventBefore" ||
              u.text == "event_order_less")
            canonical = true;
        }
        ++k;
      }
      if (touches_event && !canonical) {
        findings.push_back(
            {rel_path, t.line, "event-order",
             "'" + t.text + "' over sim events without the canonical "
             "tie-break comparator — order events with EventAfter / "
             "EventBefore / event_order_less ((time, seq, node, kind), "
             "DESIGN.md §18) or replay stops being bit-identical"});
      }
    }
  }

  // --- float-accumulation (src/apps kernels) ------------------------------
  if (in_apps && !is_simd_helpers) {
    // Loop body ranges (token index intervals).
    std::vector<std::pair<std::size_t, std::size_t>> loops;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!(is_ident(toks[i], "for") || is_ident(toks[i], "while"))) continue;
      if (!is_punct(toks[i + 1], "(") || match[i + 1] == kNpos) continue;
      const std::size_t after = match[i + 1] + 1;
      if (after >= toks.size()) continue;
      if (is_punct(toks[after], "{") && match[after] != kNpos) {
        loops.emplace_back(after + 1, match[after]);
      } else {
        std::size_t k = after;
        while (k < toks.size() && !is_punct(toks[k], ";")) {
          if (toks[k].kind == TokKind::Punct &&
              (toks[k].text == "(" || toks[k].text == "{" ||
               toks[k].text == "[") &&
              match[k] != kNpos)
            k = match[k];
          ++k;
        }
        loops.emplace_back(after, k);
      }
    }
    auto in_loop = [&](std::size_t idx) {
      for (const auto& [b, e] : loops)
        if (idx >= b && idx < e) return true;
      return false;
    };
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::Punct || (t.text != "+=" && t.text != "-="))
        continue;
      if (!in_loop(i)) continue;
      Write w;
      if (!extract_lvalue(toks, match, i, 0, w)) continue;
      if (w.subscript) continue;  // slot-owned accumulation (element-wise)
      if (float_locals.count(w.base) == 0) continue;
      // Dot-product shape: the accumulated expression multiplies indexed
      // loads. Scalar statistics (`sum += x`) stay legal — serial order.
      bool has_sub = false, has_mul = false;
      for (std::size_t k = i + 1; k < toks.size(); ++k) {
        const Token& u = toks[k];
        if (u.kind == TokKind::Punct) {
          if (u.text == ";") break;
          if (u.text == "[") has_sub = true;
          if (u.text == "*") has_mul = true;
        }
      }
      if (has_sub && has_mul)
        findings.push_back(
            {rel_path, t.line, "float-accumulation",
             "raw '" + t.text + "' accumulation of an indexed product into "
                 "float/double '" + w.base +
                 "' — kernel reductions must pin their accumulation order "
                 "through the util/simd.h blocked helpers (DESIGN.md §10)"});
    }
  }

  // --- parallel-capture (all scanned dirs) --------------------------------
  {
    std::vector<Lambda> lambdas = find_lambdas(toks, match);
    mark_parallel_lambdas(toks, match, lambdas);
    for (const auto& lam : lambdas) {
      if (!lam.parallel) continue;
      if (lam.body_begin == kNpos || lam.body_end == kNpos) continue;
      if (!lam.default_ref && lam.ref_captures.empty())
        continue;  // copy captures: the compiler enforces immutability
      // Locals visible anywhere in the body (including nested scopes —
      // over-approximating locals only suppresses findings, never adds).
      std::set<std::string> locals = lam.params;
      std::vector<Decl> body_decls;
      scan_declarations(toks, match, lam.body_begin, lam.body_end,
                        index.unordered_aliases, body_decls);
      for (const auto& d : body_decls) locals.insert(d.name);
      // Nested lambda headers (capture + parameter lists) are skipped in
      // the write scan: their '=' tokens are captures, not assignments.
      std::vector<std::pair<std::size_t, std::size_t>> nested_headers;
      for (const auto& other : lambdas) {
        if (other.intro <= lam.intro || other.intro >= lam.body_end) continue;
        if (other.header_end == kNpos) continue;
        nested_headers.emplace_back(other.intro, other.header_end);
        for (const auto& nm : other.params) locals.insert(nm);
        for (const auto& nm : other.copy_captures) locals.insert(nm);
      }
      auto in_nested_header = [&](std::size_t idx) {
        for (const auto& [b, e] : nested_headers)
          if (idx >= b && idx <= e) return true;
        return false;
      };
      auto is_shared_write = [&](const Write& w) {
        if (w.subscript) return false;  // index-owned slot: the protocol
        if (locals.count(w.base) != 0) return false;
        if (atomics_here.count(w.base) != 0) return false;
        if (lam.default_ref) return lam.copy_captures.count(w.base) == 0;
        return lam.ref_captures.count(w.base) != 0;
      };
      for (std::size_t k = lam.body_begin; k < lam.body_end; ++k) {
        const Token& t = toks[k];
        if (t.kind != TokKind::Punct) continue;
        if (in_nested_header(k)) continue;
        static const std::set<std::string_view> kAssign = {
            "=",  "+=", "-=", "*=", "/=", "%=",
            "&=", "|=", "^=", "<<=", ">>="};
        if (kAssign.count(t.text) != 0) {
          Write w;
          if (!extract_lvalue(toks, match, k, lam.body_begin - 1, w))
            continue;
          if (!is_shared_write(w)) continue;
          findings.push_back(
              {rel_path, t.line, "parallel-capture",
               "lambda passed to a parallel fan-out assigns ('" + t.text +
                   "') to by-reference capture '" + w.base +
                   "' — helpers race on it; give each index its own slot "
                   "(the block-reduction protocol, DESIGN.md §11) or make "
                   "it atomic"});
        } else if (t.text == "++" || t.text == "--") {
          Write w;
          bool got = false;
          if (k + 1 < lam.body_end && toks[k + 1].kind == TokKind::Ident &&
              !is_control_keyword(toks[k + 1].text)) {
            w.base = toks[k + 1].text;
            w.line = toks[k + 1].line;
            got = true;  // prefix
          } else if (extract_lvalue(toks, match, k, lam.body_begin - 1, w)) {
            got = true;  // postfix
          }
          if (!got || !is_shared_write(w)) continue;
          findings.push_back(
              {rel_path, t.line, "parallel-capture",
               "lambda passed to a parallel fan-out increments "
                   "by-reference capture '" + w.base +
                   "' — helpers race on it; use std::atomic or a per-index "
                   "slot (DESIGN.md §11)"});
        }
      }
    }
  }

  // --- hygiene bans, header and formatting checks (all scanned dirs) -----
  check_hygiene(toks, raw, src, rel_path, findings);

  // --- allow-annotation filter --------------------------------------------
  for (std::size_t ln = 1; ln <= raw.lines.size(); ++ln) {
    const auto allows = allows_on(raw.at(ln));
    for (const auto& a : allows) {
      if (a == "*") {
        findings.push_back(
            {rel_path, ln, "allow-hygiene",
             "blanket allow annotation — name the rule being exempted: "
             "fgpcheck: " "allow(rule)"});
      } else {
        ++out.exemptions[a];
      }
    }
  }
  for (auto& f : findings) {
    const auto allows = allows_on(raw.at(f.line));
    if (allows.count(f.rule) != 0) continue;
    out.findings.push_back(std::move(f));
  }
  std::sort(out.findings.begin(), out.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return out;
}

// ---------------------------------------------------------------------------
// Tree driver

namespace {

std::vector<fs::path> scanned_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".h" && ext != ".cpp") continue;
      // The fixture corpus is deliberately contract-breaking.
      if (entry.path().generic_string().find("lint_fixtures") !=
          std::string::npos)
        continue;
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

TreeAnalysis analyze_tree(const fs::path& root) {
  TreeAnalysis out;
  const auto files = scanned_files(root);
  out.files = files.size();

  NameIndex index;
  for (const auto& p : files) {
    const std::string rel = fs::relative(p, root).generic_string();
    if (starts_with(rel, "src/")) collect_names(read_file(p), rel, index);
  }
  for (const auto& p : files) {
    const std::string rel = fs::relative(p, root).generic_string();
    FileAnalysis fa = analyze_source(read_file(p), rel, index);
    out.findings.insert(out.findings.end(),
                        std::make_move_iterator(fa.findings.begin()),
                        std::make_move_iterator(fa.findings.end()));
    for (const auto& [rule, count] : fa.exemptions)
      out.exemptions[rule] += count;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppression audit

std::vector<Finding> audit_suppression_file(const fs::path& supp,
                                            const fs::path& root) {
  std::vector<Finding> out;
  const std::string rel = supp.filename().string();
  std::ifstream f(supp);
  if (!f) return out;  // no file, nothing stale

  // Gather the tree's raw contents once; every pattern token is then a
  // substring probe against this corpus.
  std::string corpus;
  for (const auto& p : scanned_files(root)) corpus += read_file(p);

  std::string line;
  std::size_t ln = 0;
  while (std::getline(f, line)) {
    ++ln;
    // Trim.
    std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    std::size_t e = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(b, e - b + 1);
    if (body.empty() || body[0] == '#') continue;
    const std::size_t colon = body.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= body.size()) {
      out.push_back({rel, ln, "suppression-syntax",
                     "suppression must look like kind:symbol_pattern"});
      continue;
    }
    const std::string pattern = body.substr(colon + 1);
    // Identifier-ish fragments of the pattern (wildcards split them);
    // a suppression is live when any fragment of length >= 3 occurs in
    // the tree. Shorter fragments match everything and prove nothing.
    std::vector<std::string> frags;
    std::string cur;
    for (char c : pattern) {
      if (is_word_char(c)) {
        cur += c;
      } else {
        if (cur.size() >= 3) frags.push_back(cur);
        cur.clear();
      }
    }
    if (cur.size() >= 3) frags.push_back(cur);
    if (frags.empty()) {
      out.push_back({rel, ln, "suppression-syntax",
                     "pattern '" + pattern +
                         "' has no symbol fragment of length >= 3 — too "
                         "broad to audit"});
      continue;
    }
    bool live = false;
    for (const auto& frag : frags)
      if (corpus.find(frag) != std::string::npos) {
        live = true;
        break;
      }
    if (!live)
      out.push_back({rel, ln, "stale-suppression",
                     "no symbol fragment of '" + pattern +
                         "' matches anything under src/tests/bench/"
                         "examples/tools — delete the dead suppression"});
  }
  return out;
}

std::vector<Finding> audit_suppressions(const fs::path& root) {
  std::vector<Finding> out;
  const fs::path dir = root / "tools" / "sanitizers";
  if (!fs::exists(dir)) return out;
  std::vector<fs::path> supps;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".supp")
      supps.push_back(entry.path());
  std::sort(supps.begin(), supps.end());
  for (const auto& p : supps) {
    auto file_findings = audit_suppression_file(p, root);
    out.insert(out.end(), std::make_move_iterator(file_findings.begin()),
               std::make_move_iterator(file_findings.end()));
  }
  return out;
}

}  // namespace fgpcheck
