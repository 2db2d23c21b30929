// fgpcheck — the repo's one static analyzer: the determinism, reduction
// and layering contracts plus the project hygiene rules (DESIGN.md §14).
//
// It tokenizes each translation unit and runs a lightweight per-function /
// per-lambda scope analyzer — no type checker, no preprocessor — tuned so
// that every rule is cheap, linear in the source size, and safe on hostile
// input (the tokenizer diagnoses malformed files instead of crashing).
// Token rules never match inside comments or literals; only formatting
// and the allow annotations read the raw lines.
//
// Contract rules (each maps to a DESIGN contract; see DESIGN.md §14):
//   parallel-capture     a lambda passed to ThreadPool::parallel_for (or
//                        a known fan-out wrapper) that captures by
//                        reference and assigns to a captured name
//                        without an index-owned slot
//                        (`name[i] = ...`) violates the block-reduction
//                        sharing protocol of DESIGN §11 — the data races
//                        TSan only finds when the schedule cooperates.
//   unordered-iteration  range-for or .begin() iterator walks over
//                        std::unordered_map / std::unordered_set variables
//                        in src/ — iteration order is
//                        implementation-defined, so any accumulation fed
//                        by it breaks the bit-identity contract (§10/§11).
//   float-accumulation   dot-product-shaped `acc += a[i] * b[j]` loops
//                        over float/double accumulators in src/apps/
//                        kernels — accumulation order must be pinned by
//                        the util/simd.h blocked helpers (§10).
//   event-order          a std::priority_queue / sort / heap algorithm
//                        over sim::Event values in src/sim that does not
//                        name one of the canonical tie-break comparators
//                        (EventAfter / EventBefore / event_order_less) —
//                        partial keys (bare time) leave ties in container
//                        order, which breaks the deterministic-replay
//                        contract of the event engine (DESIGN.md §18).
//   layering             the project include graph must follow the layer
//                        order of src/CMakeLists.txt (util → obs → sim →
//                        repository|grid → datagen|freeride → apps|core);
//                        upward or same-rank cross-module includes are
//                        cycles waiting to happen and are rejected at the
//                        source level (§14).
//
// Hygiene rules (token bans with a path scope, plus raw-line checks):
//   wall-clock           std::chrono clocks, C time functions and <ctime>
//                        in src/ outside src/util/ — virtual time comes
//                        from the runtime's phase accounting; real timing
//                        goes through util::Stopwatch (§9).
//   unseeded-rng         std::rand / srand / std::random_device in src/ —
//                        all randomness derives from explicit seeds.
//   naked-new            `new` / `delete` expressions anywhere (`= delete`
//                        on special members is fine).
//   header-hygiene       a .h without #pragma once.
//   check-convention     assert() / <cassert> outside src/util/, and
//                        abort() or `throw std::...` in src/ outside
//                        src/util/ — use util/check.h and typed
//                        fgp::util::Error subclasses.
//   console-io           std::cout / cerr / clog and printf-family calls
//                        in src/ and tests/ — only tools/, bench/ and
//                        examples/ own stdout/stderr.
//   payload-const-cast   const_cast on a line naming a payload anywhere —
//                        payload slabs are shared immutable views (§13).
//   formatting           tabs, trailing whitespace, CRLF, or no newline at
//                        end of file anywhere.
//
// Diagnostics:
//   tokenizer            malformed input the tokenizer cannot recover
//                        from (unterminated string / raw string / block
//                        comment) — diagnosed, never a crash or a hang.
//   allow-hygiene        a blanket allow annotation (no rule name) is an
//                        error; exemptions must name the rule they exempt.
//
// Escape hatch: a line whose trailing comment contains the tool-name
// prefix followed by `allow(<rule>)` is exempt from that rule (repeat
// the annotation to exempt several rules). Annotations only count inside
// a // comment. Every annotation is counted and reported in the
// exemption summary so allow-creep stays visible in CI logs.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace fgpcheck {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

// ---------------------------------------------------------------------------
// Tokenizer

enum class TokKind { Ident, Number, Punct, Str, Chr, Eof };

struct Token {
  TokKind kind = TokKind::Eof;
  std::string text;       // for Str: the literal's contents, quotes stripped
  std::size_t line = 0;   // 1-based
};

struct TokenizeResult {
  std::vector<Token> tokens;
  std::vector<Finding> diagnostics;  // rule "tokenizer"
};

/// Tokenizes one translation unit. Comments are skipped; string / char /
/// raw-string literals become single tokens; multi-character operators use
/// maximal munch. Linear time, never throws on malformed input — problems
/// become "tokenizer" diagnostics attributed to `file`.
TokenizeResult tokenize(std::string_view src, const std::string& file);

// ---------------------------------------------------------------------------
// Analysis

/// Names with project-wide meaning collected in a first pass over the
/// tree: variables of unordered container type (including via `using`
/// aliases) and variables of std::atomic type (writes to which are not
/// data races).
struct NameIndex {
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_aliases;  // type names aliasing unordered_*
  std::set<std::string> atomic_vars;
  /// Variables in src/sim declared as sim::Event (or a container of them)
  /// — the event-order rule's subjects.
  std::set<std::string> event_vars;
};

/// Pass 1 over one file: records unordered-typed / atomic-typed variable
/// declarations and `using X = std::unordered_*` aliases into `index`.
void collect_names(std::string_view src, const std::string& rel_path,
                   NameIndex& index);

struct FileAnalysis {
  std::vector<Finding> findings;
  /// rule name -> number of allow(rule) annotations seen.
  std::map<std::string, std::size_t> exemptions;
};

/// Pass 2 over one file: runs every rule whose scope includes `rel_path`
/// (paths are repo-relative, forward slashes: "src/apps/kmeans.cpp") and
/// applies the allow-annotation filter. `index` may be empty.
FileAnalysis analyze_source(std::string_view src, const std::string& rel_path,
                            const NameIndex& index);

struct TreeAnalysis {
  std::vector<Finding> findings;
  std::map<std::string, std::size_t> exemptions;
  std::size_t files = 0;
};

/// Walks src/tests/bench/examples/tools under `root` (skipping the
/// deliberately-dirty tests/lint_fixtures corpus), builds the name index
/// and analyzes every .h/.cpp file.
TreeAnalysis analyze_tree(const std::filesystem::path& root);

// ---------------------------------------------------------------------------
// Layering

/// Layer rank of a repo-relative path, or -1 when the file is outside
/// src/ (layering is only enforced inside the library tree). Ranks mirror
/// the link graph in src/CMakeLists.txt.
int layer_rank(std::string_view rel_path);

// ---------------------------------------------------------------------------
// Suppression audit

/// Checks that every suppression pattern in the sanitizer suppression
/// file at `supp` still names a symbol that occurs somewhere under the
/// scanned tree at `root`. Dead suppressions (nothing matches) become
/// findings with rule "stale-suppression"; malformed lines (no
/// `kind:pattern` shape) become "suppression-syntax".
std::vector<Finding> audit_suppression_file(
    const std::filesystem::path& supp, const std::filesystem::path& root);

/// Audits tools/sanitizers/*.supp under `root`.
std::vector<Finding> audit_suppressions(const std::filesystem::path& root);

}  // namespace fgpcheck
