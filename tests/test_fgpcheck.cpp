// Self-test for the fgpcheck contract analyzer (tools/fgpcheck_core.cpp).
// Drives the analyzer in-process over the deliberately contract-breaking
// corpus in tests/lint_fixtures/, asserting exact (rule, line) findings —
// this is what pins each rule's false-positive / false-negative envelope.
// Also certifies the hostile-input contract: the tokenizer must diagnose
// malformed files, never crash or hang (test_fuzz.cpp style).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fgpcheck.h"

#ifndef FGPCHECK_FIXTURE_DIR
#error "build must define FGPCHECK_FIXTURE_DIR (see tests/CMakeLists.txt)"
#endif

namespace {

using fgpcheck::FileAnalysis;
using fgpcheck::Finding;
using fgpcheck::NameIndex;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(FGPCHECK_FIXTURE_DIR) + "/" + name;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Analyzes a fixture under a virtual src/-style path (the corpus lives
/// in tests/lint_fixtures/, which the tree walk skips; scope-sensitive
/// rules key off the path we claim here).
FileAnalysis analyze_fixture(const std::string& name,
                             const std::string& virtual_path) {
  const std::string src = read_fixture(name);
  NameIndex index;
  fgpcheck::collect_names(src, virtual_path, index);
  return fgpcheck::analyze_source(src, virtual_path, index);
}

std::vector<std::pair<std::string, std::size_t>> rule_lines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(findings.size());
  for (const auto& f : findings) out.emplace_back(f.rule, f.line);
  std::sort(out.begin(), out.end());
  return out;
}

using RL = std::vector<std::pair<std::string, std::size_t>>;

RL findings_of(const std::string& name, const std::string& virtual_path) {
  return rule_lines(analyze_fixture(name, virtual_path).findings);
}

// ---------------------------------------------------------------------------
// parallel-capture

TEST(FgpcheckParallelCapture, PositiveFixtureFlagsEveryRacyWrite) {
  const auto fa = analyze_fixture("parallel_capture_pos.cpp",
                                  "src/freeride/fixture.cpp");
  const RL expected = {{"parallel-capture", 14},
                       {"parallel-capture", 22},
                       {"parallel-capture", 31}};
  EXPECT_EQ(rule_lines(fa.findings), expected);
}

TEST(FgpcheckParallelCapture, NegativeFixtureIsClean) {
  const auto fa = analyze_fixture("parallel_capture_neg.cpp",
                                  "src/freeride/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

// ---------------------------------------------------------------------------
// unordered-iteration

TEST(FgpcheckUnorderedIteration, PositiveFixtureFlagsRangeForAndIterWalk) {
  const auto fa = analyze_fixture("unordered_iteration_pos.cpp",
                                  "src/grid/fixture.cpp");
  const RL expected = {{"unordered-iteration", 16},
                       {"unordered-iteration", 25}};
  EXPECT_EQ(rule_lines(fa.findings), expected);
}

TEST(FgpcheckUnorderedIteration, NegativeFixtureIsClean) {
  const auto fa = analyze_fixture("unordered_iteration_neg.cpp",
                                  "src/grid/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

TEST(FgpcheckUnorderedIteration, RuleOnlyAppliesUnderSrc) {
  // The same violating code outside src/ (tests, bench) is not flagged —
  // determinism contracts bind the library tree.
  const auto fa = analyze_fixture("unordered_iteration_pos.cpp",
                                  "tests/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

// ---------------------------------------------------------------------------
// float-accumulation

TEST(FgpcheckFloatAccumulation, PositiveFixtureFlagsRawDotProducts) {
  const auto fa = analyze_fixture("float_accumulation_pos.cpp",
                                  "src/apps/fixture.cpp");
  const RL expected = {{"float-accumulation", 12},
                       {"float-accumulation", 21}};
  EXPECT_EQ(rule_lines(fa.findings), expected);
}

TEST(FgpcheckFloatAccumulation, NegativeFixtureIsClean) {
  const auto fa = analyze_fixture("float_accumulation_neg.cpp",
                                  "src/apps/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

TEST(FgpcheckFloatAccumulation, RuleOnlyAppliesToAppsKernels) {
  // The repository layer does bulk byte accounting, not FP kernels; the
  // §10 contract (and this rule) binds src/apps only.
  const auto fa = analyze_fixture("float_accumulation_pos.cpp",
                                  "src/repository/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

// ---------------------------------------------------------------------------
// layering

TEST(FgpcheckLayering, UpwardIncludesFromUtilAreFlagged) {
  const auto fa =
      analyze_fixture("layering_pos.cpp", "src/util/fixture.cpp");
  const RL expected = {{"layering", 7}, {"layering", 8}};
  EXPECT_EQ(rule_lines(fa.findings), expected);
}

TEST(FgpcheckLayering, SameRankCrossModuleIncludeIsFlagged) {
  const auto fa =
      analyze_fixture("layering_pos.cpp", "src/grid/fixture.cpp");
  const RL expected = {{"layering", 8}};  // grid -> repository (rank 3 = 3)
  EXPECT_EQ(rule_lines(fa.findings), expected);
}

TEST(FgpcheckLayering, DownwardIncludesAreClean) {
  const auto fa =
      analyze_fixture("layering_neg.cpp", "src/core/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

TEST(FgpcheckLayering, ServiceIsTheTopLayerNothingMayIncludeIt) {
  // service (rank 6) caps the layer order: an include of service/ from
  // any other layered module is an upward edge.
  {
    const auto fa = analyze_fixture("layering_service_pos.cpp",
                                    "src/core/fixture.cpp");
    const RL expected = {{"layering", 6}, {"layering", 7}};
    EXPECT_EQ(rule_lines(fa.findings), expected);
  }
  {
    const auto fa = analyze_fixture("layering_service_pos.cpp",
                                    "src/grid/fixture.cpp");
    const RL expected = {{"layering", 6}, {"layering", 7}};
    EXPECT_EQ(rule_lines(fa.findings), expected);
  }
}

TEST(FgpcheckLayering, ServiceMayIncludeEveryLowerLayer) {
  const auto fa = analyze_fixture("layering_service_neg.cpp",
                                  "src/service/fixture.cpp");
  EXPECT_EQ(rule_lines(fa.findings), RL{});
}

TEST(FgpcheckLayering, RanksMirrorTheCmakeLinkGraph) {
  EXPECT_EQ(fgpcheck::layer_rank("src/util/check.h"), 0);
  EXPECT_EQ(fgpcheck::layer_rank("src/obs/metrics.h"), 1);
  EXPECT_EQ(fgpcheck::layer_rank("src/sim/engine.h"), 2);
  EXPECT_EQ(fgpcheck::layer_rank("src/repository/store.h"), 3);
  EXPECT_EQ(fgpcheck::layer_rank("src/grid/grid.h"), 3);
  EXPECT_EQ(fgpcheck::layer_rank("src/datagen/points.h"), 4);
  EXPECT_EQ(fgpcheck::layer_rank("src/freeride/runtime.h"), 4);
  EXPECT_EQ(fgpcheck::layer_rank("src/apps/kmeans.h"), 5);
  EXPECT_EQ(fgpcheck::layer_rank("src/core/predictor.h"), 5);
  EXPECT_EQ(fgpcheck::layer_rank("src/service/selection_service.h"), 6);
  EXPECT_EQ(fgpcheck::layer_rank("tests/test_util.cpp"), -1);
  EXPECT_EQ(fgpcheck::layer_rank("bench/sweep.h"), -1);
}

// ---------------------------------------------------------------------------
// allow annotations

TEST(FgpcheckAllow, NamedAllowSuppressesAndIsCounted) {
  const auto fa =
      analyze_fixture("allow_annotations.cpp", "src/apps/fixture.cpp");
  // The named allow (line 13) suppresses its finding; the blanket allow
  // (line 21) suppresses nothing and is itself an error.
  const RL expected = {{"allow-hygiene", 21}, {"float-accumulation", 21}};
  EXPECT_EQ(rule_lines(fa.findings), expected);
  ASSERT_EQ(fa.exemptions.size(), 1u);
  EXPECT_EQ(fa.exemptions.at("float-accumulation"), 1u);
}

// ---------------------------------------------------------------------------
// hygiene rules: one positive and one negative fixture each, plus the
// path scope the rule binds

TEST(FgpcheckWallClock, FlagsRealTimeInSrcButNotInUtil) {
  const RL expected = {{"wall-clock", 4},
                       {"wall-clock", 7},
                       {"wall-clock", 8},
                       {"wall-clock", 9},
                       {"wall-clock", 14}};
  EXPECT_EQ(findings_of("wall_clock_pos.cpp", "src/core/fixture.cpp"),
            expected);
  EXPECT_EQ(findings_of("wall_clock_neg.cpp", "src/core/fixture.cpp"), RL{});
  // util::Stopwatch lives in src/util/, the one sanctioned clock access.
  EXPECT_EQ(findings_of("wall_clock_pos.cpp", "src/util/fixture.cpp"), RL{});
}

TEST(FgpcheckUnseededRng, FlagsAmbientRandomnessInSrcOnly) {
  const RL expected = {
      {"unseeded-rng", 6}, {"unseeded-rng", 7}, {"unseeded-rng", 8}};
  EXPECT_EQ(findings_of("unseeded_rng_pos.cpp", "src/datagen/fixture.cpp"),
            expected);
  EXPECT_EQ(findings_of("unseeded_rng_neg.cpp", "src/datagen/fixture.cpp"),
            RL{});
  EXPECT_EQ(findings_of("unseeded_rng_pos.cpp", "tests/fixture.cpp"), RL{});
}

TEST(FgpcheckNakedNew, FlagsNewAndDeleteEverywhere) {
  const RL expected = {{"naked-new", 7}, {"naked-new", 9}};
  EXPECT_EQ(findings_of("naked_new_pos.cpp", "src/freeride/fixture.cpp"),
            expected);
  EXPECT_EQ(findings_of("naked_new_pos.cpp", "bench/fixture.cpp"), expected);
  EXPECT_EQ(findings_of("naked_new_neg.cpp", "src/freeride/fixture.cpp"),
            RL{});
}

TEST(FgpcheckHeaderHygiene, FlagsHeadersWithoutPragmaOnce) {
  EXPECT_EQ(findings_of("header_hygiene_pos.h", "src/core/fixture.h"),
            (RL{{"header-hygiene", 1}}));
  EXPECT_EQ(findings_of("header_hygiene_neg.h", "src/core/fixture.h"), RL{});
  // Only headers need the pragma.
  EXPECT_EQ(findings_of("header_hygiene_pos.h", "src/core/fixture.cpp"),
            RL{});
}

TEST(FgpcheckCheckConvention, FlagsRawAssertsAbortsAndStdExceptions) {
  const RL expected = {{"check-convention", 3},
                       {"check-convention", 8},
                       {"check-convention", 9},
                       {"check-convention", 10}};
  EXPECT_EQ(findings_of("check_convention_pos.cpp", "src/core/fixture.cpp"),
            expected);
  EXPECT_EQ(findings_of("check_convention_neg.cpp", "src/core/fixture.cpp"),
            RL{});
  // util/check.h itself is built on the primitives; outside src/ only
  // assert() and <cassert> are banned.
  EXPECT_EQ(findings_of("check_convention_pos.cpp", "src/util/fixture.cpp"),
            RL{});
  EXPECT_EQ(findings_of("check_convention_pos.cpp", "tests/fixture.cpp"),
            (RL{{"check-convention", 3}, {"check-convention", 8}}));
}

TEST(FgpcheckConsoleIo, FlagsLibrariesAndTestsButNotBench) {
  const RL expected = {{"console-io", 6},
                       {"console-io", 7},
                       {"console-io", 8},
                       {"console-io", 9}};
  EXPECT_EQ(findings_of("console_io_pos.cpp", "src/obs/fixture.cpp"),
            expected);
  EXPECT_EQ(findings_of("console_io_pos.cpp", "tests/fixture.cpp"), expected);
  EXPECT_EQ(findings_of("console_io_neg.cpp", "src/obs/fixture.cpp"), RL{});
  // bench/, tools/ and examples/ own stdout and stderr.
  EXPECT_EQ(findings_of("console_io_pos.cpp", "bench/fixture.cpp"), RL{});
}

TEST(FgpcheckPayloadConstCast, FlagsWritesThroughPayloadViews) {
  EXPECT_EQ(findings_of("payload_const_cast_pos.cpp",
                        "src/repository/fixture.cpp"),
            (RL{{"payload-const-cast", 6}}));
  EXPECT_EQ(findings_of("payload_const_cast_neg.cpp",
                        "src/repository/fixture.cpp"),
            RL{});
}

TEST(FgpcheckFormatting, FlagsTabsTrailingSpaceCrlfAndMissingNewline) {
  const RL expected = {{"formatting", 3},
                       {"formatting", 5},
                       {"formatting", 6},
                       {"formatting", 7}};
  EXPECT_EQ(findings_of("formatting_pos.cpp", "examples/fixture.cpp"),
            expected);
  EXPECT_EQ(findings_of("formatting_neg.cpp", "examples/fixture.cpp"), RL{});
}

// ---------------------------------------------------------------------------
// tokenizer hostility (fixtures on disk)

TEST(FgpcheckTokenizer, UnterminatedRawStringIsDiagnosedNotFatal) {
  const std::string src = read_fixture("hostile_unterminated_raw.cpp");
  const auto tr = fgpcheck::tokenize(src, "hostile_unterminated_raw.cpp");
  const RL expected = {{"tokenizer", 3}};
  EXPECT_EQ(rule_lines(tr.diagnostics), expected);
}

TEST(FgpcheckTokenizer, JunkFileYieldsOneDiagnosticPerMalformation) {
  const std::string src = read_fixture("hostile_junk.cpp");
  const auto tr = fgpcheck::tokenize(src, "hostile_junk.cpp");
  const RL expected = {{"tokenizer", 4},   // unterminated char literal
                       {"tokenizer", 5},   // unterminated string literal
                       {"tokenizer", 6}};  // unterminated block comment
  EXPECT_EQ(rule_lines(tr.diagnostics), expected);
}

// ---------------------------------------------------------------------------
// tokenizer hostility (generated in memory, test_fuzz.cpp style)

TEST(FgpcheckTokenizer, TenMegabyteSingleLineFileTerminatesQuickly) {
  // The bound is relative: a 1 MB line of the same shape, timed here on the
  // same build and host, so a sanitizer build or a busy machine slows both.
  // Linear work makes the 10 MB line cost about ten times the 1 MB one and
  // quadratic work about a hundred times; the bound sits between them.
  const auto line = [](std::size_t bytes) {
    std::string src = "int main() { return 0";
    src.reserve(bytes + 32);
    while (src.size() < bytes) src += " + 0x7f + kConstant";
    src += "; }\n";
    return src;
  };
  const auto seconds_to_check = [](const std::string& src) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto tr = fgpcheck::tokenize(src, "huge.cpp");
    const auto fa = fgpcheck::analyze_source(src, "src/apps/huge.cpp", {});
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    EXPECT_TRUE(tr.diagnostics.empty());
    EXPECT_GT(tr.tokens.size(), 1000u);
    EXPECT_TRUE(fa.findings.empty());
    return elapsed.count();
  };
  const double one_mb = seconds_to_check(line(1u << 20));
  const double ten_mb = seconds_to_check(line(10u << 20));
  EXPECT_LT(ten_mb, 35.0 * one_mb)
      << "1 MB took " << one_mb << " s, 10 MB took " << ten_mb << " s";
}

TEST(FgpcheckTokenizer, DeeplyNestedBracketsDoNotBlowUp) {
  // 100k unbalanced openers followed by assignments: the bracket-match
  // map is a single stack pass, so this must stay linear.
  std::string src;
  for (int i = 0; i < 100000; ++i) src += "[({";
  src += "x = 1;";
  const auto fa = fgpcheck::analyze_source(src, "src/apps/deep.cpp", {});
  (void)fa;
  SUCCEED();  // surviving without a crash/hang is the contract
}

TEST(FgpcheckTokenizer, EveryPrefixOfAValidFileIsSurvivable) {
  // Truncation fuzz: chopping a real-ish source at any byte must never
  // crash the analyzer (worst case: tokenizer diagnostics).
  const std::string src = read_fixture("parallel_capture_pos.cpp");
  for (std::size_t cut = 0; cut <= src.size(); cut += 7) {
    const auto fa = fgpcheck::analyze_source(src.substr(0, cut),
                                             "src/freeride/cut.cpp", {});
    (void)fa;
  }
  SUCCEED();
}

TEST(FgpcheckTokenizer, RawStringsAndDigitSeparatorsTokenize) {
  const std::string src =
      "const char* s = R\"x(no \" escape)x\";\n"
      "int big = 1'000'000;\n"
      "double d = 1.5e-3;\n";
  const auto tr = fgpcheck::tokenize(src, "ok.cpp");
  EXPECT_TRUE(tr.diagnostics.empty());
  bool saw_raw = false;
  for (const auto& t : tr.tokens)
    if (t.kind == fgpcheck::TokKind::Str && t.text == "no \" escape")
      saw_raw = true;
  EXPECT_TRUE(saw_raw);
}

// ---------------------------------------------------------------------------
// stale-suppression audit

TEST(FgpcheckSuppressions, LiveFixturePatternsPass) {
  const auto findings = fgpcheck::audit_suppression_file(
      std::string(FGPCHECK_FIXTURE_DIR) + "/supp/live.supp",
      FGPCHECK_REPO_ROOT);
  EXPECT_EQ(rule_lines(findings), RL{});
}

TEST(FgpcheckSuppressions, DeadAndMalformedFixturePatternsAreFlagged) {
  const auto findings = fgpcheck::audit_suppression_file(
      std::string(FGPCHECK_FIXTURE_DIR) + "/supp/dead.supp",
      FGPCHECK_REPO_ROOT);
  const RL expected = {{"stale-suppression", 2},
                       {"stale-suppression", 3},
                       {"suppression-syntax", 4}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(FgpcheckSuppressions, RealSanitizerSuppressionsAreAllLive) {
  const auto findings = fgpcheck::audit_suppressions(FGPCHECK_REPO_ROOT);
  EXPECT_EQ(rule_lines(findings), RL{});
}

// ---------------------------------------------------------------------------
// the real tree stays clean

TEST(FgpcheckTree, RealTreeHasNoFindings) {
  const auto result = fgpcheck::analyze_tree(FGPCHECK_REPO_ROOT);
  for (const auto& f : result.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  EXPECT_GT(result.files, 100u);  // the walk actually visited the tree
}

}  // namespace
