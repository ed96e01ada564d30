//===--- CheckerTest.cpp - chameleon-checker tests ------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the static-analysis library behind tools/chameleon-checker:
/// golden-file comparisons over the tools/testdata check fixtures (one
/// seeded violation per diagnostic ID plus a clean fixture), the tier-1
/// guarantee that the real tree analyzes clean modulo the committed
/// baseline, and unit coverage for the baseline format, suppression
/// comments, the JSON rendering, and the lexer's preprocessor skipping.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Extractor.h"
#include "analysis/Lexer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace chameleon;
using namespace chameleon::analysis;

namespace {

std::string readTestdata(const std::string &Name) {
  std::string Path = std::string(CHAMELEON_TOOLS_TESTDATA) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Analyzes tools/testdata/<stem>.cpp in isolation and compares the
/// rendered diagnostics against tools/testdata/<stem>.expected.
void checkGolden(const std::string &Stem) {
  std::string Source = readTestdata(Stem + ".cpp");
  std::string Expected = readTestdata(Stem + ".expected");
  TreeModel M;
  M.Files.push_back(extractFile(Stem + ".cpp", Source));
  std::vector<Diagnostic> Diags = analyzeModel(M);
  sortDiagnostics(Diags);
  EXPECT_EQ(formatDiagnostics(Diags), Expected) << "fixture " << Stem;
}

//===----------------------------------------------------------------------===//
// Golden-file fixtures: one seeded violation per diagnostic ID
//===----------------------------------------------------------------------===//

TEST(CheckerGolden, SafepointReach) { checkGolden("check_safepoint_reach"); }
TEST(CheckerGolden, RawAcrossSafepoint) {
  checkGolden("check_raw_across_safepoint");
}
TEST(CheckerGolden, LockRank) { checkGolden("check_lock_rank"); }
TEST(CheckerGolden, AllocUnderSpinlock) {
  checkGolden("check_alloc_under_spinlock");
}
TEST(CheckerGolden, MetricName) { checkGolden("check_metric_name"); }
TEST(CheckerGolden, MetricDup) { checkGolden("check_metric_dup"); }
TEST(CheckerGolden, FaultTagDup) { checkGolden("check_fault_tag_dup"); }

/// The clean fixture exercises every checked construct correctly (including
/// a suppression comment) and must produce zero diagnostics.
TEST(CheckerGolden, CleanFixtureHasNoFindings) { checkGolden("check_clean"); }

//===----------------------------------------------------------------------===//
// Tier-1: the real tree analyzes clean modulo the committed baseline
//===----------------------------------------------------------------------===//

TEST(Checker, TreeIsCleanModuloBaseline) {
  const std::string Root = CHAMELEON_SOURCE_ROOT;
  AnalyzerOptions Opts;
  Opts.Inputs = {Root + "/src", Root + "/tools", Root + "/bench"};
  Opts.RelativeTo = Root;

  std::ifstream In(Root + "/tools/checker_baseline.txt");
  ASSERT_TRUE(In.good()) << "cannot open tools/checker_baseline.txt";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Opts.Base = parseBaseline(Buf.str());

  AnalysisResult R = analyze(Opts);
  EXPECT_GT(R.FilesAnalyzed, 100u) << "directory walk found too few files";
  EXPECT_EQ(formatDiagnostics(R.Diags), "")
      << "new checker findings: fix them, waive with a cham-checker-ok "
         "comment, or (for accepted debt) add the key to "
         "tools/checker_baseline.txt";
  EXPECT_TRUE(R.StaleBaselineKeys.empty())
      << "stale baseline entries (the debt was paid; delete the lines): "
      << R.StaleBaselineKeys.front();
  // The baseline is real debt, not dead weight: every key matches.
  EXPECT_EQ(R.Baselined.size(), Opts.Base.Keys.size());
}

//===----------------------------------------------------------------------===//
// Baseline format
//===----------------------------------------------------------------------===//

TEST(CheckerBaseline, ParseSkipsCommentsAndBlanks) {
  Baseline B = parseBaseline("# header\n\n"
                             "check-a|f.cpp|S\n"
                             "  check-b|g.cpp|T  \n"
                             "# trailing\n");
  EXPECT_EQ(B.Keys.size(), 2u);
  EXPECT_TRUE(B.Keys.count("check-a|f.cpp|S"));
  EXPECT_TRUE(B.Keys.count("check-b|g.cpp|T"));
}

TEST(CheckerBaseline, RoundTripsThroughRender) {
  Diagnostic D1{"b.cpp", 9, 1, Severity::Warning, "check-x", "m", "S"};
  Diagnostic D2{"a.cpp", 3, 1, Severity::Warning, "check-y", "m", "T"};
  Diagnostic Dup = D1;
  Dup.Line = 42; // same key, different position — must deduplicate
  std::string Text = renderBaseline({D1, D2, Dup});
  Baseline B = parseBaseline(Text);
  EXPECT_EQ(B.Keys.size(), 2u);
  EXPECT_TRUE(B.contains(D1));
  EXPECT_TRUE(B.contains(D2));
}

TEST(CheckerBaseline, StaleKeysAreReported) {
  Baseline B = parseBaseline("check-x|a.cpp|S\ncheck-gone|z.cpp|T\n");
  Diagnostic D{"a.cpp", 1, 1, Severity::Warning, "check-x", "m", "S"};
  std::vector<std::string> Stale = staleBaselineKeys(B, {D});
  ASSERT_EQ(Stale.size(), 1u);
  EXPECT_EQ(Stale.front(), "check-gone|z.cpp|T");
}

//===----------------------------------------------------------------------===//
// Suppression comments
//===----------------------------------------------------------------------===//

// The dup check flags the second and later sites of a reused tag, so the
// suppression marker goes above the *second* site.
TEST(CheckerSuppress, MarkerCoversItsOwnAndTheNextLine) {
  const std::string Source =
      "void growA() {\n"
      "  CHAM_FAULT(\"dup.tag\");\n"
      "}\n"
      "void growB() {\n"
      "  // cham-checker-ok(check-fault-tag-dup): intentional\n"
      "  CHAM_FAULT(\"dup.tag\");\n"
      "}\n";
  TreeModel M;
  M.Files.push_back(extractFile("sup.cpp", Source));
  std::vector<Diagnostic> Diags = analyzeModel(M);
  EXPECT_EQ(Diags.size(), 0u);
}

TEST(CheckerSuppress, WrongIdDoesNotSilence) {
  const std::string Source =
      "void growA() {\n"
      "  CHAM_FAULT(\"dup.tag\");\n"
      "}\n"
      "void growB() {\n"
      "  // cham-checker-ok(check-metric-name): wrong id\n"
      "  CHAM_FAULT(\"dup.tag\");\n"
      "}\n";
  TreeModel M;
  M.Files.push_back(extractFile("sup.cpp", Source));
  std::vector<Diagnostic> Diags = analyzeModel(M);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].ID, "check-fault-tag-dup");
  EXPECT_EQ(Diags[0].Line, 6u);
}

//===----------------------------------------------------------------------===//
// JSON rendering
//===----------------------------------------------------------------------===//

TEST(CheckerJson, EscapesAndStructures) {
  Diagnostic D{"a\"b.cpp", 7,       3, Severity::Error,
              "check-x",  "msg\n", "S"};
  std::string J = diagnosticsToJson({D});
  EXPECT_NE(J.find("\"file\": \"a\\\"b.cpp\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"line\": 7"), std::string::npos) << J;
  EXPECT_NE(J.find("\"severity\": \"error\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"message\": \"msg\\n\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"subject\": \"S\""), std::string::npos) << J;
}

TEST(CheckerJson, EmptyListIsAnEmptyArray) {
  EXPECT_EQ(diagnosticsToJson({}), "[]\n");
}

//===----------------------------------------------------------------------===//
// Lexer: facts inside preprocessor lines and comments never register
//===----------------------------------------------------------------------===//

TEST(CheckerLexer, MacroDefinitionsAndCommentsAreSkipped) {
  const std::string Source =
      "#define GROW(T) CHAM_FAULT(T)\n"
      "// CHAM_FAULT(\"comment.tag\")\n"
      "void grow() {\n"
      "  CHAM_FAULT(\"real.tag\");\n"
      "}\n";
  FileModel F = extractFile("pp.cpp", Source);
  ASSERT_EQ(F.FaultSites.size(), 1u);
  EXPECT_EQ(F.FaultSites[0].Tag, "real.tag");
  EXPECT_EQ(F.FaultSites[0].Line, 4u);
}

TEST(CheckerLexer, SuppressionsSurviveLexing) {
  LexedFile L = lexCxx("int x; // cham-checker-ok(check-lock-rank): why\n");
  ASSERT_EQ(L.Suppressions.size(), 1u);
  EXPECT_EQ(L.Suppressions[0].ID, "check-lock-rank");
  EXPECT_EQ(L.Suppressions[0].Line, 1u);
}

} // namespace
