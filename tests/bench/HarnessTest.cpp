//===--- HarnessTest.cpp - The micro-bench harness ------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace chameleon;

// A table renders to text and to the JSON record from the same rows: the
// record parses, carries the bench name and the four provenance keys, and
// every row value, printed through its column's Format, is the text cell.
TEST(BenchHarness, TableAndRecordShareRows) {
  char Name[] = "harness_test";
  char *Argv[] = {Name};
  bench::Harness H("harness_test", 1, Argv, {});
  bench::Table &T = H.table("rows", {{"recorder state"},
                                     {"ops/s"},
                                     {"vs disarmed", {2, "x"}},
                                     {"captures/s", {2, "M", 1e-6}}});
  T.addRow({"disarmed", 515928.4, 1.0, 10825100.0});
  T.addRow({"armed (recording)", 435300.0, 515928.4 / 435300.0, 4.98224e7});
  H.metric("site_ns", 0.0569149, {3});

  obs::json::Value Doc;
  std::string Error;
  ASSERT_TRUE(obs::json::parse(H.json(), Doc, &Error)) << Error;
  EXPECT_EQ(Doc.strOr("bench", ""), "harness_test");
  for (const char *Key :
       {"bench", "git_describe", "build_flags", "cores", "cpu_model"})
    EXPECT_NE(Doc.find(Key), nullptr) << Key;

  std::vector<std::string> Lines;
  std::istringstream Text(T.render());
  for (std::string Line; std::getline(Text, Line);)
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 4u) << "header, rule, two rows";

  const obs::json::Value *Rows = Doc.find("rows");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->kind(), obs::json::Value::Kind::Array);
  ASSERT_EQ(Rows->array().size(), 2u);
  for (size_t R = 0; R < 2; ++R) {
    const std::string &Line = Lines[R + 2];
    for (const bench::Table::Column &C : T.Columns) {
      const obs::json::Value *V =
          Rows->array()[R].find(bench::columnKey(C.Header));
      ASSERT_NE(V, nullptr) << C.Header;
      std::string Cell = V->kind() == obs::json::Value::Kind::Number
                             ? C.Fmt(V->number())
                             : V->str();
      // TextTable left-aligns every cell under its header.
      size_t At = Lines[0].find(C.Header);
      ASSERT_NE(At, std::string::npos);
      EXPECT_EQ(Line.substr(At, Cell.size()), Cell) << C.Header;
      EXPECT_TRUE(At + Cell.size() == Line.size() ||
                  Line[At + Cell.size()] == ' ')
          << C.Header;
    }
  }
}
