//===--- ReportTest.cpp - Profiler report rendering unit tests -----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/Report.h"

#include <gtest/gtest.h>

using namespace chameleon;

namespace {

TEST(LiveDataSeries, ExtractsFractionsPerCycle) {
  std::vector<GcCycleRecord> Cycles(2);
  Cycles[0].Cycle = 1;
  Cycles[0].LiveBytes = 1000;
  Cycles[0].CollectionLiveBytes = 700;
  Cycles[0].CollectionUsedBytes = 400;
  Cycles[0].CollectionCoreBytes = 100;
  Cycles[1].Cycle = 2;
  Cycles[1].LiveBytes = 2000;
  Cycles[1].CollectionLiveBytes = 500;
  Cycles[1].CollectionUsedBytes = 250;
  Cycles[1].CollectionCoreBytes = 200;

  std::vector<LiveDataPoint> Series = liveDataSeries(Cycles);
  ASSERT_EQ(Series.size(), 2u);
  EXPECT_DOUBLE_EQ(Series[0].LiveFraction, 0.7);
  EXPECT_DOUBLE_EQ(Series[0].UsedFraction, 0.4);
  EXPECT_DOUBLE_EQ(Series[0].CoreFraction, 0.1);
  EXPECT_DOUBLE_EQ(Series[1].LiveFraction, 0.25);
  EXPECT_EQ(Series[1].Cycle, 2u);
}

TEST(LiveDataSeries, RenderedTableHasHeaderAndRows) {
  std::vector<GcCycleRecord> Cycles(1);
  Cycles[0].Cycle = 1;
  Cycles[0].LiveBytes = 100;
  Cycles[0].CollectionLiveBytes = 50;
  std::string Out = renderLiveDataSeries(liveDataSeries(Cycles));
  EXPECT_NE(Out.find("GC#"), std::string::npos);
  EXPECT_NE(Out.find("live%"), std::string::npos);
  EXPECT_NE(Out.find("50.0%"), std::string::npos);
}

TEST(TopContexts, BuildsRankedSummaries) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *Info;
  {
    CallFrame Caller(P, "caller");
    Info = P.contextForAllocation(Site, Type);
  }
  ASSERT_NE(Info, nullptr);
  Info->recordAllocation(16);
  ObjectContextInfo Usage;
  Usage.count(OpKind::Get);
  Usage.count(OpKind::Get);
  Usage.count(OpKind::Put);
  Usage.noteSize(3);
  Info->recordDeath(Usage);

  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  P.onLiveCollection(Dummy, {100, 40, 10}, Info);
  GcCycleRecord Rec;
  Rec.LiveBytes = 200;
  Rec.CollectionLiveBytes = 100;
  Rec.CollectionUsedBytes = 40;
  Rec.CollectionCoreBytes = 10;
  P.onCycleEnd(Rec);

  std::vector<ContextSummary> Top = topContexts(P, 4);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Label, "HashMap:site:1;caller");
  // Potential 60 of 200 heap-live bytes.
  EXPECT_DOUBLE_EQ(Top[0].PotentialOfHeap, 0.3);
  // get dominates the op distribution.
  ASSERT_FALSE(Top[0].OpDistribution.empty());
  EXPECT_EQ(Top[0].OpDistribution[0].first, "get(Object)");
  EXPECT_NEAR(Top[0].OpDistribution[0].second, 2.0 / 3.0, 1e-9);

  std::string Rendered = renderTopContexts(Top);
  EXPECT_NE(Rendered.find("1: HashMap:site:1;caller"), std::string::npos);
  EXPECT_NE(Rendered.find("potential: 30.0%"), std::string::npos);
}

TEST(ContextDetail, RendersSizesOpsAndHeapRows) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:9");
  ContextInfo *Info;
  {
    CallFrame Caller(P, "caller");
    Info = P.contextForAllocation(Site, P.internFrame("HashMap"));
  }
  Info->recordAllocation(16);
  ObjectContextInfo Usage;
  Usage.count(OpKind::Put);
  Usage.count(OpKind::Get);
  Usage.count(OpKind::Get);
  Usage.noteSize(3);
  Info->recordDeath(Usage);
  HeapObject Dummy(0, 8);
  P.onLiveCollection(Dummy, {200, 120, 40}, Info);
  GcCycleRecord Rec;
  Rec.LiveBytes = 400;
  P.onCycleEnd(Rec);

  std::string Out = renderContextDetail(*Info);
  EXPECT_NE(Out.find("context: HashMap:site:9;caller"),
            std::string::npos);
  EXPECT_NE(Out.find("allocations: 1, folded instances: 1"),
            std::string::npos);
  EXPECT_NE(Out.find("max size"), std::string::npos);
  EXPECT_NE(Out.find("get(Object)"), std::string::npos);
  EXPECT_NE(Out.find("put"), std::string::npos);
  EXPECT_EQ(Out.find("removeFirst"), std::string::npos)
      << "zero-count ops are omitted";
  EXPECT_NE(Out.find("live data"), std::string::npos);
  EXPECT_NE(Out.find("saving potential"), std::string::npos);
  EXPECT_NE(Out.find("80 B"), std::string::npos); // 200 - 120
}

TEST(TypeDistribution, ResolvesNamesAndSorts) {
  TypeRegistry Types;
  SemanticMap A;
  A.Name = "LinkedList$Entry";
  TypeId IdA = Types.registerType(std::move(A));
  SemanticMap B;
  B.Name = "Object[]";
  TypeId IdB = Types.registerType(std::move(B));

  GcCycleRecord Rec;
  Rec.LiveBytes = 1000;
  Rec.TypeDistribution = {{IdB, 100}, {IdA, 250}};

  std::vector<TypeShare> Shares = typeDistribution(Rec, Types);
  ASSERT_EQ(Shares.size(), 2u);
  EXPECT_EQ(Shares[0].Name, "LinkedList$Entry");
  EXPECT_EQ(Shares[0].Bytes, 250u);
  EXPECT_DOUBLE_EQ(Shares[0].Fraction, 0.25);
  EXPECT_EQ(Shares[1].Name, "Object[]");

  std::string Out = renderTypeDistribution(Shares);
  EXPECT_NE(Out.find("LinkedList$Entry"), std::string::npos);
  EXPECT_NE(Out.find("25.0%"), std::string::npos);
}

TEST(TopContexts, LimitsToN) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("ArrayList");
  for (int I = 0; I < 6; ++I) {
    CallFrame Caller(P, "caller" + std::to_string(I));
    (void)P.contextForAllocation(Site, Type);
  }
  EXPECT_EQ(topContexts(P, 4).size(), 4u);
}

} // namespace
