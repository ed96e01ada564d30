//===--- RuleEngineTest.cpp - Rule engine + Table-2 rule tests ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For each built-in rule (paper Table 2 plus the case-study refinements),
/// fabricates a context profile that should trigger it — and near-miss
/// profiles that should not — then checks the engine's suggestion,
/// stability gating, plan compilation, and report rendering.
///
//===----------------------------------------------------------------------===//

#include "rules/RuleEngine.h"

#include "collections/CollectionRuntime.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

using namespace chameleon;
using namespace chameleon::rules;

namespace {

/// Fabricates profiles and runs the engine over them.
struct RuleEngineTest : ::testing::Test {
  SemanticProfiler Profiler;
  RuleEngine Engine;

  void SetUp() override { Engine.addBuiltinRules(); }

  /// Distinguishes synthetic sites; a fixture member (not a function-local
  /// static) so every makeContext instantiation shares it.
  unsigned SiteCounter = 0;

  /// Creates a context of source type \p TypeName with \p Instances dead
  /// instances shaped by \p Shape (applied to each instance record).
  template <typename ShapeFn>
  ContextInfo *makeContext(const std::string &TypeName, unsigned Instances,
                           ShapeFn Shape, uint32_t InitialCapacity = 0) {
    FrameId Site =
        Profiler.internFrame("site:" + std::to_string(++SiteCounter));
    ContextInfo *Info = Profiler.contextForAllocation(
        Site, Profiler.internFrame(TypeName));
    for (unsigned I = 0; I < Instances; ++I) {
      ObjectContextInfo Usage;
      Shape(Usage, I);
      Info->recordDeath(Usage);
      Info->recordAllocation(InitialCapacity);
    }
    return Info;
  }

  std::vector<Suggestion> suggestionsFor(const ContextInfo &Info) {
    std::vector<Suggestion> Out;
    Engine.evaluateContext(Info, Profiler, Out);
    return Out;
  }

  /// The first fired rule name, or "" when nothing fired.
  std::string firstRule(const ContextInfo &Info) {
    std::vector<Suggestion> Suggs = suggestionsFor(Info);
    return Suggs.empty() ? std::string() : Suggs[0].RuleName;
  }

  bool fired(const ContextInfo &Info, const std::string &Name) {
    for (const Suggestion &S : suggestionsFor(Info))
      if (S.RuleName == Name)
        return true;
    return false;
  }
};

TEST_F(RuleEngineTest, BuiltinRulesParse) {
  EXPECT_GE(Engine.rules().size(), 18u);
}

TEST_F(RuleEngineTest, SmallHashMapBecomesArrayMap) {
  // Table 2: "HashSet maxSize < X -> ArraySet", map analogue; the TVLA
  // headline replacement.
  ContextInfo *Info = makeContext(
      "HashMap", 10,
      [](ObjectContextInfo &U, unsigned) {
        for (int I = 0; I < 3; ++I)
          U.count(OpKind::Put);
        for (int I = 0; I < 20; ++I)
          U.count(OpKind::Get);
        U.noteSize(3);
      },
      /*InitialCapacity=*/16);
  EXPECT_TRUE(fired(*Info, "small-hashmap"));
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  ASSERT_FALSE(Suggs.empty());
  EXPECT_EQ(Suggs[0].NewImpl, ImplKind::ArrayMap);
  EXPECT_EQ(Suggs[0].Action, ActionKind::Replace);
}

TEST_F(RuleEngineTest, LargeHashMapIsLeftAlone) {
  ContextInfo *Info = makeContext("HashMap", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Put);
                                    U.noteSize(500);
                                  },
                                  /*InitialCapacity=*/1024);
  EXPECT_FALSE(fired(*Info, "small-hashmap"));
}

TEST_F(RuleEngineTest, SmallHashSetBecomesArraySet) {
  ContextInfo *Info = makeContext("HashSet", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Add);
                                    U.noteSize(4);
                                  },
                                  /*InitialCapacity=*/16);
  EXPECT_TRUE(fired(*Info, "small-hashset"));
}

TEST_F(RuleEngineTest, ContainsHeavyArrayListBecomesLinkedHashSet) {
  // Table 2 row 1.
  ContextInfo *Info = makeContext("ArrayList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 100; ++I)
                                      U.count(OpKind::Contains);
                                    U.noteSize(64);
                                  },
                                  /*InitialCapacity=*/64);
  EXPECT_TRUE(fired(*Info, "arraylist-contains"));
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  EXPECT_EQ(Suggs[0].NewImpl, ImplKind::LinkedHashSet);
}

TEST_F(RuleEngineTest, FewContainsDoesNotFireTheContainsRule) {
  ContextInfo *Info = makeContext("ArrayList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Contains);
                                    U.noteSize(64);
                                  },
                                  /*InitialCapacity=*/64);
  EXPECT_FALSE(fired(*Info, "arraylist-contains"));
}

TEST_F(RuleEngineTest, RandomAccessLinkedListBecomesArrayList) {
  // Table 2 row 2.
  ContextInfo *Info = makeContext("LinkedList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 100; ++I)
                                      U.count(OpKind::GetAtIndex);
                                    U.noteSize(40);
                                  });
  EXPECT_TRUE(fired(*Info, "linkedlist-random-access"));
}

TEST_F(RuleEngineTest, SequentialLinkedListBecomesArrayListBySpace) {
  // Table 2 row 3: no middle/head surgery -> the LinkedList overhead is
  // unjustified.
  ContextInfo *Info = makeContext("LinkedList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 10; ++I)
                                      U.count(OpKind::Add);
                                    U.count(OpKind::Iterate);
                                    U.noteSize(10);
                                  });
  EXPECT_TRUE(fired(*Info, "linkedlist-overhead"));
}

TEST_F(RuleEngineTest, HeadSurgeryJustifiesTheLinkedList) {
  ContextInfo *Info = makeContext("LinkedList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 10; ++I) {
                                      U.count(OpKind::Add);
                                      U.count(OpKind::RemoveFirst);
                                    }
                                    U.noteSize(10);
                                  });
  EXPECT_FALSE(fired(*Info, "linkedlist-overhead"));
  EXPECT_FALSE(fired(*Info, "linkedlist-random-access"));
}

TEST_F(RuleEngineTest, AlwaysEmptyListsBecomeSharedEmpty) {
  ContextInfo *Info = makeContext("LinkedList", 20,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.noteSize(0);
                                  });
  EXPECT_EQ(firstRule(*Info), "never-used-lists");
  EXPECT_TRUE(fired(*Info, "never-used"));
}

TEST_F(RuleEngineTest, EmptyButQueriedListsBecomeLazy) {
  ContextInfo *Info = makeContext("ArrayList", 20,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Contains);
                                    U.noteSize(0);
                                  },
                                  /*InitialCapacity=*/10);
  EXPECT_EQ(firstRule(*Info), "empty-lists");
  EXPECT_FALSE(fired(*Info, "never-used-lists"));
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  EXPECT_EQ(Suggs[0].NewImpl, ImplKind::LazyArrayList);
}

TEST_F(RuleEngineTest, MostlyEmptyMapsBecomeLazy) {
  // 80% empty, 20% one entry (the FindBugs annotations shape).
  ContextInfo *Info = makeContext("HashMap", 20,
                                  [](ObjectContextInfo &U, unsigned I) {
                                    if (I % 5 == 0) {
                                      U.count(OpKind::Put);
                                      U.noteSize(1);
                                    } else {
                                      U.noteSize(0);
                                    }
                                  },
                                  /*InitialCapacity=*/16);
  EXPECT_TRUE(fired(*Info, "mostly-empty-maps"));
}

TEST_F(RuleEngineTest, SingletonArrayListsBecomeSingletonList) {
  ContextInfo *Info = makeContext("ArrayList", 20,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Add);
                                    for (int I = 0; I < 5; ++I)
                                      U.count(OpKind::GetAtIndex);
                                    U.noteSize(1);
                                  },
                                  /*InitialCapacity=*/10);
  EXPECT_TRUE(fired(*Info, "singleton-lists"));
}

TEST_F(RuleEngineTest, MutatedSingletonsAreNotSingletonList) {
  ContextInfo *Info = makeContext("ArrayList", 20,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Add);
                                    U.count(OpKind::RemoveObject);
                                    U.noteSize(1);
                                  },
                                  /*InitialCapacity=*/10);
  EXPECT_FALSE(fired(*Info, "singleton-lists"));
}

TEST_F(RuleEngineTest, IncrementalResizingSuggestsTheObservedSize) {
  // Table 2 row: "Collection maxSize > initialCapacity".
  ContextInfo *Info = makeContext("ArrayList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 30; ++I)
                                      U.count(OpKind::Add);
                                    U.noteSize(30);
                                  },
                                  /*InitialCapacity=*/10);
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  bool Found = false;
  for (const Suggestion &S : Suggs) {
    if (S.RuleName == "incremental-resizing") {
      Found = true;
      EXPECT_EQ(S.Action, ActionKind::SetCapacity);
      ASSERT_TRUE(S.Capacity.has_value());
      EXPECT_EQ(*S.Capacity, 30u);
    }
  }
  EXPECT_TRUE(Found);
}

TEST_F(RuleEngineTest, OversizedCapacityIsShrunk) {
  ContextInfo *Info = makeContext("ArrayList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Add);
                                    U.noteSize(2);
                                  },
                                  /*InitialCapacity=*/32);
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  bool Found = false;
  for (const Suggestion &S : Suggs)
    if (S.RuleName == "oversized-capacity") {
      Found = true;
      EXPECT_EQ(*S.Capacity, 2u);
    }
  EXPECT_TRUE(Found);
}

TEST_F(RuleEngineTest, RedundantCopyTemporariesAreFlagged) {
  // Table 2: "#allOps == #copied" — collections that only ever get copied.
  ContextInfo *Info = makeContext("ArrayList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::CopiedFrom); // birth
                                    U.count(OpKind::CopiedInto);
                                    U.noteSize(3);
                                  },
                                  /*InitialCapacity=*/3);
  EXPECT_TRUE(fired(*Info, "redundant-copies"));
}

TEST_F(RuleEngineTest, EmptyIteratorsAreFlagged) {
  ContextInfo *Info = makeContext("HashSet", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 20; ++I)
                                      U.count(OpKind::IterateEmpty);
                                    U.noteSize(0);
                                  },
                                  /*InitialCapacity=*/16);
  EXPECT_TRUE(fired(*Info, "empty-iterators"));
}

TEST_F(RuleEngineTest, StabilityGateSuppressesUnstableSizes) {
  // Definition 3.1: wildly varying max sizes -> size-based rules must not
  // fire. Alternate tiny and huge collections at one context.
  ContextInfo *Info = makeContext("HashMap", 20,
                                  [](ObjectContextInfo &U, unsigned I) {
                                    U.count(OpKind::Put);
                                    U.noteSize(I % 2 == 0 ? 1 : 400);
                                  },
                                  /*InitialCapacity=*/16);
  EXPECT_FALSE(fired(*Info, "small-hashmap"));
}

TEST_F(RuleEngineTest, UnstableAttributeBypassesTheGate) {
  RuleEngine Custom;
  Custom.addRules(
      "[gate-test, unstable] HashMap : maxSize < 500 -> ArrayMap");
  ContextInfo *Info = makeContext("HashMap", 20,
                                  [](ObjectContextInfo &U, unsigned I) {
                                    U.count(OpKind::Put);
                                    U.noteSize(I % 2 == 0 ? 1 : 400);
                                  });
  std::vector<Suggestion> Out;
  Custom.evaluateContext(*Info, Profiler, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].RuleName, "gate-test");
}

TEST_F(RuleEngineTest, MinSamplesSkipsThinContexts) {
  ContextInfo *Info = makeContext("HashMap", 2,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Put);
                                    U.noteSize(2);
                                  },
                                  /*InitialCapacity=*/16);
  EXPECT_TRUE(suggestionsFor(*Info).empty());
}

TEST_F(RuleEngineTest, MinPotentialGatesSpaceRulesOnly) {
  RuleEngineConfig Config;
  Config.MinPotentialBytes = 1000000; // nothing qualifies
  RuleEngine Gated(Config);
  Gated.addBuiltinRules();
  ContextInfo *Info = makeContext("HashMap", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Put);
                                    U.noteSize(3);
                                  },
                                  /*InitialCapacity=*/16);
  std::vector<Suggestion> Out;
  Gated.evaluateContext(*Info, Profiler, Out);
  EXPECT_TRUE(Out.empty())
      << "space rules must be gated below the potential threshold; got "
      << (Out.empty() ? "" : Out[0].RuleName);
}

TEST_F(RuleEngineTest, BuildPlanMergesReplaceAndCapacity) {
  ContextInfo *Info = makeContext("HashMap", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    for (int I = 0; I < 3; ++I)
                                      U.count(OpKind::Put);
                                    U.noteSize(3);
                                  },
                                  /*InitialCapacity=*/16);
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  ReplacementPlan Plan = RuleEngine::buildPlan(Suggs);
  const PlanDecision *Decision = Plan.lookup(Info->label());
  ASSERT_NE(Decision, nullptr);
  ASSERT_TRUE(Decision->Impl.has_value());
  EXPECT_EQ(*Decision->Impl, ImplKind::ArrayMap);
  ASSERT_TRUE(Decision->Capacity.has_value());
  EXPECT_EQ(*Decision->Capacity, 3u); // from oversized-capacity-maps
}

TEST_F(RuleEngineTest, WarnSuggestionsStayOutOfThePlan) {
  ContextInfo *Info = makeContext("ArrayList", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::CopiedInto);
                                    U.count(OpKind::CopiedFrom);
                                    U.noteSize(2);
                                  },
                                  /*InitialCapacity=*/2);
  std::vector<Suggestion> Suggs = suggestionsFor(*Info);
  ReplacementPlan Plan = RuleEngine::buildPlan(Suggs);
  EXPECT_EQ(Plan.lookup(Info->label()), nullptr);
}

TEST_F(RuleEngineTest, ExplainContextNamesEveryOutcome) {
  ContextInfo *Info = makeContext(
      "HashMap", 10,
      [](ObjectContextInfo &U, unsigned) {
        for (int I = 0; I < 3; ++I)
          U.count(OpKind::Put);
        U.noteSize(3);
      },
      /*InitialCapacity=*/16);
  std::string Text = Engine.explainContext(*Info, Profiler);
  EXPECT_NE(Text.find("[small-hashmap] fired -> replace with ArrayMap"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("[small-hashset] source type mismatch"),
            std::string::npos);
  EXPECT_NE(Text.find("[never-used] condition false"), std::string::npos);

  // Thin contexts explain themselves too.
  ContextInfo *Thin = makeContext("HashMap", 1,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.noteSize(1);
                                  });
  std::string ThinText = Engine.explainContext(*Thin, Profiler);
  EXPECT_NE(ThinText.find("too few folded instances"), std::string::npos)
      << ThinText;
}

TEST_F(RuleEngineTest, ExplainReportsUnstableAndMissingParams) {
  RuleEngine Custom;
  Custom.addRules(R"(
    [sized] HashMap : maxSize < 500 -> ArrayMap
    [tuned] HashMap : maxSize < $bound -> ArrayMap
  )");
  ContextInfo *Info = makeContext("HashMap", 20,
                                  [](ObjectContextInfo &U, unsigned I) {
                                    U.count(OpKind::Put);
                                    U.noteSize(I % 2 == 0 ? 1 : 400);
                                  });
  std::string Text = Custom.explainContext(*Info, Profiler);
  EXPECT_NE(Text.find("[sized] suppressed by stability gate"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("[tuned] unbound $-parameter"), std::string::npos);
}

TEST_F(RuleEngineTest, ExplainSurfacesDivisionGuard) {
  // A ratio rule over a profile with zero removes divides by zero; the
  // evaluator defines x/0 = 0, which silently falsifies the condition.
  // The explanation must say that, or the silence is undiagnosable.
  RuleEngine Custom;
  Custom.addRules(
      "[ratio] HashMap : #get(Object) / #remove(Object) > 2 -> ArrayMap");
  ContextInfo *Info = makeContext("HashMap", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Get);
                                    U.count(OpKind::Put);
                                    U.noteSize(3);
                                  });
  std::string Text = Custom.explainContext(*Info, Profiler);
  EXPECT_NE(Text.find("[ratio] condition false"), std::string::npos) << Text;
  EXPECT_NE(Text.find("(division guard: 1 division by zero evaluated as 0)"),
            std::string::npos)
      << Text;

  // No divisions by zero, no note.
  RuleEngine Plain;
  Plain.addRules("[plain] HashMap : maxSize > 100 -> ArrayMap");
  std::string PlainText = Plain.explainContext(*Info, Profiler);
  EXPECT_EQ(PlainText.find("division guard"), std::string::npos) << PlainText;
}

/// A selector with one line of per-context state, as OnlineAdaptor has.
struct DescribingSelector : OnlineSelector {
  ImplKind chooseImpl(const ContextInfo *, AdtKind, ImplKind Requested,
                      uint32_t &) override {
    return Requested;
  }
  std::string describeContext(const ContextInfo *) const override {
    return "online: plan=ArrayMap cap=4 consecutiveAborts=2";
  }
};

TEST_F(RuleEngineTest, ExplainContextShowsRuntimeIntrospection) {
  ContextInfo *Info = makeContext(
      "HashMap", 10,
      [](ObjectContextInfo &U, unsigned) {
        for (int I = 0; I < 3; ++I)
          U.count(OpKind::Put);
        U.noteSize(3);
      },
      /*InitialCapacity=*/16);

  // Bare explanation: no migration state, no selector, no telemetry.
  std::string Bare = Engine.explainContext(*Info, Profiler);
  EXPECT_EQ(Bare.find("migrations:"), std::string::npos) << Bare;
  EXPECT_EQ(Bare.find("recent telemetry:"), std::string::npos) << Bare;

  // With live-migration history, selector state, and trace instants
  // tagged with this context's id, all three sections appear.
  Info->noteMigrationCommit();
  Info->noteMigrationAbort();
  Info->noteMigrationAbort();
  DescribingSelector Selector;

#if !defined(CHAMELEON_NO_TELEMETRY)
  obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
  Rec.arm();
  for (int I = 0; I < 5; ++I)
    Rec.recordInstant("online", "evaluate", "ctx", Info->id());
  Rec.recordInstant("migrate", "abort", "ctx", Info->id());
  Rec.recordInstant("online", "evaluate", "ctx", Info->id() + 1);
  Rec.disarm();
#endif

  std::string Text =
      Engine.explainContext(*Info, Profiler, &Selector,
                            /*TraceInstantLimit=*/4);
  EXPECT_NE(Text.find("  migrations: 1 committed, 2 aborted\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("  online: plan=ArrayMap cap=4 consecutiveAborts=2\n"),
            std::string::npos)
      << Text;

#if !defined(CHAMELEON_NO_TELEMETRY)
  EXPECT_NE(Text.find("  recent telemetry:\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find("    [migrate] abort @"), std::string::npos) << Text;
  // Limited to the newest 4 of this context's 6 instants, none from the
  // neighbouring context.
  size_t Shown = 0;
  for (size_t At = Text.find("    ["); At != std::string::npos;
       At = Text.find("    [", At + 1))
    ++Shown;
  EXPECT_EQ(Shown, 4u) << Text;
  obs::TraceRecorder::instance().clear();
#endif
}

TEST_F(RuleEngineTest, ParamsTuneRuleConstants) {
  RuleEngine Custom;
  Custom.addRules(
      "[tuned] HashMap : maxSize <= $smallMax -> ArrayMap($smallMax)");
  ContextInfo *Info = makeContext("HashMap", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Put);
                                    U.noteSize(5);
                                  },
                                  /*InitialCapacity=*/16);

  // Unbound parameter: the rule must never fire.
  std::vector<Suggestion> Out;
  Custom.evaluateContext(*Info, Profiler, Out);
  EXPECT_TRUE(Out.empty());

  // Bound below the observed size: still silent.
  Custom.setParam("smallMax", 3);
  Custom.evaluateContext(*Info, Profiler, Out);
  EXPECT_TRUE(Out.empty());

  // Bound above: fires, and the capacity expression sees the binding.
  Custom.setParam("smallMax", 8);
  Custom.evaluateContext(*Info, Profiler, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].NewImpl, ImplKind::ArrayMap);
  ASSERT_TRUE(Out[0].Capacity.has_value());
  EXPECT_EQ(*Out[0].Capacity, 8u);
}

TEST_F(RuleEngineTest, ReportRendersInPaperFormat) {
  ContextInfo *Info = makeContext("HashMap", 10,
                                  [](ObjectContextInfo &U, unsigned) {
                                    U.count(OpKind::Put);
                                    U.noteSize(3);
                                  },
                                  /*InitialCapacity=*/16);
  std::string Report =
      RuleEngine::renderReport(suggestionsFor(*Info));
  EXPECT_NE(Report.find("replace with ArrayMap"), std::string::npos);
  EXPECT_NE(Report.find("1: HashMap:site:"), std::string::npos);
}

} // namespace
