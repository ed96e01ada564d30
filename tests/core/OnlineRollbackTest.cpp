//===--- OnlineRollbackTest.cpp - Transactional migration rollback --------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transactional live-migration contract: an injected failure at ANY
/// point of the migration — transaction bookkeeping, the shadow build's
/// own allocations, the heap underneath them — aborts cleanly back to the
/// source implementation with the contents intact and the abort counted;
/// with no injection the same migration commits. Plus the adaptor's
/// exponential backoff / pinning policy and the retire() idempotency
/// contract.
///
//===----------------------------------------------------------------------===//

#include "core/OnlineAdaptor.h"

#include "core/Chameleon.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace chameleon;

namespace {

/// Disarms the process-global injector when a test ends, whatever happens.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

/// Arms a plan failing the first hit of \p Site with an allocation fault.
void armFailFirst(const char *Site) {
  FaultPlan Plan;
  Plan.Rules.push_back({Site, FaultAction::FailAlloc, /*NthHit=*/1});
  FaultInjector::instance().arm(Plan);
}

void expectMapMatches(const Map &M, const std::map<int64_t, int64_t> &Model) {
  ASSERT_EQ(M.size(), Model.size());
  for (const auto &[K, V] : Model) {
    Value Got = M.get(Value::ofInt(K));
    ASSERT_FALSE(Got.isNull()) << "key " << K << " lost";
    EXPECT_EQ(Got.asInt(), V) << "key " << K;
  }
}

/// Every injection point a HashMap -> ArrayMap migration crosses. The
/// shadow build allocates (gc.alloc), the target impl reserves its arrays
/// (arraymap.reserve), and the transaction itself has four marked phases.
const char *const MapMigrationSites[] = {
    "migrate.begin", "migrate.copy",      "migrate.verify",
    "migrate.publish", "gc.alloc",        "arraymap.reserve",
};

TEST(OnlineRollback, AbortAtEveryInjectionPointPreservesContents) {
  DisarmGuard Guard;
  for (const char *Site : MapMigrationSites) {
    SCOPED_TRACE(Site);
    CollectionRuntime RT;
    Map M = RT.newHashMap(RT.site("Rollback.map:1"), 4);
    std::map<int64_t, int64_t> Model;
    for (int64_t I = 0; I < 6; ++I) {
      M.put(Value::ofInt(I), Value::ofInt(I * 10));
      Model[I] = I * 10;
    }
    ContextInfo *Ctx = M.context();
    ASSERT_NE(Ctx, nullptr);
    ASSERT_EQ(M.backing(), ImplKind::HashMap);

    armFailFirst(Site);
    MigrationOutcome Outcome =
        RT.migrateCollection(M.wrapperRef(), ImplKind::ArrayMap);
    FaultInjector::instance().disarm();

    EXPECT_EQ(Outcome, MigrationOutcome::Aborted);
    EXPECT_EQ(M.backing(), ImplKind::HashMap)
        << "aborted migration must leave the source impl in place";
    expectMapMatches(M, Model);
    EXPECT_EQ(Ctx->migrationAborts(), 1u);
    EXPECT_EQ(Ctx->migrationCommits(), 0u);
    EXPECT_EQ(RT.migrationAborts(), 1u);
    EXPECT_EQ(RT.migrationCommits(), 0u);

    // The very same migration, without injection, commits — and the
    // contents survive the swap byte-for-byte.
    EXPECT_EQ(RT.migrateCollection(M.wrapperRef(), ImplKind::ArrayMap),
              MigrationOutcome::Committed);
    EXPECT_EQ(M.backing(), ImplKind::ArrayMap);
    expectMapMatches(M, Model);
    EXPECT_EQ(Ctx->migrationCommits(), 1u);

    // The aborted transaction's shadow must be unreferenced garbage.
    RT.heap().collect(/*Forced=*/true);
    std::string Error;
    EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
    expectMapMatches(M, Model);
  }
}

TEST(OnlineRollback, ListAbortAtReserveAndPublish) {
  DisarmGuard Guard;
  for (const char *Site : {"arraylist.reserve", "migrate.publish"}) {
    SCOPED_TRACE(Site);
    CollectionRuntime RT;
    List L = RT.newLinkedList(RT.site("Rollback.list:1"));
    std::vector<int64_t> Model;
    for (int64_t I = 0; I < 5; ++I) {
      L.add(Value::ofInt(I * 3));
      Model.push_back(I * 3);
    }

    armFailFirst(Site);
    EXPECT_EQ(RT.migrateCollection(L.wrapperRef(), ImplKind::ArrayList),
              MigrationOutcome::Aborted);
    FaultInjector::instance().disarm();
    ASSERT_EQ(L.backing(), ImplKind::LinkedList);
    ASSERT_EQ(L.size(), Model.size());
    for (size_t I = 0; I < Model.size(); ++I)
      EXPECT_EQ(L.get(static_cast<uint32_t>(I)).asInt(), Model[I]);

    EXPECT_EQ(RT.migrateCollection(L.wrapperRef(), ImplKind::ArrayList),
              MigrationOutcome::Committed);
    ASSERT_EQ(L.size(), Model.size());
    for (size_t I = 0; I < Model.size(); ++I)
      EXPECT_EQ(L.get(static_cast<uint32_t>(I)).asInt(), Model[I]);
  }
}

TEST(OnlineRollback, VerificationAbortsSemanticsChangingMigration) {
  // No injection at all: a list with duplicates migrated to the
  // deduplicating HashedList shrinks, verification catches it, and the
  // transaction aborts on its own.
  CollectionRuntime RT;
  List L = RT.newArrayList(RT.site("Rollback.dups:1"));
  L.add(Value::ofInt(7));
  L.add(Value::ofInt(7));
  L.add(Value::ofInt(8));
  EXPECT_EQ(RT.migrateCollection(L.wrapperRef(), ImplKind::HashedList),
            MigrationOutcome::Aborted);
  EXPECT_EQ(L.backing(), ImplKind::ArrayList);
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L.get(0).asInt(), 7);
  EXPECT_EQ(L.get(1).asInt(), 7);
  EXPECT_EQ(L.get(2).asInt(), 8);
}

TEST(OnlineRollback, BoundedTargetsAreNoOps) {
  // EmptyList and the singletons hold at most a fixed number of elements,
  // so a live collection never migrates to one, even while its contents
  // would fit: the call is a no-op and not counted as an attempt.
  CollectionRuntime RT;
  List L = RT.newArrayList(RT.site("Rollback.bounded:1"));
  L.add(Value::ofInt(1));
  Map M = RT.newHashMap(RT.site("Rollback.bounded:2"));
  M.put(Value::ofInt(1), Value::ofInt(2));
  const uint64_t Attempts = RT.migrationAttempts();
  for (ImplKind Target : {ImplKind::EmptyList, ImplKind::SingletonList}) {
    SCOPED_TRACE(implKindName(Target));
    EXPECT_EQ(RT.migrateCollection(L.wrapperRef(), Target),
              MigrationOutcome::NoOp);
    EXPECT_EQ(L.backing(), ImplKind::ArrayList);
  }
  EXPECT_EQ(RT.migrateCollection(M.wrapperRef(), ImplKind::SingletonMap),
            MigrationOutcome::NoOp);
  EXPECT_EQ(M.backing(), ImplKind::HashMap);
  EXPECT_EQ(RT.migrationAttempts(), Attempts);

  // The same collections still migrate to unbounded kinds.
  EXPECT_EQ(RT.migrateCollection(L.wrapperRef(), ImplKind::LinkedList),
            MigrationOutcome::Committed);
  EXPECT_EQ(RT.migrateCollection(M.wrapperRef(), ImplKind::ArrayMap),
            MigrationOutcome::Committed);
  EXPECT_EQ(RT.migrationAttempts(), Attempts + 2);
}

TEST(OnlineRollback, MigrationEpochFailsIteratorsFast) {
  CollectionRuntime RT;
  Map M = RT.newHashMap(RT.site("Rollback.epoch:1"));
  M.put(Value::ofInt(1), Value::ofInt(2));
  EntryIter Before = M.iterate();
  ASSERT_EQ(RT.migrateCollection(M.wrapperRef(), ImplKind::ArrayMap),
            MigrationOutcome::Committed);
  Value K, V;
  EXPECT_DEATH((void)Before.next(K, V), "migrated during iteration");
  // A fresh iterator over the migrated backing works.
  EntryIter After = M.iterate();
  ASSERT_TRUE(After.next(K, V));
  EXPECT_EQ(K.asInt(), 1);
  EXPECT_EQ(V.asInt(), 2);
}

/// Fixed-decision selector driving the end-to-end maybeMigrate hook.
struct StubSelector : OnlineSelector {
  ImplKind chooseImpl(const ContextInfo *, AdtKind, ImplKind Requested,
                      uint32_t &) override {
    return Requested;
  }
  std::optional<ImplKind> reviseImpl(const ContextInfo *, AdtKind,
                                     ImplKind Current, uint32_t &) override {
    if (Target && *Target != Current)
      return Target;
    return std::nullopt;
  }
  void onMigrationResult(const ContextInfo *, bool Committed) override {
    ++(Committed ? Commits : Aborts);
  }
  std::optional<ImplKind> Target;
  int Commits = 0;
  int Aborts = 0;
};

TEST(OnlineRollback, MutatingOpsDriveRevision) {
  RuntimeConfig Config;
  Config.OnlineRevisePeriod = 4;
  CollectionRuntime RT(Config);
  StubSelector Selector;
  Selector.Target = ImplKind::ArrayMap;
  RT.setOnlineSelector(&Selector);

  Map M = RT.newHashMap(RT.site("Rollback.revise:1"));
  for (int64_t I = 0; I < 4; ++I)
    M.put(Value::ofInt(I), Value::ofInt(I));
  // The 4th mutating operation crossed the revise period: migrated live.
  EXPECT_EQ(M.backing(), ImplKind::ArrayMap);
  EXPECT_EQ(Selector.Commits, 1);
  ASSERT_EQ(M.size(), 4u);
  for (int64_t I = 0; I < 4; ++I)
    EXPECT_EQ(M.get(Value::ofInt(I)).asInt(), I);
  RT.setOnlineSelector(nullptr);
}

TEST(OnlineRollback, AdaptorBacksOffAndPins) {
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  CollectionRuntime RT;
  OnlineAdaptor Adaptor(Engine, RT.profiler());

  // Small get-dominated HashMaps that die quickly: the builtin
  // small-hashmap rule fires on their context, before and after any
  // re-evaluation.
  FrameId Site = RT.site("Rollback.adaptor:1");
  ContextInfo *Ctx = nullptr;
  auto AllocateFromContext = [&](uint64_t Count) {
    for (uint64_t I = 0; I < Count; ++I) {
      Map M = RT.newHashMap(Site);
      for (int64_t E = 0; E < 3; ++E)
        M.put(Value::ofInt(E), Value::ofInt(E));
      (void)M.get(Value::ofInt(0));
      Ctx = M.context();
      M.retire();
    }
  };
  auto Propose = [&] {
    uint32_t Capacity = 0;
    return Adaptor.reviseImpl(Ctx, AdtKind::Map, ImplKind::HashMap,
                              Capacity);
  };

  AllocateFromContext(32);
  ASSERT_NE(Ctx, nullptr);
  ASSERT_GE(Ctx->foldedInstances(), OnlineAdaptor::WarmupDeaths);
  std::optional<ImplKind> First = Propose();
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(*First, ImplKind::ArrayMap);
  EXPECT_EQ(Adaptor.migrationsRequested(), 1u);

  // Each of the first MaxMigrationAborts - 1 aborts backs the context off
  // for Base, 2*Base, 4*Base, ... further allocations: nothing is proposed
  // one allocation before the deadline, and a proposal comes at it.
  for (unsigned Abort = 1; Abort < OnlineAdaptor::MaxMigrationAborts;
       ++Abort) {
    SCOPED_TRACE("abort " + std::to_string(Abort));
    Adaptor.onMigrationResult(Ctx, /*Committed=*/false);
    EXPECT_EQ(Adaptor.migrationsAborted(), Abort);
    const uint64_t Delay = OnlineAdaptor::MigrationBackoffBase
                           << (Abort - 1);
    AllocateFromContext(Delay - 1);
    EXPECT_FALSE(Propose().has_value())
        << "must not re-propose before the backoff deadline";
    EXPECT_EQ(Adaptor.migrationsRequested(), Abort);
    AllocateFromContext(1);
    EXPECT_TRUE(Propose().has_value())
        << "must re-propose at the backoff deadline";
    EXPECT_EQ(Adaptor.migrationsRequested(), 1u + Abort);
  }
  EXPECT_EQ(Adaptor.pinnedContexts(), 0u);

  // The next consecutive abort reaches MaxMigrationAborts: pinned for
  // good, though re-evaluations keep choosing ArrayMap.
  Adaptor.onMigrationResult(Ctx, /*Committed=*/false);
  EXPECT_EQ(Adaptor.pinnedContexts(), 1u);
  const uint64_t Requested = Adaptor.migrationsRequested();
  AllocateFromContext(2 * OnlineAdaptor::ReevaluatePeriod);
  EXPECT_FALSE(Propose().has_value())
      << "a pinned context never migrates again";
  EXPECT_EQ(Adaptor.migrationsRequested(), Requested);
  EXPECT_EQ(Adaptor.describeContext(Ctx).rfind("online: plan=ArrayMap", 0),
            0u);
}

TEST(OnlineRollback, CommitResetsBackoff) {
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  CollectionRuntime RT;
  OnlineAdaptor Adaptor(Engine, RT.profiler());

  FrameId Site = RT.site("Rollback.commit:1");
  ContextInfo *Ctx = nullptr;
  for (int I = 0; I < 16; ++I) {
    Map M = RT.newHashMap(Site);
    for (int64_t E = 0; E < 3; ++E)
      M.put(Value::ofInt(E), Value::ofInt(E));
    Ctx = M.context();
    M.retire();
  }
  ASSERT_NE(Ctx, nullptr);

  uint32_t Capacity = 0;
  ASSERT_TRUE(Adaptor.reviseImpl(Ctx, AdtKind::Map, ImplKind::HashMap,
                                 Capacity)
                  .has_value());
  Adaptor.onMigrationResult(Ctx, /*Committed=*/false);
  ASSERT_FALSE(Adaptor.reviseImpl(Ctx, AdtKind::Map, ImplKind::HashMap,
                                  Capacity)
                   .has_value());
  // A committed migration forgives the abort history entirely.
  Adaptor.onMigrationResult(Ctx, /*Committed=*/true);
  EXPECT_TRUE(Adaptor.reviseImpl(Ctx, AdtKind::Map, ImplKind::HashMap,
                                 Capacity)
                  .has_value());
  EXPECT_EQ(Adaptor.migrationsCommitted(), 1u);
}

TEST(OnlineRollback, RetireIsIdempotentByContract) {
  CollectionRuntime RT;
  Map M = RT.newHashMap(RT.site("Rollback.retire:1"));
  M.put(Value::ofInt(1), Value::ofInt(1));
  Map Alias = M;
  M.retire();
  EXPECT_EQ(RT.doubleRetires(), 0u);
  // Second retire through the alias: counted no-op, nothing corrupted.
  Alias.retire();
  EXPECT_EQ(RT.doubleRetires(), 1u);

  // Operations through a stale alias are counted, not counted into the
  // (already folded) usage record, and still structurally safe.
  Map Stale = RT.newHashMap(RT.site("Rollback.retire:2"));
  Stale.put(Value::ofInt(2), Value::ofInt(3));
  Map StaleAlias = Stale;
  Stale.retire();
  EXPECT_EQ(StaleAlias.get(Value::ofInt(2)).asInt(), 3);
  EXPECT_GE(RT.usesAfterRetire(), 1u);
}

} // namespace
