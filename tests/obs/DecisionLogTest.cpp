//===--- DecisionLogTest.cpp - Decision-provenance ledger tests -----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision-provenance ledger (DESIGN.md §16) under test: ring
/// overwrite and dropped accounting, canonical export ordering, JSON
/// round-trips, the signal-safe tail read, byte-identity of the exported
/// ledger across ServerSim mutator-thread counts, fleet merging, and the
/// flight recorder's end-to-end crash path (fork a child, kill it with a
/// real SIGSEGV, parse the dump it left, and check the ledger tail
/// matches what a surviving process would have exported).
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "fleet/FleetProfile.h"
#include "obs/DecisionLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace chameleon;
using namespace chameleon::obs;

namespace {

/// Arms the process-global ledger for one test and disarms on the way
/// out so no other test observes leftover records.
class LedgerScope {
public:
  explicit LedgerScope(size_t Capacity = 16384) {
    DecisionLog::instance().arm(Capacity);
  }
  ~LedgerScope() { DecisionLog::instance().disarm(); }
};

DecisionRecord makeRecord(uint32_t Ctx, DecisionKind Kind, uint64_t Epoch,
                          uint64_t Allocations = 0) {
  DecisionRecord R;
  R.CtxId = Ctx;
  R.Kind = Kind;
  R.Epoch = Epoch;
  R.Allocations = Allocations;
  return R;
}

//===----------------------------------------------------------------------===//
// Ring semantics and canonical export
//===----------------------------------------------------------------------===//

TEST(DecisionLogTest, RingKeepsNewestAndCountsDropped) {
  LedgerScope Scope(/*Capacity=*/4);
  DecisionLog &Log = DecisionLog::instance();
  for (uint64_t I = 1; I <= 6; ++I)
    Log.record(makeRecord(0, DecisionKind::Choice, I));
  EXPECT_EQ(Log.dropped(), 2u);
  DecisionExport E = Log.exportCanonical();
  ASSERT_EQ(E.Events.size(), 4u);
  EXPECT_EQ(E.Dropped, 2u);
  // Oldest two were overwritten; survivors keep arrival order.
  for (size_t I = 0; I < E.Events.size(); ++I)
    EXPECT_EQ(E.Events[I].Epoch, I + 3);
}

TEST(DecisionLogTest, ExportOrdersGlobalFirstAndAssignsPerContextSeq) {
  LedgerScope Scope;
  DecisionLog &Log = DecisionLog::instance();
  Log.record(makeRecord(7, DecisionKind::Snapshot, 1));
  Log.record(makeRecord(~0u, DecisionKind::EpochMark, 1));
  Log.record(makeRecord(3, DecisionKind::Choice, 1));
  Log.record(makeRecord(7, DecisionKind::RuleOutcome, 2));
  Log.record(makeRecord(~0u, DecisionKind::EpochMark, 2));
  Log.noteContextLabel(3, "server.Session.attrs");
  DecisionExport E = Log.exportCanonical();
  ASSERT_EQ(E.Events.size(), 5u);
  // Global records first (arrival order), then ctx 3, then ctx 7.
  EXPECT_EQ(E.Events[0].CtxId, ~0u);
  EXPECT_EQ(E.Events[0].Epoch, 1u);
  EXPECT_EQ(E.Events[1].CtxId, ~0u);
  EXPECT_EQ(E.Events[1].Epoch, 2u);
  EXPECT_EQ(E.Events[2].CtxId, 3u);
  EXPECT_EQ(E.Events[3].CtxId, 7u);
  EXPECT_EQ(E.Events[4].CtxId, 7u);
  // Per-context sequence restarts at each context boundary.
  EXPECT_EQ(E.Events[0].Seq, 0u);
  EXPECT_EQ(E.Events[1].Seq, 1u);
  EXPECT_EQ(E.Events[2].Seq, 0u);
  EXPECT_EQ(E.Events[3].Seq, 0u);
  EXPECT_EQ(E.Events[4].Seq, 1u);
  ASSERT_EQ(E.ContextLabels.size(), 1u);
  EXPECT_EQ(E.ContextLabels[0].first, 3u);
  EXPECT_EQ(E.ContextLabels[0].second, "server.Session.attrs");
}

TEST(DecisionLogTest, JsonRoundTripIsByteIdentical) {
  LedgerScope Scope;
  DecisionLog &Log = DecisionLog::instance();
  DecisionRecord R = makeRecord(0, DecisionKind::Snapshot, 3, 41);
  R.AvgOps = 2.5;
  R.AvgMaxSize = 17.25;
  R.TotLive = 1024;
  Log.record(R);
  DecisionRecord Fired = makeRecord(0, DecisionKind::RuleOutcome, 3);
  Fired.Outcome = DecisionOutcome::Fired;
  Fired.Rule = 4;
  Fired.Impl = 2;
  Fired.Capacity = 64;
  Log.record(Fired);
  Log.record(makeRecord(~0u, DecisionKind::EpochMark, 3));
  Log.noteContextLabel(0, "server.QueryHandler.results");
  Log.noteRuleNames({"r0", "r1", "r2", "r3", "often-used-maps"});
  Log.noteImplNames({"ArrayList", "LinkedList", "HashMap"});

  std::string Doc = decisionsJson(Log.exportCanonical());
  DecisionExport Parsed;
  std::string Error;
  ASSERT_TRUE(decisionsFromJson(Doc, Parsed, &Error)) << Error;
  // Re-rendering the parsed export reproduces the document byte-for-byte
  // — the chameleon-stats --why --json property.
  EXPECT_EQ(decisionsJson(Parsed), Doc);
  ASSERT_EQ(Parsed.Events.size(), 3u);
  EXPECT_EQ(Parsed.RuleNames.back(), "often-used-maps");
  EXPECT_EQ(Parsed.Events[2].Outcome, DecisionOutcome::Fired);
  EXPECT_DOUBLE_EQ(Parsed.Events[1].AvgOps, 2.5);
}

TEST(DecisionLogTest, JsonKeepsRetiredOutcomesAndRejectsUnknownOnes) {
  // Outcomes 2 and 8 have no producer any more, but older ledgers carry
  // them: they decode and re-render byte-identically. An outcome name no
  // version ever wrote is refused, as an unknown kind is.
  DecisionExport E;
  E.RuleNames = {"r0", "r1"};
  DecisionRecord NeverFires = makeRecord(0, DecisionKind::RuleOutcome, 1);
  NeverFires.Outcome = DecisionOutcome::NeverFires;
  NeverFires.Rule = 0;
  DecisionRecord Gated = makeRecord(0, DecisionKind::RuleOutcome, 1);
  Gated.Outcome = DecisionOutcome::GatedByPotential;
  Gated.Rule = 1;
  Gated.Seq = 1;
  E.Events = {NeverFires, Gated};
  std::string Doc = decisionsJson(E);
  ASSERT_NE(Doc.find("\"outcome\":\"never_fires\""), std::string::npos);
  ASSERT_NE(Doc.find("\"outcome\":\"gated_by_potential\""),
            std::string::npos);

  DecisionExport Parsed;
  std::string Error;
  ASSERT_TRUE(decisionsFromJson(Doc, Parsed, &Error)) << Error;
  EXPECT_EQ(decisionsJson(Parsed), Doc);
  ASSERT_EQ(Parsed.Events.size(), 2u);
  EXPECT_EQ(Parsed.Events[0].Outcome, DecisionOutcome::NeverFires);
  EXPECT_EQ(Parsed.Events[1].Outcome, DecisionOutcome::GatedByPotential);

  std::string Bogus = Doc;
  const std::string Name = "never_fires";
  Bogus.replace(Bogus.find(Name), Name.size(), "bogus");
  Error.clear();
  EXPECT_FALSE(decisionsFromJson(Bogus, Parsed, &Error));
  EXPECT_NE(Error.find("unknown outcome \"bogus\""), std::string::npos)
      << Error;
}

TEST(DecisionLogTest, SignalSafeTailMatchesArrivalOrder) {
  LedgerScope Scope(/*Capacity=*/8);
  DecisionLog &Log = DecisionLog::instance();
  for (uint64_t I = 1; I <= 10; ++I)
    Log.record(makeRecord(static_cast<uint32_t>(I % 3), DecisionKind::Choice,
                          I));
  DecisionRecord Tail[8];
  size_t N = Log.unsafeTailForCrash(Tail, 8);
  ASSERT_EQ(N, 8u);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Tail[I].Epoch, I + 3) << "oldest-first arrival order";
  EXPECT_EQ(Log.unsafeDroppedForCrash(), 2u);
}

//===----------------------------------------------------------------------===//
// ServerSim byte-identity
//===----------------------------------------------------------------------===//

std::string ledgerJsonForThreads(uint32_t Threads) {
  CollectionRuntime RT(apps::serverSimRuntimeConfig());
  apps::ServerSimConfig Config;
  Config.MutatorThreads = Threads;
  Config.DecisionLedger = true;
  apps::runServerSim(RT, Config);
  std::string Doc = decisionsJson(DecisionLog::instance().exportCanonical());
  DecisionLog::instance().disarm();
  return Doc;
}

/// The ledger's provenance claim only holds if what it records does not
/// depend on scheduling: the exported decisions.json must be
/// byte-identical for any mutator-thread count (DESIGN.md §16).
TEST(DecisionLogTest, ServerSimLedgerByteIdenticalAcrossThreadCounts) {
  std::string One = ledgerJsonForThreads(1);
  ASSERT_FALSE(One.empty());
  EXPECT_NE(One.find("\"kind\":\"rule\""), std::string::npos);
  EXPECT_NE(One.find("\"kind\":\"migration_commit\""), std::string::npos);
  EXPECT_NE(One.find("\"kind\":\"epoch\""), std::string::npos);
  std::string Two = ledgerJsonForThreads(2);
  std::string Eight = ledgerJsonForThreads(8);
  EXPECT_EQ(One, Two)
      << "2-thread ledger diverged from the single-threaded baseline";
  EXPECT_EQ(One, Eight)
      << "8-thread ledger diverged from the single-threaded baseline";
}

//===----------------------------------------------------------------------===//
// Fleet merge
//===----------------------------------------------------------------------===//

DecisionExport makeExport(uint32_t CtxBase, const std::string &Label,
                          const std::string &RuleName, uint64_t Dropped) {
  DecisionExport E;
  DecisionRecord Epoch = makeRecord(~0u, DecisionKind::EpochMark, 1);
  Epoch.Seq = 0;
  E.Events.push_back(Epoch);
  DecisionRecord R = makeRecord(CtxBase, DecisionKind::RuleOutcome, 1);
  R.Outcome = DecisionOutcome::Fired;
  R.Rule = 0;
  R.Impl = 0;
  R.Seq = 0;
  E.Events.push_back(R);
  E.ContextLabels.emplace_back(CtxBase, Label);
  E.RuleNames = {RuleName};
  E.ImplNames = {"ArrayList"};
  E.Dropped = Dropped;
  return E;
}

TEST(FleetLedgerTest, MergeRenumbersContextsAndUnionsNameTables) {
  DecisionExport A = makeExport(5, "proc-a.ctx", "rule-a", 2);
  DecisionExport B = makeExport(9, "proc-b.ctx", "rule-b", 3);
  DecisionExport M = fleet::mergeDecisionExports({&A, &B});
  EXPECT_EQ(M.Dropped, 5u);
  // Context ids renumber onto a shared dense space, labels follow.
  ASSERT_EQ(M.ContextLabels.size(), 2u);
  EXPECT_EQ(M.ContextLabels[0].second, "proc-a.ctx");
  EXPECT_EQ(M.ContextLabels[1].second, "proc-b.ctx");
  EXPECT_EQ(M.ContextLabels[0].first, 0u);
  EXPECT_EQ(M.ContextLabels[1].first, 1u);
  // Name tables union with per-input index remapping: both rule events
  // still resolve to their own rule name.
  ASSERT_EQ(M.RuleNames.size(), 2u);
  ASSERT_EQ(M.Events.size(), 4u);
  for (const DecisionRecord &R : M.Events) {
    if (R.Kind != DecisionKind::RuleOutcome)
      continue;
    ASSERT_GE(R.Rule, 0);
    ASSERT_LT(static_cast<size_t>(R.Rule), M.RuleNames.size());
    const std::string &Name = M.RuleNames[static_cast<size_t>(R.Rule)];
    EXPECT_EQ(Name, R.CtxId == 0 ? "rule-a" : "rule-b");
  }
  // Identical inputs in canonical stream order merge to identical bytes.
  EXPECT_EQ(decisionsJson(M), decisionsJson(fleet::mergeDecisionExports(
                                  {&A, &B})));
}

//===----------------------------------------------------------------------===//
// Flight recorder crash path
//===----------------------------------------------------------------------===//

std::string slurp(const std::string &Path) {
  std::string Out;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

/// The records both sides of the crash test agree on.
std::vector<DecisionRecord> crashFixtureRecords() {
  std::vector<DecisionRecord> Recs;
  Recs.push_back(makeRecord(~0u, DecisionKind::EpochMark, 1, 100));
  DecisionRecord S = makeRecord(0, DecisionKind::Snapshot, 1, 42);
  S.AvgOps = 3.5;
  S.AvgMaxSize = 12.75;
  S.TotLive = 4096;
  Recs.push_back(S);
  DecisionRecord R = makeRecord(0, DecisionKind::RuleOutcome, 1);
  R.Outcome = DecisionOutcome::Fired;
  R.Rule = 2;
  R.Impl = 1;
  R.Capacity = 32;
  Recs.push_back(R);
  Recs.push_back(makeRecord(1, DecisionKind::MigrationStart, 1));
  Recs.push_back(makeRecord(1, DecisionKind::MigrationAbort, 2));
  return Recs;
}

/// End-to-end crash validation: a forked child arms the ledger, appends
/// a known record sequence, installs the flight recorder, and dies on a
/// real SIGSEGV. The parent parses the dump the handler left behind and
/// checks the ledger tail is exactly what a surviving process exports
/// for the same records — the "dump matches survivor WAL" contract.
TEST(FlightRecorderTest, CrashDumpParsesAndMatchesSurvivorExport) {
  const std::string DumpPath = ::testing::TempDir() + "fr-crash-test.json";
  std::remove(DumpPath.c_str());

  pid_t Child = fork();
  ASSERT_GE(Child, 0) << "fork failed";
  if (Child == 0) {
    // Child: no gtest assertions here — _exit on setup failure so the
    // parent sees a clean (non-signal) exit and fails the test. The
    // default disposition goes first: the recorder chains to the previous
    // handler, and a sanitizer's would report the crash and exit instead.
    std::signal(SIGSEGV, SIG_DFL);
    DecisionLog &Log = DecisionLog::instance();
    Log.arm(1024);
    for (const DecisionRecord &R : crashFixtureRecords())
      Log.record(R);
    if (!FlightRecorder::instance().install(DumpPath, "cham."))
      _exit(3);
    FlightRecorder::instance().checkpoint();
    std::raise(SIGSEGV);
    _exit(4); // unreachable: the handler re-raises
  }

  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status))
      << "child must die by signal (exit status " << Status << ")";
  EXPECT_EQ(WTERMSIG(Status), SIGSEGV)
      << "handler must re-raise the original signal";

  std::string Dump = slurp(DumpPath);
  ASSERT_FALSE(Dump.empty()) << "no dump at " << DumpPath;
  // The dump is one valid JSON document with the signal recorded.
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Dump, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.numberOr("flight_recorder", 0), 1);
  EXPECT_EQ(Doc.numberOr("signal", 0), SIGSEGV);
  EXPECT_NE(Doc.find("checkpoint_metrics"), nullptr);
  EXPECT_NE(Doc.find("checkpoint_trace"), nullptr);

  // Ledger tail: parse through the same reader chameleon-stats uses and
  // compare against the canonical export of an identically-filled ledger.
  DecisionExport FromDump;
  ASSERT_TRUE(decisionsFromJson(Dump, FromDump, &Error)) << Error;
  LedgerScope Scope(1024);
  for (const DecisionRecord &R : crashFixtureRecords())
    DecisionLog::instance().record(R);
  DecisionExport Survivor = DecisionLog::instance().exportCanonical();
  ASSERT_EQ(FromDump.Events.size(), Survivor.Events.size());
  EXPECT_EQ(FromDump.Dropped, Survivor.Dropped);
  for (size_t I = 0; I < Survivor.Events.size(); ++I) {
    const DecisionRecord &D = FromDump.Events[I];
    const DecisionRecord &S = Survivor.Events[I];
    EXPECT_EQ(D.CtxId, S.CtxId) << I;
    EXPECT_EQ(D.Seq, S.Seq) << I;
    EXPECT_EQ(D.Epoch, S.Epoch) << I;
    EXPECT_EQ(D.Kind, S.Kind) << I;
    EXPECT_EQ(D.Outcome, S.Outcome) << I;
    EXPECT_EQ(D.Rule, S.Rule) << I;
    EXPECT_EQ(D.Impl, S.Impl) << I;
    EXPECT_EQ(D.Capacity, S.Capacity) << I;
    EXPECT_EQ(D.Allocations, S.Allocations) << I;
    EXPECT_EQ(D.TotLive, S.TotLive) << I;
    // Doubles travel as IEEE bit patterns: lossless round-trip.
    EXPECT_EQ(D.AvgOps, S.AvgOps) << I;
    EXPECT_EQ(D.AvgMaxSize, S.AvgMaxSize) << I;
  }
  std::remove(DumpPath.c_str());
}

/// The recorder restores the disposition it found and re-raises, so a
/// handler installed before it still runs after the dump is written.
TEST(FlightRecorderTest, CrashHandlerChainsToThePreviousHandler) {
  const std::string DumpPath = ::testing::TempDir() + "fr-chain-test.json";
  std::remove(DumpPath.c_str());

  pid_t Child = fork();
  ASSERT_GE(Child, 0) << "fork failed";
  if (Child == 0) {
    struct sigaction Previous;
    std::memset(&Previous, 0, sizeof(Previous));
    Previous.sa_handler = [](int) { _exit(42); };
    sigemptyset(&Previous.sa_mask);
    if (sigaction(SIGSEGV, &Previous, nullptr) != 0)
      _exit(3);
    DecisionLog::instance().arm(1024);
    for (const DecisionRecord &R : crashFixtureRecords())
      DecisionLog::instance().record(R);
    if (!FlightRecorder::instance().install(DumpPath, "cham."))
      _exit(4);
    std::raise(SIGSEGV);
    _exit(5); // unreachable: the previous handler exits 42
  }

  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status))
      << "child must exit through the previous handler (status " << Status
      << ")";
  EXPECT_EQ(WEXITSTATUS(Status), 42);

  std::string Dump = slurp(DumpPath);
  ASSERT_FALSE(Dump.empty()) << "no dump at " << DumpPath;
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Dump, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.numberOr("signal", 0), SIGSEGV);
  DecisionExport FromDump;
  ASSERT_TRUE(decisionsFromJson(Dump, FromDump, &Error)) << Error;
  EXPECT_EQ(FromDump.Events.size(), crashFixtureRecords().size());
  std::remove(DumpPath.c_str());
}

} // namespace
