//===--- FleetProfile.cpp - Cross-process profile model ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetProfile.h"

#include "profiler/SemanticProfiler.h"

#include <algorithm>

using namespace chameleon;
using namespace chameleon::fleet;

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

ProcessProfile fleet::captureProcessProfile(const SemanticProfiler &P,
                                            uint64_t Epoch,
                                            const std::string &MetricsPrefix) {
  ProcessProfile Out;
  Out.Epoch = Epoch;
  Out.Heap = P.heapStats();

  Out.Contexts.reserve(P.contexts().size());
  for (const ContextInfo *Ctx : P.contexts()) {
    ContextProfile C;
    C.TypeName = Ctx->typeName();
    C.Frames.reserve(Ctx->frames().size());
    for (FrameId F : Ctx->frames())
      C.Frames.push_back(P.frameName(F));
    C.Stats = Ctx->exportStats();
    Out.Contexts.push_back(std::move(C));
  }
  // Canonical identity order regardless of the profiler's current
  // numbering (flushEpoch sorts by label; sorting here makes capture safe
  // even mid-run in single-threaded mode).
  std::sort(Out.Contexts.begin(), Out.Contexts.end(),
            [](const ContextProfile &A, const ContextProfile &B) {
              return A.identityLess(B);
            });

  if (!MetricsPrefix.empty())
    Out.Metrics = obs::MetricsRegistry::instance().snapshot(MetricsPrefix);
  if (obs::DecisionLog::instance().enabled())
    Out.Ledger = obs::DecisionLog::instance().exportCanonical();
  return Out;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

// A RunningStat travels as its complete state (count, mean, M2, min, max;
// an empty one as zeros) with the doubles as bit patterns, so a decoded
// accumulator merges to the exact bits a local one would reach.
static void encodeStat(std::string &Out, const RunningStat &S) {
  putVarint(Out, S.count());
  putF64(Out, S.mean());
  putF64(Out, S.m2());
  putF64(Out, S.min());
  putF64(Out, S.max());
}

static bool decodeStat(ByteReader &R, RunningStat &S) {
  uint64_t N;
  double Mean, M2, Min, Max;
  if (!R.varint(N) || !R.f64(Mean) || !R.f64(M2) || !R.f64(Min) ||
      !R.f64(Max))
    return false;
  S = RunningStat::fromMoments(N, Mean, M2, Min, Max);
  return true;
}

static void encodeTotalMax(std::string &Out, const TotalMax &T) {
  putVarint(Out, T.total());
  putVarint(Out, T.max());
  putVarint(Out, T.cycles());
}

static bool decodeTotalMax(ByteReader &R, TotalMax &T) {
  uint64_t Total, Max, Cycles;
  if (!R.varint(Total) || !R.varint(Max) || !R.varint(Cycles))
    return false;
  T = TotalMax::fromParts(Total, Max, Cycles);
  return true;
}

static void encodeMetricSnapshot(std::string &Out,
                                 const obs::MetricSnapshot &M) {
  putStr(Out, M.Name);
  Out.push_back(static_cast<char>(M.Kind));
  putVarint(Out, M.Value);
  putVarint(Out, zigzag(M.GaugeValue));
  putVarint(Out, M.Count);
  putVarint(Out, M.Sum);
  putVarint(Out, M.HdrBuckets.size());
  for (const auto &[Idx, N] : M.HdrBuckets) {
    putVarint(Out, Idx);
    putVarint(Out, N);
  }
  putVarint(Out, M.MinValue);
  putVarint(Out, M.MaxValue);
}

static bool decodeMetricSnapshot(ByteReader &R, obs::MetricSnapshot &M) {
  uint8_t Kind;
  if (!R.str(M.Name, MaxLabelLen) || !R.u8(Kind))
    return false;
  if (Kind > static_cast<uint8_t>(obs::MetricKind::Hdr))
    return false;
  M.Kind = static_cast<obs::MetricKind>(Kind);
  uint64_t Gauge;
  if (!R.varint(M.Value) || !R.varint(Gauge))
    return false;
  M.GaugeValue = unzigzag(Gauge);
  if (!R.varint(M.Count) || !R.varint(M.Sum))
    return false;
  uint64_t NHdr;
  if (!R.varint(NHdr) || NHdr > obs::hdrNumBuckets())
    return false;
  M.HdrBuckets.resize(NHdr);
  for (auto &[Idx, N] : M.HdrBuckets) {
    uint64_t I;
    if (!R.varint(I) || I >= obs::hdrNumBuckets() || !R.varint(N))
      return false;
    Idx = static_cast<uint32_t>(I);
  }
  return R.varint(M.MinValue) && R.varint(M.MaxValue);
}

static void encodeDecisionRecord(std::string &Out,
                                 const obs::DecisionRecord &E) {
  putVarint(Out, E.CtxId);
  putVarint(Out, E.Seq);
  putVarint(Out, E.Epoch);
  Out.push_back(static_cast<char>(E.Kind));
  Out.push_back(static_cast<char>(E.Outcome));
  Out.push_back(static_cast<char>(E.Impl));
  putVarint(Out, zigzag(E.Rule));
  putVarint(Out, E.DivGuard);
  putVarint(Out, E.Capacity);
  putVarint(Out, E.Allocations);
  putVarint(Out, E.Folded);
  putVarint(Out, E.TotLive);
  putVarint(Out, E.TotUsed);
  putVarint(Out, E.TotCore);
  putF64(Out, E.AvgOps);
  putF64(Out, E.AvgMaxSize);
}

static bool decodeDecisionRecord(ByteReader &R, obs::DecisionRecord &E) {
  uint64_t CtxId, Seq, Rule, DivGuard, Capacity;
  uint8_t Kind, Outcome, Impl;
  if (!R.varint(CtxId) || !R.varint(Seq) || !R.varint(E.Epoch) ||
      !R.u8(Kind) || !R.u8(Outcome) || !R.u8(Impl) || !R.varint(Rule) ||
      !R.varint(DivGuard) || !R.varint(Capacity))
    return false;
  if (Kind > static_cast<uint8_t>(obs::DecisionKind::Pin) ||
      Outcome > static_cast<uint8_t>(obs::DecisionOutcome::GatedByPotential))
    return false;
  E.CtxId = static_cast<uint32_t>(CtxId);
  E.Seq = static_cast<uint32_t>(Seq);
  E.Kind = static_cast<obs::DecisionKind>(Kind);
  E.Outcome = static_cast<obs::DecisionOutcome>(Outcome);
  E.Impl = Impl;
  E.Rule = static_cast<int16_t>(unzigzag(Rule));
  E.DivGuard = static_cast<uint16_t>(DivGuard);
  E.Capacity = static_cast<uint32_t>(Capacity);
  return R.varint(E.Allocations) && R.varint(E.Folded) &&
         R.varint(E.TotLive) && R.varint(E.TotUsed) && R.varint(E.TotCore) &&
         R.f64(E.AvgOps) && R.f64(E.AvgMaxSize);
}

static void encodeDecisionExport(std::string &Out,
                                 const obs::DecisionExport &L) {
  putVarint(Out, L.Dropped);
  putVarint(Out, L.Events.size());
  for (const obs::DecisionRecord &E : L.Events)
    encodeDecisionRecord(Out, E);
  putVarint(Out, L.ContextLabels.size());
  for (const auto &[Id, Label] : L.ContextLabels) {
    putVarint(Out, Id);
    putStr(Out, Label);
  }
  putVarint(Out, L.RuleNames.size());
  for (const std::string &N : L.RuleNames)
    putStr(Out, N);
  putVarint(Out, L.ImplNames.size());
  for (const std::string &N : L.ImplNames)
    putStr(Out, N);
}

static bool decodeDecisionExport(ByteReader &R, obs::DecisionExport &L) {
  uint64_t N;
  if (!R.varint(L.Dropped) || !R.varint(N) || N > MaxLedgerEvents)
    return false;
  L.Events.resize(N);
  for (obs::DecisionRecord &E : L.Events)
    if (!decodeDecisionRecord(R, E))
      return false;
  if (!R.varint(N) || N > MaxContextsPerProfile)
    return false;
  L.ContextLabels.resize(N);
  for (auto &[Id, Label] : L.ContextLabels) {
    uint64_t I;
    if (!R.varint(I) || !R.str(Label, MaxLabelLen))
      return false;
    Id = static_cast<uint32_t>(I);
  }
  if (!R.varint(N) || N > MaxLedgerNames)
    return false;
  L.RuleNames.resize(N);
  for (std::string &Name : L.RuleNames)
    if (!R.str(Name, MaxLabelLen))
      return false;
  if (!R.varint(N) || N > MaxLedgerNames)
    return false;
  L.ImplNames.resize(N);
  for (std::string &Name : L.ImplNames)
    if (!R.str(Name, MaxLabelLen))
      return false;
  return true;
}

static void encodeContext(std::string &Out, const ContextProfile &C) {
  putStr(Out, C.TypeName);
  putVarint(Out, C.Frames.size());
  for (const std::string &F : C.Frames)
    putStr(Out, F);
  const ContextStats &S = C.Stats;
  for (const RunningStat &Op : S.OpStats)
    encodeStat(Out, Op);
  encodeStat(Out, S.MaxSizeStat);
  encodeStat(Out, S.FinalSizeStat);
  encodeStat(Out, S.InitialCapacityStat);
  putVarint(Out, S.Allocations);
  putVarint(Out, S.Folded);
  putVarint(Out, S.MigrationAborts);
  putVarint(Out, S.MigrationCommits);
  encodeTotalMax(Out, S.Live);
  encodeTotalMax(Out, S.Used);
  encodeTotalMax(Out, S.Core);
  encodeTotalMax(Out, S.Objects);
}

static bool decodeContext(ByteReader &R, ContextProfile &C) {
  if (!R.str(C.TypeName, MaxLabelLen))
    return false;
  uint64_t NFrames;
  if (!R.varint(NFrames) || NFrames > MaxFramesPerContext)
    return false;
  C.Frames.resize(NFrames);
  for (std::string &F : C.Frames)
    if (!R.str(F, MaxLabelLen))
      return false;
  ContextStats &S = C.Stats;
  for (RunningStat &Op : S.OpStats)
    if (!decodeStat(R, Op))
      return false;
  if (!decodeStat(R, S.MaxSizeStat) || !decodeStat(R, S.FinalSizeStat) ||
      !decodeStat(R, S.InitialCapacityStat))
    return false;
  if (!R.varint(S.Allocations) || !R.varint(S.Folded) ||
      !R.varint(S.MigrationAborts) || !R.varint(S.MigrationCommits))
    return false;
  return decodeTotalMax(R, S.Live) && decodeTotalMax(R, S.Used) &&
         decodeTotalMax(R, S.Core) && decodeTotalMax(R, S.Objects);
}

void fleet::encodeProcessProfile(std::string &Out, const ProcessProfile &P) {
  putVarint(Out, P.Epoch);
  putVarint(Out, P.Heap.CyclesSeen);
  encodeTotalMax(Out, P.Heap.Live);
  encodeTotalMax(Out, P.Heap.CollLive);
  encodeTotalMax(Out, P.Heap.CollUsed);
  encodeTotalMax(Out, P.Heap.CollCore);
  putVarint(Out, P.Contexts.size());
  for (const ContextProfile &C : P.Contexts)
    encodeContext(Out, C);
  putVarint(Out, P.Metrics.size());
  for (const obs::MetricSnapshot &M : P.Metrics)
    encodeMetricSnapshot(Out, M);
  encodeDecisionExport(Out, P.Ledger);
}

bool fleet::decodeProcessProfile(ByteReader &R, ProcessProfile &Out,
                                 std::string &Err) {
  auto Fail = [&](const char *What) {
    Err = What;
    return false;
  };
  HeapStats &H = Out.Heap;
  if (!R.varint(Out.Epoch) || !R.varint(H.CyclesSeen))
    return Fail("truncated profile header");
  if (!decodeTotalMax(R, H.Live) || !decodeTotalMax(R, H.CollLive) ||
      !decodeTotalMax(R, H.CollUsed) || !decodeTotalMax(R, H.CollCore))
    return Fail("truncated heap aggregates");
  uint64_t NContexts;
  if (!R.varint(NContexts) || NContexts > MaxContextsPerProfile)
    return Fail("bad context count");
  Out.Contexts.resize(NContexts);
  for (ContextProfile &C : Out.Contexts)
    if (!decodeContext(R, C))
      return Fail("truncated context record");
  uint64_t NMetrics;
  if (!R.varint(NMetrics) || NMetrics > MaxMetricsPerProfile)
    return Fail("bad metric count");
  Out.Metrics.resize(NMetrics);
  for (obs::MetricSnapshot &M : Out.Metrics)
    if (!decodeMetricSnapshot(R, M))
      return Fail("truncated metric record");
  if (!decodeDecisionExport(R, Out.Ledger))
    return Fail("truncated decision ledger");
  return true;
}

//===----------------------------------------------------------------------===//
// FleetState
//===----------------------------------------------------------------------===//

bool FleetState::fold(const StreamKey &Key, ProcessProfile Profile) {
  Stream &S = Streams[Key];
  if (Profile.Epoch <= S.Latest.Epoch && S.Latest.Epoch != 0)
    return false;
  S.Latest = std::move(Profile);
  return true;
}

uint64_t FleetState::latestEpoch(const StreamKey &Key) const {
  auto It = Streams.find(Key);
  return It == Streams.end() ? 0 : It->second.Latest.Epoch;
}

uint64_t FleetState::durableEpoch(const StreamKey &Key) const {
  auto It = Streams.find(Key);
  return It == Streams.end() ? 0 : It->second.DurableEpoch;
}

void FleetState::markAllDurable() {
  for (auto &[Key, S] : Streams)
    S.DurableEpoch = S.Latest.Epoch;
}

void FleetState::restore(const StreamKey &Key, ProcessProfile Profile) {
  Stream &S = Streams[Key];
  if (Profile.Epoch <= S.Latest.Epoch && S.Latest.Epoch != 0)
    return;
  S.DurableEpoch = Profile.Epoch;
  S.Latest = std::move(Profile);
}

std::vector<obs::MetricSnapshot> fleet::mergeMetricSnapshots(
    const std::vector<const std::vector<obs::MetricSnapshot> *> &Inputs) {
  std::map<std::string, obs::MetricSnapshot> ByName;
  for (const auto *Snaps : Inputs) {
    for (const obs::MetricSnapshot &M : *Snaps) {
      auto [It, New] = ByName.try_emplace(M.Name, M);
      if (!New)
        It->second.merge(M);
    }
  }
  std::vector<obs::MetricSnapshot> Out;
  Out.reserve(ByName.size());
  for (auto &[Name, M] : ByName)
    Out.push_back(std::move(M));
  return Out;
}

obs::DecisionExport fleet::mergeDecisionExports(
    const std::vector<const obs::DecisionExport *> &Inputs) {
  obs::DecisionExport Out;
  uint32_t NextCtx = 0;
  // Find-or-append into a name table; returns the table index.
  auto Intern = [](std::vector<std::string> &Table, const std::string &Name) {
    for (size_t I = 0; I < Table.size(); ++I)
      if (Table[I] == Name)
        return I;
    Table.push_back(Name);
    return Table.size() - 1;
  };
  for (const obs::DecisionExport *In : Inputs) {
    if (!In)
      continue;
    std::vector<size_t> RuleMap(In->RuleNames.size());
    for (size_t I = 0; I < In->RuleNames.size(); ++I)
      RuleMap[I] = Intern(Out.RuleNames, In->RuleNames[I]);
    std::vector<size_t> ImplMap(In->ImplNames.size());
    for (size_t I = 0; I < In->ImplNames.size(); ++I)
      ImplMap[I] = Intern(Out.ImplNames, In->ImplNames[I]);
    // Renumber this input's contexts onto the merged id space, in the
    // input's own (sorted) id order so the mapping is deterministic.
    std::map<uint32_t, uint32_t> CtxMap;
    for (const auto &[Id, Label] : In->ContextLabels)
      CtxMap.emplace(Id, 0);
    for (const obs::DecisionRecord &E : In->Events)
      if (E.CtxId != ~0u)
        CtxMap.emplace(E.CtxId, 0);
    for (auto &[Id, NewId] : CtxMap)
      NewId = NextCtx++;
    for (const auto &[Id, Label] : In->ContextLabels)
      Out.ContextLabels.emplace_back(CtxMap[Id], Label);
    for (obs::DecisionRecord E : In->Events) {
      if (E.CtxId != ~0u)
        E.CtxId = CtxMap[E.CtxId];
      if (E.Rule >= 0 && static_cast<size_t>(E.Rule) < RuleMap.size())
        E.Rule = static_cast<int16_t>(RuleMap[E.Rule]);
      if (E.Impl != 0xff && E.Impl < ImplMap.size())
        E.Impl = static_cast<uint8_t>(ImplMap[E.Impl]);
      Out.Events.push_back(E);
    }
    Out.Dropped += In->Dropped;
  }
  // Re-canonicalize: globals first, then contexts by merged id, arrival
  // order preserved within each; Seq reassigned over the merged stream.
  std::stable_sort(Out.Events.begin(), Out.Events.end(),
                   [](const obs::DecisionRecord &A,
                      const obs::DecisionRecord &B) {
                     uint64_t KA = A.CtxId == ~0u ? 0 : 1ull + A.CtxId;
                     uint64_t KB = B.CtxId == ~0u ? 0 : 1ull + B.CtxId;
                     return KA < KB;
                   });
  uint32_t Seq = 0;
  uint32_t LastCtx = ~0u;
  bool First = true;
  for (obs::DecisionRecord &E : Out.Events) {
    if (First || E.CtxId != LastCtx)
      Seq = 0;
    First = false;
    LastCtx = E.CtxId;
    E.Seq = Seq++;
  }
  return Out;
}

ProcessProfile FleetState::mergedProfile() const {
  ProcessProfile Merged;
  std::vector<const std::vector<obs::MetricSnapshot> *> MetricInputs;
  std::vector<const obs::DecisionExport *> LedgerInputs;
  // Streams iterate in sorted key order (std::map), which *is* the
  // canonical fold order the byte-identity guarantee depends on.
  for (const auto &[Key, S] : Streams) {
    const ProcessProfile &P = S.Latest;
    Merged.Epoch += P.Epoch;
    Merged.Heap.merge(P.Heap);
    MetricInputs.push_back(&P.Metrics);
    LedgerInputs.push_back(&P.Ledger);
    for (const ContextProfile &C : P.Contexts) {
      auto It = std::lower_bound(
          Merged.Contexts.begin(), Merged.Contexts.end(), C,
          [](const ContextProfile &A, const ContextProfile &B) {
            return A.identityLess(B);
          });
      if (It != Merged.Contexts.end() && It->sameIdentity(C))
        It->Stats.merge(C.Stats);
      else
        Merged.Contexts.insert(It, C);
    }
  }
  Merged.Metrics = mergeMetricSnapshots(MetricInputs);
  Merged.Ledger = mergeDecisionExports(LedgerInputs);
  return Merged;
}

void FleetState::restoreInto(SemanticProfiler &P) const {
  ProcessProfile Merged = mergedProfile();
  for (const ContextProfile &C : Merged.Contexts)
    P.internContext(C.TypeName, C.Frames)->mergeStats(C.Stats);
  P.mergeHeapStats(Merged.Heap);
}
