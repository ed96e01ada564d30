//===--- FleetProfile.cpp - Cross-process profile model ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetProfile.h"

#include "profiler/SemanticProfiler.h"

#include <algorithm>
#include <cstring>

using namespace chameleon;
using namespace chameleon::fleet;

//===----------------------------------------------------------------------===//
// Stat state conversions
//===----------------------------------------------------------------------===//

static uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

bool StatMoments::operator==(const StatMoments &O) const {
  // Bit-pattern compare: the determinism guarantee is about bytes, and a
  // NaN (which never == itself) must still compare equal to its copy.
  return N == O.N && bitsOf(Mean) == bitsOf(O.Mean) &&
         bitsOf(M2) == bitsOf(O.M2) && bitsOf(Min) == bitsOf(O.Min) &&
         bitsOf(Max) == bitsOf(O.Max);
}

StatMoments fleet::momentsOf(const RunningStat &S) {
  StatMoments M;
  M.N = S.count();
  M.Mean = S.count() == 0 ? 0.0 : S.mean();
  M.M2 = S.m2();
  M.Min = S.min();
  M.Max = S.max();
  return M;
}

RunningStat fleet::statFromMoments(const StatMoments &M) {
  return RunningStat::fromMoments(M.N, M.Mean, M.M2, M.Min, M.Max);
}

TotalMaxState fleet::stateOf(const TotalMax &T) {
  return {T.total(), T.max(), T.cycles()};
}

TotalMax fleet::totalMaxFromState(const TotalMaxState &S) {
  return TotalMax::fromParts(S.Total, S.Max, S.Cycles);
}

//===----------------------------------------------------------------------===//
// ContextProfile
//===----------------------------------------------------------------------===//

ContextStatsBundle ContextProfile::statsBundle() const {
  ContextStatsBundle B;
  for (unsigned I = 0; I < NumOpKinds; ++I)
    B.OpStats[I] = statFromMoments(OpStats[I]);
  B.MaxSizeStat = statFromMoments(MaxSizeStat);
  B.FinalSizeStat = statFromMoments(FinalSizeStat);
  B.InitialCapacityStat = statFromMoments(InitialCapacityStat);
  B.Allocations = Allocations;
  B.Folded = Folded;
  B.MigrationAborts = MigrationAborts;
  B.MigrationCommits = MigrationCommits;
  B.Live = totalMaxFromState(Live);
  B.Used = totalMaxFromState(Used);
  B.Core = totalMaxFromState(Core);
  B.Objects = totalMaxFromState(Objects);
  return B;
}

static StatMoments mergeMoments(const StatMoments &A, const StatMoments &B) {
  RunningStat S = statFromMoments(A);
  S.merge(statFromMoments(B));
  return momentsOf(S);
}

static TotalMaxState mergeTotalMax(const TotalMaxState &A,
                                   const TotalMaxState &B) {
  TotalMax T = totalMaxFromState(A);
  T.merge(totalMaxFromState(B));
  return stateOf(T);
}

void ContextProfile::mergeStats(const ContextProfile &O) {
  for (unsigned I = 0; I < NumOpKinds; ++I)
    OpStats[I] = mergeMoments(OpStats[I], O.OpStats[I]);
  MaxSizeStat = mergeMoments(MaxSizeStat, O.MaxSizeStat);
  FinalSizeStat = mergeMoments(FinalSizeStat, O.FinalSizeStat);
  InitialCapacityStat = mergeMoments(InitialCapacityStat, O.InitialCapacityStat);
  Allocations += O.Allocations;
  Folded += O.Folded;
  MigrationAborts += O.MigrationAborts;
  MigrationCommits += O.MigrationCommits;
  Live = mergeTotalMax(Live, O.Live);
  Used = mergeTotalMax(Used, O.Used);
  Core = mergeTotalMax(Core, O.Core);
  Objects = mergeTotalMax(Objects, O.Objects);
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

ProcessProfile fleet::captureProcessProfile(const SemanticProfiler &P,
                                            uint64_t Epoch,
                                            const std::string &MetricsPrefix) {
  ProcessProfile Out;
  Out.Epoch = Epoch;
  Out.CyclesSeen = P.cyclesSeen();
  Out.HeapLive = stateOf(P.heapLiveData());
  Out.HeapCollLive = stateOf(P.heapCollectionLiveData());
  Out.HeapCollUsed = stateOf(P.heapCollectionUsedData());
  Out.HeapCollCore = stateOf(P.heapCollectionCoreData());

  Out.Contexts.reserve(P.contexts().size());
  for (const ContextInfo *Ctx : P.contexts()) {
    ContextProfile C;
    C.TypeName = Ctx->typeName();
    C.Frames.reserve(Ctx->frames().size());
    for (FrameId F : Ctx->frames())
      C.Frames.push_back(P.frameName(F));
    ContextStatsBundle B = Ctx->exportStats();
    for (unsigned I = 0; I < NumOpKinds; ++I)
      C.OpStats[I] = momentsOf(B.OpStats[I]);
    C.MaxSizeStat = momentsOf(B.MaxSizeStat);
    C.FinalSizeStat = momentsOf(B.FinalSizeStat);
    C.InitialCapacityStat = momentsOf(B.InitialCapacityStat);
    C.Allocations = B.Allocations;
    C.Folded = B.Folded;
    C.MigrationAborts = B.MigrationAborts;
    C.MigrationCommits = B.MigrationCommits;
    C.Live = stateOf(B.Live);
    C.Used = stateOf(B.Used);
    C.Core = stateOf(B.Core);
    C.Objects = stateOf(B.Objects);
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

static void encodeMoments(std::string &Out, const StatMoments &M) {
  putVarint(Out, M.N);
  putF64(Out, M.Mean);
  putF64(Out, M.M2);
  putF64(Out, M.Min);
  putF64(Out, M.Max);
}

static bool decodeMoments(ByteReader &R, StatMoments &M) {
  return R.varint(M.N) && R.f64(M.Mean) && R.f64(M.M2) && R.f64(M.Min) &&
         R.f64(M.Max);
}

static void encodeTotalMax(std::string &Out, const TotalMaxState &T) {
  putVarint(Out, T.Total);
  putVarint(Out, T.Max);
  putVarint(Out, T.Cycles);
}

static bool decodeTotalMax(ByteReader &R, TotalMaxState &T) {
  return R.varint(T.Total) && R.varint(T.Max) && R.varint(T.Cycles);
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
  for (unsigned I = 0; I < NumOpKinds; ++I)
    encodeMoments(Out, C.OpStats[I]);
  encodeMoments(Out, C.MaxSizeStat);
  encodeMoments(Out, C.FinalSizeStat);
  encodeMoments(Out, C.InitialCapacityStat);
  putVarint(Out, C.Allocations);
  putVarint(Out, C.Folded);
  putVarint(Out, C.MigrationAborts);
  putVarint(Out, C.MigrationCommits);
  encodeTotalMax(Out, C.Live);
  encodeTotalMax(Out, C.Used);
  encodeTotalMax(Out, C.Core);
  encodeTotalMax(Out, C.Objects);
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
  for (unsigned I = 0; I < NumOpKinds; ++I)
    if (!decodeMoments(R, C.OpStats[I]))
      return false;
  if (!decodeMoments(R, C.MaxSizeStat) || !decodeMoments(R, C.FinalSizeStat) ||
      !decodeMoments(R, C.InitialCapacityStat))
    return false;
  if (!R.varint(C.Allocations) || !R.varint(C.Folded) ||
      !R.varint(C.MigrationAborts) || !R.varint(C.MigrationCommits))
    return false;
  return decodeTotalMax(R, C.Live) && decodeTotalMax(R, C.Used) &&
         decodeTotalMax(R, C.Core) && decodeTotalMax(R, C.Objects);
}

void fleet::encodeProcessProfile(std::string &Out, const ProcessProfile &P) {
  putVarint(Out, P.Epoch);
  putVarint(Out, P.CyclesSeen);
  encodeTotalMax(Out, P.HeapLive);
  encodeTotalMax(Out, P.HeapCollLive);
  encodeTotalMax(Out, P.HeapCollUsed);
  encodeTotalMax(Out, P.HeapCollCore);
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
  if (!R.varint(Out.Epoch) || !R.varint(Out.CyclesSeen))
    return Fail("truncated profile header");
  if (!decodeTotalMax(R, Out.HeapLive) || !decodeTotalMax(R, Out.HeapCollLive) ||
      !decodeTotalMax(R, Out.HeapCollUsed) ||
      !decodeTotalMax(R, Out.HeapCollCore))
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
      auto It = ByName.find(M.Name);
      if (It == ByName.end()) {
        ByName.emplace(M.Name, M);
        continue;
      }
      obs::MetricSnapshot &Acc = It->second;
      Acc.Value += M.Value;
      Acc.GaugeValue += M.GaugeValue;
      // Min/max fold before Count absorbs M's: a zero-observation side
      // must not contribute its 0/0 extremes.
      if (M.Count > 0) {
        if (Acc.Count == 0) {
          Acc.MinValue = M.MinValue;
          Acc.MaxValue = M.MaxValue;
        } else {
          Acc.MinValue = std::min(Acc.MinValue, M.MinValue);
          Acc.MaxValue = std::max(Acc.MaxValue, M.MaxValue);
        }
      }
      Acc.Count += M.Count;
      Acc.Sum += M.Sum;
      if (!M.HdrBuckets.empty()) {
        // Sorted sparse merge: both sides are index-sorted by
        // construction, and the result stays that way.
        std::vector<std::pair<uint32_t, uint64_t>> MergedHdr;
        MergedHdr.reserve(Acc.HdrBuckets.size() + M.HdrBuckets.size());
        size_t I = 0, J = 0;
        while (I < Acc.HdrBuckets.size() || J < M.HdrBuckets.size()) {
          if (J >= M.HdrBuckets.size() ||
              (I < Acc.HdrBuckets.size() &&
               Acc.HdrBuckets[I].first < M.HdrBuckets[J].first)) {
            MergedHdr.push_back(Acc.HdrBuckets[I++]);
          } else if (I >= Acc.HdrBuckets.size() ||
                     M.HdrBuckets[J].first < Acc.HdrBuckets[I].first) {
            MergedHdr.push_back(M.HdrBuckets[J++]);
          } else {
            MergedHdr.emplace_back(Acc.HdrBuckets[I].first,
                                   Acc.HdrBuckets[I].second +
                                       M.HdrBuckets[J].second);
            ++I;
            ++J;
          }
        }
        Acc.HdrBuckets = std::move(MergedHdr);
      }
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
    Merged.CyclesSeen += P.CyclesSeen;
    Merged.HeapLive = mergeTotalMax(Merged.HeapLive, P.HeapLive);
    Merged.HeapCollLive = mergeTotalMax(Merged.HeapCollLive, P.HeapCollLive);
    Merged.HeapCollUsed = mergeTotalMax(Merged.HeapCollUsed, P.HeapCollUsed);
    Merged.HeapCollCore = mergeTotalMax(Merged.HeapCollCore, P.HeapCollCore);
    MetricInputs.push_back(&P.Metrics);
    LedgerInputs.push_back(&P.Ledger);
    for (const ContextProfile &C : P.Contexts) {
      auto It = std::lower_bound(
          Merged.Contexts.begin(), Merged.Contexts.end(), C,
          [](const ContextProfile &A, const ContextProfile &B) {
            return A.identityLess(B);
          });
      if (It != Merged.Contexts.end() && It->sameIdentity(C))
        It->mergeStats(C);
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
  for (const ContextProfile &C : Merged.Contexts) {
    ContextInfo *Ctx = P.internContext(C.TypeName, C.Frames);
    Ctx->mergeStats(C.statsBundle());
  }
  P.restoreHeapAggregates(
      totalMaxFromState(Merged.HeapLive), totalMaxFromState(Merged.HeapCollLive),
      totalMaxFromState(Merged.HeapCollUsed),
      totalMaxFromState(Merged.HeapCollCore), Merged.CyclesSeen);
}
