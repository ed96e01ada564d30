//===--- DecisionLog.cpp - Decision-provenance ledger ---------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/DecisionLog.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/Format.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

using namespace chameleon::obs;

// Ledger volume and overflow as first-class metrics: dropped > 0 means the
// --why timeline has a hole, which operators should see in dashboards, not
// discover during an incident.
CHAM_METRIC_COUNTER(DecisionRecords, "cham.decision.records");
CHAM_METRIC_COUNTER(DecisionDropped, "cham.decision.dropped");

const char *chameleon::obs::decisionKindName(DecisionKind K) {
  switch (K) {
  case DecisionKind::EpochMark:
    return "epoch";
  case DecisionKind::Snapshot:
    return "snapshot";
  case DecisionKind::RuleOutcome:
    return "rule";
  case DecisionKind::Choice:
    return "choice";
  case DecisionKind::MigrationStart:
    return "migration_start";
  case DecisionKind::MigrationBuild:
    return "migration_build";
  case DecisionKind::MigrationVerify:
    return "migration_verify";
  case DecisionKind::MigrationPublish:
    return "migration_publish";
  case DecisionKind::MigrationCommit:
    return "migration_commit";
  case DecisionKind::MigrationAbort:
    return "migration_abort";
  case DecisionKind::Backoff:
    return "backoff";
  case DecisionKind::Pin:
    return "pin";
  }
  return "unknown";
}

const char *chameleon::obs::decisionOutcomeName(DecisionOutcome O) {
  switch (O) {
  case DecisionOutcome::None:
    return "none";
  case DecisionOutcome::Fired:
    return "fired";
  case DecisionOutcome::NeverFires:
    return "never_fires";
  case DecisionOutcome::SrcTypeMismatch:
    return "src_type_mismatch";
  case DecisionOutcome::TooFewSamples:
    return "too_few_samples";
  case DecisionOutcome::ConditionFalse:
    return "condition_false";
  case DecisionOutcome::MissingParam:
    return "missing_param";
  case DecisionOutcome::Unstable:
    return "unstable";
  case DecisionOutcome::GatedByPotential:
    return "gated_by_potential";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// DecisionLog
//===----------------------------------------------------------------------===//

DecisionLog &DecisionLog::instance() {
  static DecisionLog Log;
  return Log;
}

void DecisionLog::arm(size_t Capacity) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Capacity == 0)
    Capacity = 1;
  Ring.assign(Capacity, DecisionRecord{});
  Written.store(0, std::memory_order_relaxed);
  EpochCounter.store(0, std::memory_order_relaxed);
  Labels.clear();
  RuleNames.clear();
  ImplNames.clear();
  Armed.store(true, std::memory_order_release);
}

void DecisionLog::disarm() {
  std::lock_guard<std::mutex> Lock(Mu);
  Armed.store(false, std::memory_order_release);
  Ring.clear();
  Ring.shrink_to_fit();
  Written.store(0, std::memory_order_relaxed);
  Labels.clear();
  RuleNames.clear();
  ImplNames.clear();
}

void DecisionLog::record(const DecisionRecord &R) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Ring.empty())
    return; // disarmed between the check and the lock
  uint64_t W = Written.load(std::memory_order_relaxed);
  Ring[W % Ring.size()] = R;
  // Publish after the entry is fully written: the flight recorder's
  // lock-free tail read never sees a half-written record.
  Written.store(W + 1, std::memory_order_release);
  DecisionRecords.inc();
  if (W >= Ring.size())
    DecisionDropped.inc();
}

void DecisionLog::noteContextLabel(uint32_t CtxId, const std::string &Label) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Labels[CtxId] = Label;
}

void DecisionLog::noteRuleNames(const std::vector<std::string> &Names) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (RuleNames != Names)
    RuleNames = Names;
}

void DecisionLog::noteImplNames(const std::vector<std::string> &Names) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (ImplNames != Names)
    ImplNames = Names;
}

uint64_t DecisionLog::dropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t W = Written.load(std::memory_order_relaxed);
  return W > Ring.size() ? W - Ring.size() : 0;
}

DecisionExport DecisionLog::exportCanonical() const {
  std::lock_guard<std::mutex> Lock(Mu);
  DecisionExport Out;
  uint64_t W = Written.load(std::memory_order_relaxed);
  uint64_t N = Ring.empty() ? 0 : std::min<uint64_t>(W, Ring.size());
  Out.Events.reserve(N);
  for (uint64_t I = W - N; I < W; ++I)
    Out.Events.push_back(Ring[I % Ring.size()]);
  // Canonical order: global records first, then per-context, arrival
  // order preserved within a context (stable sort on the id alone).
  std::stable_sort(Out.Events.begin(), Out.Events.end(),
                   [](const DecisionRecord &A, const DecisionRecord &B) {
                     uint64_t Ka = A.CtxId == ~0u ? 0 : 1ull + A.CtxId;
                     uint64_t Kb = B.CtxId == ~0u ? 0 : 1ull + B.CtxId;
                     return Ka < Kb;
                   });
  uint32_t Seq = 0;
  for (size_t I = 0; I < Out.Events.size(); ++I) {
    if (I > 0 && Out.Events[I].CtxId != Out.Events[I - 1].CtxId)
      Seq = 0;
    Out.Events[I].Seq = Seq++;
  }
  for (const auto &[Id, Label] : Labels)
    Out.ContextLabels.emplace_back(Id, Label);
  Out.RuleNames = RuleNames;
  Out.ImplNames = ImplNames;
  Out.Dropped = W > Ring.size() && !Ring.empty() ? W - Ring.size() : 0;
  return Out;
}

size_t DecisionLog::unsafeTailForCrash(DecisionRecord *Out,
                                       size_t MaxN) const {
  // Signal-handler path: no locks, no allocation. The ring vector's
  // data pointer and size are stable once armed (arm() is not called
  // concurrently with a crashing run), and Written is release-published
  // after each record is complete.
  if (!enabled() || Ring.empty() || MaxN == 0)
    return 0;
  const DecisionRecord *Data = Ring.data();
  size_t Cap = Ring.size();
  uint64_t W = Written.load(std::memory_order_acquire);
  uint64_t N = std::min<uint64_t>(std::min<uint64_t>(W, Cap), MaxN);
  size_t K = 0;
  for (uint64_t I = W - N; I < W; ++I)
    Out[K++] = Data[I % Cap];
  return K;
}

uint64_t DecisionLog::unsafeDroppedForCrash() const {
  if (!enabled() || Ring.empty())
    return 0;
  uint64_t W = Written.load(std::memory_order_acquire);
  return W > Ring.size() ? W - Ring.size() : 0;
}

//===----------------------------------------------------------------------===//
// Canonical JSON form
//===----------------------------------------------------------------------===//

namespace {

using chameleon::appendf;

/// Shortest-roundtrip double formatting (%.17g is deterministic and
/// parses back exactly; trailing-zero noise does not matter for the
/// byte-identity guarantees because equal doubles render equally).
void appendDouble(std::string &Out, double V) { appendf(Out, "%.17g", V); }

DecisionKind kindFromName(const std::string &N, bool &Ok) {
  for (uint8_t K = 0; K <= static_cast<uint8_t>(DecisionKind::Pin); ++K)
    if (N == decisionKindName(static_cast<DecisionKind>(K))) {
      Ok = true;
      return static_cast<DecisionKind>(K);
    }
  Ok = false;
  return DecisionKind::EpochMark;
}

DecisionOutcome outcomeFromName(const std::string &N, bool &Ok) {
  for (uint8_t O = 0;
       O <= static_cast<uint8_t>(DecisionOutcome::GatedByPotential); ++O)
    if (N == decisionOutcomeName(static_cast<DecisionOutcome>(O))) {
      Ok = true;
      return static_cast<DecisionOutcome>(O);
    }
  Ok = false;
  return DecisionOutcome::None;
}

void appendEventJson(std::string &Out, const DecisionRecord &R) {
  int64_t Ctx = R.CtxId == ~0u ? -1 : static_cast<int64_t>(R.CtxId);
  appendf(Out, "{\"ctx\":%" PRId64 ",\"n\":%u,\"epoch\":%" PRIu64
               ",\"kind\":\"%s\"",
          Ctx, R.Seq, R.Epoch, decisionKindName(R.Kind));
  if (R.Outcome != DecisionOutcome::None)
    appendf(Out, ",\"outcome\":\"%s\"", decisionOutcomeName(R.Outcome));
  if (R.Rule >= 0)
    appendf(Out, ",\"rule\":%d", R.Rule);
  if (R.DivGuard)
    appendf(Out, ",\"div_guard\":%u", R.DivGuard);
  if (R.Impl != 0xff)
    appendf(Out, ",\"impl\":%u", R.Impl);
  if (R.Capacity)
    appendf(Out, ",\"cap\":%u", R.Capacity);
  if (R.Allocations)
    appendf(Out, ",\"allocs\":%" PRIu64, R.Allocations);
  if (R.Folded)
    appendf(Out, ",\"folded\":%" PRIu64, R.Folded);
  if (R.TotLive)
    appendf(Out, ",\"live\":%" PRIu64, R.TotLive);
  if (R.TotUsed)
    appendf(Out, ",\"used\":%" PRIu64, R.TotUsed);
  if (R.TotCore)
    appendf(Out, ",\"core\":%" PRIu64, R.TotCore);
  if (R.AvgOps != 0) {
    Out += ",\"avg_ops\":";
    appendDouble(Out, R.AvgOps);
  }
  if (R.AvgMaxSize != 0) {
    Out += ",\"avg_max_size\":";
    appendDouble(Out, R.AvgMaxSize);
  }
  Out += '}';
}

} // namespace

std::string chameleon::obs::decisionsJson(const DecisionExport &E) {
  std::string Out = "{\"decisions\":{";
  appendf(Out, "\"dropped\":%" PRIu64, E.Dropped);
  Out += ",\"impls\":[";
  for (size_t I = 0; I < E.ImplNames.size(); ++I)
    appendf(Out, "%s\"%s\"", I ? "," : "",
            json::escape(E.ImplNames[I]).c_str());
  Out += "],\"rules\":[";
  for (size_t I = 0; I < E.RuleNames.size(); ++I)
    appendf(Out, "%s\"%s\"", I ? "," : "",
            json::escape(E.RuleNames[I]).c_str());
  Out += "],\"contexts\":[";
  for (size_t I = 0; I < E.ContextLabels.size(); ++I)
    appendf(Out, "%s\n  {\"id\":%u,\"label\":\"%s\"}", I ? "," : "",
            E.ContextLabels[I].first,
            json::escape(E.ContextLabels[I].second).c_str());
  Out += "\n],\"events\":[";
  for (size_t I = 0; I < E.Events.size(); ++I) {
    Out += I ? ",\n  " : "\n  ";
    appendEventJson(Out, E.Events[I]);
  }
  Out += "\n]}}\n";
  return Out;
}

bool chameleon::obs::decisionsFromJson(const std::string &Text,
                                       DecisionExport &Out,
                                       std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  json::Value Doc;
  std::string ParseError;
  if (!json::parse(Text, Doc, &ParseError))
    return Fail("malformed decisions json: " + ParseError);
  const json::Value *D = Doc.find("decisions");
  if (!D)
    return Fail("document has no \"decisions\" object");
  Out = DecisionExport{};
  Out.Dropped = static_cast<uint64_t>(D->numberOr("dropped", 0));
  if (const json::Value *Impls = D->find("impls"))
    for (const json::Value &V : Impls->array())
      Out.ImplNames.push_back(V.str());
  if (const json::Value *Rules = D->find("rules"))
    for (const json::Value &V : Rules->array())
      Out.RuleNames.push_back(V.str());
  if (const json::Value *Ctxs = D->find("contexts"))
    for (const json::Value &V : Ctxs->array())
      Out.ContextLabels.emplace_back(
          static_cast<uint32_t>(V.numberOr("id", 0)), V.strOr("label", ""));
  const json::Value *Events = D->find("events");
  if (!Events || Events->kind() != json::Value::Kind::Array)
    return Fail("\"decisions\" has no events array");
  for (const json::Value &V : Events->array()) {
    DecisionRecord R;
    double Ctx = V.numberOr("ctx", -1);
    R.CtxId = Ctx < 0 ? ~0u : static_cast<uint32_t>(Ctx);
    R.Seq = static_cast<uint32_t>(V.numberOr("n", 0));
    R.Epoch = static_cast<uint64_t>(V.numberOr("epoch", 0));
    bool KindOk = false;
    R.Kind = kindFromName(V.strOr("kind", ""), KindOk);
    if (!KindOk)
      return Fail("event with unknown kind \"" + V.strOr("kind", "") + "\"");
    bool OutcomeOk = false;
    R.Outcome = outcomeFromName(V.strOr("outcome", "none"), OutcomeOk);
    if (!OutcomeOk)
      return Fail("event with unknown outcome \""
                  + V.strOr("outcome", "") + "\"");
    R.Rule = static_cast<int16_t>(V.numberOr("rule", -1));
    R.DivGuard = static_cast<uint16_t>(V.numberOr("div_guard", 0));
    R.Impl = static_cast<uint8_t>(V.numberOr("impl", 0xff));
    R.Capacity = static_cast<uint32_t>(V.numberOr("cap", 0));
    R.Allocations = static_cast<uint64_t>(V.numberOr("allocs", 0));
    R.Folded = static_cast<uint64_t>(V.numberOr("folded", 0));
    R.TotLive = static_cast<uint64_t>(V.numberOr("live", 0));
    R.TotUsed = static_cast<uint64_t>(V.numberOr("used", 0));
    R.TotCore = static_cast<uint64_t>(V.numberOr("core", 0));
    R.AvgOps = V.numberOr("avg_ops", 0);
    R.AvgMaxSize = V.numberOr("avg_max_size", 0);
    // Flight-recorder dumps carry doubles as IEEE bit patterns (the
    // signal-safe writer cannot printf floats); prefer those when present.
    auto BitsOr = [&](const char *Key, double Cur) {
      const json::Value *B = V.find(Key);
      if (!B || B->kind() != json::Value::Kind::String)
        return Cur;
      uint64_t Bits = std::strtoull(B->str().c_str(), nullptr, 16);
      double D;
      std::memcpy(&D, &Bits, sizeof(D));
      return D;
    };
    R.AvgOps = BitsOr("avg_ops_b", R.AvgOps);
    R.AvgMaxSize = BitsOr("avg_max_size_b", R.AvgMaxSize);
    Out.Events.push_back(R);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// --why timeline rendering
//===----------------------------------------------------------------------===//

namespace {

std::string lookupLabel(const DecisionExport &E, uint32_t CtxId) {
  for (const auto &[Id, Label] : E.ContextLabels)
    if (Id == CtxId)
      return Label;
  return {};
}

std::string implName(const DecisionExport &E, uint8_t Impl) {
  if (Impl == 0xff)
    return "-";
  if (Impl < E.ImplNames.size())
    return E.ImplNames[Impl];
  return "impl#" + std::to_string(Impl);
}

std::string ruleName(const DecisionExport &E, int16_t Rule) {
  if (Rule >= 0 && static_cast<size_t>(Rule) < E.RuleNames.size())
    return E.RuleNames[Rule];
  return "rule#" + std::to_string(Rule);
}

bool matchesFilter(const DecisionExport &E, uint32_t CtxId,
                   const std::string &Filter) {
  if (Filter.empty())
    return true;
  if (std::to_string(CtxId) == Filter)
    return true;
  return lookupLabel(E, CtxId).find(Filter) != std::string::npos;
}

void appendEventLine(std::string &Out, const DecisionExport &E,
                     const DecisionRecord &R) {
  appendf(Out, "  [e%" PRIu64 "] ", R.Epoch);
  switch (R.Kind) {
  case DecisionKind::EpochMark:
    appendf(Out,
            "gc cycle: live_objects=%" PRIu64 " live_bytes=%" PRIu64
            " freed_bytes=%" PRIu64 " freed_objects=%u",
            R.Allocations, R.TotLive, R.TotUsed, R.Capacity);
    break;
  case DecisionKind::Snapshot:
    appendf(Out,
            "inputs: allocs=%" PRIu64 " folded=%" PRIu64 " live=%" PRIu64
            "B used=%" PRIu64 "B core=%" PRIu64 "B ops=%.2f max_size=%.2f",
            R.Allocations, R.Folded, R.TotLive, R.TotUsed, R.TotCore,
            R.AvgOps, R.AvgMaxSize);
    break;
  case DecisionKind::RuleOutcome:
    appendf(Out, "rule '%s': %s", ruleName(E, R.Rule).c_str(),
            decisionOutcomeName(R.Outcome));
    if (R.Outcome == DecisionOutcome::Fired)
      appendf(Out, " -> %s cap=%u", implName(E, R.Impl).c_str(), R.Capacity);
    if (R.DivGuard)
      appendf(Out, " (division guard: %u)", R.DivGuard);
    break;
  case DecisionKind::Choice:
    appendf(Out, "chose %s cap=%u", implName(E, R.Impl).c_str(), R.Capacity);
    break;
  case DecisionKind::MigrationStart:
    appendf(Out, "migration start -> %s cap=%u",
            implName(E, R.Impl).c_str(), R.Capacity);
    break;
  case DecisionKind::MigrationBuild:
    Out += "migration build ok";
    break;
  case DecisionKind::MigrationVerify:
    Out += "migration verify ok";
    break;
  case DecisionKind::MigrationPublish:
    Out += "migration publish ok";
    break;
  case DecisionKind::MigrationCommit:
    appendf(Out, "migration commit -> %s", implName(E, R.Impl).c_str());
    break;
  case DecisionKind::MigrationAbort:
    appendf(Out, "migration abort (kept %s, aborts=%d)",
            implName(E, R.Impl).c_str(), R.Rule);
    break;
  case DecisionKind::Backoff:
    appendf(Out, "backoff: retry at allocation %u (aborts=%d)", R.Capacity,
            R.Rule);
    break;
  case DecisionKind::Pin:
    appendf(Out, "pinned to %s after %d aborts",
            implName(E, R.Impl).c_str(), R.Rule);
    break;
  }
  Out += '\n';
}

} // namespace

std::string
chameleon::obs::renderDecisionTimeline(const DecisionExport &E,
                                       const std::string &CtxFilter) {
  std::string Out;
  appendf(Out, "decision ledger: %zu events, %" PRIu64 " dropped\n",
          E.Events.size(), E.Dropped);
  // Global section first (epoch marks), then each matching context.
  bool GlobalHeader = false;
  for (const DecisionRecord &R : E.Events) {
    if (R.CtxId != ~0u)
      continue;
    if (!GlobalHeader) {
      Out += "\n== gc epochs ==\n";
      GlobalHeader = true;
    }
    appendEventLine(Out, E, R);
  }
  uint32_t Current = ~0u;
  bool Matched = false;
  size_t MatchedContexts = 0;
  for (const DecisionRecord &R : E.Events) {
    if (R.CtxId == ~0u)
      continue;
    if (R.CtxId != Current) {
      Current = R.CtxId;
      Matched = matchesFilter(E, Current, CtxFilter);
      if (Matched) {
        ++MatchedContexts;
        std::string Label = lookupLabel(E, Current);
        appendf(Out, "\n== ctx %u%s%s ==\n", Current,
                Label.empty() ? "" : " ", Label.c_str());
      }
    }
    if (Matched)
      appendEventLine(Out, E, R);
  }
  if (!CtxFilter.empty() && MatchedContexts == 0)
    appendf(Out, "\nno context matches '%s'\n", CtxFilter.c_str());
  return Out;
}
