//===--- Sema.cpp - Semantic analysis of rule files -----------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rules/Sema.h"

#include "rules/Parser.h"
#include "rules/Printer.h"
#include "support/Assert.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <set>

using namespace chameleon;
using namespace chameleon::rules;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

//===----------------------------------------------------------------------===//
// Interval domain
//===----------------------------------------------------------------------===//

/// A (possibly half-open) interval of doubles with open/closed endpoints.
/// Infinite endpoints are always treated as open (the value is never
/// attained).
struct Interval {
  double Lo = -Inf;
  double Hi = Inf;
  bool LoOpen = true;
  bool HiOpen = true;

  static Interval top() { return Interval(); }

  static Interval point(double V) { return {V, V, false, false}; }

  static Interval nonNegative() { return {0.0, Inf, false, true}; }

  static Interval make(double Lo, bool LoOpen, double Hi, bool HiOpen) {
    Interval I{Lo, Hi, LoOpen, HiOpen};
    I.normalize();
    return I;
  }

  void normalize() {
    if (!std::isfinite(Lo))
      LoOpen = true;
    if (!std::isfinite(Hi))
      HiOpen = true;
  }

  bool empty() const {
    return Lo > Hi || (Lo == Hi && (LoOpen || HiOpen));
  }

  bool isPoint() const { return Lo == Hi && !LoOpen && !HiOpen; }

  Interval intersect(const Interval &O) const {
    Interval R;
    if (Lo > O.Lo) {
      R.Lo = Lo;
      R.LoOpen = LoOpen;
    } else if (Lo < O.Lo) {
      R.Lo = O.Lo;
      R.LoOpen = O.LoOpen;
    } else {
      R.Lo = Lo;
      R.LoOpen = LoOpen || O.LoOpen;
    }
    if (Hi < O.Hi) {
      R.Hi = Hi;
      R.HiOpen = HiOpen;
    } else if (Hi > O.Hi) {
      R.Hi = O.Hi;
      R.HiOpen = O.HiOpen;
    } else {
      R.Hi = Hi;
      R.HiOpen = HiOpen || O.HiOpen;
    }
    return R;
  }

  /// True when \p Inner is a subset of this interval.
  bool contains(const Interval &Inner) const {
    bool LoOk = Lo < Inner.Lo || (Lo == Inner.Lo && (!LoOpen || Inner.LoOpen));
    bool HiOk = Hi > Inner.Hi || (Hi == Inner.Hi && (!HiOpen || Inner.HiOpen));
    return LoOk && HiOk;
  }
};

double safeMul(double A, double B) {
  // 0 * inf arises when a bounded-at-zero domain meets an unbounded one;
  // the finite factor is exactly zero, so the product is too.
  if (A == 0.0 || B == 0.0)
    return 0.0;
  return A * B;
}

Interval addIntervals(const Interval &L, const Interval &R) {
  return Interval::make(L.Lo + R.Lo, L.LoOpen || R.LoOpen, L.Hi + R.Hi,
                        L.HiOpen || R.HiOpen);
}

Interval subIntervals(const Interval &L, const Interval &R) {
  return Interval::make(L.Lo - R.Hi, L.LoOpen || R.HiOpen, L.Hi - R.Lo,
                        L.HiOpen || R.LoOpen);
}

Interval mulIntervals(const Interval &L, const Interval &R) {
  double C[4] = {safeMul(L.Lo, R.Lo), safeMul(L.Lo, R.Hi),
                 safeMul(L.Hi, R.Lo), safeMul(L.Hi, R.Hi)};
  double Lo = *std::min_element(C, C + 4);
  double Hi = *std::max_element(C, C + 4);
  // Endpoint openness is dropped (closed is the conservative superset).
  return Interval::make(Lo, false, Hi, false);
}

Interval divIntervals(const Interval &L, const Interval &R) {
  if (R.isPoint()) {
    // The evaluator defines x/0 = 0 so ratio rules simply do not fire on
    // empty profiles; fold the same way.
    if (R.Lo == 0.0)
      return Interval::point(0.0);
    double A = L.Lo / R.Lo;
    double B = L.Hi / R.Lo;
    return Interval::make(std::min(A, B), false, std::max(A, B), false);
  }
  return Interval::top();
}

/// Every Table-1 metric is a count, a size, a byte measure or a stddev —
/// all non-negative.
Interval intervalOfExpr(const Expr &E, const RuleParams *Params) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    return Interval::point(static_cast<const NumberExpr &>(E).Value);
  case Expr::Kind::Metric:
  case Expr::Kind::OpCount:
  case Expr::Kind::OpStddev:
    return Interval::nonNegative();
  case Expr::Kind::Param: {
    const auto &P = static_cast<const ParamExpr &>(E);
    if (Params) {
      auto It = Params->find(P.Name);
      if (It != Params->end())
        return Interval::point(It->second);
    }
    return Interval::top();
  }
  case Expr::Kind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    Interval L = intervalOfExpr(*B.Lhs, Params);
    Interval R = intervalOfExpr(*B.Rhs, Params);
    switch (B.Op) {
    case BinaryExpr::Operator::Add:
      return addIntervals(L, R);
    case BinaryExpr::Operator::Sub:
      return subIntervals(L, R);
    case BinaryExpr::Operator::Mul:
      return mulIntervals(L, R);
    case BinaryExpr::Operator::Div:
      return divIntervals(L, R);
    }
    CHAM_UNREACHABLE("unknown binary operator");
  }
  }
  CHAM_UNREACHABLE("unknown expression kind");
}

//===----------------------------------------------------------------------===//
// Metric lattice (Table 1)
//===----------------------------------------------------------------------===//

/// Direct "always <=" edges between heap metrics: core <= used <= live <=
/// whole-heap live; a per-cycle maximum never exceeds the lifetime total
/// of the same measure (values are non-negative); the saving potential is
/// totLive - totUsed <= totLive.
bool metricLeqDirect(MetricKind A, MetricKind B) {
  switch (A) {
  case MetricKind::TotCore:
    return B == MetricKind::TotUsed;
  case MetricKind::TotUsed:
    return B == MetricKind::TotLive;
  case MetricKind::TotLive:
    return B == MetricKind::HeapTotLive;
  case MetricKind::MaxCore:
    return B == MetricKind::MaxUsed || B == MetricKind::TotCore;
  case MetricKind::MaxUsed:
    return B == MetricKind::MaxLive || B == MetricKind::TotUsed;
  case MetricKind::MaxLive:
    return B == MetricKind::TotLive || B == MetricKind::HeapMaxLive;
  case MetricKind::MaxObjects:
    return B == MetricKind::TotObjects;
  case MetricKind::HeapMaxLive:
    return B == MetricKind::HeapTotLive;
  case MetricKind::Potential:
    return B == MetricKind::TotLive;
  default:
    return false;
  }
}

/// Reflexive-transitive closure of metricLeqDirect.
bool metricAlwaysLeq(MetricKind A, MetricKind B) {
  if (A == B)
    return true;
  bool Visited[NumMetricKinds] = {};
  MetricKind Stack[NumMetricKinds];
  unsigned Top = 0;
  Stack[Top++] = A;
  Visited[static_cast<unsigned>(A)] = true;
  while (Top > 0) {
    MetricKind Cur = Stack[--Top];
    for (unsigned I = 0; I < NumMetricKinds; ++I) {
      MetricKind Next = static_cast<MetricKind>(I);
      if (Visited[I] || !metricLeqDirect(Cur, Next))
        continue;
      if (Next == B)
        return true;
      Visited[I] = true;
      Stack[Top++] = Next;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Three-valued comparison truth
//===----------------------------------------------------------------------===//

enum class Truth : uint8_t { False, True, Unknown };

bool alwaysLess(const Interval &L, const Interval &R) {
  if (L.Hi < R.Lo)
    return true;
  return L.Hi == R.Lo && std::isfinite(L.Hi) && (L.HiOpen || R.LoOpen);
}

bool alwaysLeq(const Interval &L, const Interval &R) {
  return L.Hi < R.Lo || (L.Hi == R.Lo && std::isfinite(L.Hi));
}

Truth compareTruth(const CompareCond &C, const RuleParams *Params) {
  // Structurally identical deterministic operands compare equal under any
  // profile and any binding.
  if (printExpr(*C.Lhs) == printExpr(*C.Rhs)) {
    switch (C.Op) {
    case CompareCond::Operator::Eq:
    case CompareCond::Operator::Le:
    case CompareCond::Operator::Ge:
      return Truth::True;
    case CompareCond::Operator::Lt:
    case CompareCond::Operator::Gt:
    case CompareCond::Operator::Ne:
      return Truth::False;
    }
  }

  // Lattice facts between bare metrics.
  if (C.Lhs->kind() == Expr::Kind::Metric
      && C.Rhs->kind() == Expr::Kind::Metric) {
    MetricKind A = static_cast<const MetricExpr &>(*C.Lhs).Metric;
    MetricKind B = static_cast<const MetricExpr &>(*C.Rhs).Metric;
    if (metricAlwaysLeq(A, B)) {
      if (C.Op == CompareCond::Operator::Le)
        return Truth::True;
      if (C.Op == CompareCond::Operator::Gt)
        return Truth::False;
    }
    if (metricAlwaysLeq(B, A)) {
      if (C.Op == CompareCond::Operator::Ge)
        return Truth::True;
      if (C.Op == CompareCond::Operator::Lt)
        return Truth::False;
    }
  }

  Interval L = intervalOfExpr(*C.Lhs, Params);
  Interval R = intervalOfExpr(*C.Rhs, Params);
  switch (C.Op) {
  case CompareCond::Operator::Lt:
    if (alwaysLess(L, R))
      return Truth::True;
    if (alwaysLeq(R, L))
      return Truth::False;
    return Truth::Unknown;
  case CompareCond::Operator::Le:
    if (alwaysLeq(L, R))
      return Truth::True;
    if (alwaysLess(R, L))
      return Truth::False;
    return Truth::Unknown;
  case CompareCond::Operator::Gt:
    if (alwaysLess(R, L))
      return Truth::True;
    if (alwaysLeq(L, R))
      return Truth::False;
    return Truth::Unknown;
  case CompareCond::Operator::Ge:
    if (alwaysLeq(R, L))
      return Truth::True;
    if (alwaysLess(L, R))
      return Truth::False;
    return Truth::Unknown;
  case CompareCond::Operator::Eq:
    if (L.isPoint() && R.isPoint() && L.Lo == R.Lo)
      return Truth::True;
    if (L.intersect(R).empty())
      return Truth::False;
    return Truth::Unknown;
  case CompareCond::Operator::Ne:
    if (L.isPoint() && R.isPoint() && L.Lo == R.Lo)
      return Truth::False;
    if (L.intersect(R).empty())
      return Truth::True;
    return Truth::Unknown;
  }
  CHAM_UNREACHABLE("unknown comparison operator");
}

//===----------------------------------------------------------------------===//
// Conjunction bounds and satisfiability
//===----------------------------------------------------------------------===//

/// Constraint interval for "v op C" over v.
Interval constraintFromOp(CompareCond::Operator Op, double C) {
  switch (Op) {
  case CompareCond::Operator::Lt:
    return Interval::make(-Inf, true, C, true);
  case CompareCond::Operator::Le:
    return Interval::make(-Inf, true, C, false);
  case CompareCond::Operator::Gt:
    return Interval::make(C, true, Inf, true);
  case CompareCond::Operator::Ge:
    return Interval::make(C, false, Inf, true);
  case CompareCond::Operator::Eq:
    return Interval::point(C);
  case CompareCond::Operator::Ne:
    return Interval::top(); // not encodable as one interval
  }
  CHAM_UNREACHABLE("unknown comparison operator");
}

CompareCond::Operator mirrorOp(CompareCond::Operator Op) {
  switch (Op) {
  case CompareCond::Operator::Lt:
    return CompareCond::Operator::Gt;
  case CompareCond::Operator::Le:
    return CompareCond::Operator::Ge;
  case CompareCond::Operator::Gt:
    return CompareCond::Operator::Lt;
  case CompareCond::Operator::Ge:
    return CompareCond::Operator::Le;
  case CompareCond::Operator::Eq:
  case CompareCond::Operator::Ne:
    return Op;
  }
  CHAM_UNREACHABLE("unknown comparison operator");
}

/// One comparison rendered as "expression constrained to an interval":
/// succeeds when exactly one side folds to a point value. The constraint
/// is pre-intersected with the expression's own domain.
struct EncodedCompare {
  std::string Key; ///< canonical spelling of the constrained expression
  Interval I;
};

std::optional<EncodedCompare> encodeCompare(const CompareCond &C,
                                            const RuleParams *Params) {
  if (C.Op == CompareCond::Operator::Ne)
    return std::nullopt;
  Interval L = intervalOfExpr(*C.Lhs, Params);
  Interval R = intervalOfExpr(*C.Rhs, Params);
  if (R.isPoint() && !L.isPoint())
    return EncodedCompare{printExpr(*C.Lhs),
                          constraintFromOp(C.Op, R.Lo).intersect(L)};
  if (L.isPoint() && !R.isPoint())
    return EncodedCompare{printExpr(*C.Rhs),
                          constraintFromOp(mirrorOp(C.Op), L.Lo).intersect(R)};
  return std::nullopt;
}

/// Per-expression bounds implied by a condition. Exact means every
/// conjunct was encoded, so the map *characterizes* the condition (needed
/// on the implied side of a shadowing check); inexact maps are sound
/// over-approximations (fine on the implying side).
struct CondBounds {
  std::map<std::string, Interval> M;
  bool Exact = true;

  void add(const EncodedCompare &E) {
    auto It = M.find(E.Key);
    if (It == M.end())
      M.emplace(E.Key, E.I);
    else
      It->second = It->second.intersect(E.I);
  }
};

/// Encodes a pure conjunction of comparisons; nullopt for any condition
/// containing '||' or '!'.
std::optional<CondBounds> encodeCond(const Cond &C, const RuleParams *Params) {
  switch (C.kind()) {
  case Cond::Kind::Compare: {
    CondBounds B;
    if (std::optional<EncodedCompare> E =
            encodeCompare(static_cast<const CompareCond &>(C), Params))
      B.add(*E);
    else
      B.Exact = false;
    return B;
  }
  case Cond::Kind::And: {
    const auto &A = static_cast<const AndCond &>(C);
    std::optional<CondBounds> L = encodeCond(*A.Lhs, Params);
    std::optional<CondBounds> R = encodeCond(*A.Rhs, Params);
    if (!L || !R)
      return std::nullopt;
    for (const auto &[Key, I] : R->M)
      L->add({Key, I});
    L->Exact = L->Exact && R->Exact;
    return L;
  }
  case Cond::Kind::Or:
  case Cond::Kind::Not:
    return std::nullopt;
  }
  CHAM_UNREACHABLE("unknown condition kind");
}

/// Why a condition was proven unsatisfiable.
struct UnsatInfo {
  const Cond *Where = nullptr;
  std::string Detail;
};

bool definitelyUnsat(const Cond &C, const RuleParams *Params, UnsatInfo &Info);

bool definitelyTrue(const Cond &C, const RuleParams *Params) {
  switch (C.kind()) {
  case Cond::Kind::Compare:
    return compareTruth(static_cast<const CompareCond &>(C), Params)
           == Truth::True;
  case Cond::Kind::And: {
    const auto &A = static_cast<const AndCond &>(C);
    return definitelyTrue(*A.Lhs, Params) && definitelyTrue(*A.Rhs, Params);
  }
  case Cond::Kind::Or: {
    const auto &O = static_cast<const OrCond &>(C);
    return definitelyTrue(*O.Lhs, Params) || definitelyTrue(*O.Rhs, Params);
  }
  case Cond::Kind::Not: {
    UnsatInfo Ignored;
    return definitelyUnsat(*static_cast<const NotCond &>(C).Inner, Params,
                           Ignored);
  }
  }
  CHAM_UNREACHABLE("unknown condition kind");
}

/// Flattens the And-subtree rooted at \p C, intersecting the bounds each
/// encodable comparison places on its expression. Returns true (filling
/// \p Info) when some expression's bounds become empty.
bool conjunctionContradicts(const Cond &C, const RuleParams *Params,
                            CondBounds &Acc, UnsatInfo &Info) {
  switch (C.kind()) {
  case Cond::Kind::And: {
    const auto &A = static_cast<const AndCond &>(C);
    return conjunctionContradicts(*A.Lhs, Params, Acc, Info)
           || conjunctionContradicts(*A.Rhs, Params, Acc, Info);
  }
  case Cond::Kind::Compare: {
    const auto &Cmp = static_cast<const CompareCond &>(C);
    std::optional<EncodedCompare> E = encodeCompare(Cmp, Params);
    if (!E)
      return false;
    Acc.add(*E);
    if (Acc.M.find(E->Key)->second.empty()) {
      Info.Where = &C;
      Info.Detail = "contradictory constraints on '" + E->Key + "'";
      return true;
    }
    return false;
  }
  default:
    return false; // Or/Not subtrees are handled recursively by the caller
  }
}

bool definitelyUnsat(const Cond &C, const RuleParams *Params,
                     UnsatInfo &Info) {
  switch (C.kind()) {
  case Cond::Kind::Compare: {
    const auto &Cmp = static_cast<const CompareCond &>(C);
    if (compareTruth(Cmp, Params) == Truth::False) {
      Info.Where = &C;
      Info.Detail = "'" + printCond(Cmp) + "' is always false";
      return true;
    }
    return false;
  }
  case Cond::Kind::And: {
    const auto &A = static_cast<const AndCond &>(C);
    if (definitelyUnsat(*A.Lhs, Params, Info)
        || definitelyUnsat(*A.Rhs, Params, Info))
      return true;
    CondBounds Acc;
    return conjunctionContradicts(C, Params, Acc, Info);
  }
  case Cond::Kind::Or: {
    const auto &O = static_cast<const OrCond &>(C);
    UnsatInfo Right;
    if (!definitelyUnsat(*O.Lhs, Params, Info))
      return false;
    return definitelyUnsat(*O.Rhs, Params, Right);
  }
  case Cond::Kind::Not:
    if (definitelyTrue(*static_cast<const NotCond &>(C).Inner, Params)) {
      Info.Where = &C;
      Info.Detail = "the negated condition is always true";
      return true;
    }
    return false;
  }
  CHAM_UNREACHABLE("unknown condition kind");
}

//===----------------------------------------------------------------------===//
// Metric scales (threshold-style warnings)
//===----------------------------------------------------------------------===//

/// Coarse unit of a bare metric leaf.
enum class Scale : uint8_t {
  OpsAvg,  ///< per-instance operation-count average
  SizeAvg, ///< per-instance size/capacity average (element counts)
  Stddev,  ///< a variance companion
  Count,   ///< lifetime instance/object counts
  Bytes,   ///< heap byte measures
};

std::optional<Scale> scaleOfLeaf(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::OpCount:
    return Scale::OpsAvg;
  case Expr::Kind::OpStddev:
    return Scale::Stddev;
  case Expr::Kind::Metric:
    switch (static_cast<const MetricExpr &>(E).Metric) {
    case MetricKind::AllOps:
      return Scale::OpsAvg;
    case MetricKind::MaxSize:
    case MetricKind::FinalSize:
    case MetricKind::InitialCapacity:
      return Scale::SizeAvg;
    case MetricKind::MaxSizeStddev:
    case MetricKind::FinalSizeStddev:
      return Scale::Stddev;
    case MetricKind::AllocCount:
    case MetricKind::TotObjects:
    case MetricKind::MaxObjects:
      return Scale::Count;
    case MetricKind::TotLive:
    case MetricKind::MaxLive:
    case MetricKind::TotUsed:
    case MetricKind::MaxUsed:
    case MetricKind::TotCore:
    case MetricKind::MaxCore:
    case MetricKind::Potential:
    case MetricKind::HeapTotLive:
    case MetricKind::HeapMaxLive:
      return Scale::Bytes;
    }
    CHAM_UNREACHABLE("unknown MetricKind");
  default:
    return std::nullopt;
  }
}

bool isPerInstance(Scale S) {
  return S == Scale::OpsAvg || S == Scale::SizeAvg || S == Scale::Stddev;
}

//===----------------------------------------------------------------------===//
// The analysis driver
//===----------------------------------------------------------------------===//

class Analyzer {
public:
  Analyzer(const std::vector<Rule> &Rules, const SemaOptions &Opts)
      : Rules(Rules), Opts(Opts) {}

  SemaResult run() {
    Result.Verdicts.resize(Rules.size());
    for (size_t I = 0; I < Rules.size(); ++I)
      analyzeRule(Rules[I], Result.Verdicts[I]);
    analyzeShadowing();
    analyzeUnusedParams();
    sortDiagnostics(Result.Diags);
    return std::move(Result);
  }

private:
  void emit(unsigned Line, unsigned Col, Severity Sev, const char *ID,
            std::string Message) {
    Result.Diags.push_back(
        {{}, Line, Col, Sev, std::string(ID), std::move(Message), {}});
  }

  const RuleParams *params() const { return Opts.Params; }

  //===--- per-rule checks -------------------------------------------------//

  void analyzeRule(const Rule &R, SemaResult::RuleVerdict &Verdict) {
    checkParams(R, Verdict);
    checkTarget(R);
    checkCondition(R, Verdict);
  }

  void checkParams(const Rule &R, SemaResult::RuleVerdict &Verdict) {
    struct ParamUse {
      const ParamExpr *First;
    };
    std::map<std::string, ParamUse> Uses;
    auto Collect = [&](const Expr &E, auto &&Self) -> void {
      if (E.kind() == Expr::Kind::Param) {
        const auto &P = static_cast<const ParamExpr &>(E);
        ReferencedParams.insert(P.Name);
        Uses.emplace(P.Name, ParamUse{&P});
        return;
      }
      if (E.kind() == Expr::Kind::Binary) {
        const auto &B = static_cast<const BinaryExpr &>(E);
        Self(*B.Lhs, Self);
        Self(*B.Rhs, Self);
      }
    };
    auto CollectCond = [&](const Cond &C, auto &&Self) -> void {
      switch (C.kind()) {
      case Cond::Kind::Compare: {
        const auto &Cmp = static_cast<const CompareCond &>(C);
        Collect(*Cmp.Lhs, Collect);
        Collect(*Cmp.Rhs, Collect);
        return;
      }
      case Cond::Kind::And: {
        const auto &A = static_cast<const AndCond &>(C);
        Self(*A.Lhs, Self);
        Self(*A.Rhs, Self);
        return;
      }
      case Cond::Kind::Or: {
        const auto &O = static_cast<const OrCond &>(C);
        Self(*O.Lhs, Self);
        Self(*O.Rhs, Self);
        return;
      }
      case Cond::Kind::Not:
        Self(*static_cast<const NotCond &>(C).Inner, Self);
        return;
      }
    };
    if (R.Condition)
      CollectCond(*R.Condition, CollectCond);
    if (R.Capacity)
      Collect(*R.Capacity, Collect);

    for (const auto &[Name, Use] : Uses) {
      if (params() && params()->count(Name))
        continue;
      Verdict.UnboundParams.push_back(Name);
      emit(Use.First->Line, Use.First->Col, Severity::Warning,
           "sema-unbound-param",
           "rule '" + R.Name + "' references '$" + Name
               + "' with no binding; it can never fire until the parameter "
                 "is bound");
    }
  }

  void checkTarget(const Rule &R) {
    if (R.Action != ActionKind::Replace)
      return;
    AdtKind TargetAdt = adtOfImpl(R.NewImpl);
    if (std::optional<AdtKind> SrcAdt = adtOfSourceType(R.SrcType)) {
      if (!adaptImplToAdt(R.NewImpl, *SrcAdt)) {
        emit(R.TargetLine, R.TargetCol, Severity::Error,
             "sema-target-kind-mismatch",
             "rule '" + R.Name + "' replaces the "
                 + adtKindName(*SrcAdt) + " source '" + R.SrcType
                 + "' with the " + adtKindName(TargetAdt)
                 + " implementation '" + implKindName(R.NewImpl)
                 + "', which cannot back it");
        return;
      }
    }
    if (std::optional<ImplKind> SrcImpl = parseImplKind(R.SrcType)) {
      if (*SrcImpl == R.NewImpl && !R.Capacity)
        emit(R.TargetLine, R.TargetCol, Severity::Warning,
             "sema-self-replacement",
             "rule '" + R.Name + "' replaces '" + R.SrcType
                 + "' with itself and has no effect");
    }
  }

  void checkCondition(const Rule &R, SemaResult::RuleVerdict &Verdict) {
    if (!R.Condition)
      return;
    UnsatInfo Info;
    if (definitelyUnsat(*R.Condition, params(), Info)) {
      Verdict.NeverFires = true;
      const Cond *At = Info.Where ? Info.Where : R.Condition.get();
      emit(At->Line ? At->Line : R.Line, At->Line ? At->Col : R.Col,
           Severity::Error, "sema-never-fires",
           "rule '" + R.Name + "' can never fire: " + Info.Detail);
      return; // leaf-level warnings would be noise on a dead rule
    }
    walkCompares(*R.Condition, [&](const CompareCond &C, bool InsideOr) {
      Truth T = compareTruth(C, params());
      if (T == Truth::True) {
        emit(C.Line, C.Col, Severity::Warning, "sema-always-true",
             "comparison '" + printCond(C)
                 + "' is always true; the guard is redundant");
        return;
      }
      if (T == Truth::False && InsideOr) {
        emit(C.Line, C.Col, Severity::Warning, "sema-dead-branch",
             "comparison '" + printCond(C)
                 + "' is always false; this alternative is dead");
        return;
      }
      checkScales(C);
    });
  }

  template <class Fn>
  void walkCompares(const Cond &C, Fn &&Visit, bool InsideOr = false) {
    switch (C.kind()) {
    case Cond::Kind::Compare:
      Visit(static_cast<const CompareCond &>(C), InsideOr);
      return;
    case Cond::Kind::And: {
      const auto &A = static_cast<const AndCond &>(C);
      walkCompares(*A.Lhs, Visit, InsideOr);
      walkCompares(*A.Rhs, Visit, InsideOr);
      return;
    }
    case Cond::Kind::Or: {
      const auto &O = static_cast<const OrCond &>(C);
      walkCompares(*O.Lhs, Visit, true);
      walkCompares(*O.Rhs, Visit, true);
      return;
    }
    case Cond::Kind::Not:
      walkCompares(*static_cast<const NotCond &>(C).Inner, Visit, InsideOr);
      return;
    }
  }

  void checkScales(const CompareCond &C) {
    std::optional<Scale> L = scaleOfLeaf(*C.Lhs);
    std::optional<Scale> R = scaleOfLeaf(*C.Rhs);
    if (!L || !R || *L == *R)
      return;
    auto Pair = [&](Scale A, Scale B) {
      return (*L == A && *R == B) || (*L == B && *R == A);
    };
    if (Pair(Scale::OpsAvg, Scale::SizeAvg)) {
      emit(C.Line, C.Col, Severity::Warning, "sema-ops-size-comparison",
           "comparison '" + printCond(C)
               + "' relates an operation-count average to a size metric; "
                 "thresholds are usually constants or $-parameters");
      return;
    }
    bool Mixed = (isPerInstance(*L) && !isPerInstance(*R))
                 || (!isPerInstance(*L) && isPerInstance(*R))
                 || Pair(Scale::Count, Scale::Bytes);
    if (Mixed)
      emit(C.Line, C.Col, Severity::Warning, "sema-mixed-scope",
           "comparison '" + printCond(C)
               + "' mixes a per-instance average with a lifetime/heap "
                 "aggregate; these are different scales");
  }

  //===--- cross-rule checks -----------------------------------------------//

  /// True when every context matched by \p Inner's srcType is also matched
  /// by \p Outer's.
  static bool srcTypeCovers(const std::string &Outer,
                            const std::string &Inner) {
    if (Outer == Inner || Outer == "Collection")
      return true;
    if (std::optional<AdtKind> Adt = adtOfSourceType(Inner))
      return Outer == adtKindName(*Adt);
    return false;
  }

  /// True when rules \p A (earlier) and \p B (later) contend for the same
  /// slot of the replacement plan, so that A always firing first makes B's
  /// outcome unreachable.
  static bool sameDecisionChannel(const Rule &A, const Rule &B) {
    if (A.Action == ActionKind::Warn || B.Action == ActionKind::Warn)
      return false; // advisories all surface; nothing is lost
    if (B.Action == ActionKind::Replace)
      return A.Action == ActionKind::Replace;
    // B sets a capacity: shadowed by any earlier capacity-bearing rule.
    return A.Action == ActionKind::SetCapacity
           || (A.Action == ActionKind::Replace && A.Capacity != nullptr);
  }

  void analyzeShadowing() {
    // Pre-encode every condition once.
    std::vector<std::optional<CondBounds>> Enc(Rules.size());
    std::vector<std::string> Canon(Rules.size());
    for (size_t I = 0; I < Rules.size(); ++I) {
      if (Result.Verdicts[I].NeverFires || !Rules[I].Condition)
        continue;
      Enc[I] = encodeCond(*Rules[I].Condition, params());
      Canon[I] = printCond(*Rules[I].Condition);
    }

    for (size_t J = 1; J < Rules.size(); ++J) {
      const Rule &B = Rules[J];
      if (Result.Verdicts[J].NeverFires || !B.Condition)
        continue;
      for (size_t I = 0; I < J; ++I) {
        const Rule &A = Rules[I];
        if (Result.Verdicts[I].NeverFires || !A.Condition)
          continue;
        if (!sameDecisionChannel(A, B))
          continue;
        if (!srcTypeCovers(A.SrcType, B.SrcType))
          continue;
        // A must fire whenever B does; if B skips the stability gate but A
        // does not, A may be suppressed where B is not.
        if (B.IgnoreStability && !A.IgnoreStability)
          continue;
        if (!Result.Verdicts[I].UnboundParams.empty())
          continue; // A may be disabled entirely by a missing binding
        bool Implied = Canon[I] == Canon[J];
        if (!Implied && Enc[I] && Enc[I]->Exact && Enc[J])
          Implied = boundsImply(*Enc[J], *Enc[I]);
        if (!Implied)
          continue;
        const char *What = B.Action == ActionKind::Replace
                               ? "replacement"
                               : "capacity";
        emit(B.Line, B.Col, Severity::Warning, "sema-shadowed-rule",
             "rule '" + B.Name + "' is shadowed by earlier rule '" + A.Name
                 + "' (line " + std::to_string(A.Line)
                 + "): its condition implies the earlier rule's on the same "
                   "source type, so its "
                 + What + " is never chosen");
        break; // one shadow report per rule is enough
      }
    }
  }

  /// True when the region described by \p B is contained in \p A's: every
  /// bound A places is at least as tight in B.
  static bool boundsImply(const CondBounds &B, const CondBounds &A) {
    if (A.M.empty())
      return false; // nothing provable to implicate
    for (const auto &[Key, Ia] : A.M) {
      auto It = B.M.find(Key);
      if (It == B.M.end() || !Ia.contains(It->second))
        return false;
    }
    return true;
  }

  void analyzeUnusedParams() {
    if (!params())
      return;
    std::vector<std::string> Unused;
    for (const auto &[Name, Value] : *params()) {
      (void)Value;
      if (!ReferencedParams.count(Name))
        Unused.push_back(Name);
    }
    std::sort(Unused.begin(), Unused.end());
    for (const std::string &Name : Unused)
      emit(0, 0, Severity::Warning, "sema-unused-param",
           "parameter '$" + Name
               + "' is bound but never referenced by any rule");
  }

  const std::vector<Rule> &Rules;
  const SemaOptions &Opts;
  std::set<std::string> ReferencedParams;
  SemaResult Result;
};

} // namespace

SemaResult chameleon::rules::analyzeRules(const std::vector<Rule> &Rules,
                                          const SemaOptions &Opts) {
  return Analyzer(Rules, Opts).run();
}

LintResult chameleon::rules::lintRuleSource(const std::string &Source,
                                            const SemaOptions &Opts) {
  ParseResult Parsed = parseRules(Source);
  SemaResult Sema = analyzeRules(Parsed.Rules, Opts);
  LintResult Out;
  Out.Rules = std::move(Parsed.Rules);
  Out.Diags = std::move(Parsed.Diags);
  Out.Diags.insert(Out.Diags.end(),
                   std::make_move_iterator(Sema.Diags.begin()),
                   std::make_move_iterator(Sema.Diags.end()));
  sortDiagnostics(Out.Diags);
  return Out;
}

//===----------------------------------------------------------------------===//
// Fix-it suggestions
//===----------------------------------------------------------------------===//

unsigned chameleon::rules::editDistance(const std::string &A,
                                        const std::string &B) {
  auto Lower = [](const std::string &S) {
    std::string Out = S;
    for (char &C : Out)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    return Out;
  };
  std::string X = Lower(A), Y = Lower(B);
  std::vector<unsigned> Prev(Y.size() + 1), Cur(Y.size() + 1);
  for (size_t J = 0; J <= Y.size(); ++J)
    Prev[J] = static_cast<unsigned>(J);
  for (size_t I = 1; I <= X.size(); ++I) {
    Cur[0] = static_cast<unsigned>(I);
    for (size_t J = 1; J <= Y.size(); ++J) {
      unsigned Subst = Prev[J - 1] + (X[I - 1] != Y[J - 1] ? 1 : 0);
      Cur[J] = std::min({Prev[J] + 1, Cur[J - 1] + 1, Subst});
    }
    std::swap(Prev, Cur);
  }
  return Prev[Y.size()];
}

namespace {

unsigned suggestionBudget(const std::string &Name) {
  if (Name.size() <= 3)
    return 1;
  if (Name.size() <= 6)
    return 2;
  return 3;
}

/// The candidate closest to Name within its suggestion budget; empty when
/// nothing is plausibly near.
std::string bestCandidate(const std::string &Name,
                          const std::vector<std::string> &Candidates) {
  unsigned Best = suggestionBudget(Name) + 1;
  std::string Out;
  for (const std::string &C : Candidates) {
    unsigned D = editDistance(Name, C);
    if (D < Best) {
      Best = D;
      Out = C;
    }
  }
  return Out;
}

std::vector<std::string> metricNames() {
  std::vector<std::string> Out;
  for (unsigned I = 0; I < NumMetricKinds; ++I)
    Out.push_back(metricKindName(static_cast<MetricKind>(I)));
  return Out;
}

std::vector<std::string> opNames() {
  std::vector<std::string> Out;
  for (unsigned I = 0; I < NumOpKinds; ++I)
    Out.push_back(opKindName(static_cast<OpKind>(I)));
  Out.push_back("allOps");
  return Out;
}

} // namespace

std::string chameleon::rules::suggestMetricName(const std::string &Name) {
  std::string Metric = bestCandidate(Name, metricNames());
  std::string Op = bestCandidate(Name, opNames());
  if (!Op.empty()
      && (Metric.empty()
          || editDistance(Name, Op) < editDistance(Name, Metric)))
    return "#" + Op; // the identifier was really an operation counter
  return Metric;
}

std::string chameleon::rules::suggestOpName(const std::string &Name) {
  std::string Op = bestCandidate(Name, opNames());
  if (!Op.empty())
    return Op;
  // A '#' in front of a plain metric is a common slip: suggest dropping it.
  return bestCandidate(Name, metricNames());
}

std::string chameleon::rules::suggestImplName(const std::string &Name) {
  std::vector<std::string> Candidates;
  for (unsigned I = 0; I < NumImplKinds; ++I)
    Candidates.push_back(implKindName(static_cast<ImplKind>(I)));
  Candidates.push_back("setCapacity");
  Candidates.push_back("warn");
  return bestCandidate(Name, Candidates);
}

std::string chameleon::rules::suggestSourceTypeName(const std::string &Name) {
  std::vector<std::string> Candidates = {"Collection", "List", "Set", "Map"};
  for (unsigned I = 0; I < NumImplKinds; ++I)
    Candidates.push_back(implKindName(static_cast<ImplKind>(I)));
  return bestCandidate(Name, Candidates);
}
