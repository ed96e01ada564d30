//===--- Evaluator.cpp - Rule evaluation over context metrics ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rules/Evaluator.h"

#include "support/Assert.h"

using namespace chameleon;
using namespace chameleon::rules;

double Evaluator::metricValue(MetricKind Kind) {
  switch (Kind) {
  case MetricKind::AllOps:
    return Info.avgAllOps();
  case MetricKind::MaxSize:
    UsedMaxSize = true;
    return Info.maxSizeStat().mean();
  case MetricKind::MaxSizeStddev:
    return Info.maxSizeStat().stddev();
  case MetricKind::FinalSize:
    UsedFinalSize = true;
    return Info.finalSizeStat().mean();
  case MetricKind::FinalSizeStddev:
    return Info.finalSizeStat().stddev();
  case MetricKind::InitialCapacity:
    return Info.initialCapacityStat().mean();
  case MetricKind::AllocCount:
    return static_cast<double>(Info.allocations());
  case MetricKind::TotLive:
    return static_cast<double>(Info.liveData().total());
  case MetricKind::MaxLive:
    return static_cast<double>(Info.liveData().max());
  case MetricKind::TotUsed:
    return static_cast<double>(Info.usedData().total());
  case MetricKind::MaxUsed:
    return static_cast<double>(Info.usedData().max());
  case MetricKind::TotCore:
    return static_cast<double>(Info.coreData().total());
  case MetricKind::MaxCore:
    return static_cast<double>(Info.coreData().max());
  case MetricKind::TotObjects:
    return static_cast<double>(Info.liveObjects().total());
  case MetricKind::MaxObjects:
    return static_cast<double>(Info.liveObjects().max());
  case MetricKind::Potential:
    return static_cast<double>(Info.savingPotential());
  case MetricKind::HeapTotLive:
    return static_cast<double>(Profiler.heapStats().Live.total());
  case MetricKind::HeapMaxLive:
    return static_cast<double>(Profiler.heapStats().Live.max());
  }
  CHAM_UNREACHABLE("unknown MetricKind");
}

double Evaluator::evalExpr(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    return static_cast<const NumberExpr &>(E).Value;
  case Expr::Kind::Metric:
    return metricValue(static_cast<const MetricExpr &>(E).Metric);
  case Expr::Kind::OpCount:
    return Info.opStat(static_cast<const OpCountExpr &>(E).Op).mean();
  case Expr::Kind::OpStddev:
    return Info.opStat(static_cast<const OpStddevExpr &>(E).Op).stddev();
  case Expr::Kind::Param: {
    const auto &P = static_cast<const ParamExpr &>(E);
    if (Params) {
      auto It = Params->find(P.Name);
      if (It != Params->end())
        return It->second;
    }
    MissingParam = true;
    return 0.0;
  }
  case Expr::Kind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    double Lhs = evalExpr(*B.Lhs);
    double Rhs = evalExpr(*B.Rhs);
    switch (B.Op) {
    case BinaryExpr::Operator::Add:
      return Lhs + Rhs;
    case BinaryExpr::Operator::Sub:
      return Lhs - Rhs;
    case BinaryExpr::Operator::Mul:
      return Lhs * Rhs;
    case BinaryExpr::Operator::Div:
      // Rules routinely form op-count ratios; an empty profile divides by
      // zero. Define x/0 = 0 so such rules simply do not fire — but count
      // each guarded division so explainContext can say why.
      if (Rhs == 0.0) {
        ++DivGuardHits;
        return 0.0;
      }
      return Lhs / Rhs;
    }
    CHAM_UNREACHABLE("unknown binary operator");
  }
  }
  CHAM_UNREACHABLE("unknown expression kind");
}

bool Evaluator::evalCond(const Cond &C) {
  switch (C.kind()) {
  case Cond::Kind::Compare: {
    const auto &Cmp = static_cast<const CompareCond &>(C);
    double Lhs = evalExpr(*Cmp.Lhs);
    double Rhs = evalExpr(*Cmp.Rhs);
    switch (Cmp.Op) {
    case CompareCond::Operator::Lt:
      return Lhs < Rhs;
    case CompareCond::Operator::Le:
      return Lhs <= Rhs;
    case CompareCond::Operator::Gt:
      return Lhs > Rhs;
    case CompareCond::Operator::Ge:
      return Lhs >= Rhs;
    case CompareCond::Operator::Eq:
      return Lhs == Rhs;
    case CompareCond::Operator::Ne:
      return Lhs != Rhs;
    }
    CHAM_UNREACHABLE("unknown comparison operator");
  }
  case Cond::Kind::And: {
    const auto &A = static_cast<const AndCond &>(C);
    return evalCond(*A.Lhs) && evalCond(*A.Rhs);
  }
  case Cond::Kind::Or: {
    const auto &O = static_cast<const OrCond &>(C);
    return evalCond(*O.Lhs) || evalCond(*O.Rhs);
  }
  case Cond::Kind::Not:
    return !evalCond(*static_cast<const NotCond &>(C).Inner);
  }
  CHAM_UNREACHABLE("unknown condition kind");
}
