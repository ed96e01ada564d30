//===--- Printer.cpp - Pretty-printer for the rule language ---------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rules/Printer.h"

#include "support/Assert.h"

using namespace chameleon;
using namespace chameleon::rules;

namespace {

/// Binding strength of expression nodes; parentheses are emitted only
/// when a child binds looser than its parent requires.
enum class ExprPrec : uint8_t { Additive = 0, Multiplicative = 1, Atom = 2 };

ExprPrec exprPrec(const Expr &E) {
  if (E.kind() != Expr::Kind::Binary)
    return ExprPrec::Atom;
  const auto &B = static_cast<const BinaryExpr &>(E);
  switch (B.Op) {
  case BinaryExpr::Operator::Add:
  case BinaryExpr::Operator::Sub:
    return ExprPrec::Additive;
  case BinaryExpr::Operator::Mul:
  case BinaryExpr::Operator::Div:
    return ExprPrec::Multiplicative;
  }
  CHAM_UNREACHABLE("unknown binary operator");
}

/// The spaced source text of a binary operator.
const char *binaryOpText(BinaryExpr::Operator Op) {
  switch (Op) {
  case BinaryExpr::Operator::Add:
    return " + ";
  case BinaryExpr::Operator::Sub:
    return " - ";
  case BinaryExpr::Operator::Mul:
    return " * ";
  case BinaryExpr::Operator::Div:
    return " / ";
  }
  CHAM_UNREACHABLE("unknown binary operator");
}

std::string printExprAt(const Expr &E, ExprPrec Min) {
  std::string Out;
  bool Paren = exprPrec(E) < Min;
  if (Paren)
    Out += '(';
  switch (E.kind()) {
  case Expr::Kind::Number: {
    double V = static_cast<const NumberExpr &>(E).Value;
    // Integers print without a fractional part.
    if (V == static_cast<double>(static_cast<long long>(V))) {
      Out += std::to_string(static_cast<long long>(V));
    } else {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", V);
      Out += Buf;
    }
    break;
  }
  case Expr::Kind::Metric: {
    MetricKind Metric = static_cast<const MetricExpr &>(E).Metric;
    // #allOps keeps the paper's counter spelling.
    if (Metric == MetricKind::AllOps)
      Out += '#';
    Out += metricKindName(Metric);
    break;
  }
  case Expr::Kind::OpCount:
    Out += '#';
    Out += opKindName(static_cast<const OpCountExpr &>(E).Op);
    break;
  case Expr::Kind::OpStddev:
    Out += '@';
    Out += opKindName(static_cast<const OpStddevExpr &>(E).Op);
    break;
  case Expr::Kind::Param:
    Out += '$';
    Out += static_cast<const ParamExpr &>(E).Name;
    break;
  case Expr::Kind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    ExprPrec Here = exprPrec(E);
    // Left-associative: the right child needs one level tighter.
    Out += printExprAt(*B.Lhs, Here);
    Out += binaryOpText(B.Op);
    Out += printExprAt(*B.Rhs,
                       static_cast<ExprPrec>(
                           static_cast<uint8_t>(Here) + 1));
    break;
  }
  }
  if (Paren)
    Out += ')';
  return Out;
}

/// Binding strength of conditions: Or < And < Not/Compare.
enum class CondPrec : uint8_t { Or = 0, And = 1, Atom = 2 };

CondPrec condPrec(const Cond &C) {
  switch (C.kind()) {
  case Cond::Kind::Or:
    return CondPrec::Or;
  case Cond::Kind::And:
    return CondPrec::And;
  case Cond::Kind::Not:
  case Cond::Kind::Compare:
    return CondPrec::Atom;
  }
  CHAM_UNREACHABLE("unknown condition kind");
}

/// The spaced source text of a comparison operator.
const char *compareOpText(CompareCond::Operator Op) {
  switch (Op) {
  case CompareCond::Operator::Lt:
    return " < ";
  case CompareCond::Operator::Le:
    return " <= ";
  case CompareCond::Operator::Gt:
    return " > ";
  case CompareCond::Operator::Ge:
    return " >= ";
  case CompareCond::Operator::Eq:
    return " == ";
  case CompareCond::Operator::Ne:
    return " != ";
  }
  CHAM_UNREACHABLE("unknown comparison operator");
}

std::string printCondAt(const Cond &C, CondPrec Min) {
  std::string Out;
  bool Paren = condPrec(C) < Min;
  if (Paren)
    Out += '(';
  switch (C.kind()) {
  case Cond::Kind::Compare: {
    const auto &Cmp = static_cast<const CompareCond &>(C);
    Out += printExprAt(*Cmp.Lhs, ExprPrec::Additive);
    Out += compareOpText(Cmp.Op);
    Out += printExprAt(*Cmp.Rhs, ExprPrec::Additive);
    break;
  }
  case Cond::Kind::And: {
    const auto &A = static_cast<const AndCond &>(C);
    Out += printCondAt(*A.Lhs, CondPrec::And);
    Out += " && ";
    Out += printCondAt(*A.Rhs, CondPrec::And);
    break;
  }
  case Cond::Kind::Or: {
    const auto &O = static_cast<const OrCond &>(C);
    Out += printCondAt(*O.Lhs, CondPrec::Or);
    Out += " || ";
    Out += printCondAt(*O.Rhs, CondPrec::Or);
    break;
  }
  case Cond::Kind::Not: {
    const auto &N = static_cast<const NotCond &>(C);
    Out += '!';
    // Parenthesize everything but a nested !, so "!(a > b)" never prints
    // as the ambiguous-looking "!a > b".
    if (N.Inner->kind() == Cond::Kind::Not) {
      Out += printCondAt(*N.Inner, CondPrec::Atom);
    } else {
      Out += '(';
      Out += printCondAt(*N.Inner, CondPrec::Or);
      Out += ')';
    }
    break;
  }
  }
  if (Paren)
    Out += ')';
  return Out;
}

} // namespace

std::string chameleon::rules::printExpr(const Expr &E) {
  return printExprAt(E, ExprPrec::Additive);
}

std::string chameleon::rules::printCond(const Cond &C) {
  return printCondAt(C, CondPrec::Or);
}

std::string chameleon::rules::printRule(const Rule &R) {
  std::string Out;
  bool NeedAttrs = R.IgnoreStability || !R.Name.empty();
  if (NeedAttrs) {
    Out += '[';
    Out += R.Name;
    if (R.IgnoreStability) {
      if (!R.Name.empty())
        Out += ", ";
      Out += "unstable";
    }
    Out += "] ";
  }
  Out += R.SrcType;
  Out += " : ";
  Out += printCond(*R.Condition);
  Out += " -> ";
  switch (R.Action) {
  case ActionKind::Replace:
    Out += implKindName(R.NewImpl);
    if (R.Capacity) {
      Out += '(';
      Out += printExpr(*R.Capacity);
      Out += ')';
    }
    break;
  case ActionKind::SetCapacity:
    Out += "setCapacity(";
    Out += printExpr(*R.Capacity);
    Out += ')';
    break;
  case ActionKind::Warn:
    Out += "warn";
    break;
  }
  if (!R.Message.empty()) {
    Out += " \"";
    Out += R.Message;
    Out += '"';
  }
  return Out;
}

std::string chameleon::rules::printRules(const std::vector<Rule> &Rules) {
  std::string Out;
  for (const Rule &R : Rules) {
    Out += printRule(R);
    Out += '\n';
  }
  return Out;
}
