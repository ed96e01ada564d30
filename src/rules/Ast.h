//===--- Ast.h - AST of the rule language ----------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax of the implementation-selection language (paper Fig. 4).
/// Expressions are numeric; conditions are boolean. The metric vocabulary
/// is Table 1's: per-instance operation-count averages and variances
/// (trace data) and per-context Total/Max heap measures (heap data).
/// LLVM-style hand-rolled RTTI (a kind discriminator) keeps the tree free
/// of dynamic_cast.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RULES_AST_H
#define CHAMELEON_RULES_AST_H

#include "collections/Kinds.h"
#include "profiler/OpKind.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace chameleon::rules {

/// The non-operation metrics of Table 1 usable in rules.
enum class MetricKind : uint8_t {
  AllOps,          ///< #allOps — sum of per-op averages
  MaxSize,         ///< avg maximal size over instances
  MaxSizeStddev,   ///< @maxSize
  FinalSize,       ///< avg size at death ("size")
  FinalSizeStddev, ///< @size
  InitialCapacity, ///< avg effective initial capacity
  AllocCount,      ///< instances allocated at the context
  TotLive,         ///< heap data: Total/Max per Table 1
  MaxLive,
  TotUsed,
  MaxUsed,
  TotCore,
  MaxCore,
  TotObjects,
  MaxObjects,
  Potential,   ///< totLive - totUsed
  HeapTotLive, ///< whole-heap totals (for relative thresholds)
  HeapMaxLive,
};

/// Number of MetricKind values.
inline constexpr unsigned NumMetricKinds =
    static_cast<unsigned>(MetricKind::HeapMaxLive) + 1;

/// Parses the identifier spelling of a metric; nullopt when unknown.
std::optional<MetricKind> parseMetricKind(const std::string &Name);

/// The identifier spelling of a metric.
const char *metricKindName(MetricKind Kind);

/// True for metrics whose reliability depends on size stability
/// (Definition 3.1): the paper requires size values to be tight while
/// operation counts are unrestricted.
bool isSizeMetric(MetricKind Kind);

/// Numeric expression node.
struct Expr {
  enum class Kind : uint8_t {
    Number,
    Metric,
    OpCount,
    OpStddev,
    Param,
    Binary,
  };

  explicit Expr(Kind K) : NodeKind(K) {}
  virtual ~Expr();

  Kind kind() const { return NodeKind; }

  /// Source position (1-based; 0 for synthesized nodes). Atoms carry their
  /// own token's position; binary nodes carry the operator's.
  unsigned Line = 0;
  unsigned Col = 0;

private:
  Kind NodeKind;
};

using ExprPtr = std::unique_ptr<Expr>;

struct NumberExpr : Expr {
  explicit NumberExpr(double Value) : Expr(Kind::Number), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Number; }

  double Value;
};

struct MetricExpr : Expr {
  explicit MetricExpr(MetricKind Metric)
      : Expr(Kind::Metric), Metric(Metric) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Metric; }

  MetricKind Metric;
};

struct OpCountExpr : Expr {
  explicit OpCountExpr(OpKind Op) : Expr(Kind::OpCount), Op(Op) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::OpCount; }

  OpKind Op;
};

struct OpStddevExpr : Expr {
  explicit OpStddevExpr(OpKind Op) : Expr(Kind::OpStddev), Op(Op) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::OpStddev; }

  OpKind Op;
};

/// A tunable constant ($name). The paper's rule constants "may be tuned
/// per specific environment" (§3.3.1); parameters are bound on the rule
/// engine and a rule referencing an unbound parameter never fires.
struct ParamExpr : Expr {
  explicit ParamExpr(std::string Name)
      : Expr(Kind::Param), Name(std::move(Name)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Param; }

  std::string Name;
};

struct BinaryExpr : Expr {
  enum class Operator : uint8_t { Add, Sub, Mul, Div };

  BinaryExpr(Operator Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(Kind::Binary), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

  Operator Op;
  ExprPtr Lhs;
  ExprPtr Rhs;
};

/// Boolean condition node.
struct Cond {
  enum class Kind : uint8_t { Compare, And, Or, Not };

  explicit Cond(Kind K) : NodeKind(K) {}
  virtual ~Cond();

  Kind kind() const { return NodeKind; }

  /// Source position (1-based; 0 for synthesized nodes). Comparisons and
  /// connectives carry their operator token's position.
  unsigned Line = 0;
  unsigned Col = 0;

private:
  Kind NodeKind;
};

using CondPtr = std::unique_ptr<Cond>;

struct CompareCond : Cond {
  enum class Operator : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

  CompareCond(Operator Op, ExprPtr Lhs, ExprPtr Rhs)
      : Cond(Kind::Compare), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  static bool classof(const Cond *C) { return C->kind() == Kind::Compare; }

  Operator Op;
  ExprPtr Lhs;
  ExprPtr Rhs;
};

struct AndCond : Cond {
  AndCond(CondPtr Lhs, CondPtr Rhs)
      : Cond(Kind::And), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}
  static bool classof(const Cond *C) { return C->kind() == Kind::And; }

  CondPtr Lhs;
  CondPtr Rhs;
};

struct OrCond : Cond {
  OrCond(CondPtr Lhs, CondPtr Rhs)
      : Cond(Kind::Or), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}
  static bool classof(const Cond *C) { return C->kind() == Kind::Or; }

  CondPtr Lhs;
  CondPtr Rhs;
};

struct NotCond : Cond {
  explicit NotCond(CondPtr Inner) : Cond(Kind::Not), Inner(std::move(Inner)) {}
  static bool classof(const Cond *C) { return C->kind() == Kind::Not; }

  CondPtr Inner;
};

/// What a fired rule asks for.
enum class ActionKind : uint8_t {
  Replace,     ///< back the wrapper with a different implementation
  SetCapacity, ///< keep the implementation, set the initial capacity
  Warn,        ///< advisory only (e.g. "avoid allocation")
};

/// One parsed selection rule.
struct Rule {
  /// Optional [name] label; auto-generated rule<N> otherwise.
  std::string Name;
  /// srcType: a concrete source type ("ArrayList"), an ADT name
  /// ("List"/"Set"/"Map"), or the wildcard "Collection".
  std::string SrcType;
  CondPtr Condition;
  ActionKind Action = ActionKind::Warn;
  /// Replace target (Action == Replace).
  ImplKind NewImpl = ImplKind::ArrayList;
  /// Capacity expression (Replace with (capacity), or SetCapacity).
  ExprPtr Capacity;
  /// Human-readable message; its "Cat:" prefix becomes the category.
  std::string Message;
  std::string Category;
  /// When true, the stability gate of Definition 3.1 is skipped for this
  /// rule ([unstable] attribute).
  bool IgnoreStability = false;
  unsigned Line = 0;
  unsigned Col = 0;
  /// Position of the action's target token (the implementation name,
  /// 'setCapacity', or 'warn').
  unsigned TargetLine = 0;
  unsigned TargetCol = 0;
};

} // namespace chameleon::rules

#endif // CHAMELEON_RULES_AST_H
