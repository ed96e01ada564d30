//===--- Extractor.cpp - Function/call/lock extraction --------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Extractor.h"

#include <cstdlib>
#include <unordered_set>

namespace chameleon::analysis {

namespace {

/// Keywords that look like calls when followed by '(' but are not.
const std::unordered_set<std::string> &callKeywords() {
  static const std::unordered_set<std::string> K = {
      "if",      "for",        "while",   "switch",   "return",
      "sizeof",  "alignof",    "alignas", "decltype", "catch",
      "throw",   "case",       "goto",    "do",       "else",
      "default", "static_assert", "noexcept", "defined",
  };
  return K;
}

bool isGuardTypeName(const std::string &S) {
  return S == "lock_guard" || S == "unique_lock" || S == "scoped_lock" ||
         S == "shared_lock";
}

bool isAllocCallName(const std::string &S) {
  return S == "make_unique" || S == "make_shared" || S == "malloc" ||
         S == "calloc" || S == "realloc" || S == "strdup";
}

/// The structural scanner for one file.
class Extractor {
public:
  Extractor(const std::string &File, const LexedFile &Lexed)
      : File(File), Toks(Lexed.Toks) {
    Model.File = File;
    Model.Suppressions = Lexed.Suppressions;
  }

  FileModel run() {
    scanFlatSites();
    scanStructure();
    return std::move(Model);
  }

private:
  enum class ScopeKind { Namespace, Class, Transparent };
  struct Scope {
    ScopeKind Kind;
    std::string Name;
  };

  const CxxToken &tok(size_t I) const {
    return I < Toks.size() ? Toks[I] : Toks.back();
  }

  /// Index just past the brace/paren group opening at \p I (Toks[I] must
  /// be the opener). Tolerates imbalance by stopping at Eof.
  size_t skipBalanced(size_t I, char Open, char Close) const {
    int Depth = 0;
    for (; I < Toks.size() && !Toks[I].is(CxxTokKind::Eof); ++I) {
      if (Toks[I].isPunct(Open))
        ++Depth;
      else if (Toks[I].isPunct(Close) && --Depth == 0)
        return I + 1;
    }
    return I;
  }

  //===--------------------------------------------------------------------===//
  // Flat passes: fault sites and metric registrations need no structure.
  //===--------------------------------------------------------------------===//

  void scanFlatSites() {
    for (size_t I = 0; I + 2 < Toks.size(); ++I) {
      const CxxToken &T = Toks[I];
      if (!T.is(CxxTokKind::Ident))
        continue;
      // CHAM_FAULT("tag") / CHAM_FAULT_GC("tag", Heap)
      if ((T.Text == "CHAM_FAULT" || T.Text == "CHAM_FAULT_GC") &&
          tok(I + 1).isPunct('(') && tok(I + 2).is(CxxTokKind::String)) {
        Model.FaultSites.push_back(
            {tok(I + 2).Text, File, tok(I + 2).Line, tok(I + 2).Col});
        continue;
      }
      // CHAM_METRIC_COUNTER(Var, "name") and friends.
      const char *MacroKind = T.Text == "CHAM_METRIC_COUNTER" ? "counter"
                              : T.Text == "CHAM_METRIC_GAUGE"   ? "gauge"
                              : T.Text == "CHAM_METRIC_HDR"     ? "hdr"
                                                                : nullptr;
      if (MacroKind && tok(I + 1).isPunct('(') &&
          tok(I + 2).is(CxxTokKind::Ident) && tok(I + 3).isPunct(',') &&
          tok(I + 4).is(CxxTokKind::String)) {
        Model.Metrics.push_back({tok(I + 4).Text, MacroKind, File,
                                 tok(I + 4).Line, tok(I + 4).Col});
        continue;
      }
      // obs::Counter Var{"name"} / Counter Var("name") member metrics.
      const char *CtorKind = T.Text == "Counter"        ? "counter"
                             : T.Text == "Gauge"        ? "gauge"
                             : T.Text == "HdrHistogram" ? "hdr"
                                                        : nullptr;
      if (CtorKind && tok(I + 1).is(CxxTokKind::Ident) &&
          (tok(I + 2).isPunct('{') || tok(I + 2).isPunct('(')) &&
          tok(I + 3).is(CxxTokKind::String)) {
        Model.Metrics.push_back({tok(I + 3).Text, CtorKind, File,
                                 tok(I + 3).Line, tok(I + 3).Col});
        continue;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Structural pass: declaration scopes and function bodies.
  //===--------------------------------------------------------------------===//

  void scanStructure() {
    std::vector<Scope> Scopes;
    std::vector<size_t> Decl; // token indices of the current decl run
    size_t I = 0;
    while (I < Toks.size() && !Toks[I].is(CxxTokKind::Eof)) {
      const CxxToken &T = Toks[I];
      if (T.isPunct(';')) {
        processDeclRun(Decl, Scopes);
        Decl.clear();
        ++I;
        continue;
      }
      if (T.isPunct('}')) {
        if (!Scopes.empty())
          Scopes.pop_back();
        Decl.clear();
        ++I;
        continue;
      }
      if (!T.isPunct('{')) {
        Decl.push_back(I);
        ++I;
        continue;
      }

      // Classify the '{' opener from the declaration run before it.
      if (Decl.empty()) {
        Scopes.push_back({ScopeKind::Transparent, ""});
        ++I;
        continue;
      }
      if (hasKeyword(Decl, "namespace")) {
        Scopes.push_back({ScopeKind::Namespace, lastIdent(Decl)});
        Decl.clear();
        ++I;
        continue;
      }
      if (hasKeyword(Decl, "enum")) {
        I = skipBalanced(I, '{', '}');
        Decl.clear();
        continue;
      }
      size_t NameIdx = functionNameIndex(Decl);
      if (NameIdx != ~size_t{0}) {
        I = handleFunction(Decl, NameIdx, Scopes, I);
        Decl.clear();
        continue;
      }
      if (hasKeyword(Decl, "class") || hasKeyword(Decl, "struct") ||
          hasKeyword(Decl, "union")) {
        Scopes.push_back({ScopeKind::Class, classNameOf(Decl)});
        Decl.clear();
        ++I;
        continue;
      }
      if (hasPunct(Decl, '=') ||
          Toks[Decl.back()].is(CxxTokKind::Ident)) {
        // Braced initializer (`= {...}` or `Counter X{"..."}`): skip the
        // braces and keep accumulating the same declaration.
        I = skipBalanced(I, '{', '}');
        continue;
      }
      // Unknown construct (e.g. `extern "C" {`): process contents at the
      // same scope.
      Scopes.push_back({ScopeKind::Transparent, ""});
      Decl.clear();
      ++I;
    }
  }

  bool hasKeyword(const std::vector<size_t> &Decl, const char *KW) const {
    for (size_t Idx : Decl)
      if (Toks[Idx].isIdent(KW))
        return true;
    return false;
  }
  bool hasPunct(const std::vector<size_t> &Decl, char P) const {
    for (size_t Idx : Decl)
      if (Toks[Idx].isPunct(P))
        return true;
    return false;
  }
  std::string lastIdent(const std::vector<size_t> &Decl) const {
    for (auto It = Decl.rbegin(); It != Decl.rend(); ++It)
      if (Toks[*It].is(CxxTokKind::Ident))
        return Toks[*It].Text;
    return "";
  }

  /// Name of the class a `class`/`struct` declaration run introduces: the
  /// first identifier after the keyword, skipping `alignas(...)`.
  std::string classNameOf(const std::vector<size_t> &Decl) const {
    size_t P = 0;
    while (P < Decl.size() && !(Toks[Decl[P]].isIdent("class") ||
                                Toks[Decl[P]].isIdent("struct") ||
                                Toks[Decl[P]].isIdent("union")))
      ++P;
    for (++P; P < Decl.size(); ++P) {
      const CxxToken &T = Toks[Decl[P]];
      if (T.isIdent("alignas")) {
        // Skip its parenthesised argument within the run.
        int Depth = 0;
        for (++P; P < Decl.size(); ++P) {
          if (Toks[Decl[P]].isPunct('('))
            ++Depth;
          else if (Toks[Decl[P]].isPunct(')') && --Depth == 0)
            break;
        }
        continue;
      }
      if (T.isIdent("final"))
        continue;
      if (T.is(CxxTokKind::Ident))
        return T.Text;
    }
    return "";
  }

  /// If the declaration run has function shape — a top-level '(' preceded
  /// by an identifier (or operator symbol) — returns the index *within
  /// Decl* of the name token; otherwise ~0.
  size_t functionNameIndex(const std::vector<size_t> &Decl) const {
    int Paren = 0;
    for (size_t P = 0; P < Decl.size(); ++P) {
      const CxxToken &T = Toks[Decl[P]];
      if (T.isPunct('(')) {
        if (Paren++ == 0) {
          if (P == 0)
            return ~size_t{0};
          const CxxToken &Prev = Toks[Decl[P - 1]];
          if (Prev.isIdent("alignas") || Prev.isIdent("decltype") ||
              Prev.isIdent("noexcept")) {
            // Not the parameter list; keep scanning past this group.
            continue;
          }
          if (Prev.is(CxxTokKind::Ident) && !Prev.isIdent("class") &&
              !Prev.isIdent("struct"))
            return P - 1;
          // operator= / operator[] / operator() — walk back over the
          // punctuation to the `operator` keyword.
          size_t B = P;
          while (B > 0 && Toks[Decl[B - 1]].is(CxxTokKind::Punct))
            --B;
          if (B > 0 && Toks[Decl[B - 1]].isIdent("operator"))
            return B - 1;
          return ~size_t{0};
        }
      } else if (T.isPunct(')')) {
        --Paren;
      }
    }
    return ~size_t{0};
  }

  /// Handles a declaration run ending in ';' (no body). Extracts lock
  /// members and annotated member declarations.
  void processDeclRun(const std::vector<size_t> &Decl,
                      const std::vector<Scope> &Scopes) {
    if (Decl.empty())
      return;
    const std::string Class = enclosingClass(Scopes);

    // Annotated member declaration: `CHAM_NO_SAFEPOINT uint32_t f(...);`
    bool May = hasKeyword(Decl, "CHAM_MAY_SAFEPOINT");
    bool No = hasKeyword(Decl, "CHAM_NO_SAFEPOINT");
    if ((May || No)) {
      size_t NameIdx = functionNameIndex(Decl);
      if (NameIdx != ~size_t{0})
        Model.AnnotatedDecls.push_back(
            {Toks[Decl[NameIdx]].Text, Class, May, No});
    }

    // Lock member: `SpinLock Mu CHAM_LOCK_RANK(10);` or
    // `std::mutex AllocMu CHAM_LOCK_RANK(30);` (class scope only; a
    // namespace-scope lock would also be legal but none exist).
    for (size_t P = 0; P < Decl.size(); ++P) {
      const CxxToken &T = Toks[Decl[P]];
      bool Spin = T.isIdent("SpinLock");
      bool Mtx = (T.isIdent("mutex") || T.isIdent("recursive_mutex") ||
                  T.isIdent("shared_mutex") || T.isIdent("timed_mutex"));
      if (!Spin && !Mtx)
        continue;
      if (P + 1 >= Decl.size() || !Toks[Decl[P + 1]].is(CxxTokKind::Ident))
        break; // `SpinLock &L;`, `SpinLock() = ...`, a using-decl, ...
      LockMember M;
      M.Name = Toks[Decl[P + 1]].Text;
      M.ClassName = Class;
      M.IsSpinLock = Spin;
      M.File = File;
      M.Line = T.Line;
      // Optional trailing CHAM_LOCK_RANK(n).
      for (size_t Q = P + 2; Q + 2 < Decl.size(); ++Q)
        if (Toks[Decl[Q]].isIdent("CHAM_LOCK_RANK") &&
            Toks[Decl[Q + 1]].isPunct('(') &&
            Toks[Decl[Q + 2]].is(CxxTokKind::Number))
          M.Rank = std::atoi(Toks[Decl[Q + 2]].Text.c_str());
      Model.LockMembers.push_back(std::move(M));
      break;
    }
  }

  std::string enclosingClass(const std::vector<Scope> &Scopes) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (It->Kind == ScopeKind::Class)
        return It->Name;
    return "";
  }

  /// Processes a function definition whose body opens at token \p BodyOpen
  /// (Decl[NameIdx] names it). Returns the index just past the body.
  size_t handleFunction(const std::vector<size_t> &Decl, size_t NameIdx,
                        const std::vector<Scope> &Scopes, size_t BodyOpen) {
    FunctionDef F;
    const CxxToken &NameTok = Toks[Decl[NameIdx]];
    F.Name = NameTok.Text;
    F.File = File;
    F.Line = NameTok.Line;
    F.Col = NameTok.Col;
    if (F.Name == "operator")
      F.Name = "operator?";
    // Destructor: `~GcHeap() {...}`.
    if (NameIdx > 0 && Toks[Decl[NameIdx - 1]].isPunct('~'))
      F.Name = "~" + F.Name;
    // Qualified name: `Class::name(...)` — the identifier before `::`.
    if (NameIdx >= 2 && Toks[Decl[NameIdx - 1]].Text == "::" &&
        Toks[Decl[NameIdx - 2]].is(CxxTokKind::Ident))
      F.ClassName = Toks[Decl[NameIdx - 2]].Text;
    else
      F.ClassName = enclosingClass(Scopes);
    F.MaySafepointAnnot = hasKeyword(Decl, "CHAM_MAY_SAFEPOINT");
    F.NoSafepointAnnot = hasKeyword(Decl, "CHAM_NO_SAFEPOINT");

    size_t BodyEnd = skipBalanced(BodyOpen, '{', '}');
    scanBody(F, BodyOpen + 1, BodyEnd > 0 ? BodyEnd - 1 : BodyOpen + 1);
    Model.Functions.push_back(std::move(F));
    return BodyEnd;
  }

  /// Last identifier within the paren group opening at \p OpenIdx; used
  /// for lock expressions (`State.Lists[I].Mu` -> "Mu"). \p FirstArgOnly
  /// stops at the first top-level comma (guard constructors may take tag
  /// arguments after the lock).
  std::string lastIdentInParens(size_t OpenIdx, bool FirstArgOnly) const {
    int Depth = 0;
    std::string Last;
    for (size_t I = OpenIdx; I < Toks.size(); ++I) {
      const CxxToken &T = Toks[I];
      if (T.isPunct('(') || T.isPunct('[') || T.isPunct('{')) {
        ++Depth;
      } else if (T.isPunct(')') || T.isPunct(']') || T.isPunct('}')) {
        if (--Depth == 0)
          break;
      } else if (T.isPunct(',') && Depth == 1 && FirstArgOnly) {
        break;
      } else if (T.is(CxxTokKind::Ident) && Depth >= 1) {
        Last = T.Text;
      }
    }
    return Last;
  }

  /// Scans one function body [Begin, End) for facts.
  void scanBody(FunctionDef &F, size_t Begin, size_t End) {
    uint32_t Depth = 1;
    for (size_t I = Begin; I < End; ++I) {
      const CxxToken &T = Toks[I];
      if (T.isPunct('{')) {
        ++Depth;
        continue;
      }
      if (T.isPunct('}')) {
        // Close guards scoped to the departing depth.
        for (LockAcquire &L : F.Locks)
          if (!L.DirectLock && L.ReleaseSeq == ~0u && L.GuardDepth >= Depth)
            L.ReleaseSeq = static_cast<uint32_t>(I);
        if (Depth > 0)
          --Depth;
        continue;
      }
      if (!T.is(CxxTokKind::Ident))
        continue;

      if (T.Text == "CHAM_FAULT_GC")
        F.HasFaultGcSite = true;

      // `new` expression or an explicit `::operator new(...)` call — inside
      // a body both allocate (operator-new *definitions* are decl runs and
      // never reach this scanner).
      if (T.Text == "new") {
        F.Allocs.push_back({T.Line, T.Col, static_cast<uint32_t>(I)});
        continue;
      }

      // RAII guards. `SpinLockGuard G(Mu);`
      if (T.Text == "SpinLockGuard" && tok(I + 1).is(CxxTokKind::Ident) &&
          tok(I + 2).isPunct('(')) {
        LockAcquire L;
        L.LockName = lastIdentInParens(I + 2, /*FirstArgOnly=*/true);
        L.Line = T.Line;
        L.Col = T.Col;
        L.Seq = static_cast<uint32_t>(I);
        L.GuardDepth = Depth;
        L.SpinGuard = true;
        F.Locks.push_back(std::move(L));
        I = skipBalanced(I + 2, '(', ')') - 1;
        continue;
      }
      // `std::lock_guard<std::mutex> L(AllocMu);` and friends.
      if (isGuardTypeName(T.Text)) {
        size_t J = I + 1;
        if (tok(J).isPunct('<')) { // skip the template argument
          int AD = 0;
          for (; J < End; ++J) {
            if (Toks[J].isPunct('<'))
              ++AD;
            else if (Toks[J].isPunct('>') && --AD == 0) {
              ++J;
              break;
            }
          }
        }
        if (tok(J).is(CxxTokKind::Ident) && tok(J + 1).isPunct('(')) {
          LockAcquire L;
          L.LockName = lastIdentInParens(J + 1, /*FirstArgOnly=*/true);
          L.Line = T.Line;
          L.Col = T.Col;
          L.Seq = static_cast<uint32_t>(I);
          L.GuardDepth = Depth;
          F.Locks.push_back(std::move(L));
          I = skipBalanced(J + 1, '(', ')') - 1;
        }
        continue;
      }
      // Direct `X.lock()` / `X.lockCounted(...)` / `X.unlock()`.
      if ((T.Text == "lock" || T.Text == "lockCounted" ||
           T.Text == "unlock") &&
          I > Begin &&
          (Toks[I - 1].isPunct('.') || Toks[I - 1].Text == "->") &&
          tok(I + 1).isPunct('(') && I >= 2 &&
          Toks[I - 2].is(CxxTokKind::Ident)) {
        if (T.Text == "unlock") {
          F.Unlocks.push_back({Toks[I - 2].Text, static_cast<uint32_t>(I)});
        } else {
          LockAcquire L;
          L.LockName = Toks[I - 2].Text;
          L.Line = T.Line;
          L.Col = T.Col;
          L.Seq = static_cast<uint32_t>(I);
          L.DirectLock = true;
          F.Locks.push_back(std::move(L));
        }
        I = skipBalanced(I + 1, '(', ')') - 1;
        continue;
      }

      // Raw heap-reference local: `HeapObject *P = ...` / `T &R = ..getAs..`.
      if (tok(I + 1).is(CxxTokKind::Punct) &&
          (tok(I + 1).Text == "&" || tok(I + 1).Text == "*") &&
          tok(I + 2).is(CxxTokKind::Ident) && tok(I + 3).isPunct('=') &&
          !callKeywords().count(T.Text)) {
        bool IsHeapObjPtr = T.Text == "HeapObject";
        bool ViaGetAs = false;
        for (size_t J = I + 4; J < End && !Toks[J].isPunct(';'); ++J)
          if (Toks[J].isIdent("getAs")) {
            ViaGetAs = true;
            break;
          }
        if (IsHeapObjPtr || ViaGetAs) {
          RawRefLocal R;
          R.Name = tok(I + 2).Text;
          R.Line = tok(I + 2).Line;
          R.Col = tok(I + 2).Col;
          R.DeclSeq = static_cast<uint32_t>(I + 2);
          F.RawRefs.push_back(std::move(R));
        }
        // fall through: the initializer may contain calls we still want
      }

      // Call site: `ident (`.
      if (tok(I + 1).isPunct('(') && !callKeywords().count(T.Text)) {
        if (isAllocCallName(T.Text))
          F.Allocs.push_back({T.Line, T.Col, static_cast<uint32_t>(I)});
        CallSite C;
        C.Callee = T.Text;
        C.Line = T.Line;
        C.Col = T.Col;
        C.Seq = static_cast<uint32_t>(I);
        if (I > Begin) {
          const CxxToken &Prev = Toks[I - 1];
          if (Prev.isPunct('.') || Prev.Text == "->")
            C.MemberAccess = true;
          else if (Prev.Text == "::" && I >= 2 &&
                   Toks[I - 2].is(CxxTokKind::Ident))
            C.Qualifier = Toks[I - 2].Text;
        }
        F.Calls.push_back(std::move(C));
        continue;
      }
      // Allocation templates spelled with '<': make_unique<T>(...).
      if (isAllocCallName(T.Text) && tok(I + 1).isPunct('<'))
        F.Allocs.push_back({T.Line, T.Col, static_cast<uint32_t>(I)});
    }

    // Unreleased locks run to the end of the body; direct locks close at
    // their first unlock of the same name after the acquire.
    for (LockAcquire &L : F.Locks) {
      if (L.DirectLock) {
        for (const LockRelease &U : F.Unlocks)
          if (U.LockName == L.LockName && U.Seq > L.Seq) {
            L.ReleaseSeq = U.Seq;
            break;
          }
      }
      if (L.ReleaseSeq == ~0u)
        L.ReleaseSeq = static_cast<uint32_t>(End);
    }

    // Uses of raw-reference locals after their declaration.
    for (RawRefLocal &R : F.RawRefs)
      for (size_t I = R.DeclSeq + 1; I < End; ++I)
        if (Toks[I].is(CxxTokKind::Ident) && Toks[I].Text == R.Name)
          R.Uses.push_back({static_cast<uint32_t>(I), Toks[I].Line});
  }

  const std::string &File;
  const std::vector<CxxToken> &Toks;
  FileModel Model;
};

} // namespace

FileModel extractFile(const std::string &File, const std::string &Source) {
  LexedFile Lexed = lexCxx(Source);
  FileModel Model = Extractor(File, Lexed).run();
  Model.Tokens = Lexed.Toks.empty() ? 0 : Lexed.Toks.size() - 1; // sans Eof
  return Model;
}

} // namespace chameleon::analysis
