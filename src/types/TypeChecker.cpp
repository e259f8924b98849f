//===- TypeChecker.cpp ----------------------------------------------------===//

#include "types/TypeChecker.h"

#include "lang/StaticLabels.h"
#include "support/Casting.h"

using namespace zam;

TypeChecker::TypeChecker(const Program &P, DiagnosticEngine &Diags,
                         TypeCheckOptions Opts)
    : P(P), Diags(Diags), Opts(Opts), Lat(P.lattice()) {}

void TypeChecker::error(const Cmd &C, const std::string &Message, bool Quiet) {
  Failed = true;
  if (!Quiet)
    Diags.error(C.loc(), Message);
}

//===----------------------------------------------------------------------===//
// Declarations and expression shapes
//===----------------------------------------------------------------------===//

bool TypeChecker::checkExprShape(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::IntLit:
    return true;
  case Expr::Kind::Var: {
    const VarDecl *D = P.findVar(cast<VarExpr>(E).name());
    if (!D) {
      Diags.error(E.loc(),
                  "use of undeclared variable '" + cast<VarExpr>(E).name() +
                      "'");
      return false;
    }
    if (D->IsArray) {
      Diags.error(E.loc(), "array '" + D->Name + "' used without an index");
      return false;
    }
    return true;
  }
  case Expr::Kind::ArrayRead: {
    const auto &AR = cast<ArrayReadExpr>(E);
    const VarDecl *D = P.findVar(AR.array());
    bool Ok = true;
    if (!D) {
      Diags.error(E.loc(), "use of undeclared array '" + AR.array() + "'");
      Ok = false;
    } else if (!D->IsArray) {
      Diags.error(E.loc(), "scalar '" + D->Name + "' indexed like an array");
      Ok = false;
    }
    return checkExprShape(AR.index()) && Ok;
  }
  case Expr::Kind::BinOp: {
    const auto &BO = cast<BinOpExpr>(E);
    bool L = checkExprShape(BO.lhs());
    bool R = checkExprShape(BO.rhs());
    return L && R;
  }
  case Expr::Kind::UnOp:
    return checkExprShape(cast<UnOpExpr>(E).sub());
  }
  return false;
}

namespace {
/// Walks every expression of every command through a callback.
template <typename Fn> bool forEachCmdExpr(const Cmd &C, Fn &&Visit) {
  switch (C.kind()) {
  case Cmd::Kind::Skip:
    return true;
  case Cmd::Kind::Assign:
    return Visit(cast<AssignCmd>(C).value());
  case Cmd::Kind::ArrayAssign: {
    const auto &A = cast<ArrayAssignCmd>(C);
    bool I = Visit(A.index());
    bool V = Visit(A.value());
    return I && V;
  }
  case Cmd::Kind::Seq: {
    const auto &S = cast<SeqCmd>(C);
    bool A = forEachCmdExpr(S.first(), Visit);
    bool B = forEachCmdExpr(S.second(), Visit);
    return A && B;
  }
  case Cmd::Kind::If: {
    const auto &I = cast<IfCmd>(C);
    bool G = Visit(I.cond());
    bool A = forEachCmdExpr(I.thenCmd(), Visit);
    bool B = forEachCmdExpr(I.elseCmd(), Visit);
    return G && A && B;
  }
  case Cmd::Kind::While: {
    const auto &W = cast<WhileCmd>(C);
    bool G = Visit(W.cond());
    bool B = forEachCmdExpr(W.body(), Visit);
    return G && B;
  }
  case Cmd::Kind::Mitigate: {
    const auto &M = cast<MitigateCmd>(C);
    bool E = Visit(M.initialEstimate());
    bool B = forEachCmdExpr(M.body(), Visit);
    return E && B;
  }
  case Cmd::Kind::Sleep:
    return Visit(cast<SleepCmd>(C).duration());
  }
  return false;
}

/// Collects assignment targets so their declarations can be validated.
void checkAssignTargets(const Cmd &C, const Program &P,
                        DiagnosticEngine &Diags, bool &Ok) {
  switch (C.kind()) {
  case Cmd::Kind::Assign: {
    const auto &A = cast<AssignCmd>(C);
    const VarDecl *D = P.findVar(A.var());
    if (!D) {
      Diags.error(C.loc(), "assignment to undeclared variable '" + A.var() +
                               "'");
      Ok = false;
    } else if (D->IsArray) {
      Diags.error(C.loc(),
                  "assignment to array '" + A.var() + "' without an index");
      Ok = false;
    }
    return;
  }
  case Cmd::Kind::ArrayAssign: {
    const auto &A = cast<ArrayAssignCmd>(C);
    const VarDecl *D = P.findVar(A.array());
    if (!D) {
      Diags.error(C.loc(),
                  "assignment to undeclared array '" + A.array() + "'");
      Ok = false;
    } else if (!D->IsArray) {
      Diags.error(C.loc(), "scalar '" + A.array() + "' assigned like an array");
      Ok = false;
    }
    return;
  }
  case Cmd::Kind::Seq: {
    const auto &S = cast<SeqCmd>(C);
    checkAssignTargets(S.first(), P, Diags, Ok);
    checkAssignTargets(S.second(), P, Diags, Ok);
    return;
  }
  case Cmd::Kind::If: {
    const auto &I = cast<IfCmd>(C);
    checkAssignTargets(I.thenCmd(), P, Diags, Ok);
    checkAssignTargets(I.elseCmd(), P, Diags, Ok);
    return;
  }
  case Cmd::Kind::While:
    checkAssignTargets(cast<WhileCmd>(C).body(), P, Diags, Ok);
    return;
  case Cmd::Kind::Mitigate:
    checkAssignTargets(cast<MitigateCmd>(C).body(), P, Diags, Ok);
    return;
  default:
    return;
  }
}
} // namespace

bool TypeChecker::checkDeclarations() {
  if (!P.hasBody()) {
    Diags.error(SourceLoc(), "program has no body");
    return false;
  }
  bool Ok = forEachCmdExpr(P.body(),
                           [this](const Expr &E) { return checkExprShape(E); });
  checkAssignTargets(P.body(), P, Diags, Ok);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Expression labels
//===----------------------------------------------------------------------===//

Label TypeChecker::exprType(const Expr &E) { return exprLabel(E, P); }

Label TypeChecker::addressLabel(const Expr &E) {
  return addressDependenceLabel(E, P);
}

//===----------------------------------------------------------------------===//
// The command judgment
//===----------------------------------------------------------------------===//

Label TypeChecker::checkCmd(const Cmd &C, Label Pc, Label Tau, bool Quiet) {
  if (C.kind() == Cmd::Kind::Seq) {
    // T-SEQ: Γ,pc,τ ⊢ c1 : τ1 and Γ,pc,τ1 ⊢ c2 : τ2.
    const auto &S = cast<SeqCmd>(C);
    Label Tau1 = checkCmd(S.first(), Pc, Tau, Quiet);
    return checkCmd(S.second(), Pc, Tau1, Quiet);
  }

  if (!C.labels().complete()) {
    error(C, "command lacks timing labels; run label inference first", Quiet);
    if (!Quiet)
      EndLabels.emplace(C.nodeId(), Tau);
    return Tau;
  }

  const Label Er = *C.labels().Read;
  const Label Ew = *C.labels().Write;

  // Premise shared by every rule: pc ⊑ ew. Together with Property 5 this
  // keeps control-flow secrets out of low machine-environment state.
  if (!Lat.flowsTo(Pc, Ew))
    error(C,
          "program-counter label " + Lat.name(Pc) +
              " does not flow to write label " + Lat.name(Ew),
          Quiet);

  if (Opts.RequireEqualTimingLabels && Er != Ew)
    error(C,
          "commodity hardware requires equal timing labels, got read " +
              Lat.name(Er) + " and write " + Lat.name(Ew),
          Quiet);

  // Array extension: data-dependent addresses may be installed into
  // ew-level machine state, so every index label must flow to ew.
  auto CheckAddress = [&](const Expr &E) {
    Label AddrL = addressLabel(E);
    if (!Lat.flowsTo(AddrL, Ew))
      error(C,
            "array index label " + Lat.name(AddrL) +
                " does not flow to write label " + Lat.name(Ew),
            Quiet);
  };

  Label Result = Tau;
  switch (C.kind()) {
  case Cmd::Kind::Skip:
    // T-SKIP: τ′ = τ ⊔ er.
    Result = Lat.join(Tau, Er);
    break;

  case Cmd::Kind::Assign: {
    // T-ASGN: ℓe ⊔ pc ⊔ τ ⊔ er ⊑ Γ(x); τ′ = Γ(x).
    const auto &A = cast<AssignCmd>(C);
    const VarDecl *D = P.findVar(A.var());
    if (!D) {
      Result = Tau;
      break;
    }
    CheckAddress(A.value());
    Label Le = exprType(A.value());
    Label Bound = Lat.join(Lat.join(Le, Pc), Lat.join(Tau, Er));
    if (!Lat.flowsTo(Bound, D->SecLabel))
      error(C,
            "assignment to '" + A.var() + "' leaks " + Lat.name(Bound) +
                " information into a " + Lat.name(D->SecLabel) + " variable",
            Quiet);
    Result = D->SecLabel;
    break;
  }

  case Cmd::Kind::ArrayAssign: {
    // Array form of T-ASGN: the index label joins into the flow premise.
    const auto &A = cast<ArrayAssignCmd>(C);
    const VarDecl *D = P.findVar(A.array());
    if (!D) {
      Result = Tau;
      break;
    }
    CheckAddress(A.index());
    CheckAddress(A.value());
    Label LIdx = exprType(A.index());
    if (!Lat.flowsTo(LIdx, Ew))
      error(C,
            "array store index label " + Lat.name(LIdx) +
                " does not flow to write label " + Lat.name(Ew),
            Quiet);
    Label Le = Lat.join(exprType(A.value()), LIdx);
    Label Bound = Lat.join(Lat.join(Le, Pc), Lat.join(Tau, Er));
    if (!Lat.flowsTo(Bound, D->SecLabel))
      error(C,
            "assignment to '" + A.array() + "' leaks " + Lat.name(Bound) +
                " information into a " + Lat.name(D->SecLabel) + " array",
            Quiet);
    Result = D->SecLabel;
    break;
  }

  case Cmd::Kind::Sleep: {
    // T-SLEEP: τ′ = τ ⊔ ℓe ⊔ er.
    const auto &S = cast<SleepCmd>(C);
    CheckAddress(S.duration());
    Result = Lat.join(Tau, Lat.join(exprType(S.duration()), Er));
    break;
  }

  case Cmd::Kind::If: {
    // T-IF: branches under pc ⊔ ℓe with start ℓe ⊔ τ ⊔ er; τ′ = τ1 ⊔ τ2.
    const auto &I = cast<IfCmd>(C);
    CheckAddress(I.cond());
    Label Le = exprType(I.cond());
    Label BranchPc = Lat.join(Le, Pc);
    Label BranchTau = Lat.join(Le, Lat.join(Tau, Er));
    Label Tau1 = checkCmd(I.thenCmd(), BranchPc, BranchTau, Quiet);
    Label Tau2 = checkCmd(I.elseCmd(), BranchPc, BranchTau, Quiet);
    Result = Lat.join(Tau1, Tau2);
    break;
  }

  case Cmd::Kind::While: {
    // T-WHILE: the least τ′ with ℓe ⊔ τ ⊔ er ⊑ τ′ that is closed under the
    // body: Γ, ℓe ⊔ pc, τ′ ⊢ c : τ′. Computed by fixpoint iteration (the
    // lattice is finite); intermediate iterations are quiet so each real
    // violation is reported once.
    const auto &W = cast<WhileCmd>(C);
    CheckAddress(W.cond());
    Label Le = exprType(W.cond());
    Label BodyPc = Lat.join(Le, Pc);
    Label TauPrime = Lat.join(Le, Lat.join(Tau, Er));
    for (unsigned Iter = 0; Iter <= Lat.size(); ++Iter) {
      Label Next = checkLoopBodyQuietly(W, BodyPc, TauPrime);
      Label Joined = Lat.join(TauPrime, Next);
      if (Joined == TauPrime)
        break;
      TauPrime = Joined;
    }
    // Final pass, reporting unless this whole check is quiet.
    if (Quiet)
      checkLoopBodyQuietly(W, BodyPc, TauPrime);
    else
      checkCmd(W.body(), BodyPc, TauPrime, /*Quiet=*/false);
    Result = TauPrime;
    break;
  }

  case Cmd::Kind::Mitigate: {
    // T-MTG: body under the same pc with start τ ⊔ ℓe ⊔ er; its end label
    // must flow to the mitigation level ℓ′; the mitigate's own end label
    // accounts only for evaluating e: τ′ = ℓe ⊔ τ ⊔ er.
    const auto &Mit = cast<MitigateCmd>(C);
    CheckAddress(Mit.initialEstimate());
    Label Le = exprType(Mit.initialEstimate());
    Label BodyTau = Lat.join(Tau, Lat.join(Le, Er));
    Label BodyEnd = checkCmd(Mit.body(), Pc, BodyTau, Quiet);
    if (!Lat.flowsTo(BodyEnd, Mit.mitLevel()))
      error(C,
            "mitigated body's timing label " + Lat.name(BodyEnd) +
                " exceeds the mitigation level " + Lat.name(Mit.mitLevel()),
            Quiet);
    Result = Lat.join(Le, Lat.join(Tau, Er));
    break;
  }

  case Cmd::Kind::Seq:
    break; // Handled above.
  }

  if (!Quiet)
    EndLabels[C.nodeId()] = Result;
  return Result;
}

Label TypeChecker::checkLoopBodyQuietly(const WhileCmd &W, Label Pc,
                                        Label Tau) {
  const auto Key = std::make_tuple(&W, Pc.index(), Tau.index());
  auto It = QuietLoopBodies.find(Key);
  if (It == QuietLoopBodies.end()) {
    const bool FailedBefore = Failed;
    Failed = false;
    Label End = checkCmd(W.body(), Pc, Tau, /*Quiet=*/true);
    It = QuietLoopBodies.emplace(Key, QuietResult{End, Failed}).first;
    Failed = FailedBefore;
  }
  Failed = Failed || It->second.Failed;
  return It->second.End;
}

bool TypeChecker::check() {
  Failed = false;
  if (!checkDeclarations())
    return false;
  Label End = checkCmd(P.body(), Lat.bottom(), Lat.bottom(), /*Quiet=*/false);
  if (!Failed)
    ProgramEnd = End;
  return !Failed;
}

std::optional<Label> TypeChecker::endLabelOf(unsigned NodeId) const {
  auto It = EndLabels.find(NodeId);
  if (It == EndLabels.end())
    return std::nullopt;
  return It->second;
}

bool zam::typeCheck(const Program &P, DiagnosticEngine &Diags,
                    TypeCheckOptions Opts) {
  TypeChecker Checker(P, Diags, Opts);
  return Checker.check();
}
