//===- TypeChecker.h - The Fig. 4 security type system ----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The security type system of Sec. 5 (Fig. 4). Judgments have the form
/// Γ, pc, τ ⊢ c : τ′ where pc is the program-counter label and τ/τ′ are the
/// timing start- and end-labels bounding the information that has flowed
/// into timing before and after c. The implemented rules:
///
///   T-SKIP   pc ⊑ ew                          τ′ = τ ⊔ er
///   T-ASGN   pc ⊑ ew,  ℓe ⊔ pc ⊔ τ ⊔ er ⊑ Γ(x)   τ′ = Γ(x)
///   T-SLEEP  pc ⊑ ew                          τ′ = τ ⊔ ℓe ⊔ er
///   T-SEQ    thread τ through c1 then c2
///   T-IF     branches under pc⊔ℓe, start ℓe ⊔ τ ⊔ er; τ′ = τ1 ⊔ τ2
///   T-WHILE  least τ′ ⊒ ℓe ⊔ τ ⊔ er closed under the body (fixpoint)
///   T-MTG    body under pc, start τ ⊔ ℓe ⊔ er, end ⊑ ℓ′; τ′ = ℓe ⊔ τ ⊔ er
///
/// Array extension (beyond the paper, needed by the case studies): an array
/// access's address depends on the index expression, and the hardware may
/// install that address into machine-environment state at level ew, so
/// every command additionally requires label(index) ⊑ ew for each array
/// access it evaluates; array assignment joins the index label into the
/// ℓe ⊑ Γ(x) premise. This preserves Property 7 in the presence of
/// data-dependent addresses.
///
/// The optional er = ew side condition models commodity cache designs
/// (Secs. 5.1, 8.1), where a read updates replacement state.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_TYPES_TYPECHECKER_H
#define ZAM_TYPES_TYPECHECKER_H

#include "lang/Ast.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>

namespace zam {

struct TypeCheckOptions {
  /// Require er = ew on every command (commodity-hardware side condition;
  /// the paper's implementation enforces this, Sec. 8.1).
  bool RequireEqualTimingLabels = false;
};

/// Checks Γ ⊢ c for a whole program. All commands must carry complete
/// timing labels (run inferTimingLabels first for unannotated programs).
class TypeChecker {
public:
  TypeChecker(const Program &P, DiagnosticEngine &Diags,
              TypeCheckOptions Opts = TypeCheckOptions());

  /// Runs the judgment Γ, ⊥, ⊥ ⊢ body : τ′. \returns true when the program
  /// is well-typed; diagnostics (one per violated premise) otherwise.
  bool check();

  /// Timing end-label computed for a command node (valid after check()).
  std::optional<Label> endLabelOf(unsigned NodeId) const;

  /// The whole program's timing end-label (valid after a successful check).
  std::optional<Label> programEndLabel() const { return ProgramEnd; }

private:
  bool checkDeclarations();
  bool checkExprShape(const Expr &E);
  /// Join of index labels over all array reads in \p E (⊥ when none):
  /// the address-dependence label that must flow to ew.
  Label addressLabel(const Expr &E);
  Label exprType(const Expr &E);
  /// The judgment; returns the end label τ′ (a sound label even after
  /// reported errors, so checking continues).
  Label checkCmd(const Cmd &C, Label Pc, Label Tau, bool Quiet);
  /// checkCmd(W.body(), Pc, Tau, Quiet=true), computed once per (loop, pc,
  /// τ). T-WHILE checks its body at least twice, so without this, loops
  /// nested n deep would take 2^n checks of the innermost body.
  Label checkLoopBodyQuietly(const WhileCmd &W, Label Pc, Label Tau);

  void error(const Cmd &C, const std::string &Message, bool Quiet);

  const Program &P;
  DiagnosticEngine &Diags;
  TypeCheckOptions Opts;
  const SecurityLattice &Lat;
  std::unordered_map<unsigned, Label> EndLabels;
  /// A quiet check's end label and whether it found a violation.
  struct QuietResult {
    Label End;
    bool Failed;
  };
  /// checkLoopBodyQuietly's results, keyed by (loop, pc, τ).
  std::map<std::tuple<const WhileCmd *, uint32_t, uint32_t>, QuietResult>
      QuietLoopBodies;
  std::optional<Label> ProgramEnd;
  bool Failed = false;
};

/// Convenience wrapper.
bool typeCheck(const Program &P, DiagnosticEngine &Diags,
               TypeCheckOptions Opts = TypeCheckOptions());

} // namespace zam

#endif // ZAM_TYPES_TYPECHECKER_H
