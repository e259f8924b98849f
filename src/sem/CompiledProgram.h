//===- CompiledProgram.h - Compiled once, run many times --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything about a run of the full semantics that depends only on
/// (program, cost model, mitigation policies): the timing-IR and LIR tiers,
/// the slot layout they bake in, and the initial memory image built from
/// the declarations. A CompiledProgram is built once and is immutable
/// afterwards, so any number of runs — on any number of threads — borrow
/// one as const; each run copies the image and keeps its own register
/// file, clock, trace and Miss table in the execution core.
///
/// The cost model and policy selection are part of the compiled form
/// (lowering bakes code addresses, slot addresses and each mitigate site's
/// schedule into the instructions), so a run cannot change them: the
/// per-run options (RunOptions in sem/FullInterpreter.h) carry only the
/// Miss-table, step-limit and observer settings.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_COMPILEDPROGRAM_H
#define ZAM_SEM_COMPILEDPROGRAM_H

#include "ir/Ir.h"
#include "ir/Lir.h"
#include "lang/Ast.h"
#include "sem/CostModel.h"
#include "sem/Memory.h"
#include "sem/Mitigation.h"

namespace zam {

class CompiledProgram {
public:
  /// Compiles \p P's body (which must outlive this object). Aborts on a
  /// command without complete timing labels, like lowerProgram.
  explicit CompiledProgram(const Program &P, const CostModel &Costs = {},
                           const PolicySelection &Mitigation = {});

  /// Compiles the detached command \p C against \p P's declarations (the
  /// property checkers run single labeled commands). The command is kept
  /// alive here, since the tiers point into it for provenance. No image is
  /// built: a detached command runs from a memory its caller supplies, so
  /// initialMemory() stays empty.
  CompiledProgram(const Program &P, CmdPtr C, const CostModel &Costs = {},
                  const PolicySelection &Mitigation = {});

  /// The LIR borrows the IR by address: neither copyable nor movable.
  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;

  const Program &program() const { return P; }
  const CostModel &costs() const { return Costs; }
  const PolicySelection &mitigation() const { return Mitigation; }
  const IrProgram &ir() const { return IR; }
  const LirProgram &lir() const { return LIR; }

  /// The memory every run starts from: the declarations laid out from
  /// costs().DataBase in the slot order the tiers index.
  const Memory &initialMemory() const { return Image; }

  /// Moves the image out, leaving initialMemory() empty. Only a sole,
  /// non-const owner that runs the program once may call it (the one-shot
  /// engine constructors), so the image is built once and never copied.
  Memory releaseImage() { return std::move(Image); }

private:
  const Program &P;
  CmdPtr Owned; ///< The detached command, when there is one.
  CostModel Costs;
  PolicySelection Mitigation;
  IrProgram IR;
  LirProgram LIR;
  Memory Image;
};

} // namespace zam

#endif // ZAM_SEM_COMPILEDPROGRAM_H
