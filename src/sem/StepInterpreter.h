//===- StepInterpreter.h - Resumable small-step full semantics --*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resumable engine for the full semantics: a program-counter cursor
/// over the same flat timing-IR and shared execution core
/// (sem/ExecCore.h) that the run-to-completion driver uses. One step() is
/// exactly one transition of the paper's small-step rules (Fig. 2 plus the
/// predictive rules of Fig. 6):
///
///   c1;c2 steps into c1's instructions (Seq lowers away entirely)
///   while e do c  →  a loop branch with a back edge      (one step/guard)
///   mitigate_η (e,ℓ) c  →  MitEnter ... body ... MitEnd  (S-MTGPRED)
///
/// This engine exists so that single transitions are first-class: the
/// dynamic checkers for Properties 1-7 (analysis/PropertyCheckers.h) drive
/// it one step at a time. Because both engines execute the same IR through
/// the same core, it charges exactly the same costs as the fast driver;
/// the agreement is additionally checked cycle-for-cycle by the
/// property-based tests.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_STEPINTERPRETER_H
#define ZAM_SEM_STEPINTERPRETER_H

#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/ExecCore.h"
#include "sem/FullInterpreter.h"
#include "sem/Memory.h"
#include "sem/Mitigation.h"

#include <memory>

namespace zam {

/// Small-step engine over a configuration ⟨c, m, E, G⟩. The command
/// component is a program counter into the lowered IR; ⟨stop⟩ is the Halt
/// instruction.
class StepInterpreter {
public:
  /// Begins executing \p P on \p Env (compiled privately under Opts.Costs
  /// and Opts.Mitigation).
  StepInterpreter(const Program &P, MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());

  /// Begins executing a bare command \p C under the declarations of \p P.
  /// Used by the property checkers to run single labeled commands. The
  /// command is compiled at construction (and must therefore carry complete
  /// timing labels) and kept alive for the engine's lifetime.
  StepInterpreter(const Program &P, CmdPtr C, Memory InitialMemory,
                  MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());

  /// Begins executing the shared program \p C (which must outlive the
  /// engine) from \p InitialMemory (for instance a copy of C's image).
  StepInterpreter(const CompiledProgram &C, Memory InitialMemory,
                  MachineEnv &Env, RunOptions Opts = RunOptions());

  /// Movable (the property checkers return engines by value). The core —
  /// and with it the hardware hook it owns — lives behind a stable
  /// pointer, so moving the wrapper is just a pointer handover.
  StepInterpreter(StepInterpreter &&) = default;
  StepInterpreter &operator=(StepInterpreter &&) = delete;

  /// Whether the configuration has reached ⟨stop, m, E, G⟩.
  bool done() const { return Core->done(); }

  /// Performs exactly one transition. No-op when done.
  void step() { Core->step(); }

  /// Steps until done or the step limit is hit; returns the final trace.
  Trace runToCompletion();

  const Memory &memory() const { return Core->memory(); }
  Memory &memory() { return Core->memory(); }
  uint64_t clock() const { return Core->clock(); }
  const Trace &trace() const { return Core->trace(); }
  /// The source command the next transition executes (nullptr when done).
  /// Seq nodes lower away, so this is always a primitive command, a guard
  /// (if/while), or a mitigate about to enter or settle.
  const Cmd *current() const { return Core->currentCmd(); }
  const MitigationState &mitigationState() const {
    return Core->mitigationState();
  }

private:
  /// The compiled program when this engine compiled it itself (declared
  /// before Core, which borrows it).
  std::unique_ptr<CompiledProgram> Owned;
  std::unique_ptr<ExecCore> Core;
};

} // namespace zam

#endif // ZAM_SEM_STEPINTERPRETER_H
