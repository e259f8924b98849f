//===- ExecCore.h - The shared LIR execution core ---------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One execution core for the full semantics (Fig. 2 + Fig. 6), shared by
/// both engines: FullInterpreter is a run-to-completion driver over it and
/// StepInterpreter a resumable program-counter cursor. The core executes
/// the LIR tier (ir/Lir.h) — the timing-IR flattened into register-slot
/// micro-ops — and owns everything a transition involves:
///
///   - expression evaluation as register-transfer micro-ops (no run-time
///     value stack: operand registers and addresses are precomputed);
///   - cost charging: BaseStep + I-fetch + data accesses + ALU costs
///     (+ Branch for guards; sleep is a calibrated timer with no fetch);
///   - hardware access through the machine environment under the
///     instruction's precomputed [er, ew] labels — the machine env is the
///     security boundary and the LIR tier does not move it;
///   - predictive mitigation windows (Fig. 6): a frame stack of open
///     mitigate sites, settled by MitEnd exactly like the paper's
///     MitigateEnd continuation;
///   - observation: the run's observers, resolved once at construction
///     into one RunObserver (sem/Provenance.h), see every dispatch,
///     branch and settled window; when one of them reads costs, the core
///     keeps the attribution cursor (location + innermost open site) up to
///     date and hooks the machine environment for the run, restoring the
///     displaced hook when it halts or is destroyed.
///
/// step() executes exactly one logical transition (one instruction);
/// run() is nothing but the step() loop, so the big-step and small-step
/// drivers share a single transition discipline and every observable is
/// bit-identical whichever drives the core.
///
/// The compiled program (sem/CompiledProgram.h) is immutable and shared;
/// the core holds all run state, so engines stay thin wrappers that only
/// decide when to call step()/run().
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_EXECCORE_H
#define ZAM_SEM_EXECCORE_H

#include "hw/MachineEnv.h"
#include "ir/Ir.h"
#include "ir/Lir.h"
#include "sem/CompiledProgram.h"
#include "sem/Eval.h"
#include "sem/Event.h"
#include "sem/FullInterpreter.h"
#include "sem/Memory.h"
#include "sem/Mitigation.h"
#include "sem/Provenance.h"

#include <vector>

namespace zam {

class ExecCore final : public HwObserver {
public:
  /// Executes \p C (which must outlive the core) from initial memory
  /// \p InitM on \p Env, reporting to the observers \p Opts names.
  ExecCore(const CompiledProgram &C, Memory InitM, MachineEnv &Env,
           RunOptions Opts);
  ~ExecCore() override;
  ExecCore(const ExecCore &) = delete;
  ExecCore &operator=(const ExecCore &) = delete;

  /// Whether the configuration has reached ⟨stop, m, E, G⟩ (or the step
  /// limit).
  bool done() const { return Halted; }

  /// Performs exactly one logical transition (one instruction). No-op when
  /// done.
  void step();

  /// Runs to completion: step() until done. Interleaves freely with
  /// step().
  void run();

  Memory &memory() { return M; }
  const Memory &memory() const { return M; }
  uint64_t clock() const { return G; }
  Trace &trace() { return T; }
  const Trace &trace() const { return T; }
  const MitigationState &mitigationState() const { return MitState; }

  /// The source command the next transition executes (nullptr when done).
  const Cmd *currentCmd() const {
    return Halted ? nullptr : Code[PC].Origin;
  }

private:
  /// The hardware hook, installed on Env while a cost observer listens:
  /// forwards each access under the cursor and the step's start clock.
  void onAccess(const HwAccess &Access) override {
    Obs->onAccess(Cur, G, Access);
  }
  /// Restores the hook this core displaced from Env (once).
  void unhook();

  /// Per-opcode bodies. Each begins with the shared dispatch head
  /// (cursor + dispatch event) and fully executes one logical transition.
  void execSkip(const LirInst &I);
  void execAssign(const LirInst &I);
  void execStore(const LirInst &I);
  void execBranch(const LirInst &I);
  void execSleep(const LirInst &I);
  void execMitEnter(const LirInst &I);
  void execMitEnd(const LirInst &I);
  /// One logical transition of the instruction at \p I (a switch over the
  /// bodies above). Never called on Halt.
  void execInstr(const LirInst &I);

  void finalize();
  void head(const LirInst &I) {
    // Attribution: every transition moves the cursor to its instruction's
    // source location before any of its costs (including the I-fetch).
    if (ObservesCosts)
      Cur.Loc = I.Loc;
    if (Obs)
      Obs->onDispatch(PC);
  }
  uint64_t stepBase(const LirInst &I) {
    return BaseStepCost + Env.fetch(I.CodeAddr, I.Read, I.Write);
  }
  void charge(CycleKind K, uint64_t N) {
    if (ObservesCosts)
      Obs->onCycles(Cur, K, N);
  }
  /// Executes the micro-op span [\p U, \p U + \p N) of \p I and returns
  /// its value. Restores the cursor to the instruction's own location, so
  /// costs charged after evaluation attribute to the command.
  int64_t evalSpan(const LirInst &I, uint32_t U, uint32_t N,
                   uint64_t &Cycles);
  void record(const MemorySlot &S, bool IsArray, uint64_t Index,
              int64_t Value);

  /// A mitigate window opened by MitEnter and pending settlement.
  struct MitFrame {
    unsigned Eta = 0;
    int64_t Estimate = 0;
    Label Level;
    Label Pc;
    uint64_t Start = 0; ///< s_η: G at completion of the entry step.
    /// The site's resolved schedule (from the MitEnter instruction; never
    /// null once a frame is open). Settlement prices with exactly this
    /// policy, so per-site overrides stay per-site even when the Miss
    /// table is shared.
    const MitigationPolicy *Policy = nullptr;
  };

  const CompiledProgram &Compiled;
  MachineEnv &Env;
  /// The resolved observer (null when nothing listens) and whether it
  /// reads costs; fixed at construction.
  RunObserver *Obs = nullptr;
  bool ObservesCosts = false;
  /// Hot copies of the per-dispatch cost fields: the dispatch loop reads
  /// these every transition, and pulling them next to the rest of the run
  /// state spares it the walk through the compiled program.
  uint64_t BaseStepCost;
  uint64_t AluCost;
  uint64_t BranchCost;
  uint64_t StepLimit;
  Memory M;
  MitigationState OwnMitState;
  MitigationState &MitState;
  const LirInst *Code; ///< The logical instruction array.
  const LirUop *Uops;  ///< The shared micro-op pool.
  Trace T;
  uint64_t G = 0;
  uint32_t PC = 0;
  bool Halted = false;
  /// Cur.Loc is kept up to date only while ObservesCosts: cost events are
  /// its only reader.
  CostCursor Cur;
  std::vector<MitFrame> Frames;
  std::vector<int64_t> Regs; ///< The micro-op register file (NumRegs).
  /// Per-slot element-0 pointers: the load fast path indexes straight into
  /// slot storage without touching Memory's bookkeeping. Stores still go
  /// through Memory::slotAt (they need the slot metadata for the event
  /// record anyway).
  std::vector<const int64_t *> SlotData;
  /// The members behind Obs (declared after T, whose miss log it fills).
  ObserverSet Observers;
  /// The hook this core displaced from Env, while its own is installed.
  bool Hooked = false;
  HwObserver *Displaced = nullptr;
};

} // namespace zam

#endif // ZAM_SEM_EXECCORE_H
