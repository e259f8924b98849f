//===- FullInterpreter.h - Run-to-completion IR driver ----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production engine for the full semantics: configurations
/// ⟨c, m, E, G⟩ executed over the flat timing-IR (ir/Ir.h) by the shared
/// execution core (sem/ExecCore.h). Compilation and running are separate:
/// a CompiledProgram (sem/CompiledProgram.h) holds the lowered tiers —
/// variables resolved to memory slots, code addresses, timing labels and
/// attribution locations — and the initial memory image, built once per
/// (program, costs, policies); a FullInterpreter borrows one, starts from
/// a copy of its image, and run() drives the core to completion in a
/// tight program-counter loop. The constructor from a bare Program is the
/// same path for a program run once: it compiles privately and moves the
/// fresh image into the run. It charges exactly the same costs as the
/// resumable small-step cursor (sem/StepInterpreter.h) — both execute the
/// same IR through the same core, and the agreement is additionally
/// checked cycle-for-cycle by the property-based tests.
///
/// Timing of one evaluation step:
///   BaseStep + instruction fetch at the command's code address
///            + data accesses and ALU costs of the expressions evaluated
///            + Branch for if/while, + max(n,0) for sleep.
/// Mitigate commands implement the predictive semantics of Fig. 6: the
/// padded duration of the mitigated body (measured from the completion of
/// the entry step) always equals the schedule's final prediction.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_FULLINTERPRETER_H
#define ZAM_SEM_FULLINTERPRETER_H

#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/CompiledProgram.h"
#include "sem/CostModel.h"
#include "sem/Event.h"
#include "sem/Limits.h"
#include "sem/Memory.h"
#include "sem/Mitigation.h"
#include "sem/Provenance.h"

#include <functional>
#include <memory>
#include <vector>

namespace zam {

class ExecCore;
struct InterpreterOptions;

/// Always false: the execution core has a single dispatch loop. Kept only
/// because the layer ledger's build fingerprint prints it.
bool threadedDispatchAvailable();

/// The settings one run of a compiled program may choose: the Miss table,
/// the step limit and the observers. Costs and policies are fixed by the
/// CompiledProgram; InterpreterOptions (which adds them) converts to
/// RunOptions only explicitly, through runOptions(), so a run can never
/// be handed costs or policies other than the compiled ones.
///
/// The four observer fields (Probe, Provenance, RecordMisses,
/// OnMitigateWindow) are one mechanism: the core resolves them once, at
/// construction, into an ObserverSet (below) and reports through the
/// RunObserver interface (sem/Provenance.h). Both engines apply the same
/// rule, so every observer sees the same events under either.
struct RunOptions {
  RunOptions() = default;
  RunOptions(const InterpreterOptions &) = delete;

  PenaltyPolicy Penalty = PenaltyPolicy::PerLevel;
  /// Bound on primitive evaluation steps (diverging-program safety net;
  /// rationale at the constant's definition).
  uint64_t StepLimit = kDefaultStepLimit;
  /// When set, the interpreter uses (and mutates) this external Miss table
  /// instead of a fresh one, so predictive-mitigation state persists across
  /// runs — e.g. over the requests of one login session (Sec. 8.3). The
  /// state must be over the program's lattice; Penalty (and the selection's
  /// default policy) are ignored in favor of the shared state's own.
  MitigationState *SharedMitState = nullptr;
  /// Record a per-access miss timeline into Trace::Misses. A cost
  /// observer, so it hooks the machine environment for the run (a virtual
  /// call per access); off by default and enabled by the trace exporters.
  bool RecordMisses = false;
  /// Invoked right after a mitigate window settles, with the record just
  /// appended to the trace. This is how the online leakage accountant
  /// (obs/LeakAudit.h) observes windows without sem depending on obs.
  /// Must be deterministic; called on the interpreter's thread.
  std::function<void(const MitigateRecord &)> OnMitigateWindow;
  /// The source profiler's feed (obs/CostLedger.h): an observer that
  /// usually reads costs, each tagged with the attribution cursor. Not
  /// owned.
  RunObserver *Provenance = nullptr;
  /// The engine self-profiler's feed (obs/ExecProfile.h): an observer that
  /// usually reads only dispatches, branch directions and window settles,
  /// so a probe-only run keeps the cursor and the hardware hook off. Not
  /// owned.
  RunObserver *Probe = nullptr;
};

/// One run's observers, resolved from its RunOptions. Each set field adds
/// one member, in the order Probe, Provenance, RecordMisses (a log that
/// appends every access missing somewhere in the hierarchy to the run's
/// Trace::Misses), OnMitigateWindow (a forwarder to the callback). The
/// set observes costs when any member does; it hands every event to every
/// member in that order.
class ObserverSet final : public RunObserver {
public:
  /// Moves \p Opts.OnMitigateWindow into the set; the miss log appends to
  /// \p Log, which must outlive the set.
  ObserverSet(RunOptions &Opts, std::vector<AccessSample> &Log);
  ObserverSet(const ObserverSet &) = delete;
  ObserverSet &operator=(const ObserverSet &) = delete;

  /// The observer a core reports to: null when nothing listens (so an
  /// unobserved run pays one branch per hook site), the member itself when
  /// there is one, and the set otherwise.
  RunObserver *resolved() {
    return Count == 0 ? nullptr : Count == 1 ? Members[0] : this;
  }

  bool observesCosts() const override { return ReadsCosts; }
  void onProgram(const IrProgram &IR) override {
    each(&RunObserver::onProgram, IR);
  }
  void onDispatch(uint32_t Pc) override {
    each(&RunObserver::onDispatch, Pc);
  }
  void onBranch(uint32_t Pc, bool Taken) override {
    each(&RunObserver::onBranch, Pc, Taken);
  }
  void onCycles(const CostCursor &Cur, CycleKind K, uint64_t N) override {
    each(&RunObserver::onCycles, Cur, K, N);
  }
  void onAccess(const CostCursor &Cur, uint64_t Clock,
                const HwAccess &Access) override {
    each(&RunObserver::onAccess, Cur, Clock, Access);
  }
  void onWindow(const CostCursor &Cur, const MitigateRecord &R,
                unsigned Epochs) override {
    each(&RunObserver::onWindow, Cur, R, Epochs);
  }

private:
  /// Appends every access that missed somewhere to a trace's miss log.
  struct MissLog final : RunObserver {
    std::vector<AccessSample> *Out = nullptr;
    bool observesCosts() const override { return true; }
    void onAccess(const CostCursor &Cur, uint64_t Clock,
                  const HwAccess &A) override {
      if (A.TlbMiss || A.L1Miss)
        Out->push_back({A.A, Clock, A.Cycles, A.IsData, A.IsStore, A.TlbMiss,
                        A.L1Miss, A.L2Miss, Cur.Loc.Line});
    }
  };
  /// Hands each settled window to a RunOptions::OnMitigateWindow callback.
  struct WindowHook final : RunObserver {
    std::function<void(const MitigateRecord &)> Fn;
    void onWindow(const CostCursor &, const MitigateRecord &R,
                  unsigned) override {
      Fn(R);
    }
  };

  /// Hands one event to every member, in order.
  template <typename... Params, typename... Args>
  void each(void (RunObserver::*Event)(Params...), const Args &...A) {
    for (unsigned I = 0; I != Count; ++I)
      (Members[I]->*Event)(A...);
  }

  MissLog Misses;
  WindowHook Windows;
  RunObserver *Members[4] = {};
  unsigned Count = 0;
  bool ReadsCosts = false;
};

/// Knobs for a program compiled and run in one go: the compile-time
/// settings plus the per-run ones.
struct InterpreterOptions : RunOptions {
  CostModel Costs;
  /// Which mitigation policy governs each mitigate site: a run-wide default
  /// (fast-doubling when unset) plus optional per-η overrides. Lowering
  /// resolves each mitigate instruction's policy from this selection, and
  /// the same selection must be handed to the leakage accountant / trace
  /// exporter so windows are priced by the policy that scheduled them.
  PolicySelection Mitigation;

  /// The per-run part, for running a program compiled with Costs and
  /// Mitigation.
  const RunOptions &runOptions() const { return *this; }
};

/// Outcome of a full-semantics run.
struct RunResult {
  Memory FinalMemory;
  Trace T;
  /// The machine environment's counters at completion. Cumulative for the
  /// borrowed environment: callers wanting per-run numbers reset the env's
  /// stats (or use a fresh clone) before running.
  HwStats Hw;
};

/// Run-to-completion driver over the shared execution core. The machine
/// environment is borrowed and mutated in place (callers snapshot via
/// MachineEnv::clone()).
///
/// Every non-Seq command in the program must carry complete [er,ew] labels
/// (run type checking / label inference first); violations abort when the
/// program is compiled.
class FullInterpreter {
public:
  /// Compiles \p P under Opts.Costs and Opts.Mitigation and prepares one
  /// run of it; the run starts from the freshly built image.
  FullInterpreter(const Program &P, MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());
  /// Prepares one run of the shared program \p C (which must outlive the
  /// interpreter) from a copy of its initial memory.
  FullInterpreter(const CompiledProgram &C, MachineEnv &Env,
                  RunOptions Opts = RunOptions());
  ~FullInterpreter();
  FullInterpreter(FullInterpreter &&) = delete;

  /// The pre-run memory (initialized from declarations); callers may poke
  /// experiment-specific inputs before run().
  Memory &memory();

  /// Runs the program body to completion and returns the final memory and
  /// trace. The interpreter is single-shot: run() may be called once.
  RunResult run();

  uint64_t clock() const;

private:
  FullInterpreter(std::unique_ptr<CompiledProgram> Owned, MachineEnv &Env,
                  const RunOptions &Opts);

  MachineEnv &Env;
  /// The compiled program when this interpreter compiled it itself.
  std::unique_ptr<CompiledProgram> Owned;
  std::unique_ptr<ExecCore> Core;
  bool Consumed = false;
};

/// Convenience wrapper: compile, run, and return the result.
RunResult runFull(const Program &P, MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());

/// Convenience wrapper: compile, poke experiment-specific inputs into the
/// initial memory via \p Prepare (may be null), run, and return the result.
RunResult runFull(const Program &P, MachineEnv &Env,
                  const std::function<void(Memory &)> &Prepare,
                  InterpreterOptions Opts = InterpreterOptions());

/// The same over a shared compiled program: each call runs from its own
/// copy of \p C's image.
RunResult runFull(const CompiledProgram &C, MachineEnv &Env,
                  const std::function<void(Memory &)> &Prepare = nullptr,
                  RunOptions Opts = RunOptions());
RunResult runFull(const CompiledProgram &C, MachineEnv &Env, RunOptions Opts);

} // namespace zam

#endif // ZAM_SEM_FULLINTERPRETER_H
