//===- Provenance.h - The run observer interface ----------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interface through which the execution core reports a run:
/// RunObserver. Every observer — the engine self-profiler
/// (obs/ExecProfile.h), the source-attribution ledger (obs/CostLedger.h),
/// the miss log and the window callback behind RunOptions::RecordMisses
/// and RunOptions::OnMitigateWindow — implements it; sem must not depend
/// on obs, so only the interface lives here. The core resolves a run's
/// observers once, at construction (ObserverSet in sem/FullInterpreter.h),
/// and a new observer never touches the core.
///
/// Cost events carry a cursor naming the source construct being charged.
/// Cursor discipline (one core executes for both engines, so their
/// ledgers agree bit for bit):
///   - Seq is transparent (it lowers away entirely); every other command
///     sets Cur.Loc to its own location when its step begins.
///   - Expression evaluation narrows Cur.Loc to the innermost valid
///     sub-expression location for the duration of each load's own access
///     (per-operand locations precomputed by the lowering pass), and the
///     cursor is back at the command when the step's cycles are charged.
///   - Cur.Site is the η of the innermost open mitigate window (kNoSite
///     outside any window); body costs charge to the innermost window only
///     (self/exclusive accounting).
///   - Mitigation padding is charged at the mitigate command's own location
///     with Cur.Site = η, right before the window settles.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_PROVENANCE_H
#define ZAM_SEM_PROVENANCE_H

#include "hw/MachineEnv.h"
#include "sem/Event.h"
#include "support/SourceLoc.h"

#include <cstdint>

namespace zam {

struct IrProgram;

/// Names the source construct to which the interpreter is currently
/// charging costs.
struct CostCursor {
  /// Sentinel: not inside any mitigate window.
  static constexpr unsigned kNoSite = ~0u;

  /// Innermost Cmd/Expr location being executed (Line 0 = unknown).
  SourceLoc Loc;
  /// η of the innermost open mitigate window, or kNoSite.
  unsigned Site = kNoSite;
};

/// What an onCycles batch paid for.
enum class CycleKind {
  Step,  ///< Base step, fetch, ALU, branch, and data-access latency.
  Sleep, ///< The max(n,0) cycles a sleep command idles.
  Pad,   ///< Mitigation padding (prediction − consumed).
};

/// Receives one run's events from the execution core. Every callback
/// defaults to doing nothing, so an observer overrides only what it reads.
/// Purely observational: observing a run never changes its costs, trace or
/// leakage. Implementations must be deterministic; they are invoked on the
/// interpreter's thread.
class RunObserver {
public:
  virtual ~RunObserver();

  /// Whether this observer reads costs (onCycles, onAccess). Asked once,
  /// when a core is constructed: only then does the core keep the cursor
  /// up to date and hook the machine environment, which costs a virtual
  /// call and an event snapshot per hardware access.
  virtual bool observesCosts() const { return false; }

  /// A core was constructed over \p IR; fires once per run, before any
  /// dispatch. Copy what you need: the IR may not outlive the run.
  virtual void onProgram(const IrProgram &IR) {}

  /// The instruction at \p Pc is about to execute. Halt is never
  /// dispatched (the core stops when the program counter lands on it).
  virtual void onDispatch(uint32_t Pc) {}

  /// The Branch at \p Pc resolved; \p Taken is true when control went to
  /// the branch target (guard nonzero), false for fall-through.
  virtual void onBranch(uint32_t Pc, bool Taken) {}

  /// \p N cycles of kind \p K elapsed while the cursor was at \p Cur.
  virtual void onCycles(const CostCursor &Cur, CycleKind K, uint64_t N) {}

  /// One completed hardware access (hit or miss) occurred at \p Cur during
  /// the step that began at clock \p Clock.
  virtual void onAccess(const CostCursor &Cur, uint64_t Clock,
                        const HwAccess &Access) {}

  /// The mitigate window \p R settled, costing \p Epochs scheduler
  /// misprediction epochs (0 = the prediction held). Fires once per
  /// window, after R was appended to the trace and its padding charged,
  /// with the cursor at the window's own mitigate command (Cur.Site ==
  /// R.Eta).
  virtual void onWindow(const CostCursor &Cur, const MitigateRecord &R,
                        unsigned Epochs) {}
};

} // namespace zam

#endif // ZAM_SEM_PROVENANCE_H
