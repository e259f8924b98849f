//===- Probes.h - Engine and hardware-model layer probes --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits FullInterpreter::run into engine dispatch and the hardware model
/// by running each case on its real environment and on a NullEnv, and
/// measures each hardware design alone by replaying the recorded access
/// stream. The replay through the recorded design doubles as an oracle:
/// it must reproduce every recorded latency and the final HwStats.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_PERFBENCH_PROBES_H
#define ZAM_PERFBENCH_PROBES_H

#include "Ledger.h"

#include "sem/FullInterpreter.h"

#include <functional>
#include <string>
#include <vector>

namespace zam {
namespace ledger {

/// One run the probes repeat: \p P from a clone of \p Start, with
/// \p Prepare poking the request's inputs into the initial memory.
struct ProbeCase {
  const Program *P = nullptr;
  std::function<void(Memory &)> Prepare;
  const MachineEnv *Start = nullptr;
  InterpreterOptions Opts; ///< No hooks and no shared mitigation state.
};

/// Emits engine.dispatches, engine.ns_per_dispatch, hw.accesses,
/// hw.clone_us, the hit ratios, hw.run_share, hw.ns_per_access.<design>,
/// compile.ir_instrs and compile.lir_uops over \p Cases, timing \p Reps
/// repetitions. \returns oracle mismatches (dispatch counts on the null
/// env, replay latencies and HwStats, ExecProfile::selfCheck).
unsigned probeEngineAndHw(const std::vector<ProbeCase> &Cases, unsigned Reps,
                          Metrics &M, std::string &Err);

} // namespace ledger
} // namespace zam

#endif // ZAM_PERFBENCH_PROBES_H
