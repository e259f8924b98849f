//===- FullInterpreter.cpp - Run-to-completion IR driver ------------------===//

#include "sem/FullInterpreter.h"

#include "sem/ExecCore.h"
#include "support/Diagnostics.h"

using namespace zam;

RunObserver::~RunObserver() = default;

ObserverSet::ObserverSet(RunOptions &Opts, std::vector<AccessSample> &Log) {
  Misses.Out = &Log;
  Windows.Fn = std::move(Opts.OnMitigateWindow);
  RunObserver *const MissObs = Opts.RecordMisses ? &Misses : nullptr;
  RunObserver *const WindowObs = Windows.Fn ? &Windows : nullptr;
  for (RunObserver *O : {Opts.Probe, Opts.Provenance, MissObs, WindowObs})
    if (O) {
      Members[Count++] = O;
      ReadsCosts |= O->observesCosts();
    }
}

FullInterpreter::FullInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : FullInterpreter(
          std::make_unique<CompiledProgram>(P, Opts.Costs, Opts.Mitigation),
          Env, Opts.runOptions()) {}

FullInterpreter::FullInterpreter(const CompiledProgram &C, MachineEnv &Env,
                                 RunOptions Opts)
    : Env(Env), Core(std::make_unique<ExecCore>(C, C.initialMemory(), Env,
                                                std::move(Opts))) {}

FullInterpreter::FullInterpreter(std::unique_ptr<CompiledProgram> Owned,
                                 MachineEnv &Env, const RunOptions &Opts)
    : Env(Env), Owned(std::move(Owned)),
      Core(std::make_unique<ExecCore>(*this->Owned,
                                      this->Owned->releaseImage(), Env,
                                      Opts)) {}

FullInterpreter::~FullInterpreter() = default;

Memory &FullInterpreter::memory() { return Core->memory(); }

uint64_t FullInterpreter::clock() const { return Core->clock(); }

RunResult FullInterpreter::run() {
  if (Consumed)
    reportFatalError("FullInterpreter::run() called twice");
  Consumed = true;

  Core->run();

  RunResult R;
  R.FinalMemory = std::move(Core->memory());
  R.T = std::move(Core->trace());
  R.Hw = Env.stats();
  return R;
}

RunResult zam::runFull(const Program &P, MachineEnv &Env,
                       InterpreterOptions Opts) {
  return runFull(P, Env, nullptr, std::move(Opts));
}

RunResult zam::runFull(const Program &P, MachineEnv &Env,
                       const std::function<void(Memory &)> &Prepare,
                       InterpreterOptions Opts) {
  FullInterpreter I(P, Env, std::move(Opts));
  if (Prepare)
    Prepare(I.memory());
  return I.run();
}

RunResult zam::runFull(const CompiledProgram &C, MachineEnv &Env,
                       const std::function<void(Memory &)> &Prepare,
                       RunOptions Opts) {
  FullInterpreter I(C, Env, std::move(Opts));
  if (Prepare)
    Prepare(I.memory());
  return I.run();
}

RunResult zam::runFull(const CompiledProgram &C, MachineEnv &Env,
                       RunOptions Opts) {
  return runFull(C, Env, nullptr, std::move(Opts));
}
