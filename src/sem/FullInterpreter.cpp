//===- FullInterpreter.cpp - Run-to-completion IR driver ------------------===//

#include "sem/FullInterpreter.h"

#include "ir/Lowering.h"
#include "sem/ExecCore.h"
#include "support/Diagnostics.h"

using namespace zam;

FullInterpreter::FullInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env), Opts(Opts),
      IR(std::make_unique<IrProgram>(
          lowerProgram(P, Opts.Costs, Opts.Mitigation))),
      LIR(std::make_unique<LirProgram>(lowerToLir(*IR))),
      Core(std::make_unique<ExecCore>(
          *LIR, P, Memory::fromProgram(P, Opts.Costs.DataBase), Env, Opts)) {}

FullInterpreter::~FullInterpreter() = default;

Memory &FullInterpreter::memory() { return Core->memory(); }

uint64_t FullInterpreter::clock() const { return Core->clock(); }

RunResult FullInterpreter::run() {
  if (Consumed)
    reportFatalError("FullInterpreter::run() called twice");
  Consumed = true;

  // The core doubles as the hardware observer, but installing it costs a
  // virtual call per access — only pay when someone listens.
  const bool Observe = Opts.RecordMisses || Opts.Provenance != nullptr;
  HwObserver *Prior = nullptr;
  if (Observe) {
    Prior = Env.observer();
    Env.setObserver(Core.get());
  }
  Core->run();
  if (Observe)
    Env.setObserver(Prior);

  RunResult R;
  R.FinalMemory = std::move(Core->memory());
  R.T = std::move(Core->trace());
  R.Hw = Env.stats();
  return R;
}

RunResult zam::runFull(const Program &P, MachineEnv &Env,
                       InterpreterOptions Opts) {
  FullInterpreter I(P, Env, Opts);
  return I.run();
}

RunResult zam::runFull(const Program &P, MachineEnv &Env,
                       const std::function<void(Memory &)> &Prepare,
                       InterpreterOptions Opts) {
  FullInterpreter I(P, Env, Opts);
  if (Prepare)
    Prepare(I.memory());
  return I.run();
}
