//===- StepInterpreter.cpp - Resumable small-step full semantics ----------===//

#include "sem/StepInterpreter.h"

using namespace zam;

StepInterpreter::StepInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env),
      Owned(std::make_unique<CompiledProgram>(P, Opts.Costs, Opts.Mitigation)),
      Core(std::make_unique<ExecCore>(*Owned, Owned->releaseImage(), Env,
                                      Opts.runOptions())) {
  installObserver(Opts.Provenance);
}

StepInterpreter::StepInterpreter(const Program &P, CmdPtr C,
                                 Memory InitialMemory, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env),
      Owned(std::make_unique<CompiledProgram>(P, std::move(C), Opts.Costs,
                                              Opts.Mitigation)),
      Core(std::make_unique<ExecCore>(*Owned, std::move(InitialMemory), Env,
                                      Opts.runOptions())) {
  installObserver(Opts.Provenance);
}

StepInterpreter::StepInterpreter(const CompiledProgram &C,
                                 Memory InitialMemory, MachineEnv &Env,
                                 RunOptions Opts)
    : Env(Env),
      Core(std::make_unique<ExecCore>(C, std::move(InitialMemory), Env, Opts)) {
  installObserver(Opts.Provenance);
}

void StepInterpreter::installObserver(bool Provenance) {
  if (!Provenance)
    return;
  PriorObserver = Env.observer();
  Env.setObserver(Core.get());
  ObserverInstalled = true;
}

StepInterpreter::StepInterpreter(StepInterpreter &&Other)
    : Env(Other.Env), Owned(std::move(Other.Owned)),
      Core(std::move(Other.Core)), ObserverInstalled(Other.ObserverInstalled),
      PriorObserver(Other.PriorObserver) {
  // The core (and with it Env's observer registration) moved by pointer;
  // the source must not restore the prior observer a second time.
  Other.ObserverInstalled = false;
}

StepInterpreter::~StepInterpreter() {
  if (ObserverInstalled && Env.observer() == Core.get())
    Env.setObserver(PriorObserver);
}

Trace StepInterpreter::runToCompletion() {
  Core->run();
  return Core->trace();
}
