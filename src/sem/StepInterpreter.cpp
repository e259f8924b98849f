//===- StepInterpreter.cpp - Resumable small-step full semantics ----------===//

#include "sem/StepInterpreter.h"

#include "ir/Lowering.h"

using namespace zam;

StepInterpreter::StepInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env),
      IR(std::make_unique<IrProgram>(
          lowerProgram(P, Opts.Costs, Opts.Mitigation))),
      LIR(std::make_unique<LirProgram>(lowerToLir(*IR))),
      Core(std::make_unique<ExecCore>(
          *LIR, P, Memory::fromProgram(P, Opts.Costs.DataBase), Env, Opts)) {
  if (Opts.Provenance) {
    PriorObserver = Env.observer();
    Env.setObserver(Core.get());
    ObserverInstalled = true;
  }
}

StepInterpreter::StepInterpreter(const Program &P, CmdPtr C,
                                 Memory InitialMemory, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env), Owned(std::move(C)),
      IR(std::make_unique<IrProgram>(
          lowerCommand(P, *Owned, Opts.Costs, Opts.Mitigation))),
      LIR(std::make_unique<LirProgram>(lowerToLir(*IR))),
      Core(std::make_unique<ExecCore>(*LIR, P, std::move(InitialMemory), Env,
                                      Opts)) {
  if (Opts.Provenance) {
    PriorObserver = Env.observer();
    Env.setObserver(Core.get());
    ObserverInstalled = true;
  }
}

StepInterpreter::StepInterpreter(StepInterpreter &&Other)
    : Env(Other.Env), Owned(std::move(Other.Owned)), IR(std::move(Other.IR)),
      LIR(std::move(Other.LIR)), Core(std::move(Other.Core)),
      ObserverInstalled(Other.ObserverInstalled),
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
