//===- StepInterpreter.cpp - Resumable small-step full semantics ----------===//

#include "sem/StepInterpreter.h"

using namespace zam;

StepInterpreter::StepInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Owned(std::make_unique<CompiledProgram>(P, Opts.Costs, Opts.Mitigation)),
      Core(std::make_unique<ExecCore>(*Owned, Owned->releaseImage(), Env,
                                      Opts.runOptions())) {}

StepInterpreter::StepInterpreter(const Program &P, CmdPtr C,
                                 Memory InitialMemory, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Owned(std::make_unique<CompiledProgram>(P, std::move(C), Opts.Costs,
                                              Opts.Mitigation)),
      Core(std::make_unique<ExecCore>(*Owned, std::move(InitialMemory), Env,
                                      Opts.runOptions())) {}

StepInterpreter::StepInterpreter(const CompiledProgram &C,
                                 Memory InitialMemory, MachineEnv &Env,
                                 RunOptions Opts)
    : Core(std::make_unique<ExecCore>(C, std::move(InitialMemory), Env,
                                      std::move(Opts))) {}

Trace StepInterpreter::runToCompletion() {
  Core->run();
  return Core->trace();
}
