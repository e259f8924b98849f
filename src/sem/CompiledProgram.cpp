//===- CompiledProgram.cpp - Compiled once, run many times ----------------===//

#include "sem/CompiledProgram.h"

#include "ir/Lowering.h"

using namespace zam;

CompiledProgram::CompiledProgram(const Program &P, const CostModel &Costs,
                                 const PolicySelection &Mitigation)
    : P(P), Costs(Costs), Mitigation(Mitigation),
      IR(lowerProgram(P, Costs, Mitigation)), LIR(lowerToLir(IR)),
      Image(Memory::fromProgram(P, Costs.DataBase)) {}

CompiledProgram::CompiledProgram(const Program &P, CmdPtr C,
                                 const CostModel &Costs,
                                 const PolicySelection &Mitigation)
    : P(P), Owned(std::move(C)), Costs(Costs), Mitigation(Mitigation),
      IR(lowerCommand(P, *Owned, Costs, Mitigation)), LIR(lowerToLir(IR)) {}
