//===- Probes.cpp ---------------------------------------------------------===//

#include "Probes.h"

#include "BenchEnvs.h"

#include "ir/Lir.h"
#include "ir/Lowering.h"
#include "obs/ExecProfile.h"

#include <set>

using namespace zam;
using namespace zam::ledger;

namespace {

double ratio(uint64_t Hits, uint64_t Total) {
  return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0.0;
}

/// Host time of run() alone (construction and input set-up excluded).
uint64_t timedRun(const ProbeCase &C, MachineEnv &Env) {
  FullInterpreter Interp(*C.P, Env, C.Opts);
  if (C.Prepare)
    C.Prepare(Interp.memory());
  uint64_t T0 = nowNs();
  RunResult R = Interp.run();
  return nowNs() - T0;
}

} // namespace

unsigned ledger::probeEngineAndHw(const std::vector<ProbeCase> &Cases,
                                  unsigned Reps, Metrics &M,
                                  std::string &Err) {
  unsigned Mismatches = 0;
  auto Fail = [&](const std::string &What) {
    if (Err.empty())
      Err = What;
    ++Mismatches;
  };

  // Pass 1: exact counts and oracles.
  uint64_t Dispatches = 0;
  HwStats Hw;
  std::vector<std::vector<RecordedAccess>> Streams;
  std::set<const Program *> Programs;
  uint64_t IrInstrs = 0, LirUops = 0;
  for (const ProbeCase &C : Cases) {
    std::unique_ptr<MachineEnv> Inner = C.Start->clone();
    Inner->resetStats();
    RecordingEnv Rec(*Inner);
    ExecProfile Prof;
    InterpreterOptions Opts = C.Opts;
    Opts.Probe = &Prof;
    {
      FullInterpreter Interp(*C.P, Rec, Opts);
      if (C.Prepare)
        C.Prepare(Interp.memory());
      Interp.run();
    }
    std::string CheckErr;
    if (!Prof.selfCheck(CheckErr))
      Fail(CheckErr);
    Dispatches += Prof.dispatches();
    HwStats S = Inner->stats();
    for (auto [Sum, Part] :
         {std::pair{&Hw.L1D, &S.L1D}, {&Hw.L2D, &S.L2D}, {&Hw.L1I, &S.L1I},
          {&Hw.L2I, &S.L2I}, {&Hw.DTlb, &S.DTlb}, {&Hw.ITlb, &S.ITlb}}) {
      Sum->Hits += Part->Hits;
      Sum->Misses += Part->Misses;
    }

    NullEnv Null(*C.Start);
    ExecProfile NullProf;
    Opts.Probe = &NullProf;
    {
      FullInterpreter Interp(*C.P, Null, Opts);
      if (C.Prepare)
        C.Prepare(Interp.memory());
      Interp.run();
    }
    if (NullProf.dispatches() != Prof.dispatches())
      Fail("null-env run dispatched " + std::to_string(NullProf.dispatches()) +
           " instructions, the real run " +
           std::to_string(Prof.dispatches()));

    std::unique_ptr<MachineEnv> Fresh = C.Start->clone();
    Fresh->resetStats();
    if (uint64_t Bad = replayStream(Rec.stream(), *Fresh))
      Fail("replay through a fresh " +
           std::string(hwKindName(C.Start->hwKind())) + " env changed " +
           std::to_string(Bad) + " of " +
           std::to_string(Rec.stream().size()) + " latencies");
    else if (!(Fresh->stats() == S))
      Fail("replay through a fresh env changed the HwStats");
    Streams.push_back(Rec.stream());

    if (Programs.insert(C.P).second) {
      IrProgram IR = lowerProgram(*C.P, C.Opts.Costs, C.Opts.Mitigation);
      LirProgram L = lowerToLir(IR);
      IrInstrs += IR.Instrs.size();
      LirUops += L.Uops.size();
    }
  }

  // Pass 2: host time of run() on the real env and on the null env, and of
  // cloning the start env. Repetitions interleave so drift hits both.
  std::vector<double> Real, NullT, CloneT;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    uint64_t R = 0, N = 0, Cl = 0;
    for (const ProbeCase &C : Cases) {
      uint64_t T0 = nowNs();
      std::unique_ptr<MachineEnv> Env = C.Start->clone();
      Cl += nowNs() - T0;
      R += timedRun(C, *Env);
      NullEnv Null(*C.Start);
      N += timedRun(C, Null);
    }
    Real.push_back(static_cast<double>(R));
    NullT.push_back(static_cast<double>(N));
    CloneT.push_back(static_cast<double>(Cl));
  }

  // Pass 3: each design alone, on the recorded streams from a cold env.
  uint64_t Accesses = 0;
  for (const auto &S : Streams)
    Accesses += S.size();
  const SecurityLattice &Lat = Cases.front().Start->lattice();
  const std::pair<HwKind, const char *> Designs[] = {
      {HwKind::Partitioned, "partitioned"},
      {HwKind::NoFill, "nofill"},
      {HwKind::NoPartition, "nopar"}};
  std::vector<double> PerDesign[3];
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (unsigned D = 0; D != 3; ++D) {
      uint64_t T = 0;
      for (const auto &S : Streams) {
        std::unique_ptr<MachineEnv> Env =
            createMachineEnv(Designs[D].first, Lat);
        uint64_t T0 = nowNs();
        replayStream(S, *Env);
        T += nowNs() - T0;
      }
      PerDesign[D].push_back(static_cast<double>(T));
    }

  const double Runs = static_cast<double>(Cases.size());
  const double RealNs = median(Real), NullNs = median(NullT);
  M.set("engine.dispatches", static_cast<double>(Dispatches) / Runs, "count");
  M.set("engine.ns_per_dispatch",
        Dispatches ? NullNs / static_cast<double>(Dispatches) : 0.0, "ns");
  M.set("hw.accesses", static_cast<double>(Accesses) / Runs, "count");
  M.set("hw.clone_us", median(CloneT) / Runs / 1e3, "us");
  M.set("hw.l1d_hit_ratio", ratio(Hw.L1D.Hits, Hw.L1D.accesses()), "ratio");
  M.set("hw.l1i_hit_ratio", ratio(Hw.L1I.Hits, Hw.L1I.accesses()), "ratio");
  M.set("hw.l2_hit_ratio",
        ratio(Hw.L2D.Hits + Hw.L2I.Hits,
              Hw.L2D.accesses() + Hw.L2I.accesses()),
        "ratio");
  M.set("hw.run_share", RealNs > 0 ? 1.0 - NullNs / RealNs : 0.0, "ratio");
  for (unsigned D = 0; D != 3; ++D)
    M.set(std::string("hw.ns_per_access.") + Designs[D].second,
          Accesses ? median(PerDesign[D]) / static_cast<double>(Accesses)
                   : 0.0,
          "ns");
  const double NumPrograms = static_cast<double>(Programs.size());
  M.set("compile.ir_instrs", static_cast<double>(IrInstrs) / NumPrograms,
        "count");
  M.set("compile.lir_uops", static_cast<double>(LirUops) / NumPrograms,
        "count");
  return Mismatches;
}
