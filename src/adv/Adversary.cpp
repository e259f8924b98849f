//===- Adversary.cpp - Secret sampler / observation collector -------------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"

#include "obs/Json.h"
#include "obs/LeakAudit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

using namespace zam;

size_t zam::streamObservations(
    const Program &P, const MachineEnv &EnvTemplate,
    const std::vector<SecretClassSpec> &Classes, const AttackOptions &Opts,
    const InterpreterOptions &IOpts, const ParallelRunner &Runner,
    const std::function<void(const Observation &, size_t)> &OnObservation) {
  if (Classes.empty()) {
    std::fprintf(stderr, "streamObservations: no secret classes\n");
    std::abort();
  }
  const size_t K = Classes.size();
  const size_t Total = Opts.Samples;
  // Compiled once per call; the workers share it as const and each run
  // starts from its own copy of the image. Runs carry no window hook: the
  // audit replays the finished trace, which onWindow matches bit-for-bit
  // (LeakAudit's documented equivalence).
  const CompiledProgram Compiled(P, IOpts.Costs, IOpts.Mitigation);
  auto RunSample = [&](size_t I, MachineEnv &Env) {
    const SecretClassSpec &Spec = Classes[I % K];
    Rng R(sampleSeed(Opts.Seed, I));
    RunResult RR = runFull(
        Compiled, Env,
        [&](Memory &M) {
          for (const auto &[Var, Value] : Spec.Fixed)
            M.store(Var, Value);
          for (const SecretClassSpec::Range &Rg : Spec.Ranges)
            M.store(Rg.Var, R.nextInRange(Rg.Lo, Rg.Hi));
          if (Spec.Prepare)
            Spec.Prepare(M, R);
        },
        IOpts.runOptions());
    LeakAudit Audit(P.lattice(), Opts.Adversary, IOpts.Mitigation);
    Audit.ingest(RR.T);
    Observation O;
    O.ClassIndex = static_cast<uint32_t>(I % K);
    O.EndToEnd = RR.T.FinalTime;
    for (const LeakWindow &W : Audit.windows())
      O.Windows.push_back(W.Duration);
    O.BoundBits = Audit.totalBitsBound();
    return O;
  };
  for (size_t Base = 0; Base < Total; Base += kObservationChunk) {
    const size_t ChunkLen = std::min(kObservationChunk, Total - Base);
    // One worker per thread, each draining a shared sample counter (the
    // same dynamic scheduling as Runner.map, so classes of unequal cost
    // still balance). A worker recycles one environment (cloneInto): each
    // sample starts from a fresh copy of the template, but the caches' line
    // storage is not allocated and freed per run (with that churn, glibc
    // kept returning the top of the heap to the system and faulting it
    // back in). An observation depends on its sample index only, never on
    // the worker that ran it.
    const size_t Workers = std::min<size_t>(Runner.threadCount(), ChunkLen);
    std::vector<Observation> Chunk(ChunkLen);
    std::atomic<size_t> Next{0};
    Runner.forEach(Workers, [&](size_t) {
      std::unique_ptr<MachineEnv> Env;
      for (size_t Offset; (Offset = Next.fetch_add(1)) < ChunkLen;) {
        Env = EnvTemplate.cloneInto(std::move(Env));
        Chunk[Offset] = RunSample(Base + Offset, *Env);
      }
    });
    for (size_t Offset = 0; Offset < Chunk.size(); ++Offset)
      OnObservation(Chunk[Offset], Base + Offset);
  }
  return Total;
}

std::vector<Observation> zam::collectObservations(
    const Program &P, const MachineEnv &EnvTemplate,
    const std::vector<SecretClassSpec> &Classes, const AttackOptions &Opts,
    const InterpreterOptions &IOpts, const ParallelRunner &Runner) {
  std::vector<Observation> Obs;
  Obs.reserve(Opts.Samples);
  streamObservations(P, EnvTemplate, Classes, Opts, IOpts, Runner,
                     [&](const Observation &O, size_t) { Obs.push_back(O); });
  return Obs;
}

size_t zam::exportObservation(TraceSink &Sink, const Observation &O,
                              size_t Index,
                              const std::vector<std::string> &ClassNames) {
  TraceRecord R;
  R.RecordKind = TraceRecord::Kind::Instant;
  R.Name = "sample#" + std::to_string(Index);
  R.Category = "adv";
  R.Ts = Index;
  if (O.ClassIndex < ClassNames.size())
    R.Args.emplace_back("class", ClassNames[O.ClassIndex]);
  R.Args.emplace_back("class_index", std::to_string(O.ClassIndex));
  R.Args.emplace_back("end_to_end", std::to_string(O.EndToEnd));
  std::string Windows;
  for (size_t W = 0; W < O.Windows.size(); ++W) {
    if (W)
      Windows += ',';
    Windows += std::to_string(O.Windows[W]);
  }
  // A one-element list like "256" emits as a bare number (sink rule);
  // offline readers treat the arg as display-only either way.
  R.Args.emplace_back("windows", Windows);
  R.Args.emplace_back("bound_bits", jsonNumberString(O.BoundBits));
  Sink.record(R);
  return 1;
}

size_t zam::exportObservations(TraceSink &Sink,
                               const std::vector<Observation> &Obs,
                               const std::vector<std::string> &ClassNames) {
  for (size_t I = 0; I < Obs.size(); ++I)
    exportObservation(Sink, Obs[I], I, ClassNames);
  return Obs.size();
}
