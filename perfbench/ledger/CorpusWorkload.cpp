//===- CorpusWorkload.cpp - corpus_observed: new programs, all observers -===//
//
// Each request takes one source text from a seeded corpus of random
// well-typed programs (analysis/RandomProgram) plus the examples/programs
// that type-check. It parses, infers labels and type-checks the source,
// runs the program once, cold, on each of the three designs with every
// observer attached (ExecProfile probe, CostLedger provenance,
// RecordMisses, online LeakAudit), and encodes the partitioned run's trace
// to JSONL, Chrome and ZTB in memory. Every program is new, so the front
// end and compilation carry real weight; it is the only workload that
// covers NoFill/NoPartition and the observer and encoder paths, and the
// only one that runs the engine with hooks on.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Probes.h"

#include "analysis/RandomProgram.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceReader.h"
#include "sem/CoreInterpreter.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

using namespace zam;
using namespace zam::ledger;

namespace {

constexpr unsigned kRandomPrograms = 192;
constexpr unsigned kProbePrograms = 16;
constexpr const char *kExamplesDir = "examples/programs";

constexpr HwKind kDesigns[3] = {HwKind::Partitioned, HwKind::NoFill,
                                HwKind::NoPartition};
constexpr TraceFormat kFormats[3] = {TraceFormat::Jsonl, TraceFormat::Chrome,
                                     TraceFormat::Ztb};
const char *const kEncodeSpans[3] = {"encode.jsonl", "encode.chrome",
                                     "encode.ztb"};

/// One observed run and its observers.
struct DesignRun {
  RunResult R;
  ExecProfile Prof;
  CostLedger Ledger;
  std::unique_ptr<LeakAudit> Audit;
};

/// Which observers a run carries (all of them in the workload; one at a
/// time in the toggle probe).
struct Observers {
  bool Probe = true, Ledger = true, Misses = true, Audit = true;
};

class CorpusWorkload final : public Workload {
public:
  void setup(uint64_t Seed) override;
  void request(size_t I) override { runRequest(I, nullptr); }
  unsigned verify(size_t I, std::string &Err) override;
  unsigned tracedRequest(size_t I, SpanLog &Log, std::string &Err) override {
    runRequest(I, &Log);
    return 0;
  }
  void digest(Digest &D) override;
  unsigned probeLayers(Metrics &M, std::string &Err) override;
  std::vector<std::string> unexercised() const override {
    return {"fanout: requests are serial", "adv: no detector runs"};
  }
  std::string knownDefects() const override {
    if (!NestedReplayDefects)
      return "";
    return std::to_string(NestedReplayDefects) +
           " requests: LeakAudit::replay of the ZTB trace diverges from the "
           "online audit on nested mitigate windows";
  }

private:
  void runRequest(size_t I, SpanLog *Log);
  /// Clones the cold template of design \p D and runs \p P on it.
  void runObserved(const Program &P, unsigned D, const Observers &On,
                   DesignRun &Out, SpanLog *Log, uint32_t Req,
                   int32_t Parent) const;

  TwoPointLattice Lat;
  std::vector<std::string> Sources;
  std::unique_ptr<MachineEnv> Templates[3];

  // The last request.
  std::optional<Program> P;
  bool FrontendOk = false;
  DesignRun Runs[3];
  std::string Encoded[3];
  uint64_t NestedReplayDefects = 0;
};

/// Whether a mitigate window of \p T begins inside another one.
bool hasNestedWindows(const Trace &T) {
  std::vector<std::pair<uint64_t, uint64_t>> W;
  for (const MitigateRecord &R : T.Mitigations)
    W.push_back({R.Start, R.Start + R.Duration});
  std::sort(W.begin(), W.end());
  uint64_t End = 0;
  for (size_t I = 0; I != W.size(); ++I) {
    if (I && W[I].first < End)
      return true;
    End = std::max(End, W[I].second);
  }
  return false;
}

bool readFile(const std::filesystem::path &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

std::optional<Program> parseAndCheck(const std::string &Src,
                                     const SecurityLattice &Lat) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Src, Lat, Diags);
  if (!P)
    return std::nullopt;
  inferTimingLabels(*P);
  if (!typeCheck(*P, Diags))
    return std::nullopt;
  return P;
}

void CorpusWorkload::setup(uint64_t Seed) {
  Rng R(Seed);
  Sources.clear();
  RandomProgramOptions O;
  while (Sources.size() != kRandomPrograms)
    if (std::optional<Program> P = randomWellTypedProgram(Lat, R, O))
      Sources.push_back(printProgram(*P));

  std::vector<std::filesystem::path> Examples;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(kExamplesDir, EC))
    if (E.path().extension() == ".zam")
      Examples.push_back(E.path());
  if (EC || Examples.empty()) {
    std::fprintf(stderr, "error: no %s/*.zam in the working directory\n",
                 kExamplesDir);
    std::exit(2);
  }
  std::sort(Examples.begin(), Examples.end());
  for (const auto &Path : Examples) {
    std::string Src;
    if (readFile(Path, Src) && parseAndCheck(Src, Lat))
      Sources.push_back(std::move(Src));
  }
  // Requests walk the corpus in a seeded order.
  for (size_t I = Sources.size(); I > 1; --I)
    std::swap(Sources[I - 1], Sources[R.nextBelow(I)]);

  for (unsigned D = 0; D != 3; ++D)
    Templates[D] = createMachineEnv(kDesigns[D], Lat);
}

void CorpusWorkload::runObserved(const Program &Prog, unsigned D,
                                 const Observers &On, DesignRun &Out,
                                 SpanLog *Log, uint32_t Req,
                                 int32_t Parent) const {
  std::unique_ptr<MachineEnv> Env;
  {
    Scoped Sp(Log, Layer::Hw, "MachineEnv::clone", Req, Parent);
    Env = Templates[D]->clone();
  }
  Out.Audit = std::make_unique<LeakAudit>(Lat);
  InterpreterOptions Opts;
  if (On.Probe)
    Opts.Probe = &Out.Prof;
  if (On.Ledger)
    Opts.Provenance = &Out.Ledger;
  Opts.RecordMisses = On.Misses;
  if (On.Audit)
    Opts.OnMitigateWindow = [&Out](const MitigateRecord &W) {
      Out.Audit->onWindow(W);
    };
  std::unique_ptr<FullInterpreter> Interp;
  {
    Scoped Sp(Log, Layer::Compile, "FullInterpreter", Req, Parent);
    Interp = std::make_unique<FullInterpreter>(Prog, *Env, Opts);
  }
  {
    Scoped Sp(Log, Layer::Engine, "run", Req, Parent);
    Out.R = Interp->run();
  }
  if (On.Ledger && On.Audit) {
    Scoped Sp(Log, Layer::Obs, "CostLedger::applyLeakage", Req, Parent);
    Out.Ledger.applyLeakage(*Out.Audit);
  }
}

void CorpusWorkload::runRequest(size_t I, SpanLog *Log) {
  const std::string &Src = Sources[I % Sources.size()];
  const uint32_t Req = static_cast<uint32_t>(I);
  Scoped Root(Log, Layer::Bench, kRequestSpan, Req, -1);
  // Drop the previous request's results here, not inside a layer's span.
  P.reset();
  for (DesignRun &R : Runs)
    R = DesignRun();
  DiagnosticEngine Diags;
  {
    Scoped Sp(Log, Layer::Frontend, "parseProgram", Req, Root.id());
    P = parseProgram(Src, Lat, Diags);
  }
  FrontendOk = P.has_value();
  if (!FrontendOk)
    return;
  {
    Scoped Sp(Log, Layer::Frontend, "check", Req, Root.id());
    inferTimingLabels(*P);
    FrontendOk = typeCheck(*P, Diags);
  }
  for (unsigned D = 0; D != 3; ++D)
    runObserved(*P, D, Observers(), Runs[D], Log, Req, Root.id());
  TraceExportOptions X;
  X.Ledger = &Runs[0].Ledger;
  for (unsigned F = 0; F != 3; ++F) {
    Scoped Sp(Log, Layer::Obs, kEncodeSpans[F], Req, Root.id());
    std::unique_ptr<TraceSink> Sink = makeTraceSink(kFormats[F]);
    exportTrace(*Sink, Runs[0].R.T, Lat, X);
    Encoded[F] = Sink->finish();
  }
}

unsigned CorpusWorkload::verify(size_t I, std::string &Err) {
  unsigned Bad = 0;
  const std::string Where = "corpus: request " + std::to_string(I) + ": ";
  auto Fail = [&](const std::string &What) {
    if (Err.empty())
      Err = Where + What;
    ++Bad;
  };
  if (!FrontendOk) {
    Fail("source no longer parses or type-checks");
    return Bad;
  }
  // Property 1: every design computes what the core semantics computes.
  CoreResult Core = runCore(*P);
  for (unsigned D = 0; D != 3; ++D) {
    const Trace &T = Runs[D].R.T;
    const char *Name = hwKindName(kDesigns[D]);
    if (Core.HitStepLimit || T.HitStepLimit)
      Fail(std::string(Name) + " run hit the step limit");
    else if (!(Core.FinalMemory == Runs[D].R.FinalMemory))
      Fail(std::string(Name) + " final memory differs from runCore");
    else if (Core.Events.size() != T.Events.size())
      Fail(std::string(Name) + " event count differs from runCore");
    else
      for (size_t E = 0; E != T.Events.size(); ++E) {
        const AssignEvent &A = Core.Events[E], &B = T.Events[E];
        if (A.Var != B.Var || A.Value != B.Value ||
            A.IsArrayStore != B.IsArrayStore || A.ElemIndex != B.ElemIndex) {
          Fail(std::string(Name) + " event differs from runCore");
          break;
        }
      }
    std::string CheckErr;
    if (!Runs[D].Prof.selfCheck(CheckErr))
      Fail(CheckErr);
  }
  // The online bound equals an offline replay of the in-memory ZTB trace.
  const std::string &Ztb = Encoded[2];
  std::FILE *F = fmemopen(const_cast<char *>(Ztb.data()), Ztb.size(), "rb");
  if (!F) {
    Fail("cannot open the ZTB trace in memory");
    return Bad;
  }
  ZtbTraceReader Reader(F, /*TakeOwnership=*/true);
  LeakAudit Replay(Lat);
  std::string ReplayErr;
  const bool Replayed = Replay.replay(Reader, ReplayErr);
  if (!Replayed || Replay.totalBitsBound() != Runs[0].Audit->totalBitsBound()) {
    // LeakAudit::replay settles windows in span start order; a nested
    // window settles before its enclosing one, so the replay diverges.
    // Reported on every run as a known defect of zam, not of the request.
    if (hasNestedWindows(Runs[0].R.T))
      ++NestedReplayDefects;
    else if (!Replayed)
      Fail("ZTB replay: " + ReplayErr);
    else
      Fail("ZTB replay bound differs from the online LeakAudit");
  }
  if (Runs[0].Ledger.totalLeakBits() != Runs[0].Audit->totalBitsBound())
    Fail("CostLedger leak bits differ from the online LeakAudit");
  for (const std::string &E : Encoded)
    if (E.empty())
      Fail("an encoder produced no bytes");
  return Bad;
}

void CorpusWorkload::digest(Digest &D) {
  for (size_t I = 0; I != Sources.size(); ++I) {
    runRequest(I, nullptr);
    D.add(static_cast<uint64_t>(FrontendOk));
    if (!FrontendOk)
      continue;
    for (const DesignRun &R : Runs) {
      D.addRun(R.R);
      D.addProfile(R.Prof);
      D.add(R.Audit->totalBitsBound());
    }
  }
}

unsigned CorpusWorkload::probeLayers(Metrics &M, std::string &Err) {
  std::vector<Program> Programs;
  uint64_t Bytes = 0;
  for (size_t I = 0; I != kProbePrograms; ++I) {
    Programs.push_back(*parseAndCheck(Sources[I % Sources.size()], Lat));
    Bytes += Sources[I % Sources.size()].size();
  }

  std::vector<ProbeCase> Cases;
  for (const Program &Prog : Programs)
    for (unsigned D = 0; D != 3; ++D) {
      ProbeCase C;
      C.P = &Prog;
      C.Start = Templates[D].get();
      Cases.push_back(std::move(C));
    }
  unsigned Bad = probeEngineAndHw(Cases, 5, M, Err);

  // Front-end throughput over the same sources.
  constexpr unsigned kReps = 7;
  std::vector<double> ParseNs;
  for (unsigned Rep = 0; Rep != kReps; ++Rep) {
    uint64_t T = 0;
    for (size_t I = 0; I != kProbePrograms; ++I) {
      DiagnosticEngine Diags;
      uint64_t T0 = nowNs();
      std::optional<Program> P = parseProgram(Sources[I % Sources.size()],
                                              Lat, Diags);
      T += nowNs() - T0;
    }
    ParseNs.push_back(static_cast<double>(T));
  }
  M.set("frontend.bytes_per_us",
        static_cast<double>(Bytes) / (median(ParseNs) / 1e3), "B/us");

  // Marginal cost of each observer: construct and run every program on
  // every design with no observer, then with exactly one, interleaved.
  const Observers Toggles[5] = {{false, false, false, false},
                                {true, false, false, false},
                                {false, true, false, false},
                                {false, false, true, false},
                                {false, false, false, true}};
  std::vector<double> ToggleNs[5];
  for (unsigned Rep = 0; Rep != kReps; ++Rep)
    for (unsigned K = 0; K != 5; ++K) {
      uint64_t T = 0;
      for (const Program &Prog : Programs)
        for (unsigned D = 0; D != 3; ++D) {
          DesignRun Out;
          uint64_t T0 = nowNs();
          runObserved(Prog, D, Toggles[K], Out, nullptr, 0, -1);
          T += nowNs() - T0;
        }
      ToggleNs[K].push_back(static_cast<double>(T));
    }
  const double Base = median(ToggleNs[0]);
  const char *const ToggleNames[5] = {"", "obs.probe_us", "obs.ledger_us",
                                      "obs.misses_us", "obs.leakaudit_us"};
  for (unsigned K = 1; K != 5; ++K)
    M.set(ToggleNames[K], (median(ToggleNs[K]) - Base) / 1e3 / kProbePrograms,
          "us");

  // Encoder throughput on the partitioned traces of the same programs.
  std::vector<DesignRun> Traced(kProbePrograms);
  for (size_t I = 0; I != kProbePrograms; ++I) {
    runObserved(Programs[I], 0, Observers(), Traced[I], nullptr, 0, -1);
    Traced[I].Ledger.applyLeakage(*Traced[I].Audit);
  }
  const char *const FormatNames[3] = {"jsonl", "chrome", "ztb"};
  for (unsigned F = 0; F != 3; ++F) {
    std::vector<double> Ns;
    uint64_t Out = 0;
    for (unsigned Rep = 0; Rep != kReps; ++Rep) {
      uint64_t T = 0;
      Out = 0;
      for (const DesignRun &R : Traced) {
        TraceExportOptions X;
        X.Ledger = &R.Ledger;
        uint64_t T0 = nowNs();
        std::unique_ptr<TraceSink> Sink = makeTraceSink(kFormats[F]);
        exportTrace(*Sink, R.R.T, Lat, X);
        Out += Sink->finish().size();
        T += nowNs() - T0;
      }
      Ns.push_back(static_cast<double>(T));
    }
    const std::string Key = std::string("obs.encode.") + FormatNames[F];
    M.set(Key + "_mb_per_s",
          static_cast<double>(Out) / (median(Ns) / 1e9) / 1e6, "MB/s");
    M.set(Key + "_bytes", static_cast<double>(Out) / kProbePrograms, "B");
  }
  return Bad;
}

} // namespace

std::unique_ptr<Workload> ledger::makeCorpusWorkload() {
  return std::make_unique<CorpusWorkload>();
}
