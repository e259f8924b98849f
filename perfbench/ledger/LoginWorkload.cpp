//===- LoginWorkload.cpp - login_attack: the Fig. 7 adversary ------------===//
//
// Each request is one streamObservations batch over the mitigated Fig. 7
// login program on PartitionedHw: kSamples cold runs, secrets drawn from
// two classes (requested user present / absent), submitted through a
// ParallelRunner, then detectLeak over the bag. This is what `zamc attack`
// and the adversary gate spend their time on: thousands of short runs of
// one program, so per-run set-up (env clone, lowering, LIR, memory image)
// is about half the work.
//
// The timed loop runs the runner at width 1 (a plain serial loop): with
// worker threads, a request's latency is the slower worker's share plus
// thread start-up, and on a shared host that measured the scheduler more
// than zam. Fan-out is measured in the traced run instead, by a sweep over
// widths 1..4 on the same sample runs.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Probes.h"

#include "adv/Adversary.h"
#include "adv/LeakDetector.h"
#include "apps/LoginApp.h"
#include "exp/ParallelRunner.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"

#include <optional>

using namespace zam;
using namespace zam::ledger;

namespace {

constexpr unsigned kTableSize = 100;
constexpr unsigned kValidUsers = 10;
constexpr unsigned kSamples = 512;
constexpr unsigned kWidth = 1;
/// The width fanout.efficiency and fanout.busy_share are reported at.
constexpr unsigned kSweepWidth = 2;
constexpr unsigned kPoolSize = 1024;
constexpr unsigned kCalibrationSamples = 30;

/// One pre-hashed login request and its expected outcome.
struct LoginInput {
  int64_t U = 0;
  int64_t Pq[4] = {};
  bool Accepted = false;
};

/// The C++ reference for Accepted: the table lookup and password check the
/// program performs, computed without the engine.
bool referenceAccepted(const LoginTable &T, const LoginInput &In) {
  const int64_t Hv = loginUserHash(In.U);
  const int64_t N = T.Size;
  int64_t Jj = Hv % N; // The language's % truncates, like C++.
  for (int64_t Probe = 0; Probe < 8; ++Probe) {
    // Array indices wrap modulo the size (Memory::wrapIndex).
    int64_t Slot = ((Jj % N) + N) % N;
    if (T.UserDigests[Slot] == 0)
      return false;
    if (T.UserDigests[Slot] == Hv)
      return loginPassHash(In.Pq) == T.PassDigests[Slot];
    Jj = (Jj + 1) % N;
  }
  return false;
}

void storeInput(Memory &M, const LoginInput &In) {
  M.store("u", In.U);
  for (unsigned W = 0; W != 4; ++W)
    M.storeElem("pq", W, In.Pq[W]);
}

void digestObservation(Digest &D, const Observation &O) {
  D.add(static_cast<uint64_t>(O.ClassIndex));
  D.add(O.EndToEnd);
  for (uint64_t W : O.Windows)
    D.add(W);
  D.add(O.BoundBits);
}

class LoginWorkload final : public Workload {
public:
  void setup(uint64_t Seed) override;
  void request(size_t I) override;
  unsigned verify(size_t I, std::string &Err) override;
  unsigned tracedRequest(size_t I, SpanLog &Log, std::string &Err) override;
  void digest(Digest &D) override;
  unsigned probeLayers(Metrics &M, std::string &Err) override;
  std::vector<std::string> unexercised() const override {
    return {"frontend: the login program is built in set-up; no source is "
            "parsed per request",
            "obs: runs carry no observer and nothing is encoded; the only "
            "obs call is LeakAudit::ingest per sample"};
  }

private:
  /// Sample \p S of request \p I, as streamObservations runs it.
  const LoginInput &inputOf(size_t I, size_t S) const {
    Rng R(sampleSeed(mixSeed(Seed, I), S));
    const auto &Pool = Pools[S % 2];
    return Pool[R.nextBelow(Pool.size())];
  }
  AttackOptions attackOptions(size_t I) const {
    AttackOptions A;
    A.Samples = kSamples;
    A.Seed = mixSeed(Seed, I);
    return A;
  }
  /// Clone, construct, prepare, run and audit one sample; spans go to
  /// \p Log under \p Parent when it is non-null.
  Observation runSample(size_t I, size_t S, SpanLog *Log, int32_t Parent,
                        RunResult *Out = nullptr,
                        InterpreterOptions Opts = {}) const;

  TwoPointLattice Lat;
  uint64_t Seed = 0;
  LoginTable Table;
  std::optional<Program> P;
  std::unique_ptr<MachineEnv> Template;
  std::vector<LoginInput> Pools[2]; ///< [0] present, [1] absent.
  std::vector<SecretClassSpec> Classes;
  const std::vector<std::string> Names = {"present", "absent"};
  ParallelRunner Runner{kWidth};

  std::vector<CompactObservation> LastObs;
  std::string LastDigest;
  DetectorResult LastDetect;
};

void LoginWorkload::setup(uint64_t S) {
  Seed = S;
  Rng R(Seed);
  Table = makeLoginTable(kTableSize, kValidUsers, R);
  Template = createMachineEnv(HwKind::Partitioned, Lat);
  auto [E1, E2] =
      calibrateLoginEstimates(Lat, Table, *Template, kCalibrationSamples, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = E1;
  Config.Estimate2 = E2;
  P = buildLoginProgram(Lat, Table, Config);

  // Request digests: present users (with the right password three times in
  // four) and absent ones. setLoginRequest hashes the wire strings; the
  // timed loop only copies the resulting words.
  Memory Scratch = Memory::fromProgram(*P);
  auto Capture = [&](const std::string &User, const std::string &Pass) {
    setLoginRequest(Scratch, User, Pass);
    LoginInput In;
    In.U = Scratch.load("u");
    for (unsigned W = 0; W != 4; ++W)
      In.Pq[W] = Scratch.loadElem("pq", W);
    In.Accepted = referenceAccepted(Table, In);
    return In;
  };
  for (auto &Pool : Pools)
    Pool.clear();
  for (unsigned K = 0; K != kPoolSize; ++K) {
    unsigned J = static_cast<unsigned>(R.nextBelow(kValidUsers));
    std::string Pass = R.nextBelow(4) ? "pass" + std::to_string(J)
                                      : "wrong" + std::to_string(R.next());
    Pools[0].push_back(Capture(Table.ValidUsernames[J], Pass));
    Pools[1].push_back(Capture("ghost" + std::to_string(R.next()),
                               "pw" + std::to_string(R.next())));
  }

  Classes.assign(2, SecretClassSpec());
  for (unsigned C = 0; C != 2; ++C) {
    Classes[C].Name = Names[C];
    Classes[C].Prepare = [this, C](Memory &M, Rng &R) {
      storeInput(M, Pools[C][R.nextBelow(Pools[C].size())]);
    };
  }
}

void LoginWorkload::request(size_t I) {
  LastObs.clear();
  Digest D;
  streamObservations(*P, *Template, Classes, attackOptions(I),
                     InterpreterOptions(), Runner,
                     [&](const Observation &O, size_t) {
                       LastObs.push_back({O.ClassIndex, O.EndToEnd,
                                          O.BoundBits});
                       digestObservation(D, O);
                     });
  LastDigest = D.hex();
  LastDetect = detectLeak(LastObs, Names);
}

Observation LoginWorkload::runSample(size_t I, size_t S, SpanLog *Log,
                                     int32_t Parent, RunResult *Out,
                                     InterpreterOptions Opts) const {
  std::unique_ptr<MachineEnv> Env;
  {
    Scoped Sp(Log, Layer::Hw, "MachineEnv::clone", I, Parent);
    Env = Template->clone();
  }
  std::unique_ptr<FullInterpreter> Interp;
  {
    Scoped Sp(Log, Layer::Compile, "FullInterpreter", I, Parent);
    Interp = std::make_unique<FullInterpreter>(*P, *Env, Opts);
  }
  Rng R(sampleSeed(mixSeed(Seed, I), S));
  Classes[S % 2].Prepare(Interp->memory(), R);
  RunResult RR;
  {
    Scoped Sp(Log, Layer::Engine, "run", I, Parent);
    RR = Interp->run();
  }
  LeakAudit Audit(Lat, std::nullopt, Opts.Mitigation);
  {
    Scoped Sp(Log, Layer::Obs, "LeakAudit::ingest", I, Parent);
    Audit.ingest(RR.T);
  }
  Observation O;
  O.ClassIndex = static_cast<uint32_t>(S % 2);
  O.EndToEnd = RR.T.FinalTime;
  for (const LeakWindow &W : Audit.windows())
    O.Windows.push_back(W.Duration);
  O.BoundBits = Audit.totalBitsBound();
  if (Out)
    *Out = std::move(RR);
  return O;
}

unsigned LoginWorkload::verify(size_t I, std::string &Err) {
  unsigned Bad = 0;
  auto Fail = [&](const std::string &What) {
    if (Err.empty())
      Err = What;
    ++Bad;
  };
  if (LastObs.size() != kSamples)
    Fail("login: observation bag has " + std::to_string(LastObs.size()) +
         " samples");
  // One sample per request, rotating: rerun it alone and hold Accepted to
  // the C++ table lookup and the time to the streamed observation.
  const size_t S = I % kSamples;
  RunResult RR;
  Observation O = runSample(I, S, nullptr, -1, &RR);
  const bool Accepted = RR.FinalMemory.load("ok") == 1;
  if (Accepted != inputOf(I, S).Accepted)
    Fail("login: request " + std::to_string(I) + " sample " +
         std::to_string(S) + " Accepted differs from the table lookup");
  if (S < LastObs.size() && O.EndToEnd != LastObs[S].EndToEnd)
    Fail("login: rerun of a sample took a different time");
  // Sec. 6: what the adversary learns stays within the analytic bound.
  if (LastDetect.MiBits > LastDetect.AnalyticBoundBits + 1e-9)
    Fail("login: empirical leakage exceeds the Sec. 6 bound");
  return Bad;
}

unsigned LoginWorkload::tracedRequest(size_t I, SpanLog &Log,
                                      std::string &Err) {
  struct TaskOut {
    Observation O;
    SpanLog Spans;
  };
  Digest D;
  {
    Scoped Root(&Log, Layer::Bench, kRequestSpan, I, -1);
    std::vector<CompactObservation> Compact;
    {
      Scoped Map(&Log, Layer::Exp, "ParallelRunner::map", I, Root.id());
      std::vector<TaskOut> Outs = Runner.map(kSamples, [&](size_t S) {
        TaskOut T;
        int32_t Task = T.Spans.open(Layer::Bench, "sample", I, -1);
        T.O = runSample(I, S, &T.Spans, Task);
        T.Spans.close(Task);
        return T;
      });
      for (TaskOut &T : Outs) {
        Log.adopt(T.Spans, Map.id());
        Compact.push_back({T.O.ClassIndex, T.O.EndToEnd, T.O.BoundBits});
        digestObservation(D, T.O);
      }
    }
    Scoped Detect(&Log, Layer::Adv, "detectLeak", I, Root.id());
    LastDetect = detectLeak(Compact, Names);
  }
  // The opaque call must observe exactly what its public parts did.
  request(I);
  if (LastDigest != D.hex()) {
    if (Err.empty())
      Err = "login: decomposed request " + std::to_string(I) +
            " differs from streamObservations";
    return 1;
  }
  return 0;
}

void LoginWorkload::digest(Digest &D) {
  for (size_t I = 0; I != 2; ++I) {
    request(I);
    D.add(LastDigest);
    D.add(LastDetect.MiBits);
    D.add(LastDetect.TStat);
    ExecProfile Prof;
    InterpreterOptions Opts;
    Opts.Probe = &Prof;
    for (size_t S = 0; S != 2; ++S) {
      RunResult RR;
      Observation O = runSample(I, S, nullptr, -1, &RR, Opts);
      D.addRun(RR);
      D.add(O.BoundBits);
    }
    D.addProfile(Prof);
  }
}

unsigned LoginWorkload::probeLayers(Metrics &M, std::string &Err) {
  std::vector<ProbeCase> Cases;
  for (size_t S = 0; S != 16; ++S) {
    ProbeCase C;
    C.P = &*P;
    C.Start = Template.get();
    const LoginInput &In = inputOf(0, S);
    C.Prepare = [&In](Memory &Mem) { storeInput(Mem, In); };
    Cases.push_back(std::move(C));
  }
  unsigned Bad = probeEngineAndHw(Cases, 9, M, Err);

  // Fan-out sweep: the same batch of sample runs at widths 1..kMaxWidth.
  constexpr size_t kBatch = 256;
  constexpr unsigned kMaxWidth = 4;
  constexpr unsigned kReps = 5;
  std::vector<double> Wall[kMaxWidth + 1];
  std::vector<double> Busy;
  for (unsigned Rep = 0; Rep != kReps; ++Rep)
    for (unsigned W = 1; W <= kMaxWidth; ++W) {
      ParallelRunner Sweep(W);
      uint64_t T0 = nowNs();
      std::vector<uint64_t> TaskNs = Sweep.map(kBatch, [&](size_t S) {
        uint64_t S0 = nowNs();
        runSample(1, S, nullptr, -1);
        return nowNs() - S0;
      });
      uint64_t Elapsed = nowNs() - T0;
      Wall[W].push_back(static_cast<double>(Elapsed));
      if (W == kSweepWidth) {
        uint64_t Sum = 0;
        for (uint64_t T : TaskNs)
          Sum += T;
        Busy.push_back(static_cast<double>(Sum) / (kSweepWidth * Elapsed));
      }
    }
  const double T1 = median(Wall[1]);
  for (unsigned W = 1; W <= kMaxWidth; ++W)
    M.set("fanout.speedup." + std::to_string(W), T1 / median(Wall[W]), "x");
  M.set("fanout.efficiency", T1 / median(Wall[kSweepWidth]) / kSweepWidth,
        "ratio");
  M.set("fanout.busy_share", median(Busy), "ratio");
  return Bad;
}

} // namespace

std::unique_ptr<Workload> ledger::makeLoginWorkload() {
  return std::make_unique<LoginWorkload>();
}
