//===- main.cpp - The layer-ledger benchmark program ----------------------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
//   zam_ledger --workload login_attack|rsa_decrypt|corpus_observed
//              --seed N --seconds S --trace 0|1
//              [--expected perfbench/expected_digests.txt] [--print-digest]
//              [--spans FILE]
//
// --trace 0 measures the end-to-end metrics: a closed loop with one client
// thread and no think time runs requests for S seconds; only request() is
// timed, and every request is checked by the workload's oracles afterwards.
// --trace 1 measures the per-layer metrics: each request runs untraced and
// then traced on the same inputs (the latency ratio is the tracing
// overhead), span self time per layer, then the layer probes. The spans of
// the first kSpanDumpRequests traced requests are written to --spans as
// JSONL.
//
// Every run first checks the workload's simulated-statistics digest
// against the expected value. The simulator has no hardware reference, so
// the ledger reports no accuracy figure; the digest only pins the
// simulated statistics so that a change meant to speed up the simulator
// provably leaves them identical.
//
// The last line of stdout is one JSON object; the exit code is nonzero
// when any oracle or the digest check failed.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "sem/FullInterpreter.h"
#include "support/BuildInfo.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace zam;
using namespace zam::ledger;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Expected = "perfbench/expected_digests.txt";
  std::string SpansOut;
  bool PrintDigest = false;
};

constexpr uint32_t kSpanDumpRequests = 16;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: zam_ledger --workload "
               "login_attack|rsa_decrypt|corpus_observed --seed N "
               "--seconds S --trace 0|1 [--expected FILE] [--print-digest] "
               "[--spans FILE]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--print-digest") {
      A.PrintDigest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = std::strtoul(V.c_str(), &End, 10) != 0;
    else if (K == "--expected")
      A.Expected = V;
    else if (K == "--spans")
      A.SpansOut = V;
    else
      usage(("unknown option " + K).c_str());
    if (End && *End)
      usage(("malformed value for " + K).c_str());
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (!(A.Seconds > 0 && A.Seconds <= 120))
    usage("--seconds must be in (0, 120]");
  return A;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "login_attack")
    return makeLoginWorkload();
  if (Name == "rsa_decrypt")
    return makeRsaWorkload();
  if (Name == "corpus_observed")
    return makeCorpusWorkload();
  usage(("unknown workload " + Name).c_str());
}

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 0;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  unsigned Max = __get_cpuid_max(0x80000000, nullptr);
  if (Max >= 0x80000004) {
    for (unsigned L = 0; L != 3; ++L)
      __get_cpuid(0x80000002 + L, &Regs[4 * L], &Regs[4 * L + 1],
                  &Regs[4 * L + 2], &Regs[4 * L + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S = Brand;
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

/// Host and build fingerprint, printed with every result.
void printFingerprint() {
  const std::string Type = buildType();
  std::printf("# host: nproc=%u cpu=\"%s\"\n", hostCpus(), cpuModel().c_str());
  std::printf("# build: zam %s git=%s compiler=\"%s\" type=%s "
              "threaded_dispatch=%s\n",
              buildVersion(), buildGitHash(), buildCompiler(), Type.c_str(),
              threadedDispatchAvailable() ? "on" : "off");
  if (Type != "Release" && Type != "RelWithDebInfo")
    std::printf("# WARNING: not an optimized build (type \"%s\"); timings "
                "are not comparable\n",
                Type.c_str());
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::string expectedDigest(const std::string &Path,
                           const std::string &Workload) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream L(Line);
    std::string Name, Hex;
    if (L >> Name >> Hex && Name == Workload)
      return Hex;
  }
  return "";
}

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// workload that does not exercise a layer leaves its metrics at 0.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"frontend.parse_us", "us"},
      {"frontend.check_us", "us"},
      {"frontend.bytes_per_us", "B/us"},
      {"frontend.self_share", "ratio"},
      {"compile.us_per_run", "us"},
      {"compile.share", "ratio"},
      {"compile.ir_instrs", "count"},
      {"compile.lir_uops", "count"},
      {"engine.run_us_per_run", "us"},
      {"engine.dispatches", "count"},
      {"engine.ns_per_dispatch", "ns"},
      {"engine.self_share", "ratio"},
      {"hw.accesses", "count"},
      {"hw.clone_us", "us"},
      {"hw.l1d_hit_ratio", "ratio"},
      {"hw.l1i_hit_ratio", "ratio"},
      {"hw.l2_hit_ratio", "ratio"},
      {"hw.run_share", "ratio"},
      {"hw.share", "ratio"},
      {"hw.ns_per_access.partitioned", "ns"},
      {"hw.ns_per_access.nofill", "ns"},
      {"hw.ns_per_access.nopar", "ns"},
      {"obs.probe_us", "us"},
      {"obs.ledger_us", "us"},
      {"obs.misses_us", "us"},
      {"obs.leakaudit_us", "us"},
      {"obs.encode.jsonl_mb_per_s", "MB/s"},
      {"obs.encode.chrome_mb_per_s", "MB/s"},
      {"obs.encode.ztb_mb_per_s", "MB/s"},
      {"obs.encode.jsonl_bytes", "B"},
      {"obs.encode.chrome_bytes", "B"},
      {"obs.encode.ztb_bytes", "B"},
      {"obs.self_share", "ratio"},
      {"fanout.speedup.1", "x"},
      {"fanout.speedup.2", "x"},
      {"fanout.speedup.3", "x"},
      {"fanout.speedup.4", "x"},
      {"fanout.efficiency", "ratio"},
      {"fanout.busy_share", "ratio"},
      {"fanout.self_share", "ratio"},
      {"adv.detect_ms", "ms"},
      {"adv.self_share", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead", "ratio"},
      {"trace.spans_per_request", "count"},
  };
  return M;
}

/// Tallies of one closed loop.
struct LoopStats {
  std::vector<double> LatencyNs;
  uint64_t Failed = 0;
};

/// Runs requests from \p Next until \p Seconds of wall time have passed.
/// With \p Log, requests are traced; otherwise request() alone is timed.
LoopStats closedLoop(Workload &W, size_t &Next, double Seconds, SpanLog *Log,
                     std::string &Err) {
  LoopStats S;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  do {
    const size_t I = Next++;
    unsigned Bad = 0;
    if (Log) {
      const size_t Before = Log->spans().size();
      Bad += W.tracedRequest(I, *Log, Err);
      // The root span is the first one the request opened.
      const Span &Root = Log->spans()[Before];
      S.LatencyNs.push_back(static_cast<double>(Root.End - Root.Start));
    } else {
      uint64_t T0 = nowNs();
      W.request(I);
      S.LatencyNs.push_back(static_cast<double>(nowNs() - T0));
    }
    Bad += W.verify(I, Err);
    S.Failed += Bad != 0;
  } while (nowNs() < Deadline);
  return S;
}

/// Per-layer metrics derived from the traced loop's spans.
void spanMetrics(const SpanLog &Log, Metrics &M) {
  const std::vector<uint64_t> Self = Log.selfTimes();
  double LayerSelf[kNumLayers] = {};
  double Total = 0;
  std::map<std::string, std::pair<double, uint64_t>> ByName; // ns, count
  uint64_t Requests = 0;
  for (size_t I = 0; I != Log.spans().size(); ++I) {
    const Span &S = Log.spans()[I];
    LayerSelf[static_cast<unsigned>(S.L)] += static_cast<double>(Self[I]);
    Total += static_cast<double>(Self[I]);
    auto &[Ns, N] = ByName[S.Name];
    Ns += static_cast<double>(S.End - S.Start);
    ++N;
    Requests += S.Parent < 0 && std::strcmp(S.Name, kRequestSpan) == 0;
  }
  auto Share = [&](Layer L) {
    return Total > 0 ? LayerSelf[static_cast<unsigned>(L)] / Total : 0.0;
  };
  auto MeanUs = [&](const char *Name) {
    auto It = ByName.find(Name);
    return It == ByName.end() ? 0.0
                              : It->second.first / 1e3 /
                                    static_cast<double>(It->second.second);
  };
  M.set("frontend.parse_us", MeanUs("parseProgram"), "us");
  M.set("frontend.check_us", MeanUs("check"), "us");
  M.set("frontend.self_share", Share(Layer::Frontend), "ratio");
  M.set("compile.us_per_run", MeanUs("FullInterpreter"), "us");
  M.set("compile.share", Share(Layer::Compile), "ratio");
  M.set("engine.run_us_per_run", MeanUs("run"), "us");
  M.set("engine.self_share", Share(Layer::Engine), "ratio");
  // The hardware model's time inside run() is not spanned (an access is
  // tens of nanoseconds); hw.run_share from the null-env probe apportions
  // the engine's self time.
  M.set("hw.share",
        Share(Layer::Hw) + M.get("hw.run_share") * Share(Layer::Engine),
        "ratio");
  M.set("obs.self_share", Share(Layer::Obs), "ratio");
  M.set("fanout.self_share", Share(Layer::Exp), "ratio");
  M.set("adv.detect_ms", MeanUs("detectLeak") / 1e3, "ms");
  M.set("adv.self_share", Share(Layer::Adv), "ratio");
  M.set("trace.unattributed_share", Share(Layer::Bench), "ratio");
  M.set("trace.spans_per_request",
        Requests ? static_cast<double>(Log.spans().size()) /
                       static_cast<double>(Requests)
                 : 0.0,
        "count");
}

/// Writes the spans of the first kSpanDumpRequests traced requests, one
/// JSON object per line. \returns false when the file cannot be written.
bool writeSpans(const SpanLog &Log, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  static const char *const Layers[kNumLayers] = {
      "bench", "frontend", "compile", "engine", "hw", "obs", "fanout", "adv"};
  const std::vector<uint64_t> Self = Log.selfTimes();
  const std::vector<Span> &Spans = Log.spans();
  const uint32_t FirstReq = Spans.empty() ? 0 : Spans.front().Req;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Req - FirstReq >= kSpanDumpRequests)
      continue;
    std::fprintf(F,
                 "{\"id\": %zu, \"parent\": %d, \"req\": %u, \"layer\": "
                 "\"%s\", \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"dur_ns\": %llu, \"self_ns\": %llu}\n",
                 I, S.Parent, S.Req, Layers[static_cast<unsigned>(S.L)],
                 S.Name, static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End - S.Start),
                 static_cast<unsigned long long>(Self[I]));
  }
  return std::fclose(F) == 0;
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metrics::Entry> &Out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                Out[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  printFingerprint();
  std::printf("# workload: %s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);

  // The simulated-statistics digest, over a fixed input set.
  std::string Digested;
  {
    std::unique_ptr<Workload> D = makeWorkload(A.Workload);
    D->setup(kDigestSeed);
    Digest Dg;
    D->digest(Dg);
    Digested = Dg.hex();
  }
  if (A.PrintDigest) {
    std::printf("%s %s\n", A.Workload.c_str(), Digested.c_str());
    return 0;
  }
  std::string Err;
  uint64_t Attempted = 1, Failed = 0;
  const std::string Expected = expectedDigest(A.Expected, A.Workload);
  if (Digested != Expected) {
    ++Failed;
    Err = "simulated-statistics digest " + Digested + " differs from the "
          "expected " + (Expected.empty() ? "(none)" : Expected) + " in " +
          A.Expected;
  }
  std::printf("# digest: %s (%s); the hardware model has no hardware "
              "reference, so no accuracy figure is reported\n",
              Digested.c_str(), Digested == Expected ? "matches" : "MISMATCH");

  // Set-up: every input generator. It is timed kSetupReps times: once for
  // the instance the loop uses, and on throw-away instances spread over the
  // timed loop, so the median samples the host as the requests do.
  constexpr unsigned kSetupReps = 7;
  std::vector<double> SetupS;
  auto TimedSetup = [&] {
    std::unique_ptr<Workload> Fresh = makeWorkload(A.Workload);
    uint64_t T0 = nowNs();
    Fresh->setup(A.Seed);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    return Fresh;
  };
  std::unique_ptr<Workload> W = TimedSetup();

  size_t Next = 0;
  std::string LoopErr;
  // Warm-up, checked but untimed: lets lazy set-up and host caches settle.
  for (unsigned R = 0; R != 2; ++R) {
    LoopStats Warm = closedLoop(*W, Next, 1e-9, nullptr, LoopErr);
    ++Attempted;
    Failed += Warm.Failed;
  }

  Metrics M;
  if (!A.Trace) {
    LoopStats S;
    for (unsigned R = 1; R != kSetupReps; ++R) {
      LoopStats Part =
          closedLoop(*W, Next, A.Seconds / (kSetupReps - 1), nullptr, LoopErr);
      S.LatencyNs.insert(S.LatencyNs.end(), Part.LatencyNs.begin(),
                         Part.LatencyNs.end());
      S.Failed += Part.Failed;
      TimedSetup();
    }
    double SumNs = 0;
    for (double L : S.LatencyNs)
      SumNs += L;
    const double N = static_cast<double>(S.LatencyNs.size());
    Attempted += S.LatencyNs.size();
    Failed += S.Failed;
    M.set("req_per_s", N / (SumNs / 1e9), "1/s");
    M.set("req_ms_p50", quantile(S.LatencyNs, 0.5) / 1e6, "ms");
    M.set("req_ms_p90", quantile(S.LatencyNs, 0.9) / 1e6, "ms");
    M.set("setup_s", median(SetupS), "s");
    M.set("peak_rss_mb", peakRssMb(), "MB");
    std::printf("# requests: %zu (closed loop, 1 client thread)\n",
                S.LatencyNs.size());
    std::printf("# latency ms: p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f "
                "p99 %.4f\n",
                quantile(S.LatencyNs, 0.1) / 1e6,
                quantile(S.LatencyNs, 0.25) / 1e6,
                quantile(S.LatencyNs, 0.5) / 1e6,
                quantile(S.LatencyNs, 0.75) / 1e6,
                quantile(S.LatencyNs, 0.9) / 1e6,
                quantile(S.LatencyNs, 0.99) / 1e6);
  } else {
    // Each request runs untraced, then traced, on the same inputs, so
    // neither host drift nor the input mix biases the overhead ratio.
    LoopStats Plain, Traced;
    SpanLog Log;
    const uint64_t Deadline =
        nowNs() + static_cast<uint64_t>(A.Seconds * 0.9 * 1e9);
    do {
      const size_t I = Next;
      for (auto [Side, Spans] :
           {std::pair{&Plain, static_cast<SpanLog *>(nullptr)},
            {&Traced, &Log}}) {
        Next = I;
        LoopStats One = closedLoop(*W, Next, 1e-9, Spans, LoopErr);
        Side->LatencyNs.push_back(One.LatencyNs.front());
        Side->Failed += One.Failed;
      }
    } while (nowNs() < Deadline);
    Attempted += Plain.LatencyNs.size() + Traced.LatencyNs.size() + 1;
    Failed += Plain.Failed + Traced.Failed;
    std::string ProbeErr;
    if (W->probeLayers(M, ProbeErr)) {
      ++Failed;
      if (Err.empty())
        Err = ProbeErr;
    }
    spanMetrics(Log, M);
    M.set("trace.overhead",
          median(Traced.LatencyNs) / median(Plain.LatencyNs) - 1.0, "ratio");
    std::printf("# requests: %zu untraced, %zu traced, %zu spans\n",
                Plain.LatencyNs.size(), Traced.LatencyNs.size(),
                Log.spans().size());
    if (!A.SpansOut.empty()) {
      if (writeSpans(Log, A.SpansOut))
        std::printf("# spans: %s\n", A.SpansOut.c_str());
      else
        std::printf("# spans: cannot write %s\n", A.SpansOut.c_str());
    }
  }
  if (Err.empty())
    Err = LoopErr;
  const uint64_t Ok = Attempted - Failed;
  if (!A.Trace)
    M.set("ok_ratio",
          static_cast<double>(Ok) / static_cast<double>(Attempted), "ratio");

  std::vector<Metrics::Entry> Out;
  if (A.Trace) {
    for (const auto &[Name, Unit] : perLayerMetrics())
      Out.push_back({Name, M.get(Name), Unit});
    for (const std::string &Note : W->unexercised())
      std::printf("# not exercised: %s (unmeasured metrics read 0)\n",
                  Note.c_str());
  } else {
    Out = M.entries();
  }
  for (const Metrics::Entry &E : Out)
    std::printf("%-32s %16.6f %s\n", E.Name.c_str(), E.Value, E.Unit.c_str());
  if (const std::string Known = W->knownDefects(); !Known.empty())
    std::printf("# known defect (not counted as failed): %s\n",
                Known.c_str());
  if (Failed)
    std::printf("# FAILED %llu of %llu checks; first: %s\n",
                static_cast<unsigned long long>(Failed),
                static_cast<unsigned long long>(Attempted), Err.c_str());
  printJson(Failed == 0, Attempted, Failed, Out);
  return Failed == 0 ? 0 : 1;
}
