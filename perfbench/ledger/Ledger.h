//===- Ledger.h - Layer-ledger benchmark infrastructure ---------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the layer ledger: the workload interface, the in-memory
/// span log the traced run records around calls into each layer, the
/// simulated-statistics digest, and the named-metric set zam_ledger prints.
///
/// Layers are zam's modules. Spans are recorded only from the benchmark's
/// own code, around the public entry points of each layer, so the traced
/// build of zam is the same build the untraced run measures.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_PERFBENCH_LEDGER_H
#define ZAM_PERFBENCH_LEDGER_H

#include "hw/CacheConfig.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace zam {

struct RunResult;
class ExecProfile;

namespace ledger {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The layers of the ledger, named after zam's modules (the metrics use
/// the same names; Exp reports as "fanout"). Bench is the benchmark's own
/// glue; its self time is the unattributed remainder.
enum class Layer : uint8_t {
  Bench,
  Frontend, ///< lang + types: parse, label inference, type check.
  Compile,  ///< ir: the FullInterpreter constructor (AST → IR → LIR).
  Engine,   ///< sem: FullInterpreter::run (dispatch plus hw accesses).
  Hw,       ///< hw: MachineEnv clone/creation.
  Obs,      ///< obs: LeakAudit, CostLedger, trace encoders.
  Exp,      ///< exp: ParallelRunner fan-out.
  Adv,      ///< adv: the leak detector.
};
inline constexpr unsigned kNumLayers = 8;

/// One recorded interval. Parent indexes the same log (-1: none); spans of
/// one request share Req.
struct Span {
  Layer L = Layer::Bench;
  const char *Name = "";
  uint32_t Req = 0;
  int32_t Parent = -1;
  uint64_t Start = 0;
  uint64_t End = 0;
};

/// Spans kept in memory until the run ends. Not thread-safe: worker
/// threads record into their own logs and the client thread adopts them.
class SpanLog {
public:
  int32_t open(Layer L, const char *Name, uint32_t Req, int32_t Parent);
  void close(int32_t Id) { Spans[Id].End = nowNs(); }
  /// Appends \p Other's spans; its root spans become children of
  /// \p Parent.
  void adopt(const SpanLog &Other, int32_t Parent);
  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span: its duration minus the union of its children's
  /// intervals (clipped to it).
  std::vector<uint64_t> selfTimes() const;

private:
  std::vector<Span> Spans;
};

/// RAII span; records nothing when \p Log is null, so the traced and
/// untraced runs can share one code path.
class Scoped {
public:
  Scoped(SpanLog *Log, Layer L, const char *Name, uint32_t Req,
         int32_t Parent)
      : Log(Log), Id(Log ? Log->open(L, Name, Req, Parent) : -1) {}
  ~Scoped() {
    if (Log)
      Log->close(Id);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
  int32_t id() const { return Id; }

private:
  SpanLog *Log;
  int32_t Id;
};

/// Name of the root span every traced request opens (layer Bench).
inline constexpr const char *kRequestSpan = "request";

/// FNV-1a over a canonical decimal rendering of simulated statistics.
class Digest {
public:
  void add(uint64_t V);
  void add(double V);
  void add(const std::string &S);
  void addHw(const HwStats &S);
  /// Final clock, FinalMissTable and HwStats of one run.
  void addRun(const RunResult &R);
  /// exec.* dispatch, per-opcode and branch counts.
  void addProfile(const ExecProfile &P);
  std::string hex() const;

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Metric set in insertion order.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  double get(const std::string &Name) const;
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  const std::vector<Entry> &entries() const { return Entries; }

private:
  std::vector<Entry> Entries;
  std::map<std::string, size_t> Index;
};

/// Quantile by linear interpolation over a sorted copy (q in [0,1]).
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// One workload of the ledger. zam_ledger calls setup() (all input
/// generators run there), then request()/verify() in a closed loop with
/// one client thread; only request() is timed.
class Workload {
public:
  virtual ~Workload() = default;

  /// Runs every input generator for \p Seed and builds the programs.
  virtual void setup(uint64_t Seed) = 0;
  /// One request over the generated inputs. Keeps what verify() reads.
  virtual void request(size_t I) = 0;
  /// Engine-independent oracles over the last request. \returns the
  /// number of mismatches and appends a description of the first to
  /// \p Err.
  virtual unsigned verify(size_t I, std::string &Err) = 0;
  /// The same request rebuilt from the layers' public calls, under a root
  /// span named kRequestSpan. Leaves the same state for verify() as
  /// request(), and \returns the number of decomposition mismatches.
  virtual unsigned tracedRequest(size_t I, SpanLog &Log,
                                 std::string &Err) = 0;
  /// Simulated statistics over a fixed input set (the workload must have
  /// been set up with kDigestSeed).
  virtual void digest(Digest &D) = 0;
  /// Per-layer passes that need their own runs (null env, access replay,
  /// observer toggles, fan-out sweep). \returns oracle mismatches.
  virtual unsigned probeLayers(Metrics &M, std::string &Err) = 0;
  /// One line per layer this workload does not exercise.
  virtual std::vector<std::string> unexercised() const = 0;
  /// Oracle mismatches traced to a known defect of zam rather than to the
  /// request ("" when none); printed with every result.
  virtual std::string knownDefects() const { return ""; }
};

/// The seed the simulated-statistics digest is computed at.
inline constexpr uint64_t kDigestSeed = 1;

std::unique_ptr<Workload> makeLoginWorkload();
std::unique_ptr<Workload> makeRsaWorkload();
std::unique_ptr<Workload> makeCorpusWorkload();

/// Splitmix-style mix for per-request seeds.
inline uint64_t mixSeed(uint64_t Seed, uint64_t I) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * (I + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

} // namespace ledger
} // namespace zam

#endif // ZAM_PERFBENCH_LEDGER_H
