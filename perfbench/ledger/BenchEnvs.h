//===- BenchEnvs.h - Bench-side machine environments ------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two MachineEnv implementations that exist only to measure the hardware
/// layer from outside:
///
///  - NullEnv charges a constant latency and keeps no state, so a run on
///    it costs engine dispatch alone. Program results never depend on
///    timing, so a run on it dispatches exactly what a real run does; the
///    ledger asserts that.
///  - RecordingEnv forwards every access to a real environment and records
///    the access with the latency it was charged, so the stream can be
///    replayed through a fresh environment of each design.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_PERFBENCH_BENCHENVS_H
#define ZAM_PERFBENCH_BENCHENVS_H

#include "hw/MachineEnv.h"

#include <vector>

namespace zam {
namespace ledger {

class NullEnv final : public MachineEnv {
public:
  /// Takes the kind, lattice and configuration of \p Like.
  explicit NullEnv(const MachineEnv &Like)
      : MachineEnv(Like.hwKind(), Like.lattice(), Like.config()) {}

  uint64_t dataAccess(Addr, bool, Label, Label) override { return 1; }
  uint64_t fetch(Addr, Label, Label) override { return 1; }
  std::unique_ptr<MachineEnv> clone() const override;
  bool projectionEquals(const MachineEnv &, Label) const override {
    return true;
  }
  void reset() override {}
  void randomize(Rng &) override {}
  void perturbAbove(Label, Rng &) override {}
};

/// One access as the interpreter issued it, and the latency it was charged.
struct RecordedAccess {
  Addr A = 0;
  Label Read;
  Label Write;
  bool IsData = false;
  bool IsStore = false;
  uint64_t Cycles = 0;
};

class RecordingEnv final : public MachineEnv {
public:
  /// Forwards to \p Inner (borrowed; must outlive this env). Runs on it
  /// must not install a HwObserver: the inner env would not report to it.
  explicit RecordingEnv(MachineEnv &Inner)
      : MachineEnv(Inner.hwKind(), Inner.lattice(), Inner.config()),
        Inner(Inner) {}

  uint64_t dataAccess(Addr A, bool IsStore, Label Read, Label Write) override;
  uint64_t fetch(Addr A, Label Read, Label Write) override;
  std::unique_ptr<MachineEnv> clone() const override { return Inner.clone(); }
  bool projectionEquals(const MachineEnv &Other, Label L) const override {
    return Inner.projectionEquals(Other, L);
  }
  void reset() override { Inner.reset(); }
  void randomize(Rng &R) override { Inner.randomize(R); }
  void perturbAbove(Label L, Rng &R) override { Inner.perturbAbove(L, R); }
  HwStats stats() const override { return Inner.stats(); }
  void resetStats() override { Inner.resetStats(); }

  const std::vector<RecordedAccess> &stream() const { return Stream; }

private:
  MachineEnv &Inner;
  std::vector<RecordedAccess> Stream;
};

/// Replays \p Stream through \p Env in order. \returns the number of
/// accesses whose latency differs from the recorded one.
uint64_t replayStream(const std::vector<RecordedAccess> &Stream,
                      MachineEnv &Env);

} // namespace ledger
} // namespace zam

#endif // ZAM_PERFBENCH_BENCHENVS_H
