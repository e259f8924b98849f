//===- BenchEnvs.cpp ------------------------------------------------------===//

#include "BenchEnvs.h"

using namespace zam;
using namespace zam::ledger;

std::unique_ptr<MachineEnv> NullEnv::clone() const {
  return std::make_unique<NullEnv>(*this);
}

uint64_t RecordingEnv::dataAccess(Addr A, bool IsStore, Label Read,
                                  Label Write) {
  uint64_t Cycles = Inner.dataAccess(A, IsStore, Read, Write);
  Stream.push_back({A, Read, Write, true, IsStore, Cycles});
  return Cycles;
}

uint64_t RecordingEnv::fetch(Addr A, Label Read, Label Write) {
  uint64_t Cycles = Inner.fetch(A, Read, Write);
  Stream.push_back({A, Read, Write, false, false, Cycles});
  return Cycles;
}

uint64_t ledger::replayStream(const std::vector<RecordedAccess> &Stream,
                              MachineEnv &Env) {
  uint64_t Mismatches = 0;
  for (const RecordedAccess &X : Stream) {
    uint64_t Cycles = X.IsData ? Env.dataAccess(X.A, X.IsStore, X.Read, X.Write)
                               : Env.fetch(X.A, X.Read, X.Write);
    Mismatches += Cycles != X.Cycles;
  }
  return Mismatches;
}
