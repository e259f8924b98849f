//===- RsaWorkload.cpp - rsa_decrypt: the Fig. 8 decryption server -------===//
//
// Each request is one serial RsaSession::decrypt of a multi-block
// ciphertext (kMinBlocks..kMaxBlocks blocks) under PerBlock mitigation,
// with a calibrated estimate and the session's mitigation state and
// PartitionedHw environment shared across requests (the Fig. 8 shape).
// Runs are long, so compilation is about 1% of a request and engine
// dispatch plus the hardware model are nearly everything: a compile-once
// change should show no gain here.
//
// Decryption time grows with the private exponent's length and weight, so
// the server holds kKeys keys (one session each) and requests rotate over
// them; a run then averages over keys instead of depending on one. Message
// lengths vary so that request latencies spread over a continuous range:
// a percentile then moves smoothly with host speed instead of jumping
// between the clusters a single message length would form.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Probes.h"

#include "apps/RsaApp.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"

using namespace zam;
using namespace zam::ledger;

namespace {

constexpr unsigned kModulusBits = 53;
constexpr unsigned kMinBlocks = 2;
constexpr unsigned kMaxBlocks = 5;
constexpr unsigned kKeys = 8;
constexpr unsigned kMessagesPerKey = 16;
constexpr unsigned kCalibrationSamples = 2;

class RsaWorkload final : public Workload {
public:
  void setup(uint64_t Seed) override;
  void request(size_t I) override;
  unsigned verify(size_t I, std::string &Err) override;
  unsigned tracedRequest(size_t I, SpanLog &Log, std::string &Err) override;
  void digest(Digest &D) override;
  unsigned probeLayers(Metrics &M, std::string &Err) override;
  std::vector<std::string> unexercised() const override {
    return {"frontend: the RSA program is built in set-up; no source is "
            "parsed per request",
            "obs: runs carry no observer, no audit and no encoder",
            "fanout: decryption is serial", "adv: no detector runs"};
  }

private:
  /// One key holder: its session and, for the traced run, a decomposed
  /// copy with its own env and Miss table.
  struct Holder {
    RsaKey Key;
    RsaProgramConfig Config;
    std::vector<std::vector<uint64_t>> Cipher;
    std::vector<std::vector<uint64_t>> Expected; ///< rsaDecryptBlock.
    std::unique_ptr<MachineEnv> Env;
    std::unique_ptr<RsaSession> Session;
    std::unique_ptr<MachineEnv> TracedEnv;
    std::unique_ptr<MitigationState> TracedMit;
    InterpreterOptions TracedOpts;
  };

  Holder &holder(size_t I) { return Holders[I % kKeys]; }
  static size_t messageIndex(size_t I) { return I / kKeys % kMessagesPerKey; }

  TwoPointLattice Lat;
  std::vector<Holder> Holders;
  std::vector<uint64_t> LastPlain;
};

void RsaWorkload::setup(uint64_t Seed) {
  Rng R(Seed);
  Holders.clear();
  Holders.resize(kKeys);
  for (Holder &H : Holders) {
    H.Key = generateRsaKey(R, kModulusBits);
    for (unsigned M = 0; M != kMessagesPerKey; ++M) {
      std::vector<uint64_t> C, E;
      const unsigned Blocks =
          kMinBlocks + static_cast<unsigned>(
                           R.nextBelow(kMaxBlocks - kMinBlocks + 1));
      for (unsigned B = 0; B != Blocks; ++B) {
        C.push_back(rsaEncryptBlock(H.Key, R.nextBelow(H.Key.N)));
        E.push_back(rsaDecryptBlock(H.Key, C.back()));
      }
      H.Cipher.push_back(std::move(C));
      H.Expected.push_back(std::move(E));
    }
    std::unique_ptr<MachineEnv> CalEnv =
        createMachineEnv(HwKind::Partitioned, Lat);
    H.Config.Mode = RsaMitigationMode::PerBlock;
    H.Config.MaxBlocks = kMaxBlocks;
    H.Config.Estimate = calibrateRsaEstimate(Lat, H.Key, *CalEnv,
                                             kCalibrationSamples, R,
                                             kMaxBlocks);
    H.Env = createMachineEnv(HwKind::Partitioned, Lat);
    H.Session = std::make_unique<RsaSession>(Lat, H.Key, H.Config, *H.Env);

    H.TracedEnv = createMachineEnv(HwKind::Partitioned, Lat);
    H.TracedMit = std::make_unique<MitigationState>(
        Lat, H.TracedOpts.Mitigation.base(), H.TracedOpts.Penalty);
    H.TracedOpts.SharedMitState = H.TracedMit.get();
  }
}

void RsaWorkload::request(size_t I) {
  Holder &H = holder(I);
  LastPlain = H.Session->decrypt(H.Cipher[messageIndex(I)]).Plain;
}

unsigned RsaWorkload::verify(size_t I, std::string &Err) {
  if (LastPlain == holder(I).Expected[messageIndex(I)])
    return 0;
  if (Err.empty())
    Err = "rsa: request " + std::to_string(I) +
          " plaintext differs from rsaDecryptBlock";
  return 1;
}

unsigned RsaWorkload::tracedRequest(size_t I, SpanLog &Log,
                                    std::string &Err) {
  Holder &H = holder(I);
  Scoped Root(&Log, Layer::Bench, kRequestSpan, I, -1);
  std::unique_ptr<FullInterpreter> Interp;
  {
    Scoped Sp(&Log, Layer::Compile, "FullInterpreter", I, Root.id());
    Interp = std::make_unique<FullInterpreter>(H.Session->program(),
                                               *H.TracedEnv, H.TracedOpts);
  }
  setRsaMessage(Interp->memory(), H.Cipher[messageIndex(I)]);
  RunResult RR;
  {
    Scoped Sp(&Log, Layer::Engine, "run", I, Root.id());
    RR = Interp->run();
  }
  const MemorySlot &Plain = RR.FinalMemory.slot("plain");
  LastPlain.assign(Plain.Data.begin(),
                   Plain.Data.begin() + H.Cipher[messageIndex(I)].size());
  return 0;
}

void RsaWorkload::digest(Digest &D) {
  const Holder &H = Holders.front();
  std::unique_ptr<MachineEnv> DigestEnv =
      createMachineEnv(HwKind::Partitioned, Lat);
  ExecProfile Prof;
  InterpreterOptions Opts;
  Opts.Probe = &Prof;
  RsaSession S(Lat, H.Key, H.Config, *DigestEnv, Opts);
  for (size_t I = 0; I != 3; ++I) {
    RsaDecryptResult R = S.decrypt(H.Cipher[I]);
    D.add(R.Cycles);
    for (uint64_t P : R.Plain)
      D.add(P);
    for (unsigned M : R.T.FinalMissTable)
      D.add(static_cast<uint64_t>(M));
    LeakAudit Audit(Lat);
    Audit.ingest(R.T);
    D.add(Audit.totalBitsBound());
  }
  D.addHw(DigestEnv->stats());
  D.addProfile(Prof);
}

unsigned RsaWorkload::probeLayers(Metrics &M, std::string &Err) {
  std::vector<ProbeCase> Cases;
  for (size_t I = 0; I != 2; ++I) {
    const Holder &H = holder(I);
    ProbeCase C;
    C.P = &H.Session->program();
    C.Start = H.Env.get();
    const std::vector<uint64_t> &Msg = H.Cipher[messageIndex(I)];
    C.Prepare = [&Msg](Memory &Mem) { setRsaMessage(Mem, Msg); };
    Cases.push_back(std::move(C));
  }
  return probeEngineAndHw(Cases, 5, M, Err);
}

} // namespace

std::unique_ptr<Workload> ledger::makeRsaWorkload() {
  return std::make_unique<RsaWorkload>();
}
