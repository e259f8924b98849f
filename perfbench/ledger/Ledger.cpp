//===- Ledger.cpp ---------------------------------------------------------===//

#include "Ledger.h"

#include "obs/ExecProfile.h"
#include "sem/FullInterpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace zam;
using namespace zam::ledger;

int32_t SpanLog::open(Layer L, const char *Name, uint32_t Req,
                      int32_t Parent) {
  Span S;
  S.L = L;
  S.Name = Name;
  S.Req = Req;
  S.Parent = Parent;
  S.Start = nowNs();
  Spans.push_back(S);
  return static_cast<int32_t>(Spans.size() - 1);
}

void SpanLog::adopt(const SpanLog &Other, int32_t Parent) {
  const int32_t Base = static_cast<int32_t>(Spans.size());
  for (Span S : Other.Spans) {
    S.Parent = S.Parent < 0 ? Parent : S.Parent + Base;
    Spans.push_back(S);
  }
}

std::vector<uint64_t> SpanLog::selfTimes() const {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].push_back({S.Start, S.End});
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    uint64_t Covered = 0, Cursor = P.Start;
    for (auto [B, E] : Kids) {
      B = std::max(B, Cursor);
      E = std::min(E, P.End);
      if (E > B) {
        Covered += E - B;
        Cursor = E;
      }
    }
    Self[I] = P.End - P.Start - Covered;
  }
  return Self;
}

void Digest::add(uint64_t V) { add(std::to_string(V)); }

void Digest::add(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  add(std::string(Buf));
}

void Digest::add(const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  H ^= ';';
  H *= 0x100000001b3ULL;
}

void Digest::addHw(const HwStats &S) {
  for (const CacheLevelStats *L : {&S.L1D, &S.L2D, &S.L1I, &S.L2I, &S.DTlb,
                                   &S.ITlb})
    for (uint64_t V :
         {L->Hits, L->Misses, L->Evictions, L->Writebacks, L->LineFills})
      add(V);
}

void Digest::addRun(const RunResult &R) {
  add(R.T.FinalTime);
  add(R.T.Steps);
  for (unsigned M : R.T.FinalMissTable)
    add(static_cast<uint64_t>(M));
  addHw(R.Hw);
}

void Digest::addProfile(const ExecProfile &P) {
  add(P.dispatches());
  for (unsigned K = 0; K != ExecProfile::kNumOps; ++K)
    add(P.opCount(static_cast<IrInstr::Op>(K)));
  add(P.branchTaken());
  add(P.branchNotTaken());
}

std::string Digest::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  if (!std::isfinite(Value))
    Value = 0;
  auto It = Index.find(Name);
  if (It != Index.end()) {
    Entries[It->second] = {Name, Value, Unit};
    return;
  }
  Index[Name] = Entries.size();
  Entries.push_back({Name, Value, Unit});
}

double Metrics::get(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? 0.0 : Entries[It->second].Value;
}

double ledger::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double ledger::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
