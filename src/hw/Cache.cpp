//===- Cache.cpp ----------------------------------------------------------===//

#include "hw/Cache.h"

#include <algorithm>
#include <cassert>

using namespace zam;

Cache::Cache(const CacheConfig &Config)
    : Assoc(Config.Assoc), Latency(Config.Latency), Config(Config) {
  assert(Config.NumSets > 0 && Config.Assoc > 0 && Config.BlockBytes > 0 &&
         "degenerate cache configuration");
  Lines = std::make_unique_for_overwrite<Line[]>(Config.capacity());
  Occupancy.assign(Config.NumSets, 0);
  if (std::has_single_bit(Config.BlockBytes) &&
      std::has_single_bit(Config.NumSets)) {
    BlockShift = static_cast<unsigned>(std::countr_zero(Config.BlockBytes));
    SetMask = Config.NumSets - 1;
    TagShift = BlockShift + static_cast<unsigned>(std::countr_zero(Config.NumSets));
  }
}

Cache::Cache(const Cache &Other) { *this = Other; }

Cache &Cache::operator=(const Cache &Other) {
  if (this == &Other)
    return *this;
  // Storage is reused when the capacity matches; its old lines lie past
  // the new occupancy and are never read.
  if (!Lines || Config.capacity() != Other.Config.capacity())
    Lines = std::make_unique_for_overwrite<Line[]>(Other.Config.capacity());
  BlockShift = Other.BlockShift;
  TagShift = Other.TagShift;
  SetMask = Other.SetMask;
  Assoc = Other.Assoc;
  Latency = Other.Latency;
  Occupancy = Other.Occupancy;
  Resident = Other.Resident;
  Config = Other.Config;
  Events = Other.Events;
  copyResident(Other);
  return *this;
}

void Cache::copyResident(const Cache &Other) {
  if (Resident == 0)
    return;
  for (unsigned S = 0; S != Config.NumSets; ++S)
    std::copy_n(Other.setLines(S), Occupancy[S], setLines(S));
}

void Cache::install(Addr A, bool Dirty) {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  Line *Set = setLines(S);
  uint32_t &N = Occupancy[S];
  uint32_t W = 0;
  while (W != N && Set[W].Tag != Tag)
    ++W;
  if (W != N) {
    // Resident: promote; the dirty bit accumulates (a clean install does
    // not launder a dirty line).
    Dirty = Dirty || Set[W].Dirty;
  } else {
    ++Events.LineFills;
    if (N == Assoc) {
      // Evict LRU.
      ++Events.Evictions;
      if (Set[N - 1].Dirty)
        ++Events.Writebacks;
      W = N - 1;
    } else {
      W = N++;
      ++Resident;
    }
  }
  for (uint32_t I = W; I != 0; --I)
    Set[I] = Set[I - 1];
  Set[0] = Line{Tag, Dirty};
}

void Cache::remove(Addr A) {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  Line *Set = setLines(S);
  uint32_t &N = Occupancy[S];
  for (uint32_t W = 0; W != N; ++W) {
    if (Set[W].Tag != Tag)
      continue;
    if (Set[W].Dirty)
      ++Events.Writebacks;
    for (uint32_t I = W; I + 1 != N; ++I)
      Set[I] = Set[I + 1];
    --N;
    --Resident;
    return;
  }
}

void Cache::reset() {
  std::fill(Occupancy.begin(), Occupancy.end(), 0);
  Resident = 0;
}

void Cache::randomize(Rng &R, double FillFraction) {
  reset();
  for (unsigned S = 0; S != Config.NumSets; ++S) {
    Line *Set = setLines(S);
    uint32_t &N = Occupancy[S];
    for (unsigned Way = 0; Way != Config.Assoc; ++Way)
      if (R.nextDouble() < FillFraction) {
        uint64_t Tag = R.nextBelow(1u << 16);
        bool Dup = false;
        for (uint32_t W = 0; W != N; ++W)
          Dup = Dup || Set[W].Tag == Tag;
        if (!Dup) {
          Set[N++] = Line{Tag, false};
          ++Resident;
        }
      }
  }
}

bool Cache::operator==(const Cache &Other) const {
  if (Config != Other.Config || Occupancy != Other.Occupancy)
    return false;
  for (unsigned S = 0; S != Config.NumSets; ++S) {
    const Line *A = setLines(S), *B = Other.setLines(S);
    for (uint32_t W = 0; W != Occupancy[S]; ++W)
      if (A[W].Tag != B[W].Tag)
        return false;
  }
  return true;
}
