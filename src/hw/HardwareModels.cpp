//===- HardwareModels.cpp -------------------------------------------------===//

#include "hw/HardwareModels.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>

using namespace zam;

const char *zam::hwKindName(HwKind Kind) {
  switch (Kind) {
  case HwKind::NoPartition:
    return "nopar";
  case HwKind::NoFill:
    return "nofill";
  case HwKind::Partitioned:
    return "partitioned";
  }
  return "unknown";
}

MachineEnv::~MachineEnv() = default;

HwObserver::~HwObserver() = default;

bool MachineEnv::equivalentUpTo(const MachineEnv &Other, Label L) const {
  for (Label Lv : Lat->allLabels())
    if (Lat->flowsTo(Lv, L) && !projectionEquals(Other, Lv))
      return false;
  return true;
}

std::string MachineEnv::describe() const {
  std::string Out = hwKindName(Kind);
  Out += " hardware over a ";
  Out += std::to_string(Lat->size());
  Out += "-level lattice";
  return Out;
}

CacheConfig zam::partitionConfig(HwKind Kind, const SecurityLattice &Lat,
                                 const CacheConfig &Full) {
  CacheConfig Part = Full;
  if (Kind == HwKind::Partitioned)
    Part.NumSets = std::max(1u, Full.NumSets / Lat.size());
  return Part;
}

namespace {

/// The delta between two event snapshots of one structure.
HwEventDelta eventDelta(const CacheEvents &Before, const CacheEvents &After) {
  HwEventDelta D;
  D.Evictions = static_cast<uint32_t>(After.Evictions - Before.Evictions);
  D.Writebacks = static_cast<uint32_t>(After.Writebacks - Before.Writebacks);
  D.LineFills = static_cast<uint32_t>(After.LineFills - Before.LineFills);
  return D;
}

/// Folds one cache's event counters into the merged per-structure view.
void mergeEvents(CacheLevelStats &S, const CacheEvents &E) {
  S.Evictions += E.Evictions;
  S.Writebacks += E.Writebacks;
  S.LineFills += E.LineFills;
}

/// The cache hierarchy behind every design. Each structure (TLB, L1, L2,
/// for data and for instructions) holds one partition per owning level;
/// which levels own a partition, and whether labels are honoured at all, is
/// the whole difference between the designs. The constructor compiles that
/// into one access plan per (er, ew), so the walk never consults the
/// lattice.
class CacheHierarchy final : public MachineEnv {
public:
  CacheHierarchy(HwKind Kind, const SecurityLattice &Lat,
                 const MachineEnvConfig &Config);

  uint64_t dataAccess(Addr A, bool IsStore, Label Read, Label Write) override {
    return access<true>(A, IsStore, Read, Write);
  }
  uint64_t fetch(Addr A, Label Read, Label Write) override {
    return access<false>(A, /*IsStore=*/false, Read, Write);
  }
  std::unique_ptr<MachineEnv> clone() const override {
    return std::make_unique<CacheHierarchy>(*this);
  }
  std::unique_ptr<MachineEnv>
  cloneInto(std::unique_ptr<MachineEnv> Storage) const override {
    auto *Into = dynamic_cast<CacheHierarchy *>(Storage.get());
    if (!Into)
      return clone();
    // Cache assignment reuses line storage of equal capacity.
    *Into = *this;
    return Storage;
  }
  bool projectionEquals(const MachineEnv &Other, Label L) const override;
  void reset() override;
  void randomize(Rng &R) override;
  void perturbAbove(Label L, Rng &R) override;
  HwStats stats() const override;
  void resetStats() override;

private:
  /// The structures, in the order their partitions are stored (and hence
  /// randomized).
  enum Structure : unsigned { L1D, L2D, L1I, L2I, DTlb, ITlb, NumStructures };

  /// Marks a lookup entry whose partition may be probed but not modified
  /// (Property 5). Slots fit below it: kMaxHwLevels < kProbeOnly.
  static constexpr uint8_t kProbeOnly = 0x80;
  /// Install target when no partition sits at ew: no-fill mode.
  static constexpr uint8_t kNoInstall = 0xff;

  /// What one access with labels (er, ew) does, as ranges of partition
  /// slots in Entries: the lookup visits the slots at levels ⊑ er in
  /// ascending order, each flagged kProbeOnly when ew ⋢ its level; a fill
  /// first removes stale copies from the victim slots (levels strictly
  /// above ew) and then installs at the ew slot.
  struct AccessPlan {
    uint32_t Lookup, LookupEnd;
    uint32_t Victims, VictimsEnd;
    uint8_t Install;
  };

  template <bool IsData>
  uint64_t access(Addr A, bool IsStore, Label Read, Label Write) {
    assert(lattice().contains(Read) && lattice().contains(Write) &&
           "labels from another lattice");
    const AccessPlan &Plan = Plans[Read.index() * Levels + Write.index()];
    if (observer() == nullptr)
      return walk<false, IsData>(A, IsStore, Plan);
    return walk<true, IsData>(A, IsStore, Plan);
  }

  /// The TLB → L1 → L2 walk of the data (\p IsData) or instruction path.
  /// \p IsStore marks the L1 line dirty (telemetry only; writebacks add no
  /// latency). \p Observed selects whether the access is reported to the
  /// observer — the unobserved instantiation is the simulator's hottest
  /// path and keeps no HwAccess at all.
  template <bool Observed, bool IsData>
  uint64_t walk(Addr A, bool IsStore, const AccessPlan &Plan);

  // lookup() and fill() are forced inline: walk() calls each at twelve
  // sites over its instantiations, and GCC at -O2 (the default
  // RelWithDebInfo build) then keeps them out of line, which cost the
  // access path 12-44% against inlined code.

  /// Runs \p Plan's lookup over structure \p P. \returns true on a hit.
  [[gnu::always_inline]] bool lookup(Cache *P, Addr A, const AccessPlan &Plan,
                                     bool MarkDirty) {
    for (uint32_t I = Plan.Lookup; I != Plan.LookupEnd; ++I) {
      const uint8_t E = Entries[I];
      if ((E & kProbeOnly) ? P[E & ~kProbeOnly].probe(A)
                           : P[E].lookup(A, MarkDirty))
        return true;
    }
    return false;
  }

  /// Runs \p Plan's fill over structure \p P: a single copy is kept, so
  /// stale copies are removed before installing at ew.
  [[gnu::always_inline]] void fill(Cache *P, Addr A, const AccessPlan &Plan,
                                   bool Dirty) {
    for (uint32_t I = Plan.Victims; I != Plan.VictimsEnd; ++I)
      P[Entries[I]].remove(A);
    if (Plan.Install != kNoInstall)
      P[Plan.Install].install(A, Dirty);
  }

  Cache *structure(Structure S) { return Parts.data() + S * PerStructure; }

  /// Sums one structure's event counters over its partitions.
  CacheEvents events(Structure S) {
    CacheEvents E;
    const Cache *P = structure(S);
    for (unsigned I = 0; I != PerStructure; ++I) {
      E.Evictions += P[I].events().Evictions;
      E.Writebacks += P[I].events().Writebacks;
      E.LineFills += P[I].events().LineFills;
    }
    return E;
  }

  /// The level owning partition \p I of Parts.
  Label level(size_t I) const { return Owners[I % PerStructure]; }

  unsigned Levels;               ///< Lattice size.
  unsigned PerStructure;         ///< Owners.size().
  std::vector<Label> Owners;     ///< Owning levels, one partition slot each.
  std::vector<Cache> Parts;      ///< NumStructures × Owners, structure-major.
  std::vector<AccessPlan> Plans; ///< Indexed er * Levels + ew.
  std::vector<uint8_t> Entries;  ///< Slot lists the plans point into.
};

} // namespace

CacheHierarchy::CacheHierarchy(HwKind Kind, const SecurityLattice &Lat,
                               const MachineEnvConfig &Config)
    : MachineEnv(Kind, Lat, Config), Levels(Lat.size()) {
  if (Levels > kMaxHwLevels)
    reportFatalError("lattice too large for the hardware model");
  if (Kind == HwKind::Partitioned)
    Owners = Lat.allLabels();
  else
    Owners = {Lat.bottom()};
  PerStructure = static_cast<unsigned>(Owners.size());
  const bool HonourLabels = Kind != HwKind::NoPartition;

  Parts.reserve(NumStructures * PerStructure);
  for (const CacheConfig *Full :
       {&Config.L1D, &Config.L2D, &Config.L1I, &Config.L2I, &Config.DTlb,
        &Config.ITlb})
    for (unsigned I = 0; I != PerStructure; ++I)
      Parts.emplace_back(partitionConfig(Kind, Lat, *Full));

  for (Label Read : Lat.allLabels())
    for (Label Write : Lat.allLabels()) {
      const Label R = HonourLabels ? Read : Lat.bottom();
      const Label W = HonourLabels ? Write : Lat.bottom();
      AccessPlan Plan;
      Plan.Install = kNoInstall;
      Plan.Lookup = static_cast<uint32_t>(Entries.size());
      for (uint8_t I = 0; I != PerStructure; ++I)
        if (Lat.flowsTo(Owners[I], R))
          Entries.push_back(Lat.flowsTo(W, Owners[I]) ? I : I | kProbeOnly);
      Plan.LookupEnd = Plan.Victims = static_cast<uint32_t>(Entries.size());
      for (uint8_t I = 0; I != PerStructure; ++I) {
        if (Owners[I] == W)
          Plan.Install = I;
        else if (Lat.flowsTo(W, Owners[I]))
          Entries.push_back(I);
      }
      Plan.VictimsEnd = static_cast<uint32_t>(Entries.size());
      Plans.push_back(Plan);
    }
}

template <bool Observed, bool IsData>
uint64_t CacheHierarchy::walk(Addr A, bool IsStore, const AccessPlan &Plan) {
  Cache *Tlb = structure(IsData ? DTlb : ITlb);
  Cache *L1 = structure(IsData ? L1D : L1I);
  Cache *L2 = structure(IsData ? L2D : L2I);
  CacheLevelStats &TlbStats = IsData ? Stats.DTlb : Stats.ITlb;
  CacheLevelStats &L1Stats = IsData ? Stats.L1D : Stats.L1I;
  CacheLevelStats &L2Stats = IsData ? Stats.L2D : Stats.L2I;

  HwAccess Acc;
  CacheEvents Before[3];
  if constexpr (Observed) {
    Acc.A = A;
    Acc.IsData = IsData;
    Acc.IsStore = IsStore;
    Before[0] = events(IsData ? DTlb : ITlb);
    Before[1] = events(IsData ? L1D : L1I);
    Before[2] = events(IsData ? L2D : L2I);
  }

  uint64_t Cycles = 0;
  if (lookup(Tlb, A, Plan, /*MarkDirty=*/false)) {
    ++TlbStats.Hits;
  } else {
    ++TlbStats.Misses;
    Acc.TlbMiss = true;
    Cycles += Tlb->latency();
    fill(Tlb, A, Plan, /*Dirty=*/false);
  }

  Cycles += L1->latency();
  if (lookup(L1, A, Plan, IsStore)) {
    ++L1Stats.Hits;
  } else {
    ++L1Stats.Misses;
    Acc.L1Miss = true;
    Cycles += L2->latency();
    if (lookup(L2, A, Plan, /*MarkDirty=*/false)) {
      ++L2Stats.Hits;
    } else {
      ++L2Stats.Misses;
      Acc.L2Miss = true;
      Cycles += Config.MemLatency;
      fill(L2, A, Plan, /*Dirty=*/false);
    }
    fill(L1, A, Plan, IsStore);
  }

  if constexpr (Observed) {
    Acc.Cycles = Cycles;
    Acc.TlbEvents = eventDelta(Before[0], events(IsData ? DTlb : ITlb));
    Acc.L1Events = eventDelta(Before[1], events(IsData ? L1D : L1I));
    Acc.L2Events = eventDelta(Before[2], events(IsData ? L2D : L2I));
    notifyAccess(Acc);
  }
  return Cycles;
}

bool CacheHierarchy::projectionEquals(const MachineEnv &Other, Label L) const {
  assert(Other.hwKind() == hwKind() && "comparing different hardware designs");
  assert(lattice().contains(L) && "label from another lattice");
  const auto &O = static_cast<const CacheHierarchy &>(Other);
  for (size_t I = 0; I != Parts.size(); ++I)
    if (level(I) == L && !(Parts[I] == O.Parts[I]))
      return false;
  return true;
}

void CacheHierarchy::reset() {
  for (Cache &C : Parts)
    C.reset();
}

void CacheHierarchy::randomize(Rng &R) {
  for (Cache &C : Parts)
    C.randomize(R);
}

void CacheHierarchy::perturbAbove(Label L, Rng &R) {
  for (size_t I = 0; I != Parts.size(); ++I)
    if (!lattice().flowsTo(level(I), L))
      Parts[I].randomize(R);
}

HwStats CacheHierarchy::stats() const {
  static constexpr CacheLevelStats HwStats::*Of[NumStructures] = {
      &HwStats::L1D, &HwStats::L2D,  &HwStats::L1I,
      &HwStats::L2I, &HwStats::DTlb, &HwStats::ITlb};
  HwStats S = Stats;
  for (size_t I = 0; I != Parts.size(); ++I)
    mergeEvents(S.*Of[I / PerStructure], Parts[I].events());
  return S;
}

void CacheHierarchy::resetStats() {
  Stats.reset();
  for (Cache &C : Parts)
    C.resetEvents();
}

std::unique_ptr<MachineEnv>
zam::createMachineEnv(HwKind Kind, const SecurityLattice &Lat,
                      const MachineEnvConfig &Config) {
  switch (Kind) {
  case HwKind::NoPartition:
  case HwKind::NoFill:
  case HwKind::Partitioned:
    return std::make_unique<CacheHierarchy>(Kind, Lat, Config);
  }
  reportFatalError("unknown hardware kind");
}
