//===- hw_test.cpp - The three hardware designs ----------------------------===//

#include "hw/HardwareModels.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
constexpr Addr DataA = 0x10000000;
constexpr Addr DataB = 0x10400000; // Far away: different L2 set.

MachineEnvConfig cfg() { return MachineEnvConfig(); }

/// Cold-access latency: TLB miss + L1 miss + L2 miss + memory.
uint64_t coldDataLatency(const MachineEnvConfig &C) {
  return C.DTlb.Latency + C.L1D.Latency + C.L2D.Latency + C.MemLatency;
}
} // namespace

//===----------------------------------------------------------------------===//
// Latency paths (Table 1 validation)
//===----------------------------------------------------------------------===//

class HwLatency : public ::testing::TestWithParam<HwKind> {};

TEST_P(HwLatency, ColdMissThenWarmHit) {
  auto Env = createMachineEnv(GetParam(), lh(), cfg());
  uint64_t Cold = Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Cold, coldDataLatency(cfg()));
  uint64_t Warm = Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Warm, cfg().L1D.Latency); // TLB hit + L1 hit.
}

TEST_P(HwLatency, L2HitAfterL1Eviction) {
  auto Env = createMachineEnv(GetParam(), lh(), cfg());
  Env->dataAccess(DataA, false, low(), low());
  // Evict DataA from L1 by filling its set (assoc ways + extras), using
  // addresses that alias in L1 but not in L2.
  const MachineEnvConfig C = cfg();
  const uint64_t L1Span = C.L1D.NumSets * C.L1D.BlockBytes;
  const uint64_t L2Span = C.L2D.NumSets * C.L2D.BlockBytes;
  // Conflict addresses share the L1 set (stride L1Span) but we need them to
  // spread over L2 sets too; use a stride that is a multiple of L1Span but
  // not of L2Span.
  ASSERT_NE(L1Span, L2Span);
  for (unsigned I = 1; I <= C.L1D.Assoc + 1; ++I)
    Env->dataAccess(DataA + I * L1Span * 3, false, low(), low());
  uint64_t Latency = Env->dataAccess(DataA, false, low(), low());
  // L1 miss, L2 hit (unless the conflict set also aliased in L2; the stride
  // choice avoids that for the Table 1 geometry).
  EXPECT_EQ(Latency, C.L1D.Latency + C.L2D.Latency);
}

TEST_P(HwLatency, FetchPathUsesInstructionCaches) {
  auto Env = createMachineEnv(GetParam(), lh(), cfg());
  constexpr Addr Code = 0x40000000;
  uint64_t Cold = Env->fetch(Code, low(), low());
  EXPECT_EQ(Cold, cfg().ITlb.Latency + cfg().L1I.Latency + cfg().L2I.Latency +
                      cfg().MemLatency);
  EXPECT_EQ(Env->fetch(Code, low(), low()), cfg().L1I.Latency);
  // Data caches were untouched.
  EXPECT_EQ(Env->stats().L1D.accesses(), 0u);
}

TEST_P(HwLatency, DeterministicReplay) {
  auto Env1 = createMachineEnv(GetParam(), lh(), cfg());
  auto Env2 = createMachineEnv(GetParam(), lh(), cfg());
  Rng R(7);
  std::vector<Addr> Addrs;
  for (int I = 0; I != 200; ++I)
    Addrs.push_back(DataA + R.nextBelow(1 << 20) * 8);
  uint64_t Sum1 = 0, Sum2 = 0;
  for (Addr A : Addrs)
    Sum1 += Env1->dataAccess(A, false, low(), low());
  for (Addr A : Addrs)
    Sum2 += Env2->dataAccess(A, false, low(), low());
  EXPECT_EQ(Sum1, Sum2);
  EXPECT_TRUE(Env1->stateEquals(*Env2));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, HwLatency,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// NoPartition (commodity) — deliberately insecure
//===----------------------------------------------------------------------===//

TEST(NoPartition, HighAccessPollutesSharedCache) {
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  // The (⊥-labeled) cache changed during a high-write-label access:
  // Property 5 is violated, which is what enables the Sec. 2.1 attack.
  EXPECT_FALSE(Env->projectionEquals(*Pre, low()));
}

TEST(NoPartition, HighStateAffectsLowTiming) {
  auto Env1 = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  auto Env2 = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  // Env1 warms the line in a high context; Env2 does not.
  Env1->dataAccess(DataA, false, high(), high());
  uint64_t T1 = Env1->dataAccess(DataA, false, low(), low());
  uint64_t T2 = Env2->dataAccess(DataA, false, low(), low());
  EXPECT_LT(T1, T2); // The low access observes the high access: a channel.
}

//===----------------------------------------------------------------------===//
// NoFill (Sec. 4.2)
//===----------------------------------------------------------------------===//

TEST(NoFill, HighContextDoesNotFill) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  // No-fill mode: the machine environment is completely unchanged.
  EXPECT_TRUE(Env->stateEquals(*Pre));
  // And therefore the subsequent low access still misses cold.
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()),
            coldDataLatency(cfg()));
}

TEST(NoFill, HighContextStillSeesLowCacheHits) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Fill as low.
  // High-context access to the warmed line hits without modifying state.
  auto Pre = Env->clone();
  EXPECT_EQ(Env->dataAccess(DataA, false, high(), high()),
            cfg().L1D.Latency);
  EXPECT_TRUE(Env->stateEquals(*Pre));
}

TEST(NoFill, LowContextFillsNormally) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()), cfg().L1D.Latency);
}

//===----------------------------------------------------------------------===//
// Partitioned (Sec. 4.3)
//===----------------------------------------------------------------------===//

TEST(Partitioned, PartitionConfigDividesSets) {
  const CacheConfig Part =
      partitionConfig(HwKind::Partitioned, lh(), cfg().L1D);
  EXPECT_EQ(Part.NumSets, cfg().L1D.NumSets / 2);
  EXPECT_EQ(Part.Assoc, cfg().L1D.Assoc);
  // The unpartitioned designs keep the full geometry.
  EXPECT_EQ(partitionConfig(HwKind::NoFill, lh(), cfg().L1D), cfg().L1D);
  EXPECT_EQ(partitionConfig(HwKind::NoPartition, lh(), cfg().L1D), cfg().L1D);
}

TEST(Partitioned, HighInstallGoesToHighPartition) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  EXPECT_TRUE(Env->projectionEquals(*Pre, low()));   // L partition untouched.
  EXPECT_FALSE(Env->projectionEquals(*Pre, high())); // H partition filled.
}

TEST(Partitioned, HighSearchFindsBothPartitions) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Install in L.
  // H access searches both partitions: hit.
  EXPECT_EQ(Env->dataAccess(DataA, false, high(), high()),
            cfg().L1D.Latency);
}

TEST(Partitioned, LowSearchIgnoresHighPartition) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, high(), high()); // Install in H.
  // L access searches only L: misses and takes full miss timing, exactly as
  // the consistency protocol prescribes.
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()),
            coldDataLatency(cfg()));
}

TEST(Partitioned, ConsistencyMoveToLow) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, high(), high()); // In H partition.
  Env->dataAccess(DataA, false, low(), low());   // Moves to L.
  // Now resident in L: a fresh H-partition-only probe shows the move.
  auto Reference = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Reference->dataAccess(DataA, false, low(), low());
  EXPECT_TRUE(Env->projectionEquals(*Reference, low()));
  EXPECT_TRUE(Env->projectionEquals(*Reference, high())); // H copy removed.
}

TEST(Partitioned, HighHitDoesNotDisturbLowLru) {
  // A high access hitting in the L partition must not promote the line
  // (Property 5): LRU state at L is low machine state.
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto Before = Env->clone();
  Env->dataAccess(DataA, false, low(), low());
  Before = Env->clone();
  Env->dataAccess(DataA, false, high(), high()); // Probe-hit in L.
  EXPECT_TRUE(Env->projectionEquals(*Before, low()));
}

TEST(Partitioned, PerturbAboveKeepsLowProjection) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Rng R(5);
  Env->randomize(R);
  auto Twin = Env->clone();
  Twin->perturbAbove(low(), R);
  EXPECT_TRUE(Env->equivalentUpTo(*Twin, low()));
  EXPECT_FALSE(Env->equivalentUpTo(*Twin, high())); // H parts perturbed.
}

TEST(Partitioned, ThreeLevelPartitioning) {
  auto Env = createMachineEnv(HwKind::Partitioned, lmh(), cfg());
  Label M = *lmh().byName("M");
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, M, M);
  EXPECT_TRUE(Env->projectionEquals(*Pre, lmh().bottom()));
  EXPECT_FALSE(Env->projectionEquals(*Pre, M));
  EXPECT_TRUE(Env->projectionEquals(*Pre, lmh().top()));
  // An M access hits content installed at L (searches levels ⊑ M).
  Env->reset();
  Env->dataAccess(DataB, false, lmh().bottom(), lmh().bottom());
  EXPECT_EQ(Env->dataAccess(DataB, false, M, M), cfg().L1D.Latency);
}

TEST(Partitioned, SmallerPartitionsMissMore) {
  // The partitioned design halves effective capacity: a working set that
  // fits the full L1 no longer fits one partition. This is the mechanism
  // behind Table 2's ~11% partitioning overhead.
  const MachineEnvConfig C = cfg();
  auto Full = createMachineEnv(HwKind::NoPartition, lh(), C);
  auto Part = createMachineEnv(HwKind::Partitioned, lh(), C);
  // Touch one block in every L1 set, twice.
  auto Walk = [&](MachineEnv &Env) {
    uint64_t Total = 0;
    for (int Round = 0; Round != 2; ++Round)
      for (unsigned S = 0; S != C.L1D.NumSets; ++S)
        for (unsigned W = 0; W != C.L1D.Assoc; ++W)
          Total += Env.dataAccess(DataA + (S + W * C.L1D.NumSets) *
                                              C.L1D.BlockBytes,
                                  false, low(), low());
    return Total;
  };
  EXPECT_LT(Walk(*Full), Walk(*Part));
}

TEST(MachineEnv, DescribeNamesTheDesign) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  EXPECT_NE(Env->describe().find("partitioned"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The Sec. 4.1 coarse abstraction: confidential data in public cache
//===----------------------------------------------------------------------===//

TEST(CoarseAbstraction, HighDataMayResideInLowCacheState) {
  // The machine environment stores only (tag, valid, LRU) — not data
  // blocks. Consequently an access to a *high variable's* fixed address
  // with low timing labels modifies low cache state identically regardless
  // of the variable's value, and single-step noninterference holds: this is
  // the paper's argument for why "high variables can reside in low cache
  // without hurting security" under the coarse abstraction.
  auto E1 = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto E2 = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  // Same address (h's storage), different contents — contents are not part
  // of E, so the resulting environments are identical.
  uint64_t T1 = E1->dataAccess(DataA, /*IsStore=*/true, low(), low());
  uint64_t T2 = E2->dataAccess(DataA, /*IsStore=*/true, low(), low());
  EXPECT_EQ(T1, T2);
  EXPECT_TRUE(E1->stateEquals(*E2));
  // And the line IS low state now: a later low read hits fast.
  EXPECT_EQ(E1->dataAccess(DataA, false, low(), low()), cfg().L1D.Latency);
}

TEST(HwStats, CountersTrackHitsAndMisses) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Cold: all misses.
  EXPECT_EQ(Env->stats().L1D.Misses, 1u);
  EXPECT_EQ(Env->stats().L2D.Misses, 1u);
  EXPECT_EQ(Env->stats().DTlb.Misses, 1u);
  // The cold miss filled a line at every level.
  EXPECT_EQ(Env->stats().L1D.LineFills, 1u);
  EXPECT_EQ(Env->stats().L2D.LineFills, 1u);
  Env->dataAccess(DataA, false, low(), low()); // Warm: all hits.
  EXPECT_EQ(Env->stats().L1D.Hits, 1u);
  EXPECT_EQ(Env->stats().DTlb.Hits, 1u);
  Env->resetStats();
  EXPECT_EQ(Env->stats().L1D.accesses(), 0u);
  EXPECT_EQ(Env->stats().L1D.LineFills, 0u);
}

TEST(HwStats, ResetStatsClearsEveryCounterOnEveryDesign) {
  for (HwKind Kind : allHwKinds()) {
    auto Env = createMachineEnv(Kind, lh(), cfg());
    // Generate traffic on both the data and instruction paths, with enough
    // conflicting lines to force evictions.
    const uint64_t L1Span = cfg().L1D.NumSets * cfg().L1D.BlockBytes;
    for (unsigned I = 0; I <= cfg().L1D.Assoc + 2; ++I) {
      Env->dataAccess(DataA + I * L1Span * 3, /*IsStore=*/true, low(), low());
      Env->fetch(0x40000000 + I * 64, low(), low());
    }
    EXPECT_NE(Env->stats(), HwStats()) << hwKindName(Kind);
    EXPECT_GT(Env->stats().L1D.Evictions, 0u) << hwKindName(Kind);
    Env->resetStats();
    // Every counter — hits, misses, evictions, writebacks, line fills, on
    // every structure — must read zero again.
    EXPECT_EQ(Env->stats(), HwStats()) << hwKindName(Kind);
    // Resetting counters must not flush cache contents: the warm line still
    // hits at L1 latency.
    EXPECT_EQ(Env->dataAccess(DataA + L1Span * 3 * cfg().L1D.Assoc, false,
                              low(), low()),
              cfg().L1D.Latency);
  }
}

//===----------------------------------------------------------------------===//
// Pinned access streams: every design's timing and state, bit for bit
//===----------------------------------------------------------------------===//

namespace {
/// FNV-1a over 64-bit words.
struct StreamDigest {
  uint64_t H = 14695981039346656037ull;
  void add(uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void add(const CacheLevelStats &S) {
    add(S.Hits);
    add(S.Misses);
    add(S.Evictions);
    add(S.Writebacks);
    add(S.LineFills);
  }
  void add(const HwEventDelta &D) {
    add(D.Evictions);
    add(D.Writebacks);
    add(D.LineFills);
  }
};

/// Digests everything an observer sees of each access.
class DigestObserver final : public HwObserver {
public:
  explicit DigestObserver(StreamDigest &D) : D(D) {}
  void onAccess(const HwAccess &Acc) override {
    D.add(Acc.A);
    D.add(Acc.IsData | Acc.IsStore << 1 | Acc.TlbMiss << 2 | Acc.L1Miss << 3 |
          Acc.L2Miss << 4);
    D.add(Acc.Cycles);
    D.add(Acc.TlbEvents);
    D.add(Acc.L1Events);
    D.add(Acc.L2Events);
  }

private:
  StreamDigest &D;
};

/// Drives one seeded stream of fetches, loads and stores over every
/// (er,ew) pair through a randomized \p Kind environment over \p Lat, with
/// addresses drawn from a small pool that collides in TLB, L1 and L2 sets.
/// Digests every latency, the final HwStats, projectionEquals against the
/// pre-stream clone at every level, and perturbAbove at every level. With
/// \p Observed, the stream runs under an observer whose reports are
/// digested too.
uint64_t hwStreamDigest(HwKind Kind, const SecurityLattice &Lat,
                        bool Observed) {
  StreamDigest D;
  DigestObserver Obs(D);
  auto Env = createMachineEnv(Kind, Lat, cfg());
  Rng R(0x5eed);
  Env->randomize(R);
  auto Pre = Env->clone();
  if (Observed)
    Env->setObserver(&Obs);
  const unsigned N = Lat.size();
  for (unsigned I = 0; I != 6000; ++I) {
    // A 64 KiB stride maps to one TLB, L1 and L2 set in Table 1 geometry;
    // the low bits spread a little over neighbouring lines and sets.
    const Addr Off = R.nextBelow(12) * 0x10000 + R.nextBelow(4) * 32;
    const Label Read = Label::fromIndex(static_cast<unsigned>(R.nextBelow(N)));
    const Label Write = Label::fromIndex(static_cast<unsigned>(R.nextBelow(N)));
    switch (R.nextBelow(3)) {
    case 0:
      D.add(Env->fetch(0x40000000 + Off, Read, Write));
      break;
    case 1:
      D.add(Env->dataAccess(DataA + Off, /*IsStore=*/false, Read, Write));
      break;
    default:
      D.add(Env->dataAccess(DataA + Off, /*IsStore=*/true, Read, Write));
      break;
    }
  }
  Env->setObserver(nullptr);
  const HwStats S = Env->stats();
  D.add(S.L1D);
  D.add(S.L2D);
  D.add(S.L1I);
  D.add(S.L2I);
  D.add(S.DTlb);
  D.add(S.ITlb);
  for (Label L : Lat.allLabels())
    D.add(Env->projectionEquals(*Pre, L));
  for (Label Above : Lat.allLabels()) {
    auto Twin = Env->clone();
    Twin->perturbAbove(Above, R);
    for (Label L : Lat.allLabels())
      D.add(Twin->projectionEquals(*Env, L));
  }
  return D.H;
}
} // namespace

TEST(HwStream, DigestsArePinned) {
  const PowersetLattice Powerset({"Alice", "Bob"});
  const SecurityLattice *Lats[] = {&lh(), &lmh(), &Powerset};
  // {unobserved, observed} for each design and lattice. A change here
  // means an observable of the hardware model changed.
  const uint64_t Expected[3][3][2] = {
      // nopar: two-point, L<M<H, powerset.
      {{4806597635731036092ull, 6404678074150092828ull},
       {16002847106538145564ull, 12012661882747565948ull},
       {16438908909358058396ull, 9790795935456304124ull}},
      // nofill: two-point, L<M<H, powerset.
      {{16683303087729970346ull, 6448463723047304181ull},
       {10904052993606825770ull, 6201906230488484172ull},
       {489873507924835172ull, 3699904212750141627ull}},
      // partitioned: two-point, L<M<H, powerset.
      {{11246286834609108182ull, 10285480062571925376ull},
       {17349259052353595641ull, 13817595030783423292ull},
       {8573244147963115549ull, 10609776947922676319ull}},
  };
  for (unsigned K = 0; K != 3; ++K)
    for (unsigned L = 0; L != 3; ++L)
      for (bool Observed : {false, true})
        EXPECT_EQ(hwStreamDigest(allHwKinds()[K], *Lats[L], Observed),
                  Expected[K][L][Observed])
            << hwKindName(allHwKinds()[K]) << " lattice " << L
            << (Observed ? " observed" : "");
}

//===----------------------------------------------------------------------===//
// Clones: a clone carries exactly the template's state
//===----------------------------------------------------------------------===//

namespace {
/// Drives the access mix of hwStreamDigest, 1500 accesses seeded by
/// \p Seed, through \p Env. \returns every latency.
std::vector<uint64_t> driveHwStream(MachineEnv &Env, uint64_t Seed) {
  Rng R(Seed);
  std::vector<uint64_t> Latencies;
  const unsigned N = Env.lattice().size();
  for (unsigned I = 0; I != 1500; ++I) {
    const Addr Off = R.nextBelow(12) * 0x10000 + R.nextBelow(4) * 32;
    const Label Read = Label::fromIndex(static_cast<unsigned>(R.nextBelow(N)));
    const Label Write = Label::fromIndex(static_cast<unsigned>(R.nextBelow(N)));
    switch (R.nextBelow(3)) {
    case 0:
      Latencies.push_back(Env.fetch(0x40000000 + Off, Read, Write));
      break;
    case 1:
      Latencies.push_back(Env.dataAccess(DataA + Off, false, Read, Write));
      break;
    default:
      Latencies.push_back(Env.dataAccess(DataA + Off, true, Read, Write));
      break;
    }
  }
  return Latencies;
}
} // namespace

TEST(HwClone, ClonesOfColdAndRandomizedTemplatesAgree) {
  const PowersetLattice Powerset({"Alice", "Bob"});
  const SecurityLattice *Lats[] = {&lh(), &lmh(), &Powerset};
  for (HwKind Kind : allHwKinds())
    for (const SecurityLattice *Lat : Lats)
      for (bool Randomized : {false, true}) {
        SCOPED_TRACE(std::string(hwKindName(Kind)) + " over " +
                     std::to_string(Lat->size()) + " levels" +
                     (Randomized ? ", randomized" : ", cold"));
        auto Template = createMachineEnv(Kind, *Lat, cfg());
        if (Randomized) {
          Rng R(0x5eed);
          Template->randomize(R);
          driveHwStream(*Template, 1); // Nonzero stats and dirty lines.
        }
        auto A = Template->clone(), B = Template->clone();
        EXPECT_TRUE(A->stateEquals(*Template));
        EXPECT_EQ(A->stats(), Template->stats());
        const std::vector<uint64_t> LatA = driveHwStream(*A, 2);
        EXPECT_EQ(driveHwStream(*B, 2), LatA);
        EXPECT_EQ(A->stats(), B->stats());
        EXPECT_TRUE(A->stateEquals(*B));
        // The template is untouched by its clones and behaves like them.
        EXPECT_EQ(driveHwStream(*Template, 2), LatA);
        EXPECT_EQ(Template->stats(), A->stats());
        EXPECT_TRUE(Template->stateEquals(*A));
      }
}

TEST(HwClone, CloneIntoUsedStorageIsAFreshClone) {
  // cloneInto over storage that an earlier clone was driven in (its own
  // design, another design, or none) yields exactly what clone() does.
  const PowersetLattice Powerset({"Alice", "Bob"});
  const SecurityLattice *Lats[] = {&lh(), &lmh(), &Powerset};
  for (HwKind Kind : allHwKinds())
    for (const SecurityLattice *Lat : Lats)
      for (bool Randomized : {false, true}) {
        SCOPED_TRACE(std::string(hwKindName(Kind)) + " over " +
                     std::to_string(Lat->size()) + " levels" +
                     (Randomized ? ", randomized" : ", cold"));
        auto Template = createMachineEnv(Kind, *Lat, cfg());
        if (Randomized) {
          Rng R(0x5eed);
          Template->randomize(R);
          driveHwStream(*Template, 1);
        }
        struct : HwObserver {
          void onAccess(const HwAccess &) override {}
        } Listener;
        auto Used = Template->clone();
        driveHwStream(*Used, 3);
        Used->setObserver(&Listener);
        auto Other = createMachineEnv(
            Kind == HwKind::Partitioned ? HwKind::NoFill : HwKind::Partitioned,
            lmh(), cfg());
        driveHwStream(*Other, 3);
        for (std::unique_ptr<MachineEnv> *Storage : {&Used, &Other}) {
          const MachineEnv *Before = Storage->get();
          auto Copy = Template->cloneInto(std::move(*Storage));
          EXPECT_EQ(Copy.get(), Before) << "storage not reused";
          EXPECT_EQ(Copy->observer(), nullptr);
          auto Fresh = Template->clone();
          EXPECT_EQ(Copy->hwKind(), Kind);
          EXPECT_TRUE(Copy->stateEquals(*Template));
          EXPECT_EQ(Copy->stats(), Template->stats());
          EXPECT_EQ(driveHwStream(*Copy, 2), driveHwStream(*Fresh, 2));
          EXPECT_EQ(Copy->stats(), Fresh->stats());
          EXPECT_TRUE(Copy->stateEquals(*Fresh));
        }
        auto FromNothing = Template->cloneInto(nullptr);
        EXPECT_TRUE(FromNothing->stateEquals(*Template));
        EXPECT_EQ(FromNothing->stats(), Template->stats());
      }
}
