//===- cache_test.cpp - Set-associative cache model -------------------------===//

#include "hw/Cache.h"

#include "gtest/gtest.h"

#include <vector>

using namespace zam;

namespace {
CacheConfig smallConfig() {
  CacheConfig C;
  C.NumSets = 4;
  C.Assoc = 2;
  C.BlockBytes = 32;
  C.Latency = 1;
  return C;
}

/// Address that maps to \p Set with tag \p Tag under smallConfig().
Addr addrFor(unsigned Set, uint64_t Tag) {
  return (Tag * 4 + Set) * 32;
}
} // namespace

TEST(Cache, MissThenHit) {
  Cache C(smallConfig());
  Addr A = addrFor(0, 1);
  EXPECT_FALSE(C.lookup(A));
  C.install(A);
  EXPECT_TRUE(C.lookup(A));
}

TEST(Cache, SameBlockSharesLine) {
  Cache C(smallConfig());
  C.install(addrFor(0, 1));
  // Any address within the same 32-byte block hits.
  EXPECT_TRUE(C.lookup(addrFor(0, 1) + 31));
  EXPECT_FALSE(C.lookup(addrFor(0, 1) + 32)); // Next block, next set.
}

TEST(Cache, SetsAreIndependent) {
  Cache C(smallConfig());
  C.install(addrFor(0, 1));
  EXPECT_FALSE(C.probe(addrFor(1, 1)));
  EXPECT_TRUE(C.probe(addrFor(0, 1)));
}

TEST(Cache, LruEviction) {
  Cache C(smallConfig()); // 2-way.
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  C.install(A);
  C.install(B);
  C.install(D); // Evicts A (LRU).
  EXPECT_FALSE(C.probe(A));
  EXPECT_TRUE(C.probe(B));
  EXPECT_TRUE(C.probe(D));
}

TEST(Cache, LookupPromotesToMru) {
  Cache C(smallConfig());
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  C.install(A);
  C.install(B);
  EXPECT_TRUE(C.lookup(A)); // A becomes MRU; B is now LRU.
  C.install(D);             // Evicts B.
  EXPECT_TRUE(C.probe(A));
  EXPECT_FALSE(C.probe(B));
}

TEST(Cache, ProbeDoesNotDisturbLru) {
  Cache C(smallConfig());
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  C.install(A);
  C.install(B);
  EXPECT_TRUE(C.probe(A)); // No promotion: A stays LRU.
  C.install(D);            // Evicts A.
  EXPECT_FALSE(C.probe(A));
  EXPECT_TRUE(C.probe(B));
}

TEST(Cache, InstallExistingPromotes) {
  Cache C(smallConfig());
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  C.install(A);
  C.install(B);
  C.install(A); // Re-install promotes, must not duplicate.
  C.install(D); // Evicts B.
  EXPECT_TRUE(C.probe(A));
  EXPECT_FALSE(C.probe(B));
  EXPECT_TRUE(C.probe(D));
}

TEST(Cache, RemoveInvalidates) {
  Cache C(smallConfig());
  Addr A = addrFor(1, 5);
  C.install(A);
  C.remove(A);
  EXPECT_FALSE(C.probe(A));
  C.remove(A); // Removing an absent block is a no-op.
  EXPECT_FALSE(C.probe(A));
}

TEST(Cache, ResetFlushes) {
  Cache C(smallConfig());
  C.install(addrFor(0, 1));
  C.install(addrFor(3, 7));
  C.reset();
  EXPECT_FALSE(C.probe(addrFor(0, 1)));
  EXPECT_FALSE(C.probe(addrFor(3, 7)));
}

TEST(Cache, EqualityIncludesLruOrder) {
  Cache C1(smallConfig()), C2(smallConfig());
  Addr A = addrFor(2, 1), B = addrFor(2, 2);
  C1.install(A);
  C1.install(B);
  C2.install(B);
  C2.install(A);
  // Same contents, different LRU order: not equal (LRU order affects
  // future timing, so it is part of the machine-environment state).
  EXPECT_FALSE(C1 == C2);
  EXPECT_TRUE(C2.lookup(B)); // Promote B: orders now match.
  EXPECT_TRUE(C1 == C2);
}

TEST(Cache, RandomizeIsDeterministicPerSeed) {
  Cache C1(smallConfig()), C2(smallConfig());
  Rng R1(42), R2(42);
  C1.randomize(R1);
  C2.randomize(R2);
  EXPECT_TRUE(C1 == C2);
  Rng R3(43);
  Cache C3(smallConfig());
  C3.randomize(R3);
  EXPECT_FALSE(C1 == C3); // Overwhelmingly likely.
}

TEST(Cache, TlbGeometry) {
  // A TLB is a cache with page-sized blocks.
  CacheConfig TlbCfg;
  TlbCfg.NumSets = 16;
  TlbCfg.Assoc = 4;
  TlbCfg.BlockBytes = 4096;
  TlbCfg.Latency = 30;
  Cache Tlb(TlbCfg);
  Tlb.install(0x10000000);
  EXPECT_TRUE(Tlb.probe(0x10000000 + 4095)); // Same page.
  EXPECT_FALSE(Tlb.probe(0x10000000 + 4096)); // Next page.
  EXPECT_EQ(Tlb.latency(), 30u);
}

TEST(Cache, ThrashingPatternCountsEvictions) {
  Cache C(smallConfig()); // 2-way.
  // Thrash one set with three conflicting blocks, round-robin: after the
  // first two installs every install evicts the LRU way.
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  const Addr Pattern[] = {A, B, D, A, B, D};
  for (Addr X : Pattern)
    if (!C.lookup(X))
      C.install(X);
  // 6 installs into a 2-way set: 6 line fills, 4 evictions (every install
  // after the set filled), no lookup ever hit.
  EXPECT_EQ(C.events().LineFills, 6u);
  EXPECT_EQ(C.events().Evictions, 4u);
  EXPECT_EQ(C.events().Writebacks, 0u); // All lines clean.
  C.resetEvents();
  EXPECT_EQ(C.events(), CacheEvents());
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  Cache C(smallConfig()); // 2-way.
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3),
       E = addrFor(2, 4);
  C.install(A, /*Dirty=*/true);
  C.install(B);
  C.install(D); // Evicts dirty A: writeback.
  EXPECT_EQ(C.events().Evictions, 1u);
  EXPECT_EQ(C.events().Writebacks, 1u);
  C.install(E); // Evicts clean B: no writeback.
  EXPECT_EQ(C.events().Evictions, 2u);
  EXPECT_EQ(C.events().Writebacks, 1u);
}

TEST(Cache, StoreHitMarksLineDirty) {
  Cache C(smallConfig()); // 2-way.
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  C.install(A); // Clean install.
  C.install(B); // MRU→LRU: [B, A].
  EXPECT_TRUE(C.lookup(A, /*MarkDirty=*/true)); // Store hit: [A*, B].
  C.install(D); // Evicts clean B: [D, A*].
  EXPECT_EQ(C.events().Writebacks, 0u);
  C.install(addrFor(2, 5)); // Evicts A, dirtied by the store above.
  EXPECT_EQ(C.events().Writebacks, 1u);
}

TEST(Cache, RemoveDirtyLineCountsWriteback) {
  Cache C(smallConfig());
  Addr A = addrFor(1, 5);
  C.install(A, /*Dirty=*/true);
  C.remove(A); // Consistency move of a dirty line: data must be written out.
  EXPECT_EQ(C.events().Writebacks, 1u);
  C.install(A);
  C.remove(A); // Clean copy: no writeback.
  EXPECT_EQ(C.events().Writebacks, 1u);
}

TEST(Cache, EventCountersDoNotAffectEquality) {
  Cache C1(smallConfig()), C2(smallConfig());
  Addr A = addrFor(2, 1), B = addrFor(2, 2), D = addrFor(2, 3);
  // C1 reaches {D, B} (MRU first) via thrashing; C2 directly. Event
  // counters and dirty bits differ, but the machine state — the thing the
  // noninterference properties quantify over — is identical.
  C1.install(A, /*Dirty=*/true);
  C1.install(B);
  C1.install(D); // Evicts A.
  C2.install(B, /*Dirty=*/true);
  C2.install(D);
  EXPECT_NE(C1.events(), C2.events());
  EXPECT_TRUE(C1 == C2);
}

TEST(Cache, DirectMappedConflicts) {
  CacheConfig Cfg = smallConfig();
  Cfg.Assoc = 1;
  Cache C(Cfg);
  Addr A = addrFor(0, 1), B = addrFor(0, 2);
  C.install(A);
  C.install(B); // Conflict miss evicts A immediately.
  EXPECT_FALSE(C.probe(A));
  EXPECT_TRUE(C.probe(B));
}

//===----------------------------------------------------------------------===//
// Copies: only the occupied prefix of each set is copied
//===----------------------------------------------------------------------===//

namespace {
/// A non-power-of-two geometry, so the division path is covered as well.
CacheConfig oddConfig() {
  CacheConfig C = smallConfig();
  C.NumSets = 3;
  C.Assoc = 3;
  return C;
}

/// Brings \p C to a state with partly filled sets, an empty set, a full
/// set after evictions, removed lines and dirty lines.
void fillUnevenly(Cache &C) {
  const unsigned Sets = C.config().NumSets;
  for (uint64_t Tag = 1; Tag <= C.config().Assoc + 2; ++Tag) // Evicts twice.
    C.install(Tag * Sets * 32, /*Dirty=*/Tag % 2 == 0);
  C.install(1 * 32 + 5 * Sets * 32);
  C.install(1 * 32 + 6 * Sets * 32, /*Dirty=*/true);
  C.remove(1 * 32 + 5 * Sets * 32);
  C.install(2 * 32 + 9 * Sets * 32);
  C.remove(2 * 32 + 9 * Sets * 32); // Set 2 ends up empty again.
}

/// Drives one seeded stream of lookups (some marking dirty), probes,
/// installs and removes over a pool that collides in every set. \returns
/// the hit/miss outcome of every lookup and probe.
std::vector<bool> driveStream(Cache &C, uint64_t Seed) {
  Rng R(Seed);
  std::vector<bool> Outcomes;
  const unsigned Sets = C.config().NumSets;
  for (unsigned I = 0; I != 400; ++I) {
    const uint64_t Tag = R.nextBelow(8);
    const Addr A = (Tag * Sets + R.nextBelow(Sets)) * 32;
    switch (R.nextBelow(4)) {
    case 0:
      Outcomes.push_back(C.probe(A));
      break;
    case 1:
      C.remove(A);
      break;
    default: {
      const bool Store = R.nextBelow(2) != 0;
      const bool Hit = C.lookup(A, Store);
      Outcomes.push_back(Hit);
      if (!Hit)
        C.install(A, Store);
      break;
    }
    }
  }
  return Outcomes;
}

/// Checks that \p Copy is indistinguishable from \p Source: equal state and
/// events now, and the same outcomes, state and events (so the same dirty
/// bits) after one stream drives both.
void expectSameBehaviour(Cache &Source, Cache &Copy, uint64_t Seed) {
  EXPECT_TRUE(Copy == Source);
  EXPECT_EQ(Copy.events(), Source.events());
  EXPECT_EQ(driveStream(Copy, Seed), driveStream(Source, Seed));
  EXPECT_TRUE(Copy == Source);
  EXPECT_EQ(Copy.events(), Source.events());
}

/// Every starting state the copy tests use, built identically twice so one
/// instance can serve as an independent reference.
enum class Start { Cold, Installed, Uneven, Randomized, Emptied, Reset };

void prepare(Cache &C, Start S) {
  Rng R(99);
  switch (S) {
  case Start::Cold:
    break;
  case Start::Installed:
    // Installs only: one clean and one dirty line in different sets.
    C.install(0);
    C.install(32, /*Dirty=*/true);
    break;
  case Start::Uneven:
    fillUnevenly(C);
    break;
  case Start::Randomized:
    C.randomize(R, 0.6);
    C.install(0); // Fill and evict on top of the random state.
    break;
  case Start::Emptied:
    // Held lines once, holds none now: copies take the empty fast path.
    C.install(0);
    C.install(32, /*Dirty=*/true);
    C.remove(0);
    C.remove(32);
    break;
  case Start::Reset:
    fillUnevenly(C);
    C.reset();
    break;
  }
}

const Start AllStarts[] = {Start::Cold, Start::Installed, Start::Uneven,
                           Start::Randomized, Start::Emptied, Start::Reset};
} // namespace

TEST(CacheCopy, CopyConstructedBehavesLikeSource) {
  for (const CacheConfig &Cfg : {smallConfig(), oddConfig()})
    for (Start S : AllStarts) {
      SCOPED_TRACE(static_cast<int>(S));
      Cache Source(Cfg);
      prepare(Source, S);
      Cache Copy(Source);
      expectSameBehaviour(Source, Copy, 7);
    }
}

TEST(CacheCopy, CopyAssignedBehavesLikeSource) {
  for (const CacheConfig &Cfg : {smallConfig(), oddConfig()})
    for (Start S : AllStarts) {
      SCOPED_TRACE(static_cast<int>(S));
      Cache Source(Cfg);
      prepare(Source, S);
      // Same geometry, storage reused: its stale lines must not show.
      Cache Same(Cfg);
      Rng R(5);
      Same.randomize(R, 1.0);
      Same = Source;
      expectSameBehaviour(Source, Same, 11);
      // Other geometry: storage reallocated.
      Cache Other(Cfg.NumSets == 3 ? smallConfig() : oddConfig());
      fillUnevenly(Other);
      Other = Source;
      EXPECT_EQ(Other.config(), Source.config());
      expectSameBehaviour(Source, Other, 13);
    }
}

TEST(CacheCopy, ChangingTheCopyLeavesTheSource) {
  for (Start S : AllStarts) {
    SCOPED_TRACE(static_cast<int>(S));
    Cache Source(smallConfig()), Reference(smallConfig());
    prepare(Source, S);
    prepare(Reference, S);
    Cache Copy(Source);
    Cache Assigned(smallConfig());
    Assigned = Source;
    driveStream(Copy, 3);
    driveStream(Assigned, 4);
    Rng R(8);
    Copy.randomize(R);
    EXPECT_TRUE(Source == Reference);
    EXPECT_EQ(Source.events(), Reference.events());
    // The source still behaves exactly like its independent twin, dirty
    // bits included.
    expectSameBehaviour(Reference, Source, 17);
  }
}
