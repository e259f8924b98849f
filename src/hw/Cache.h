//===- Cache.h - Set-associative cache model --------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU cache holding only (tag, valid) pairs — the
/// coarse-grained machine-environment abstraction argued for in Sec. 4.1:
/// data-block contents do not affect access time, so they are deliberately
/// not part of the state. This is what lets confidential values reside in a
/// public cache partition without violating single-step noninterference
/// (Property 7). The same class models TLBs (block size = page size).
///
/// For telemetry each line additionally carries a dirty bit and the cache
/// keeps eviction/writeback/line-fill counters. Both are *observational
/// only*: writebacks add no latency (the timing model is unchanged from the
/// paper's), and neither participates in state equality, so the projected
/// equivalences of Sec. 3.3 — and the noninterference properties built on
/// them — see exactly the (tag, LRU-order) state they always did.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_CACHE_H
#define ZAM_HW_CACHE_H

#include "hw/CacheConfig.h"
#include "support/Rng.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace zam {

/// Telemetry counters maintained by one Cache (see CacheLevelStats for the
/// merged per-structure view).
struct CacheEvents {
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
  uint64_t LineFills = 0;

  bool operator==(const CacheEvents &Other) const = default;
};

/// One cache-like structure. State per set is the list of resident lines in
/// LRU order (front = most recently used). Replacement is strict LRU.
///
/// Aligned to a cache line: a hierarchy keeps its partitions in one array
/// and every access reads the leading fields of several of them, which an
/// unaligned stride would split over two lines for some partitions.
class alignas(64) Cache {
public:
  explicit Cache(const CacheConfig &Config);

  /// Copies cost O(sets + resident lines), not O(capacity): only each
  /// set's occupied prefix is copied, and the per-set pass is skipped when
  /// the source holds no line (a cold template).
  Cache(const Cache &Other);
  Cache &operator=(const Cache &Other);
  Cache(Cache &&) noexcept = default;
  Cache &operator=(Cache &&) noexcept = default;

  const CacheConfig &config() const { return Config; }
  uint64_t latency() const { return Latency; }

  /// Hit test that promotes the line to MRU on a hit; \p MarkDirty
  /// additionally sets the line's dirty bit (stores). \returns true on hit.
  /// Defined inline below: this is the hottest call in the simulator.
  bool lookup(Addr A, bool MarkDirty = false);

  /// Hit test with no state change at all (used for no-fill accesses and
  /// for hits that may not disturb another partition's LRU state).
  bool probe(Addr A) const;

  /// Installs the block containing \p A as MRU, evicting the LRU way if the
  /// set is full. Installing a resident block just promotes it (the dirty
  /// bit accumulates: a clean install does not launder a dirty line).
  void install(Addr A, bool Dirty = false);

  /// Removes the block containing \p A if resident (consistency moves in
  /// the partitioned design). Counts a writeback if the line was dirty.
  void remove(Addr A);

  /// Flushes all contents (event counters are preserved; resetEvents()
  /// clears those).
  void reset();

  /// Fills the cache with random resident tags; \p FillFraction in [0,1].
  /// Used by property-based tests to explore machine-environment states.
  void randomize(Rng &R, double FillFraction = 0.5);

  const CacheEvents &events() const { return Events; }
  void resetEvents() { Events = CacheEvents(); }

  /// Structural equality of (tags, valid bits, LRU order): the projected
  /// equivalence of Sec. 3.3 at the granularity of one structure. Dirty
  /// bits and event counters are telemetry, not machine state visible to
  /// the timing model, so they deliberately do not participate.
  bool operator==(const Cache &Other) const;

private:
  /// One resident line. Only Tag is machine state; Dirty is telemetry.
  /// No default member initialisers: storage is allocated uninitialised.
  struct Line {
    uint64_t Tag;
    bool Dirty;
  };

  uint64_t tagOf(Addr A) const {
    if (TagShift)
      return A >> TagShift;
    return A / Config.BlockBytes / Config.NumSets;
  }
  unsigned setOf(Addr A) const {
    if (TagShift)
      return static_cast<unsigned>((A >> BlockShift) & SetMask);
    return static_cast<unsigned>((A / Config.BlockBytes) % Config.NumSets);
  }
  Line *setLines(unsigned S) {
    return Lines.get() + static_cast<size_t>(S) * Assoc;
  }
  const Line *setLines(unsigned S) const {
    return Lines.get() + static_cast<size_t>(S) * Assoc;
  }
  /// Copies \p Other's resident lines into this cache's storage, which
  /// must have the same geometry.
  void copyResident(const Cache &Other);

  // Everything lookup() touches sits in the leading fields: the shift/mask
  // geometry, the set stride and latency (copied out of Config so the hit
  // path reads one region), and the line and occupancy storage.

  /// Shift/mask fast path for power-of-two geometry (all Table 1 shapes).
  /// TagShift == 0 falls back to division — partitioned designs divide sets
  /// among lattice levels, which need not leave a power of two.
  unsigned BlockShift = 0, TagShift = 0;
  uint64_t SetMask = 0;
  unsigned Assoc = 1;   ///< Copy of Config.Assoc (set stride).
  uint64_t Latency = 1; ///< Copy of Config.Latency.
  /// Flat line storage, NumSets × Assoc, allocated uninitialised: set S
  /// holds lines only in [S*Assoc, S*Assoc + Occupancy[S]), in MRU-to-LRU
  /// order, and nothing reads past that prefix, so construction and copies
  /// touch only resident lines. One allocation instead of a vector per set
  /// keeps the lookup fast path — the single hottest loop in the simulator
  /// — on one cache line, and a hit at way 0 (the common case for looping
  /// programs) touches nothing but the dirty bit.
  std::unique_ptr<Line[]> Lines;
  std::vector<uint32_t> Occupancy; ///< Resident lines per set.
  size_t Resident = 0;             ///< Sum of Occupancy.
  CacheConfig Config;
  CacheEvents Events;
};

inline bool Cache::lookup(Addr A, bool MarkDirty) {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  Line *Set = setLines(S);
  const uint32_t N = Occupancy[S];
  for (uint32_t W = 0; W != N; ++W) {
    if (Set[W].Tag != Tag)
      continue;
    if (W == 0) {
      // Already MRU: nothing moves (the hot path for looping programs).
      // The dirty bit is written only when it changes, so repeat loads
      // leave the line untouched.
      if (MarkDirty && !Set[0].Dirty)
        Set[0].Dirty = true;
    } else {
      // Promote to MRU: rotate the ways above the hit down one.
      Line L = Set[W];
      L.Dirty = L.Dirty || MarkDirty;
      for (uint32_t I = W; I != 0; --I)
        Set[I] = Set[I - 1];
      Set[0] = L;
    }
    return true;
  }
  return false;
}

inline bool Cache::probe(Addr A) const {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  const Line *Set = setLines(S);
  const uint32_t N = Occupancy[S];
  for (uint32_t W = 0; W != N; ++W)
    if (Set[W].Tag == Tag)
      return true;
  return false;
}

} // namespace zam

#endif // ZAM_HW_CACHE_H
