//===- HardwareModels.h - The three hardware designs ------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three hardware designs, built by createMachineEnv (hw/MachineEnv.h).
/// All three are one cache hierarchy applying one rule: an access with
/// labels [er,ew] takes its timing only from state at levels ⊑ er
/// (Property 6) and modifies only state at levels ⊒ ew (Property 5),
/// installing at ew. They differ only in which levels own state:
///
///  - HwKind::Partitioned — the Sec. 4.3 design: every cache and TLB is
///    statically partitioned per security level (sets divided evenly). A
///    copy resident in a partition above ew is moved (removed + reinstalled
///    at ew) and the access is timed as a miss, exactly as the paper
///    prescribes.
///
///  - HwKind::NoFill — the Sec. 4.2 realization on standard hardware: the
///    whole cache hierarchy is labeled ⊥. A command whose write label is not
///    ⊥ has no partition at ew to install into, so it runs in "no-fill"
///    mode (accesses are served without installing lines or updating LRU
///    state), mirroring the no-fill mode of Intel Pentium/Xeon processors.
///
///  - HwKind::NoPartition — commodity hardware ("nopar", Table 2): only ⊥
///    owns state and the labels are ignored, every access acting as [⊥,⊥].
///    It deliberately VIOLATES Properties 5 and 7 (high-context accesses
///    disturb low cache state), which is what makes the unmitigated timing
///    attacks work.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_HARDWAREMODELS_H
#define ZAM_HW_HARDWAREMODELS_H

#include "hw/MachineEnv.h"

namespace zam {

/// The largest lattice (in levels) the hardware model accepts: every
/// access is planned per (er, ew) pair at construction, and a partition
/// slot is packed into seven bits of a plan entry.
inline constexpr unsigned kMaxHwLevels = 127;

/// The geometry of one partition of a structure with geometry \p Full in
/// design \p Kind over \p Lat: the partitioned design divides the sets
/// evenly among the levels (at least one set per partition); the other
/// designs keep one partition of the full geometry.
CacheConfig partitionConfig(HwKind Kind, const SecurityLattice &Lat,
                            const CacheConfig &Full);

} // namespace zam

#endif // ZAM_HW_HARDWAREMODELS_H
