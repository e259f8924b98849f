//===- Limits.h - Shared execution safety nets ------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety-net bounds shared by the front end and every interpreter. The
/// header is dependency-free so the parser can use it too.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_LIMITS_H
#define ZAM_SEM_LIMITS_H

#include <cstdint>

namespace zam {

/// Default bound on primitive evaluation steps, shared by the core
/// interpreter and both full-semantics engines (InterpreterOptions).
///
/// The language is Turing-complete (`while` with arbitrary guards), so a
/// diverging program would otherwise hang every property checker, fuzz
/// driver and leakage enumeration that executes untrusted — often randomly
/// generated — programs. The limit is a safety net, not a semantic bound:
/// it is far above any workload in the repository (the Fig. 8 RSA
/// decryption, the heaviest case study, takes ~42k steps per run), so
/// hitting it means "this program does not terminate in any time we are
/// willing to wait". Runs that hit it are flagged (Trace::HitStepLimit)
/// rather than treated as completed. Callers with a tighter latency budget
/// (e.g. divergence tests) pass an explicit lower limit.
inline constexpr uint64_t kDefaultStepLimit = 500'000'000;

/// Bound on syntactic nesting accepted by the parser: blocks,
/// parenthesized and indexed subexpressions and unary operators, counted
/// together. The parser and every pass over the AST recurse once per
/// level, so without a bound a hostile input (say 100k parentheses)
/// overflows the native stack instead of producing a diagnostic. The
/// limit is far above anything real: the example programs nest at most a
/// handful of levels and random programs stop at depth 4. Statement
/// sequences do not count — the parser reads them iteratively.
inline constexpr unsigned kMaxNestingDepth = 1000;

/// Bound on the element count of one array declaration. Memory allocates
/// every element up front, and the default layout packs all variables
/// into the 768 MiB data region below the code region (CostModel::
/// DataBase..CodeBase), so a larger declaration either exhausts host
/// memory or aliases simulated code addresses. 2^24 elements (128 MiB) is
/// far above the largest array in any case study.
inline constexpr uint64_t kMaxArrayElements = uint64_t(1) << 24;

} // namespace zam

#endif // ZAM_SEM_LIMITS_H
