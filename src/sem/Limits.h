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
/// parenthesized and indexed subexpressions, unary operators and binary
/// operators, counted together. A chain `a + b + c` counts one level per
/// operator, because it nests to the left in the AST. The parser and every
/// pass over the AST recurse once per level, so without a bound a hostile
/// input (say 100k parentheses, or a 100k-term sum) overflows the native
/// stack instead of producing a diagnostic. The limit is far above
/// anything real: the example and app programs nest at most a handful of
/// levels, with operator chains of at most 3 operators, and random
/// programs stop at depth 4 with chains of at most 4.
inline constexpr unsigned kMaxNestingDepth = 1000;

/// Bound on statement sequences accepted by the parser. A sequence nests
/// to the right in the AST (one Seq node per statement), and every pass
/// over the AST recurses once per Seq, so a long flat program overflows the
/// native stack just as deep nesting does. The parser counts the
/// statements of a sequence together with those before it in every
/// enclosing sequence — the Seq depth the statement will have. A block's
/// statements sit one deeper than the statement holding the block, so
/// blocks nest at most kMaxSequenceLength - 1 deep. The limit is far above
/// anything real: the example and app programs have at most 9 statements
/// in a sequence, random programs at most 3. It is kept well below what
/// release builds could take because sanitizer builds spend kilobytes of
/// stack per Seq level (IR lowering alone ≈2.7 KB under ASan).
inline constexpr unsigned kMaxSequenceLength = 500;

/// Bound on the element count of one array declaration. Memory allocates
/// every element up front, and the default layout packs all variables
/// into the 768 MiB data region below the code region (CostModel::
/// DataBase..CodeBase), so a larger declaration either exhausts host
/// memory or aliases simulated code addresses. 2^24 elements (128 MiB) is
/// far above the largest array in any case study.
inline constexpr uint64_t kMaxArrayElements = uint64_t(1) << 24;

} // namespace zam

#endif // ZAM_SEM_LIMITS_H
