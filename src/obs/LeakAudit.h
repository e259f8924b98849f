//===- LeakAudit.h - Online leakage-budget accountant -----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The leakage-observability side of the telemetry subsystem: a running
/// account of the Sec. 6 information bound, maintained per mitigate window
/// as the interpreters execute (via InterpreterOptions::OnMitigateWindow)
/// or replayed from a finished Trace.
///
/// The accounting model is the paper's Sec. 6.2/7 argument specialized to
/// the fast-doubling scheme: window i with initial estimate n settles on
/// one of the schedule values max(n,1)·2^k, and by global time T at most
///
///   N_i(T) = |{ k ≥ 0 : max(n,1)·2^k ≤ T }|   (at least 1)
///
/// of those are attainable, so the window can transmit at most log2 N_i(T)
/// bits. The per-level running bound is Σ_i log2 N_i(T_i) with T_i the
/// window's own completion time; the classic |LeA↑|·log2(K+1)·(1+log2 T)
/// closed form (leakageBoundBits) stays available as the coarser summary.
///
/// Sec. 6.1 adversary projection: when an adversary level ℓA is set, a
/// window is *counted* iff it runs in an ℓA-visible context
/// (pc(M_η) ⊑ ℓA) and mitigates information above the adversary
/// (lev(M_η) ⋢ ℓA) — the same windows whose durations enter the
/// Definition 2 timing vectors. Without an adversary every window counts
/// (the conservative any-observer account).
///
/// Everything here derives from deterministic run data (cycle counts),
/// never wall clock, so leak.* metrics may ride in byte-stable report JSON
/// and traces; tools/zamtrace recomputes the same sums offline and demands
/// bit-for-bit agreement.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_LEAKAUDIT_H
#define ZAM_OBS_LEAKAUDIT_H

#include "lattice/SecurityLattice.h"
#include "obs/Metrics.h"
#include "sem/Event.h"
#include "sem/Mitigation.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace zam {

class TraceReader;

/// N(T) for one window of the fast-doubling scheme: how many schedule
/// values max(Estimate,1)·2^k fit within global time \p ElapsedTime.
/// Always at least 1 (the window did settle on something). Delegates to
/// fastDoublingPolicy(); kept for the paper-default call sites — policy-
/// aware code goes through MitigationPolicy::attainableValues instead.
uint64_t attainableScheduleValues(int64_t Estimate, uint64_t ElapsedTime);

/// log2 N(T) — the bits one settled window can transmit by time
/// \p ElapsedTime (fast-doubling; see attainableScheduleValues).
double windowBoundBits(int64_t Estimate, uint64_t ElapsedTime);

/// log2(Miss[ℓ]+1): the bits revealed by the level's misprediction count
/// itself (each miss doubles the schedule, so the count is the exponent an
/// observer of any single window learns).
double mispredictPenaltyBits(unsigned Misses);

/// The Sec. 7 closed-form leakage bound in bits:
/// |LeA↑| · log2(K+1) · (1 + log2 T), zero when K = 0.
double leakageBoundBits(unsigned UpwardClosureSize, uint64_t RelevantMitigates,
                        uint64_t ElapsedTime);

/// One counted mitigate window, priced.
struct LeakWindow {
  unsigned Eta = 0;          ///< Source identifier η.
  Label Level;               ///< lev(M_η).
  Label Pc;                  ///< pc(M_η).
  uint64_t Start = 0;        ///< Cycle the mitigated body began.
  uint64_t Duration = 0;     ///< Padded duration (public schedule value).
  int64_t Estimate = 0;      ///< Initial estimate n at entry.
  unsigned MissesAfter = 0;  ///< Miss[lev] after this window settled.
  bool Mispredicted = false;
  uint64_t Attainable = 0;   ///< N_i(T_i) at the window's completion time.
  double WindowBits = 0;     ///< log2 N_i(T_i).
  double CumLevelBits = 0;   ///< Running Σ log2 N over this window's level.
  uint32_t Line = 0;         ///< Source line of the mitigate (0: unknown).
  /// The policy that scheduled (and priced) this window — resolved from
  /// the audit's PolicySelection by η. Never null on a counted window.
  const MitigationPolicy *Policy = nullptr;
};

/// Restores completion order to mitigate-window spans read back in start
/// order (the order exported traces list them). The run settles a nested
/// window before the window enclosing it, and the leakage sums must follow
/// that order to stay bit-identical. Windows nest properly, so the spans
/// still open form a chain: a held span can be released as soon as a span
/// arrives that ends later, and at most nesting-depth spans are held.
template <typename SpanT> class CompletionOrder {
public:
  /// Accepts \p S, which ends at \p End (spans must arrive in start
  /// order), after passing every held span that ends earlier to \p Settle,
  /// innermost first. An equal end means \p S is nested, so it stays ahead.
  /// Stops and returns false as soon as \p Settle does.
  template <typename Fn> bool push(uint64_t End, SpanT S, Fn &&Settle) {
    while (!Open.empty() && Open.back().first < End) {
      if (!Settle(Open.back().second))
        return false;
      Open.pop_back();
    }
    Open.emplace_back(End, std::move(S));
    return true;
  }

  /// Passes every held span to \p Settle, innermost first.
  template <typename Fn> bool flush(Fn &&Settle) {
    for (; !Open.empty(); Open.pop_back())
      if (!Settle(Open.back().second))
        return false;
    return true;
  }

private:
  /// (end, span) pairs, innermost last.
  std::vector<std::pair<uint64_t, SpanT>> Open;
};

/// Maintains per-security-level running leakage bounds. Feed it windows
/// online (onWindow, from the interpreter hook) or replay a finished trace
/// (ingest) — both orders of arrival are the trace order, so the double
/// sums are bit-identical either way.
class LeakAudit {
public:
  /// Per-level running account.
  struct LevelAccount {
    uint64_t Windows = 0;  ///< Counted windows at this level.
    unsigned Misses = 0;   ///< Miss[ℓ] after the latest counted window.
    double BitsBound = 0;  ///< Σ log2 N_i(T_i) over counted windows.
  };

  /// \p Policies must mirror the run's InterpreterOptions::Mitigation so
  /// every window is priced by the schedule that actually produced it;
  /// defaulting it keeps the paper's fast-doubling account.
  explicit LeakAudit(const SecurityLattice &Lat,
                     std::optional<Label> Adversary = std::nullopt,
                     PolicySelection Policies = PolicySelection());

  /// Whether the Sec. 6.1 projection counts \p R (see file comment).
  bool counts(const MitigateRecord &R) const;

  /// Accounts one settled window (no-op when the projection drops it).
  void onWindow(const MitigateRecord &R);

  /// Replays every mitigate record of \p T through onWindow.
  void ingest(const Trace &T);

  /// Replays mitigate spans (cat "mit") pulled from \p Reader through
  /// onWindow in completion order (a nested window before the one that
  /// encloses it, as the run settled them) — single-pass, with memory
  /// bounded by the window nesting depth (with retention off), over any
  /// on-disk trace format. The per-level Miss table is rebuilt by
  /// re-settling each span, so the resulting accounts are bit-identical to
  /// the online run's. \returns false with \p Err set on a malformed
  /// span or a stream decode error.
  bool replay(TraceReader &Reader, std::string &Err);

  /// When \p Keep is false, counted windows still update the per-level
  /// accounts but are not retained in windows() — required for
  /// million-window replays under a fixed memory cap. Default: retain.
  void setRetainWindows(bool Keep) { RetainWindows = Keep; }

  /// Drops all accumulated state; the lattice and adversary stay.
  void reset();

  const std::vector<LeakWindow> &windows() const { return Counted; }

  /// Counted windows across all levels (valid whether or not the
  /// LeakWindow rows themselves were retained).
  uint64_t countedWindows() const { return CountedWindows; }
  const LevelAccount &account(Label L) const { return Accounts[L.index()]; }

  /// Σ over all levels of the per-level bits bound, summed in lattice
  /// level order (the order exportMetrics emits).
  double totalBitsBound() const;

  /// Emits the leak.* namespace into \p Reg: for every lattice level
  ///   [Prefix]leak.<level>.windows                (counter)
  ///   [Prefix]leak.<level>.bits_bound             (gauge)
  ///   [Prefix]leak.<level>.mispredict_penalty_bits (gauge)
  /// then the totals [Prefix]leak.windows and
  /// [Prefix]leak.total_bits_bound. The shape is fixed (every level always
  /// appears), so reports stay byte-comparable across runs.
  void exportMetrics(MetricsRegistry &Reg,
                     const std::string &Prefix = "") const;

  const SecurityLattice &lattice() const { return Lat; }
  std::optional<Label> adversary() const { return Adversary; }
  const PolicySelection &policies() const { return Policies; }

private:
  const SecurityLattice &Lat;
  std::optional<Label> Adversary;
  PolicySelection Policies;
  bool RetainWindows = true;
  uint64_t CountedWindows = 0;
  std::vector<LeakWindow> Counted;
  std::vector<LevelAccount> Accounts; ///< Indexed by label index.
};

} // namespace zam

#endif // ZAM_OBS_LEAKAUDIT_H
