/**
 * @file
 * Shadow validation (paper §VI-C).
 *
 * Before a request is dispatched to an instance, SLINFER virtually adds
 * it and fast-forwards the partition's token-level schedule using the
 * quantifier's estimates, each inflated by 10%. Admission is rejected
 * when the simulation exhibits any of the paper's three cases:
 *   (1) the new request's prefill lands after its TTFT deadline;
 *   (2) an existing request's next token slips past its cumulative
 *       deadline because of the new prefill;
 *   (3) the aggregate single-decode-iteration time across all colocated
 *       instances exceeds the TPOT SLO (steady-state saturation).
 */

#ifndef SLINFER_CORE_SHADOW_VALIDATOR_HH
#define SLINFER_CORE_SHADOW_VALIDATOR_HH

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/quantifier.hh"
#include "engine/instance.hh"
#include "engine/node.hh"
#include "obs/counters.hh"

namespace slinfer
{

class TokenScheduler;

struct ShadowConfig
{
    double overestimate = 1.10;
    Seconds tpotSlo = 0.25;
    int maxSteps = 500;
};

class ShadowValidator
{
  public:
    ShadowValidator(const Quantifier &quant, ShadowConfig cfg);

    /**
     * Can `req` join existing instance `target` on its partition
     * without violating any colocated request's SLO? `partBusyUntil`
     * is the completion time of the partition's in-flight iteration.
     * Instances in `exclude` are treated as already removed (used by
     * the consolidator to evaluate preemption).
     */
    bool canAdmit(const Partition &part, const Instance *target,
                  const Request &req, Seconds now, Seconds partBusyUntil,
                  const std::set<const Instance *> &exclude = {}) const;

    /**
     * Can `req` be served by a *new* instance of `model` placed on
     * `part`, whose weights become resident at `readyAt`?
     */
    bool canAdmitNew(const Partition &part, const ModelSpec &model,
                     const HardwareSpec &execSpec, const Request &req,
                     Seconds now, Seconds partBusyUntil,
                     Seconds readyAt) const;

    /** Case-3 only: steady-state aggregate decode fits in one TPOT. */
    bool aggregateDecodeFits(const Partition &part, const Instance *target,
                             int extraOnTarget, Tokens extraLen,
                             const std::set<const Instance *> &exclude =
                                 {}) const;

    /** Cumulative full validations run (observability: the controller
     *  throughput bench reports shadow work per decision). */
    std::uint64_t evaluations() const { return evals_; }

    /** Validations whose baseline pass was answered by the memo. */
    std::uint64_t baselineMemoHits() const { return memoHits_; }

    /** Baseline passes actually fast-forwarded (resolved, not from
     *  the memo). A validation whose real pass meets no late request
     *  never resolves its baseline. */
    std::uint64_t baselineRuns() const { return baselineRuns_; }

    /** Report baseline runs and certified early accepts to `c`
     *  (nullable; write-only). */
    void attachCounters(obs::Counters *c) { ctr_ = c; }

  private:
    struct SimReq
    {
        Seconds deadline;
        Tokens ctx;
        bool isCandidate;
        int id; ///< stable identity across the two passes (-1: candidate)
    };
    struct SimDecode
    {
        Seconds deadline;
        int id;
    };
    struct SimInst
    {
        /** The instance's (hardware, model) profile, resolved once
         *  per build. */
        const Quantifier::ProfileTable *table = nullptr;
        Seconds availAt = 0.0;
        std::vector<SimReq> prefills;
        std::vector<SimDecode> decodeDeadlines;
        double avgLen = 1.0;
        bool decodedSinceCandidate = false;
        /** Deadline minima cached by simulate(): the earliest prefill
         *  deadline, the first index reaching it, and the earliest
         *  decode deadline (current, lag included). */
        Seconds pfMin = 0.0;
        std::size_t pfIdx = 0;
        Seconds decMin = 0.0;
        /** TPOT increments every `decodeDeadlines` entry still owes:
         *  on-time decode steps advance only `decMin`, and the entries
         *  catch up (one addition at a time, as if applied each step)
         *  before anything reads them. */
        int decodeLag = 0;
    };

    /** One baseline-pass result keyed by its exact input. */
    struct BaselineMemo
    {
        std::uint64_t hash = 0;
        std::vector<std::uint64_t> key; ///< empty: unused entry
        std::vector<int> doomed;
    };

    /** Live-instance count of a built state, and the slot of the
     *  instance asked for (past `count` when it is not live). */
    struct Built
    {
        std::size_t count;
        std::size_t target;
    };

    /**
     * Rebuild the validation state for `part` into the first slots of
     * `state_`, one per instance that is not excluded and not on its
     * way out (Reclaimed, Unloading, Draining). All validation
     * scratch (`state_`, `baseline_`, `doomed_`) is per-validator
     * storage recycled across calls — admission validation runs a few
     * hundred times per simulated second at fleet scale, and the
     * pre-scratch version re-allocated every inner vector (plus two
     * deep copies per two-pass run) per call. The validator is
     * therefore not reentrant, which is fine: one controller owns one
     * validator on one simulator thread.
     */
    Built buildState(const Partition &part, Seconds now,
                     const std::set<const Instance *> &exclude,
                     const Instance *target) const;

    /** A recycled `state_` slot, inner vectors cleared. */
    SimInst &slotAt(std::size_t i) const;

    /**
     * Fast-forward the token-level schedule over `v[0..count)`,
     * consuming it. With `collectDoomed == false` (the real pass),
     * returns false on the first violation by a request that is not
     * doomed; the doomed list is resolved (resolveDoomed) at the
     * first violation. With `collectDoomed == true`, never fails;
     * instead it records the ids of requests that violate into
     * `doomed_` (used as the baseline pass: requests that are late
     * even without the candidate cannot be protected and must not
     * veto admissions). Either pass stops early once
     * noViolationPossible() certifies the rest of the run.
     */
    bool simulate(std::vector<SimInst> &v, std::size_t count,
                  Seconds start, bool collectDoomed) const;

    /**
     * True when no request in `v[0..count)` can violate within the
     * `stepsLeft` remaining steps from time `t`. Every key (earliest
     * deadline) is at least the current minimum key `m`: decode
     * deadlines only grow, and a prefill joins the batch with
     * `max(deadline, t) + tpotSlo`. A violation therefore needs the
     * clock past `m`, and the clock ends at most at the latest load
     * completion plus `stepsLeft` of the largest step still possible.
     * Refuses when a batch could leave the profiled batch grid.
     */
    bool noViolationPossible(const std::vector<SimInst> &v,
                             std::size_t count, Seconds t,
                             int stepsLeft) const;

    /** Two-pass validation over `state_[0..count)`: the real pass
     *  runs first on `state_` while `baseline_` keeps a snapshot;
     *  the baseline pass (without the candidate) marks the doomed
     *  only when the real pass first meets a late request. `now` is
     *  the true wall clock (start may be later when the partition is
     *  mid-iteration). */
    bool twoPass(std::size_t count, Seconds start, Seconds now) const;

    /** Resolve `doomed_` for the running real pass: the baseline
     *  over the snapshot, plus a candidate already past its deadline
     *  (an evicted or migrated request being re-placed), sorted. */
    void resolveDoomed() const;

    /**
     * Fill `doomed_` with the baseline pass over `baseline_[0..count)`
     * (which it consumes), from the memo when an entry's key equals
     * this input exactly. The key (built into `key_`) is every bit
     * the baseline reads:
     * `start`, then for each instance that has work without the
     * candidate its table pointer, `availAt`, `avgLen`, prefills
     * (deadline, ctx, id) and decodes (deadline, id). Idle instances
     * are never touched by simulate() and stay out of the key.
     */
    void baselinePass(std::size_t count, Seconds start) const;

    /** Refresh `si`'s cached earliest prefill (first index on ties,
     *  matching a strict-less scan). */
    static void rescanPrefills(SimInst &si);

    /** Apply `si.decodeLag` pending TPOT increments to every decode
     *  deadline. */
    void settleDecodes(SimInst &si) const;

    const Quantifier &quant_;
    ShadowConfig cfg_;

    /** Recycled validation scratch (see buildState). */
    mutable std::vector<SimInst> state_;
    mutable std::vector<SimInst> baseline_;
    /** Ids that violate even without the candidate; sorted once
     *  resolved, membership via binary search. */
    mutable std::vector<int> doomed_;
    /** The running real pass's inputs, kept for resolveDoomed(). */
    mutable bool doomedResolved_ = false;
    mutable std::size_t passCount_ = 0;
    mutable Seconds passStart_ = 0.0;
    mutable Seconds passNow_ = 0.0;
    mutable std::uint64_t evals_ = 0;
    mutable std::uint64_t baselineRuns_ = 0;
    obs::Counters *ctr_ = nullptr;

    /**
     * Ring of recent baseline passes. Retry sweeps re-test the same
     * partition at one instant against several candidates, and the
     * baseline does not depend on the candidate. Entries are valid
     * while the quantifier's epoch is unchanged (profile tables are
     * the only input the key holds by address).
     */
    mutable std::array<BaselineMemo, 8> memo_;
    mutable std::size_t memoNext_ = 0;
    mutable std::uint64_t memoEpoch_ = 0;
    mutable std::uint64_t memoHits_ = 0;
    mutable std::vector<std::uint64_t> key_;
};

} // namespace slinfer

#endif // SLINFER_CORE_SHADOW_VALIDATOR_HH
