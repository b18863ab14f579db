#include "core/shadow_validator.hh"

#include <algorithm>
#include <cstring>
#include <limits>

namespace slinfer
{

ShadowValidator::ShadowValidator(const Quantifier &quant, ShadowConfig cfg)
    : quant_(quant), cfg_(cfg)
{
}

ShadowValidator::SimInst &
ShadowValidator::slotAt(std::size_t i) const
{
    if (i >= state_.size())
        state_.resize(i + 1);
    SimInst &s = state_[i];
    s.prefills.clear();
    s.decodeDeadlines.clear();
    s.decodedSinceCandidate = false;
    s.avgLen = 1.0;
    return s;
}

namespace
{

constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

template <typename T>
std::uint64_t
bitsOf(T v)
{
    static_assert(sizeof(T) <= sizeof(std::uint64_t), "key word");
    std::uint64_t w = 0;
    std::memcpy(&w, &v, sizeof(T));
    return w;
}

/** Whether validation simulates `inst`: not excluded and not on its
 *  way out. */
bool
simulated(const Instance *inst, const std::set<const Instance *> &exclude)
{
    return !exclude.count(inst) &&
           inst->state != InstanceState::Reclaimed &&
           inst->state != InstanceState::Unloading &&
           inst->state != InstanceState::Draining;
}

} // namespace

ShadowValidator::Built
ShadowValidator::buildState(const Partition &part, Seconds now,
                            const std::set<const Instance *> &exclude,
                            const Instance *target) const
{
    std::size_t n = 0;
    std::size_t target_slot = std::numeric_limits<std::size_t>::max();
    int next_id = 0;
    for (const Instance *inst : part.instances) {
        if (!simulated(inst, exclude))
            continue;
        if (inst == target)
            target_slot = n;
        SimInst &s = slotAt(n++);
        s.table = &quant_.tableFor(inst->execSpec, inst->model);
        s.availAt = inst->state == InstanceState::Loading
                        ? inst->createdAt + inst->loadDuration
                        : now;
        for (const Request *r : inst->prefillQueue) {
            s.prefills.push_back({r->deadlineForNextToken(),
                                  r->contextLen(), false, next_id++});
        }
        for (const Request *r : inst->decodeBatch) {
            s.decodeDeadlines.push_back(
                {r->deadlineForNextToken(), next_id++});
        }
        s.avgLen = static_cast<double>(inst->avgContextLen());
    }
    return {n, target_slot};
}

void
ShadowValidator::rescanPrefills(SimInst &si)
{
    si.pfMin = kNever;
    si.pfIdx = 0;
    for (std::size_t i = 0; i < si.prefills.size(); ++i) {
        if (si.prefills[i].deadline < si.pfMin) {
            si.pfMin = si.prefills[i].deadline;
            si.pfIdx = i;
        }
    }
}

void
ShadowValidator::settleDecodes(SimInst &si) const
{
    for (SimDecode &dd : si.decodeDeadlines)
        for (int k = 0; k < si.decodeLag; ++k)
            dd.deadline += cfg_.tpotSlo;
    si.decodeLag = 0;
}

bool
ShadowValidator::simulate(std::vector<SimInst> &v, std::size_t count,
                          Seconds start, bool collectDoomed) const
{
    Seconds t = start;
    bool candidate_present = false;
    for (std::size_t i = 0; i < count; ++i) {
        SimInst &si = v[i];
        for (const SimReq &p : si.prefills)
            if (p.isCandidate)
                candidate_present = true;
        rescanPrefills(si);
        si.decodeLag = 0;
        si.decMin = kNever;
        for (const SimDecode &dd : si.decodeDeadlines)
            si.decMin = std::min(si.decMin, dd.deadline);
    }
    bool candidate_prefilled = !candidate_present;

    auto violate = [&](int id) {
        // Returns true when the violation should reject the admission.
        if (collectDoomed) {
            doomed_.push_back(id);
            return false;
        }
        if (!doomedResolved_)
            resolveDoomed();
        return !std::binary_search(doomed_.begin(), doomed_.end(), id);
    };

    for (int step = 0; step < cfg_.maxSteps; ++step) {
        // Termination: candidate prefilled, every prefill drained, and
        // every busy instance decoded at least once.
        if (candidate_prefilled) {
            bool all_ok = true;
            for (std::size_t i = 0; i < count; ++i) {
                const SimInst &si = v[i];
                if (!si.prefills.empty()) {
                    all_ok = false;
                    break;
                }
                if (!si.decodeDeadlines.empty() &&
                    !si.decodedSinceCandidate) {
                    all_ok = false;
                    break;
                }
            }
            if (all_ok)
                return true;
        }
        // Every 32 steps: stop once no request can be late any more,
        // which is what the remaining steps would conclude.
        if (step % 32 == 0 &&
            noViolationPossible(v, count, t, cfg_.maxSteps - step)) {
            if (!collectDoomed)
                obs::bump(ctr_, obs::kShadowEarlyAccepts);
            return true;
        }

        // Select the runnable instance with the most urgent request.
        SimInst *chosen = nullptr;
        Seconds best = kNever;
        Seconds min_avail = kNever;
        bool any_work = false;
        for (std::size_t i = 0; i < count; ++i) {
            SimInst &si = v[i];
            if (si.prefills.empty() && si.decodeDeadlines.empty())
                continue;
            any_work = true;
            min_avail = std::min(min_avail, si.availAt);
            if (si.availAt > t)
                continue;
            Seconds d = std::min(si.pfMin, si.decMin);
            if (d < best) {
                best = d;
                chosen = &si;
            }
        }
        if (!any_work)
            return true;
        if (!chosen) {
            t = std::max(t, min_avail); // wait for a load to finish
            continue;
        }

        // The chosen instance's most urgent item: its earliest prefill
        // unless a decode deadline comes strictly first.
        if (chosen->pfMin <= chosen->decMin) {
            SimReq req = chosen->prefills[chosen->pfIdx];
            Seconds dur =
                Quantifier::prefillEstimate(*chosen->table, req.ctx) *
                cfg_.overestimate;
            t += dur;
            if (t > req.deadline && violate(req.id))
                return false; // cases 1 / 2: prefill lands too late
            chosen->prefills.erase(
                chosen->prefills.begin() +
                static_cast<std::ptrdiff_t>(chosen->pfIdx));
            if (req.isCandidate)
                candidate_prefilled = true;
            // Joins the decode batch with the cumulative deadline.
            double n = static_cast<double>(chosen->decodeDeadlines.size());
            chosen->avgLen = (chosen->avgLen * n +
                              static_cast<double>(req.ctx)) /
                             (n + 1.0);
            Seconds joined = std::max(req.deadline, t) + cfg_.tpotSlo;
            settleDecodes(*chosen);
            chosen->decodeDeadlines.push_back({joined, req.id});
            rescanPrefills(*chosen);
            chosen->decMin = std::min(chosen->decMin, joined);
        } else {
            int batch = static_cast<int>(chosen->decodeDeadlines.size());
            Seconds dur =
                Quantifier::decodeEstimate(
                    *chosen->table, batch,
                    static_cast<Tokens>(chosen->avgLen)) *
                cfg_.overestimate;
            t += dur;
            if (t > chosen->decMin) {
                // Someone is late: visit every deadline in order.
                settleDecodes(*chosen);
                Seconds dec_min = kNever;
                for (SimDecode &dd : chosen->decodeDeadlines) {
                    if (t > dd.deadline && violate(dd.id))
                        return false; // case 2: existing request delayed
                    dd.deadline += cfg_.tpotSlo;
                    dec_min = std::min(dec_min, dd.deadline);
                }
                chosen->decMin = dec_min;
            } else {
                // All on time. fl(x + c) is monotone in x, so the
                // minimum of the advanced deadlines is the advanced
                // minimum; the entries catch up when next read.
                ++chosen->decodeLag;
                chosen->decMin += cfg_.tpotSlo;
            }
            chosen->avgLen += 1.0;
            chosen->decodedSinceCandidate = true;
        }
    }
    // Horizon exhausted with no (rejecting) violation observed.
    return true;
}

bool
ShadowValidator::noViolationPossible(const std::vector<SimInst> &v,
                                     std::size_t count, Seconds t,
                                     int stepsLeft) const
{
    Seconds floor = kNever;  // no key falls below this
    Seconds latest = t;      // a load wait moves t at most this far
    Seconds largest = 0.0;   // the largest step still possible
    for (std::size_t i = 0; i < count; ++i) {
        const SimInst &si = v[i];
        if (si.prefills.empty() && si.decodeDeadlines.empty())
            continue;
        floor = std::min(floor, std::min(si.pfMin, si.decMin));
        latest = std::max(latest, si.availAt);
        const Quantifier::ProfileTable &tab = *si.table;
        // A joining prefill moves the average context length toward
        // its own; each decode step adds one token (+1 for rounding).
        double len = si.avgLen;
        for (const SimReq &p : si.prefills) {
            largest = std::max(largest,
                               Quantifier::prefillEstimate(tab, p.ctx));
            len = std::max(len, static_cast<double>(p.ctx));
        }
        len += stepsLeft + 1;
        // Decode batches only grow, by the prefills that join. Past
        // the top batch point the estimate extrapolates: no bound.
        std::size_t batch = si.decodeDeadlines.size() + si.prefills.size();
        if (batch > static_cast<std::size_t>(tab.batchGrid.back()))
            return false;
        // An estimate interpolates between grid corners, so it is at
        // most the largest corner up to the first point covering the
        // batch and length.
        std::size_t bh = 0;
        while (static_cast<std::size_t>(tab.batchGrid[bh]) < batch)
            ++bh;
        std::size_t lh = 0;
        while (lh + 1 < tab.lenGrid.size() &&
               static_cast<double>(tab.lenGrid[lh]) < len)
            ++lh;
        for (std::size_t b = 0; b <= bh; ++b)
            for (std::size_t l = 0; l <= lh; ++l)
                largest = std::max(largest, tab.decode[b][l]);
    }
    // The margin covers rounding: the run adds each step to t one at
    // a time, the bound multiplies once.
    Seconds bound = latest + stepsLeft * largest * cfg_.overestimate;
    return bound * (1.0 + 1e-9) < floor;
}

void
ShadowValidator::baselinePass(std::size_t count, Seconds start) const
{
    key_.clear();
    key_.push_back(bitsOf(start));
    for (std::size_t i = 0; i < count; ++i) {
        const SimInst &si = baseline_[i];
        std::uint64_t queued = 0;
        for (const SimReq &p : si.prefills)
            queued += p.isCandidate ? 0 : 1;
        if (queued == 0 && si.decodeDeadlines.empty())
            continue;
        key_.push_back(bitsOf(si.table));
        key_.push_back(bitsOf(si.availAt));
        key_.push_back(bitsOf(si.avgLen));
        key_.push_back(queued << 32 | si.decodeDeadlines.size());
        for (const SimReq &p : si.prefills) {
            if (p.isCandidate)
                continue;
            key_.push_back(bitsOf(p.deadline));
            key_.push_back(bitsOf(p.ctx));
            key_.push_back(bitsOf(p.id));
        }
        for (const SimDecode &dd : si.decodeDeadlines) {
            key_.push_back(bitsOf(dd.deadline));
            key_.push_back(bitsOf(dd.id));
        }
    }
    std::uint64_t hash = 0;
    for (std::uint64_t w : key_)
        hash = (hash ^ w) * 0x100000001b3ULL + (hash >> 29);

    if (memoEpoch_ != quant_.epoch()) {
        memoEpoch_ = quant_.epoch();
        for (BaselineMemo &m : memo_)
            m.key.clear();
    }
    for (const BaselineMemo &m : memo_) {
        if (m.hash == hash && m.key == key_) {
            doomed_ = m.doomed;
            ++memoHits_;
            return;
        }
    }

    // Miss: run the pass on the snapshot without the candidate.
    for (std::size_t i = 0; i < count; ++i) {
        SimInst &si = baseline_[i];
        si.prefills.erase(
            std::remove_if(si.prefills.begin(), si.prefills.end(),
                           [](const SimReq &p) { return p.isCandidate; }),
            si.prefills.end());
    }
    doomed_.clear();
    ++baselineRuns_;
    obs::bump(ctr_, obs::kShadowBaselineRuns);
    simulate(baseline_, count, start, /*collectDoomed=*/true);
    BaselineMemo &m = memo_[memoNext_];
    memoNext_ = (memoNext_ + 1) % memo_.size();
    m.hash = hash;
    m.key = key_;
    m.doomed = doomed_;
}

void
ShadowValidator::resolveDoomed() const
{
    doomedResolved_ = true;
    // A candidate whose own deadline has already passed (an evicted /
    // migrated request being re-placed) cannot be protected either; it
    // must still find a home, so its own lateness does not reject.
    // Read before baselinePass() drops the candidate from the snapshot.
    bool late_candidate = false;
    for (std::size_t i = 0; i < passCount_; ++i) {
        for (const SimReq &p : baseline_[i].prefills) {
            if (p.isCandidate && p.deadline < passNow_)
                late_candidate = true;
        }
    }
    // Whatever violates without the candidate is doomed and must not
    // veto the admission.
    baselinePass(passCount_, passStart_);
    if (late_candidate)
        doomed_.push_back(-1);
    std::sort(doomed_.begin(), doomed_.end());
}

bool
ShadowValidator::twoPass(std::size_t count, Seconds start,
                         Seconds now) const
{
    ++evals_;
    // Snapshot for the baseline pass; the copy assigns element-wise so
    // inner buffers are recycled. Most real passes meet no late request
    // and never read it.
    if (baseline_.size() < count)
        baseline_.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        baseline_[i] = state_[i];
    doomedResolved_ = false;
    passCount_ = count;
    passStart_ = start;
    passNow_ = now;
    return simulate(state_, count, start, /*collectDoomed=*/false);
}

bool
ShadowValidator::aggregateDecodeFits(
    const Partition &part, const Instance *target, int extraOnTarget,
    Tokens extraLen, const std::set<const Instance *> &exclude) const
{
    Seconds total = 0.0;
    for (const Instance *inst : part.instances) {
        if (!simulated(inst, exclude))
            continue;
        // Steady state: every admitted request is in the decode batch.
        int batch = inst->loadSize() + (inst == target ? extraOnTarget : 0);
        if (batch == 0)
            continue;
        Tokens total_ctx = inst->totalContext();
        for (const Request *r : inst->prefillQueue)
            total_ctx += r->contextLen();
        if (inst == target)
            total_ctx += extraLen * extraOnTarget;
        Tokens avg = std::max<Tokens>(1, total_ctx / batch);
        total += quant_.decodeEstimate(inst->execSpec, inst->model, batch,
                                       avg) *
                 cfg_.overestimate;
        if (total > cfg_.tpotSlo)
            return false;
    }
    return total <= cfg_.tpotSlo;
}

bool
ShadowValidator::canAdmit(const Partition &part, const Instance *target,
                          const Request &req, Seconds now,
                          Seconds partBusyUntil,
                          const std::set<const Instance *> &exclude) const
{
    if (!aggregateDecodeFits(part, target, 1, req.contextLen(), exclude))
        return false;

    Built b = buildState(part, now, exclude, target);
    if (b.target < b.count) {
        state_[b.target].prefills.push_back(
            {req.deadlineForNextToken(), req.contextLen(), true, -1});
    }
    return twoPass(b.count, std::max(now, partBusyUntil), now);
}

bool
ShadowValidator::canAdmitNew(const Partition &part, const ModelSpec &model,
                             const HardwareSpec &execSpec,
                             const Request &req, Seconds now,
                             Seconds partBusyUntil, Seconds readyAt) const
{
    // Case 3 with the new instance's own decode stream included.
    if (!aggregateDecodeFits(part, nullptr, 0, 0))
        return false;
    Seconds own = quant_.decodeEstimate(execSpec, model, 1,
                                        req.contextLen()) *
                  cfg_.overestimate;
    Seconds others = 0.0;
    for (const Instance *inst : part.instances) {
        if (inst->state == InstanceState::Reclaimed ||
            inst->state == InstanceState::Unloading)
            continue;
        int batch = inst->loadSize();
        if (batch == 0)
            continue;
        others += quant_.decodeEstimate(inst->execSpec, inst->model, batch,
                                        inst->avgContextLen()) *
                  cfg_.overestimate;
    }
    if (own + others > cfg_.tpotSlo)
        return false;

    std::size_t count = buildState(part, now, {}, nullptr).count;
    SimInst &cand = slotAt(count);
    cand.table = &quant_.tableFor(execSpec, model);
    cand.availAt = readyAt;
    // Cold-started requests receive a grace window equal to the load
    // time, mirroring the runtime accounting.
    Seconds grace = std::max<Seconds>(0.0, readyAt - now);
    cand.prefills.push_back({req.deadlineForNextToken() + grace,
                             req.contextLen(), true, -1});
    cand.avgLen = static_cast<double>(req.contextLen());
    return twoPass(count + 1, std::max(now, partBusyUntil), now);
}

} // namespace slinfer
