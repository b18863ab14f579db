/**
 * @file
 * Shadow-validation tests (§VI-C): the three rejection cases, the
 * doomed-request exemption, loading-instance availability, the
 * aggregate (case 3) decode check, and a seeded differential test of
 * the validator against a plain reference fast-forward.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>

#include "core/shadow_validator.hh"

namespace slinfer
{
namespace
{

struct ShadowFixture : public ::testing::Test
{
    ShadowFixture() : node(0, xeon6462c(), 1)
    {
        part = node.partitions()[0].get();
        quant.profile(xeon6462c(), llama2_7b());
        quant.profile(a100_80g(), llama2_7b());
        validator = std::make_unique<ShadowValidator>(
            quant, ShadowConfig{1.10, 0.25, 500});
    }

    Instance &
    addInstance(const HardwareSpec &hw)
    {
        auto inst = std::make_unique<Instance>(nextId++, 0, llama2_7b(),
                                               part, hw, 32ULL << 30);
        inst->state = InstanceState::Active;
        part->instances.push_back(inst.get());
        pool.push_back(std::move(inst));
        return *pool.back();
    }

    Request &
    makeRequest(Seconds arrival, Tokens in, Tokens out,
                Tokens generated = 0)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq++;
        r->arrival = arrival;
        r->inputLen = in;
        r->targetOutput = out;
        r->generated = generated;
        r->ttftSlo = std::min(std::max(0.5, in / 512.0), 8.0);
        r->tpotSlo = 0.25;
        reqs.push_back(std::move(r));
        return *reqs.back();
    }

    Node node;
    Partition *part;
    Quantifier quant;
    std::unique_ptr<ShadowValidator> validator;
    std::vector<std::unique_ptr<Instance>> pool;
    std::vector<std::unique_ptr<Request>> reqs;
    InstanceId nextId = 1;
    RequestId nextReq = 1;
};

TEST_F(ShadowFixture, AdmitsToIdleInstance)
{
    Instance &inst = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 1024, 100);
    EXPECT_TRUE(validator->canAdmit(*part, &inst, r, 0.0, 0.0));
}

TEST_F(ShadowFixture, RejectsCase1PrefillTooLong)
{
    // A 34B model on the CPU: the prefill alone blows the TTFT SLO.
    quant.profile(xeon6462c(), codellama_34b());
    auto inst = std::make_unique<Instance>(nextId++, 0, codellama_34b(),
                                           part, xeon6462c(), 32ULL << 30);
    inst->state = InstanceState::Active;
    part->instances.push_back(inst.get());
    Request &r = makeRequest(0.0, 2048, 100);
    EXPECT_FALSE(validator->canAdmit(*part, inst.get(), r, 0.0, 0.0));
}

TEST_F(ShadowFixture, RejectsCase2ExistingRequestDelayed)
{
    // A large CPU decode batch running near its deadline budget: a
    // short-TTFT newcomer cannot squeeze its prefill in without either
    // being late itself or delaying the batch past its cumulative
    // deadlines.
    Instance &inst = addInstance(xeon6462c());
    std::vector<Request *> batch;
    for (int i = 0; i < 22; ++i) {
        Request &r = makeRequest(0.0, 2000, 400, /*generated=*/8);
        r.state = RequestState::Decode;
        inst.decodeBatch.push_back(&r);
        batch.push_back(&r);
    }
    Seconds now = batch[0]->deadlineForNextToken() - 0.05;
    Request &incoming = makeRequest(now, 256, 100); // TTFT SLO 0.5 s
    EXPECT_FALSE(validator->canAdmit(*part, &inst, incoming, now, now));
}

TEST_F(ShadowFixture, RejectsCase3AggregateDecode)
{
    // Four CPU instances each with sizeable batches: the sum of one
    // decode iteration across instances exceeds the 0.25 s TPOT.
    for (int i = 0; i < 4; ++i) {
        Instance &inst = addInstance(xeon6462c());
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.decodeBatch.push_back(&r);
        }
    }
    Request &incoming = makeRequest(10.0, 512, 50);
    EXPECT_FALSE(validator->aggregateDecodeFits(
        *part, part->instances[0], 1, incoming.contextLen()));
    EXPECT_FALSE(validator->canAdmit(*part, part->instances[0], incoming,
                                     10.0, 10.0));
}

TEST_F(ShadowFixture, AggregateFitsWithFewInstances)
{
    Instance &a = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 1024, 100, 3);
    r.state = RequestState::Decode;
    a.decodeBatch.push_back(&r);
    EXPECT_TRUE(validator->aggregateDecodeFits(*part, &a, 1, 1024));
}

TEST_F(ShadowFixture, ExcludedInstancesAreIgnored)
{
    // Same overload as the case-3 test, but excluding three of the
    // four instances clears the admission.
    std::vector<Instance *> insts;
    for (int i = 0; i < 4; ++i) {
        Instance &inst = addInstance(xeon6462c());
        insts.push_back(&inst);
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.decodeBatch.push_back(&r);
        }
    }
    // Excluding three of the four instances clears the aggregate
    // (case 3) check that rejected the crowded partition.
    Request &incoming = makeRequest(10.0, 512, 50);
    std::set<const Instance *> excl = {insts[1], insts[2], insts[3]};
    EXPECT_FALSE(validator->aggregateDecodeFits(
        *part, insts[0], 1, incoming.contextLen()));
    EXPECT_TRUE(validator->aggregateDecodeFits(
        *part, insts[0], 1, incoming.contextLen(), excl));
}

TEST_F(ShadowFixture, DoomedRequestDoesNotVetoAdmission)
{
    // A request slightly past its deadline is doomed regardless of the
    // newcomer; it may not veto the admission (only consume compute).
    Instance &inst = addInstance(xeon6462c());
    Request &doomed = makeRequest(0.0, 1024, 100, 2);
    doomed.state = RequestState::Decode;
    inst.decodeBatch.push_back(&doomed);
    Seconds now = doomed.deadlineForNextToken() + 0.3;
    Request &incoming = makeRequest(now, 1024, 50); // TTFT SLO 2 s
    EXPECT_TRUE(validator->canAdmit(*part, &inst, incoming, now, now));
}

TEST_F(ShadowFixture, DoomedCandidateCanStillBeReplaced)
{
    // An evicted request being re-placed has already lost its SLO; its
    // own lateness must not block finding a new home.
    Instance &inst = addInstance(xeon6462c());
    Request &evicted = makeRequest(0.0, 1024, 400, /*generated=*/50);
    Seconds now = evicted.deadlineForNextToken() + 10.0;
    EXPECT_TRUE(validator->canAdmit(*part, &inst, evicted, now, now));
}

TEST_F(ShadowFixture, CanAdmitNewOnEmptyPartition)
{
    Request &r = makeRequest(0.0, 1024, 100);
    // Cold start ready ~1 s later; grace covers it.
    EXPECT_TRUE(validator->canAdmitNew(*part, llama2_7b(), xeon6462c(), r,
                                       0.0, 0.0, 1.0));
}

TEST_F(ShadowFixture, CanAdmitNewRespectsBusyNeighbors)
{
    for (int i = 0; i < 3; ++i) {
        Instance &inst = addInstance(xeon6462c());
        for (int j = 0; j < 12; ++j) {
            Request &r = makeRequest(0.0, 1024, 200, 5);
            r.state = RequestState::Decode;
            inst.decodeBatch.push_back(&r);
        }
    }
    Request &r = makeRequest(10.0, 1024, 100);
    EXPECT_FALSE(validator->canAdmitNew(*part, llama2_7b(), xeon6462c(),
                                        r, 10.0, 10.0, 11.0));
}

TEST_F(ShadowFixture, LoadingInstanceDelaysItsPrefills)
{
    Instance &inst = addInstance(xeon6462c());
    inst.state = InstanceState::Loading;
    inst.createdAt = 0.0;
    inst.loadDuration = 1.0;
    // A queued request whose TTFT cannot survive waiting for the load
    // plus a long prefill.
    Request &queued = makeRequest(0.0, 256, 50); // TTFT SLO = 0.5 s
    queued.state = RequestState::Prefill;
    inst.prefillQueue.push_back(&queued);
    Request &incoming = makeRequest(0.0, 256, 50);
    // The queued request is doomed by the load alone (no grace in this
    // synthetic setup), so it must not veto the incoming one... but the
    // incoming rides the same loading instance, so it is late too.
    EXPECT_FALSE(validator->canAdmit(*part, &inst, incoming, 0.0, 0.0));
}

TEST_F(ShadowFixture, GpuAbsorbsWhatCpuCannot)
{
    // The identical load that fails on the CPU passes on an A100.
    Node gpu_node(1, a100_80g(), 1);
    Partition *gpu_part = gpu_node.partitions()[0].get();
    auto gi = std::make_unique<Instance>(nextId++, 0, llama2_7b(),
                                         gpu_part, a100_80g(),
                                         32ULL << 30);
    gi->state = InstanceState::Active;
    gpu_part->instances.push_back(gi.get());
    for (int j = 0; j < 12; ++j) {
        Request &r = makeRequest(0.0, 1024, 200, 5);
        r.state = RequestState::Decode;
        gi->decodeBatch.push_back(&r);
    }
    Request &incoming = makeRequest(10.0, 2048, 100);
    EXPECT_TRUE(validator->canAdmit(*gpu_part, gi.get(), incoming, 10.0,
                                    10.0));
}

TEST_F(ShadowFixture, PartitionBusyUntilDelaysEverything)
{
    Instance &inst = addInstance(xeon6462c());
    Request &r = makeRequest(0.0, 256, 50); // TTFT 0.5 s
    // The partition is busy with someone else's long iteration until
    // after the candidate's deadline.
    EXPECT_FALSE(validator->canAdmit(*part, &inst, r, 0.0, /*busy=*/3.0));
    EXPECT_TRUE(validator->canAdmit(*part, &inst, r, 0.0, 0.0));
}

// ------------------------------------------------------------------
// Differential test against a reference fast-forward.
// ------------------------------------------------------------------

/**
 * Reference model of the two-pass validation: every step rescans every
 * deadline, every estimate goes through the (hardware, model) lookup,
 * and the baseline pass is re-simulated on every call. The validator
 * caches per-instance minima, resolves profile tables once and
 * memoizes the baseline pass; its verdicts must match this model's.
 */
class RefShadow
{
  public:
    RefShadow(const Quantifier &quant, const ShadowValidator &agg,
              ShadowConfig cfg)
        : quant_(quant), agg_(agg), cfg_(cfg)
    {
    }

    bool
    canAdmit(const Partition &part, const Instance *target,
             const Request &req, Seconds now, Seconds busy,
             const std::set<const Instance *> &exclude) const
    {
        if (!agg_.aggregateDecodeFits(part, target, 1, req.contextLen(),
                                      exclude))
            return false;
        nextId_ = 0;
        State v;
        for (const Instance *inst : part.instances) {
            if (!live(inst, exclude))
                continue;
            v.push_back(build(*inst, now));
            if (inst == target)
                v.back().prefills.push_back({req.deadlineForNextToken(),
                                             req.contextLen(), true, -1});
        }
        return twoPass(v, std::max(now, busy), now);
    }

    bool
    canAdmitNew(const Partition &part, const ModelSpec &model,
                const HardwareSpec &spec, const Request &req, Seconds now,
                Seconds busy, Seconds readyAt) const
    {
        if (!agg_.aggregateDecodeFits(part, nullptr, 0, 0))
            return false;
        Seconds own = quant_.decodeEstimate(spec, model, 1,
                                            req.contextLen()) *
                      cfg_.overestimate;
        Seconds others = 0.0;
        for (const Instance *inst : part.instances) {
            if (inst->state == InstanceState::Reclaimed ||
                inst->state == InstanceState::Unloading ||
                inst->loadSize() == 0)
                continue;
            others += quant_.decodeEstimate(inst->execSpec, inst->model,
                                            inst->loadSize(),
                                            inst->avgContextLen()) *
                      cfg_.overestimate;
        }
        if (own + others > cfg_.tpotSlo)
            return false;
        nextId_ = 0;
        State v;
        for (const Instance *inst : part.instances)
            if (live(inst, {}))
                v.push_back(build(*inst, now));
        SimInst cand;
        cand.model = &model;
        cand.hw = &spec;
        cand.availAt = readyAt;
        cand.prefills.push_back(
            {req.deadlineForNextToken() + std::max(0.0, readyAt - now),
             req.contextLen(), true, -1});
        cand.avgLen = static_cast<double>(req.contextLen());
        v.push_back(cand);
        return twoPass(v, std::max(now, busy), now);
    }

  private:
    struct SimReq
    {
        Seconds deadline;
        Tokens ctx;
        bool isCandidate;
        int id;
    };
    struct SimDecode
    {
        Seconds deadline;
        int id;
    };
    struct SimInst
    {
        const ModelSpec *model = nullptr;
        const HardwareSpec *hw = nullptr;
        Seconds availAt = 0.0;
        std::vector<SimReq> prefills;
        std::vector<SimDecode> decodes;
        double avgLen = 1.0;
        bool decoded = false;
    };
    using State = std::vector<SimInst>;

    static bool
    live(const Instance *inst, const std::set<const Instance *> &exclude)
    {
        return !exclude.count(inst) &&
               inst->state != InstanceState::Reclaimed &&
               inst->state != InstanceState::Unloading &&
               inst->state != InstanceState::Draining;
    }

    SimInst
    build(const Instance &inst, Seconds now) const
    {
        SimInst s;
        s.model = &inst.model;
        s.hw = &inst.execSpec;
        s.availAt = inst.state == InstanceState::Loading
                        ? inst.createdAt + inst.loadDuration
                        : now;
        for (const Request *r : inst.prefillQueue)
            s.prefills.push_back({r->deadlineForNextToken(),
                                  r->contextLen(), false, nextId_++});
        for (const Request *r : inst.decodeBatch)
            s.decodes.push_back({r->deadlineForNextToken(), nextId_++});
        s.avgLen = static_cast<double>(inst.avgContextLen());
        return s;
    }

    bool
    twoPass(State v, Seconds start, Seconds now) const
    {
        State base = v;
        for (SimInst &si : base)
            si.prefills.erase(std::remove_if(si.prefills.begin(),
                                             si.prefills.end(),
                                             [](const SimReq &p) {
                                                 return p.isCandidate;
                                             }),
                              si.prefills.end());
        std::vector<int> doomed;
        simulate(base, start, true, doomed);
        for (const SimInst &si : v)
            for (const SimReq &p : si.prefills)
                if (p.isCandidate && p.deadline < now)
                    doomed.push_back(p.id);
        std::sort(doomed.begin(), doomed.end());
        return simulate(v, start, false, doomed);
    }

    bool
    simulate(State &v, Seconds start, bool collect,
             std::vector<int> &doomed) const
    {
        const Seconds inf = std::numeric_limits<Seconds>::infinity();
        Seconds t = start;
        bool prefilled = true;
        for (const SimInst &si : v)
            for (const SimReq &p : si.prefills)
                if (p.isCandidate)
                    prefilled = false;
        auto violate = [&](int id) {
            if (collect) {
                doomed.push_back(id);
                return false;
            }
            return !std::binary_search(doomed.begin(), doomed.end(), id);
        };
        for (int step = 0; step < cfg_.maxSteps; ++step) {
            if (prefilled &&
                std::all_of(v.begin(), v.end(), [](const SimInst &si) {
                    return si.prefills.empty() &&
                           (si.decodes.empty() || si.decoded);
                }))
                return true;
            SimInst *chosen = nullptr;
            Seconds best = inf, min_avail = inf;
            bool any_work = false;
            for (SimInst &si : v) {
                if (si.prefills.empty() && si.decodes.empty())
                    continue;
                any_work = true;
                min_avail = std::min(min_avail, si.availAt);
                if (si.availAt > t)
                    continue;
                Seconds d = inf;
                for (const SimReq &p : si.prefills)
                    d = std::min(d, p.deadline);
                for (const SimDecode &dd : si.decodes)
                    d = std::min(d, dd.deadline);
                if (d < best) {
                    best = d;
                    chosen = &si;
                }
            }
            if (!any_work)
                return true;
            if (!chosen) {
                t = std::max(t, min_avail);
                continue;
            }
            std::size_t pf_idx = 0;
            Seconds pf_best = inf, dec_best = inf;
            for (std::size_t i = 0; i < chosen->prefills.size(); ++i) {
                if (chosen->prefills[i].deadline < pf_best) {
                    pf_best = chosen->prefills[i].deadline;
                    pf_idx = i;
                }
            }
            for (const SimDecode &dd : chosen->decodes)
                dec_best = std::min(dec_best, dd.deadline);
            if (pf_best <= dec_best) {
                SimReq req = chosen->prefills[pf_idx];
                t += quant_.prefillEstimate(*chosen->hw, *chosen->model,
                                            req.ctx) *
                     cfg_.overestimate;
                if (t > req.deadline && violate(req.id))
                    return false;
                chosen->prefills.erase(chosen->prefills.begin() +
                                       static_cast<std::ptrdiff_t>(pf_idx));
                if (req.isCandidate)
                    prefilled = true;
                double n = static_cast<double>(chosen->decodes.size());
                chosen->avgLen =
                    (chosen->avgLen * n + static_cast<double>(req.ctx)) /
                    (n + 1.0);
                chosen->decodes.push_back(
                    {std::max(req.deadline, t) + cfg_.tpotSlo, req.id});
            } else {
                t += quant_.decodeEstimate(
                         *chosen->hw, *chosen->model,
                         static_cast<int>(chosen->decodes.size()),
                         static_cast<Tokens>(chosen->avgLen)) *
                     cfg_.overestimate;
                for (SimDecode &dd : chosen->decodes) {
                    if (t > dd.deadline && violate(dd.id))
                        return false;
                    dd.deadline += cfg_.tpotSlo;
                }
                chosen->avgLen += 1.0;
                chosen->decoded = true;
            }
        }
        return true;
    }

    const Quantifier &quant_;
    const ShadowValidator &agg_;
    ShadowConfig cfg_;
    mutable int nextId_ = 0;
};

/** One randomly populated single-partition node. */
struct World
{
    World(NodeId id, const HardwareSpec &hw) : node(id, hw, 1)
    {
        part = node.partitions()[0].get();
    }

    Node node;
    Partition *part;
    std::vector<std::unique_ptr<Instance>> insts;
    std::vector<std::unique_ptr<Request>> reqs;
};

class ShadowDifferential : public ::testing::TestWithParam<int>
{
  protected:
    using Gen = std::mt19937_64;

    static double
    uniform(Gen &g, double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(g);
    }

    static int
    pick(Gen &g, int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(g);
    }

    /** A request; with some probability a clone of the previous one's
     *  timing so deadlines tie exactly. */
    Request &
    addRequest(World &w, Gen &g, Seconds now, Tokens generated)
    {
        auto r = std::make_unique<Request>();
        r->id = nextReq_++;
        r->inputLen = pick(g, 64, 3000);
        r->targetOutput = 400;
        r->generated = generated;
        r->tpotSlo = 0.25;
        bool tie = !w.reqs.empty() && pick(g, 0, 3) == 0;
        if (tie) {
            const Request &prev = *w.reqs.back();
            r->arrival = prev.arrival;
            r->ttftSlo = prev.ttftSlo;
            r->generated = prev.generated;
        } else {
            // Up to 6 s in the past: some requests are already late.
            r->arrival = now - uniform(g, 0.0, 6.0);
            r->ttftSlo = std::min(std::max(0.5, r->inputLen / 512.0), 8.0);
        }
        w.reqs.push_back(std::move(r));
        return *w.reqs.back();
    }

    /**
     * A random partition. A calm one holds only rewound requests (a
     * large `generated`, so far deadlines), where the fast-forward can
     * stop early; its loading instances may finish far in the future.
     */
    std::unique_ptr<World>
    makeWorld(Gen &g, Seconds now)
    {
        bool gpu = pick(g, 0, 1) == 1;
        bool calm = pick(g, 0, 3) == 0;
        auto w = std::make_unique<World>(nextNode_++,
                                         gpu ? a100_80g() : xeon6462c());
        int n = pick(g, 1, 8);
        auto generated = [&](int lo, int hi) {
            return calm ? pick(g, 500, 4000) : pick(g, lo, hi);
        };
        for (int i = 0; i < n; ++i) {
            const ModelSpec model =
                pick(g, 0, 2) == 0 ? llama32_3b() : llama2_7b();
            auto inst = std::make_unique<Instance>(
                nextInst_++, 0, model, w->part, w->part->spec,
                32ULL << 30);
            int kind = pick(g, 0, 9);
            inst->state = kind < 7   ? InstanceState::Active
                          : kind < 9 ? InstanceState::Loading
                                     : InstanceState::Draining;
            inst->createdAt = now - uniform(g, 0.0, 1.0);
            inst->loadDuration = calm && pick(g, 0, 1) == 0
                                     ? uniform(g, 50.0, 1000.0)
                                     : uniform(g, 0.2, 3.0);
            int queued = pick(g, 0, 4);
            for (int q = 0; q < queued; ++q)
                inst->prefillQueue.push_back(
                    &addRequest(*w, g, now, generated(0, 0)));
            // GPU batches reach past the top of the 3B model's batch
            // grid (profiled to 8 below), where estimates extrapolate.
            int batch = pick(g, 0, gpu ? 16 : 6);
            for (int b = 0; b < batch; ++b)
                inst->decodeBatch.push_back(
                    &addRequest(*w, g, now, generated(1, 30)));
            w->part->instances.push_back(inst.get());
            w->insts.push_back(std::move(inst));
        }
        return w;
    }

    /**
     * A candidate for a loading instance whose weights land far in the
     * future, with rewound (far-deadline) requests only, next to an
     * idle neighbour: the whole run first waits for the load, so a
     * bound that forgot `availAt` would accept a candidate that lands
     * late.
     */
    void
    farLoadQuery(Gen &g, const ShadowValidator &validator,
                 const RefShadow &ref, int q)
    {
        const Seconds now = 100.0;
        bool gpu = pick(g, 0, 1) == 1;
        World w(nextNode_++, gpu ? a100_80g() : xeon6462c());
        std::vector<std::unique_ptr<Instance>> insts;
        for (int i = 0; i < 2; ++i) {
            insts.push_back(std::make_unique<Instance>(
                nextInst_++, 0, pick(g, 0, 1) ? llama32_3b() : llama2_7b(),
                w.part, w.part->spec, 32ULL << 30));
            w.part->instances.push_back(insts.back().get());
        }
        Instance &loading = *insts[0];
        loading.state = InstanceState::Loading;
        loading.createdAt = now - uniform(g, 0.0, 1.0);
        loading.loadDuration = uniform(g, 5.0, 600.0);
        insts[1]->state = InstanceState::Active;
        for (int q2 = pick(g, 0, 2); q2 > 0; --q2)
            loading.prefillQueue.push_back(
                &addRequest(w, g, now, pick(g, 100, 4000)));
        for (int b = pick(g, 0, 4); b > 0; --b)
            loading.decodeBatch.push_back(
                &addRequest(w, g, now, pick(g, 100, 4000)));
        const Request &cand = addRequest(w, g, now, pick(g, 100, 4000));
        Seconds busy = pick(g, 0, 1) ? now : now + uniform(g, 0.0, 0.4);
        bool got = validator.canAdmit(*w.part, &loading, cand, now, busy);
        bool want = ref.canAdmit(*w.part, &loading, cand, now, busy, {});
        ASSERT_EQ(got, want) << "seed " << GetParam() << " far-load " << q;
    }

    /**
     * A state whose verdict sits within a few ulps of the early-accept
     * bound: 15 queued prefills and the candidate, all of one length
     * and one deadline `d`, on an otherwise idle GPU instance. With
     * `maxSteps = 16` the run is exactly the 16 prefills, so the
     * candidate lands at `start` plus 16 equal steps, added one at a
     * time, and the bound is that same sum computed at once. `d` is
     * that landing time or up to four ulps below it.
     */
    void
    nearBoundQuery(Gen &g, const Quantifier &quant,
                   const ShadowValidator &validator, const RefShadow &ref,
                   int q)
    {
        World w(nextNode_++, a100_80g());
        auto inst = std::make_unique<Instance>(nextInst_++, 0, llama2_7b(),
                                               w.part, w.part->spec,
                                               32ULL << 30);
        inst->state = InstanceState::Active;
        w.part->instances.push_back(inst.get());
        const Seconds now = uniform(g, 1.0, 5000.0);
        const Seconds start = pick(g, 0, 1) ? now : now + uniform(g, 0, 1);
        const Tokens ctx = pick(g, 256, 4000);
        const Seconds step =
            quant.prefillEstimate(a100_80g(), llama2_7b(), ctx) * 1.10;
        Seconds land = start;
        for (int i = 0; i < 16; ++i)
            land += step;
        Seconds d = land;
        for (int k = pick(g, 0, 4); k > 0; --k)
            d = std::nextafter(d, 0.0);
        for (int i = 0; i < 16; ++i) {
            auto r = std::make_unique<Request>();
            r->id = nextReq_++;
            r->inputLen = ctx;
            r->targetOutput = 400;
            r->arrival = d; // ttftSlo 0: the deadline is exactly d
            r->ttftSlo = 0.0;
            r->tpotSlo = 0.25;
            w.reqs.push_back(std::move(r));
            if (i < 15)
                inst->prefillQueue.push_back(w.reqs.back().get());
        }
        const Request &cand = *w.reqs.back();
        bool got = validator.canAdmit(*w.part, inst.get(), cand, now, start);
        bool want = ref.canAdmit(*w.part, inst.get(), cand, now, start, {});
        ASSERT_EQ(got, want) << "seed " << GetParam() << " near-bound "
                             << q << " deadline " << (land - d);
    }

    NodeId nextNode_ = 0;
    InstanceId nextInst_ = 1;
    RequestId nextReq_ = 1;
};

TEST_P(ShadowDifferential, VerdictsMatchReference)
{
    Gen g(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
    Quantifier quant;
    for (const HardwareSpec &hw : {xeon6462c(), a100_80g()})
        for (const ModelSpec &m : {llama32_3b(), llama2_7b()})
            quant.profile(hw, m);
    quant.profile(a100_80g(), llama32_3b(), 8);
    ShadowConfig cfg{1.10, 0.25, 500};
    ShadowValidator validator(quant, cfg);
    RefShadow ref(quant, validator, cfg);
    obs::Counters ctr;
    validator.attachCounters(&ctr);

    // Twelve partitions queried in random interleavings: more states
    // than the baseline memo holds, so entries are both hit and
    // evicted, and each state comes back with many candidates.
    const Seconds now = 100.0;
    std::vector<std::unique_ptr<World>> worlds;
    for (int i = 0; i < 12; ++i)
        worlds.push_back(makeWorld(g, now));
    World probe(nextNode_++, xeon6462c());

    int accepted = 0, rejected = 0;
    for (int q = 0; q < 300; ++q) {
        World &w = *worlds[static_cast<std::size_t>(
            pick(g, 0, static_cast<int>(worlds.size()) - 1))];
        // Now and then, change one input the baseline reads: a
        // request's deadline by one ulp or by seconds (which can doom
        // it), a prompt length (a prefill's context or the batch's
        // average), or when a loading instance becomes available.
        int edit = pick(g, 0, 9);
        Instance &inst = *w.insts[static_cast<std::size_t>(
            pick(g, 0, static_cast<int>(w.insts.size()) - 1))];
        std::vector<Request *> &queue =
            inst.prefillQueue.empty() || pick(g, 0, 1) == 0
                ? inst.decodeBatch
                : inst.prefillQueue;
        if (edit < 3 && !queue.empty()) {
            Request &r = *queue[static_cast<std::size_t>(
                pick(g, 0, static_cast<int>(queue.size()) - 1))];
            r.arrival = edit == 0 ? std::nextafter(r.arrival, 0.0)
                                  : r.arrival - uniform(g, 0.5, 5.0);
        } else if (edit == 3 && !queue.empty()) {
            queue.front()->inputLen = pick(g, 0, 1) ? 64 : 4000;
        } else if (edit == 4) {
            inst.loadDuration += uniform(g, 0.2, 2.0);
        }
        // The candidate: fresh, an evicted request already past its
        // deadline, or a rewound one with a far deadline.
        int kind = pick(g, 0, 5);
        Request &cand = addRequest(probe, g, now,
                                   kind == 0   ? 20
                                   : kind == 1 ? pick(g, 500, 4000)
                                               : 0);
        if (kind == 0)
            cand.arrival = now - 30.0;
        Seconds busy = pick(g, 0, 1) ? now : now + uniform(g, 0.0, 0.4);
        bool got, want;
        if (pick(g, 0, 3) == 0) {
            const ModelSpec &model =
                w.insts[static_cast<std::size_t>(pick(
                            g, 0, static_cast<int>(w.insts.size()) - 1))]
                    ->model;
            Seconds ready = now + uniform(g, 0.0, 2.0);
            got = validator.canAdmitNew(*w.part, model, w.part->spec, cand,
                                        now, busy, ready);
            want = ref.canAdmitNew(*w.part, model, w.part->spec, cand, now,
                                   busy, ready);
        } else {
            const Instance *target = w.part->instances[static_cast<
                std::size_t>(pick(
                g, 0, static_cast<int>(w.part->instances.size()) - 1))];
            std::set<const Instance *> exclude;
            if (pick(g, 0, 4) == 0)
                exclude.insert(w.part->instances.back());
            got = validator.canAdmit(*w.part, target, cand, now, busy,
                                     exclude);
            want = ref.canAdmit(*w.part, target, cand, now, busy, exclude);
        }
        ASSERT_EQ(got, want) << "seed " << GetParam() << " query " << q;
        (got ? accepted : rejected)++;
    }
    // Both verdicts occur, and the memo answered some baseline passes
    // but not all.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(validator.baselineMemoHits(), 0u);
    EXPECT_LT(validator.baselineMemoHits(), validator.evaluations());

    for (int q = 0; q < 40; ++q)
        farLoadQuery(g, validator, ref, q);
    ShadowConfig tight{1.10, 0.25, 16};
    ShadowValidator near(quant, tight);
    RefShadow nearRef(quant, near, tight);
    near.attachCounters(&ctr);
    for (int q = 0; q < 40; ++q)
        nearBoundQuery(g, quant, near, nearRef, q);
    // The early accept fired, and some baselines were skipped: the
    // matches above were not won by never taking either shortcut.
    EXPECT_GT(ctr.v[obs::kShadowEarlyAccepts], 0u);
    EXPECT_GT(ctr.v[obs::kShadowBaselineRuns], 0u);
    EXPECT_LT(validator.baselineRuns() + validator.baselineMemoHits(),
              validator.evaluations());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowDifferential, ::testing::Range(0, 20));

TEST_F(ShadowFixture, BaselineMemoHitsRepeatedStateOnly)
{
    // The same partition state re-tested at one instant reuses the
    // baseline; any change to an input bit runs it again. The batch is
    // already past its deadlines, so every real pass meets a late
    // request and resolves its baseline.
    Instance &inst = addInstance(xeon6462c());
    for (int i = 0; i < 4; ++i) {
        Request &r = makeRequest(0.0, 1024, 100, 3);
        r.state = RequestState::Decode;
        inst.decodeBatch.push_back(&r);
    }
    const Seconds now = inst.decodeBatch[0]->deadlineForNextToken() + 1.0;
    Request &a = makeRequest(now, 512, 50);
    Request &b = makeRequest(now, 256, 50);
    bool first = validator->canAdmit(*part, &inst, a, now, now);
    EXPECT_EQ(validator->baselineMemoHits(), 0u);
    EXPECT_EQ(validator->baselineRuns(), 1u);
    EXPECT_EQ(validator->canAdmit(*part, &inst, b, now, now),
              validator->canAdmit(*part, &inst, b, now, now));
    EXPECT_EQ(validator->baselineMemoHits(), 2u);
    EXPECT_EQ(validator->canAdmit(*part, &inst, a, now, now), first);
    EXPECT_EQ(validator->baselineMemoHits(), 3u);
    EXPECT_EQ(validator->baselineRuns(), 1u);
    // A later start is a different input.
    validator->canAdmit(*part, &inst, a, now, now + 0.5);
    EXPECT_EQ(validator->baselineMemoHits(), 3u);
    EXPECT_EQ(validator->baselineRuns(), 2u);
    // So is a re-profile, even of a pair this partition does not use.
    quant.profile(a100_80g(), llama2_7b());
    validator->canAdmit(*part, &inst, a, now, now);
    EXPECT_EQ(validator->baselineMemoHits(), 3u);
    EXPECT_EQ(validator->baselineRuns(), 3u);
    EXPECT_EQ(validator->evaluations(), 6u);
}

TEST_F(ShadowFixture, LazyBaselineSkippedWithoutLateRequest)
{
    // A batch far from its deadlines: the real pass meets no late
    // request, so the baseline is neither run nor looked up.
    Instance &inst = addInstance(a100_80g());
    for (int i = 0; i < 4; ++i) {
        Request &r = makeRequest(0.0, 1024, 100, 3);
        r.state = RequestState::Decode;
        inst.decodeBatch.push_back(&r);
    }
    Request &a = makeRequest(0.0, 512, 50);
    EXPECT_TRUE(validator->canAdmit(*part, &inst, a, 0.0, 0.0));
    EXPECT_TRUE(validator->canAdmitNew(*part, llama2_7b(), a100_80g(), a,
                                       0.0, 0.0, 0.5));
    EXPECT_EQ(validator->evaluations(), 2u);
    EXPECT_EQ(validator->baselineRuns(), 0u);
    EXPECT_EQ(validator->baselineMemoHits(), 0u);
    // Once the batch is late, the next validation resolves it.
    const Seconds late = inst.decodeBatch[0]->deadlineForNextToken() + 1.0;
    validator->canAdmit(*part, &inst, a, late, late);
    EXPECT_EQ(validator->baselineRuns(), 1u);
}

} // namespace
} // namespace slinfer
