/**
 * @file
 * GNU ld --wrap interposers on the layers' public entry points.
 *
 * Linking with -Wl,--wrap=SYM (one per line of wrap_symbols.txt)
 * sends every cross-object reference to SYM to __wrap_SYM here, and
 * __real_SYM reaches the original. Each interposer takes the original
 * member function's `this` as its first parameter, which is how the
 * Itanium C++ ABI passes it. Calls that stay inside one .cc file never
 * pass through the linker and are invisible (e.g. the feed's own pump
 * or the validator's twoPass -> simulate).
 *
 * Single-threaded by design: the benchmark drives one Session on one
 * thread, so the span stack and totals are plain globals.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/consolidator.hh"
#include "core/memory_subsystem.hh"
#include "core/quantifier.hh"
#include "core/shadow_validator.hh"
#include "core/token_scheduler.hh"
#include "harness/experiment.hh"
#include "harness/systems.hh"
#include "hw/perf_model.hh"
#include "metrics/recorder.hh"
#include "metrics/report.hh"
#include "sim/event_queue.hh"
#include "stream/codec.hh"
#include "trace.hh"

using namespace slinfer;

namespace perfbench
{
namespace trace
{
namespace
{

struct Raw
{
    std::uint64_t calls = 0;
    std::uint64_t trueResults = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
};

struct Frame
{
    std::uint64_t start = 0;
    std::uint64_t childNs = 0;
};

constexpr int kMaxDepth = 64;

Phase g_phase = kSetup;
Raw g_layers[kNumPhases][kNumLayers];
std::uint64_t g_leaves[kNumPhases][kNumLeaves];
Frame g_stack[kMaxDepth];
int g_depth = 0;
int g_shadowDepth = 0;
int g_consolidatorDepth = 0;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One timed call: pushed on construction, charged on destruction. */
class Span
{
  public:
    explicit Span(Layer l) : layer_(l)
    {
        if (g_depth == kMaxDepth) {
            std::fprintf(stderr, "perfbench: span stack overflow\n");
            std::abort();
        }
        Frame &f = g_stack[g_depth++];
        f.childNs = 0;
        f.start = nowNs();
    }
    ~Span()
    {
        const std::uint64_t end = nowNs();
        const Frame &f = g_stack[--g_depth];
        const std::uint64_t dur = end - f.start;
        Raw &r = g_layers[g_phase][layer_];
        ++r.calls;
        r.inclusiveNs += dur;
        r.selfNs += dur - f.childNs;
        if (g_depth > 0)
            g_stack[g_depth - 1].childNs += dur;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Record the call's boolean outcome. */
    bool result(bool ok) const
    {
        if (ok)
            ++g_layers[g_phase][layer_].trueResults;
        return ok;
    }

  private:
    Layer layer_;
};

/** Scoped increment of a nesting depth (shadow / consolidator). */
class Nest
{
  public:
    explicit Nest(int &d) : d_(d) { ++d_; }
    ~Nest() { --d_; }
    Nest(const Nest &) = delete;
    Nest &operator=(const Nest &) = delete;

  private:
    int &d_;
};

void
count(Leaf l)
{
    ++g_leaves[g_phase][l];
}

void
countShadowCall()
{
    if (g_consolidatorDepth > 0)
        count(kShadowInConsolidator);
}

void
countEstimate(Leaf l)
{
    count(l);
    if (g_shadowDepth > 0)
        count(kEstimatesInShadow);
}

} // namespace

void
setPhase(Phase p)
{
    g_phase = p;
}

void
reset()
{
    for (int p = 0; p < kNumPhases; ++p) {
        for (int l = 0; l < kNumLayers; ++l)
            g_layers[p][l] = Raw{};
        for (int l = 0; l < kNumLeaves; ++l)
            g_leaves[p][l] = 0;
    }
}

LayerTotals
layer(Phase p, Layer l)
{
    const Raw &r = g_layers[p][l];
    LayerTotals t;
    t.calls = r.calls;
    t.trueResults = r.trueResults;
    t.inclusiveS = static_cast<double>(r.inclusiveNs) * 1e-9;
    t.selfS = static_cast<double>(r.selfNs) * 1e-9;
    return t;
}

std::uint64_t
leaf(Phase p, Leaf l)
{
    return g_leaves[p][l];
}

} // namespace trace
} // namespace perfbench

using perfbench::trace::Nest;
using perfbench::trace::Span;
namespace pt = perfbench::trace;

// Symbol names below must match wrap_symbols.txt line for line.
extern "C" {

// ---- sim ------------------------------------------------------------
Seconds __real__ZN7slinfer10EventQueue9popAndRunEv(EventQueue *self);
Seconds
__wrap__ZN7slinfer10EventQueue9popAndRunEv(EventQueue *self)
{
    Span s(pt::kDispatch);
    return __real__ZN7slinfer10EventQueue9popAndRunEv(self);
}

// ---- core.shadow_validator ----------------------------------------
bool
__real__ZNK7slinfer15ShadowValidator8canAdmitERKNS_9PartitionEPKNS_8InstanceERKNS_7RequestEddRKSt3setIS6_St4lessIS6_ESaIS6_EE(
    const ShadowValidator *self, const Partition &part,
    const Instance *target, const Request &req, Seconds now,
    Seconds partBusyUntil, const std::set<const Instance *> &exclude);
bool
__wrap__ZNK7slinfer15ShadowValidator8canAdmitERKNS_9PartitionEPKNS_8InstanceERKNS_7RequestEddRKSt3setIS6_St4lessIS6_ESaIS6_EE(
    const ShadowValidator *self, const Partition &part,
    const Instance *target, const Request &req, Seconds now,
    Seconds partBusyUntil, const std::set<const Instance *> &exclude)
{
    pt::countShadowCall();
    Span s(pt::kShadow);
    Nest n(pt::g_shadowDepth);
    return s.result(
        __real__ZNK7slinfer15ShadowValidator8canAdmitERKNS_9PartitionEPKNS_8InstanceERKNS_7RequestEddRKSt3setIS6_St4lessIS6_ESaIS6_EE(
            self, part, target, req, now, partBusyUntil, exclude));
}

bool
__real__ZNK7slinfer15ShadowValidator11canAdmitNewERKNS_9PartitionERKNS_9ModelSpecERKNS_12HardwareSpecERKNS_7RequestEddd(
    const ShadowValidator *self, const Partition &part,
    const ModelSpec &model, const HardwareSpec &execSpec,
    const Request &req, Seconds now, Seconds partBusyUntil,
    Seconds readyAt);
bool
__wrap__ZNK7slinfer15ShadowValidator11canAdmitNewERKNS_9PartitionERKNS_9ModelSpecERKNS_12HardwareSpecERKNS_7RequestEddd(
    const ShadowValidator *self, const Partition &part,
    const ModelSpec &model, const HardwareSpec &execSpec,
    const Request &req, Seconds now, Seconds partBusyUntil,
    Seconds readyAt)
{
    pt::countShadowCall();
    Span s(pt::kShadow);
    Nest n(pt::g_shadowDepth);
    return s.result(
        __real__ZNK7slinfer15ShadowValidator11canAdmitNewERKNS_9PartitionERKNS_9ModelSpecERKNS_12HardwareSpecERKNS_7RequestEddd(
            self, part, model, execSpec, req, now, partBusyUntil,
            readyAt));
}

// ---- core.consolidator ----------------------------------------------
bool __real__ZN7slinfer12Consolidator13tryPreemptForEPNS_7RequestE(
    Consolidator *self, Request *req);
bool
__wrap__ZN7slinfer12Consolidator13tryPreemptForEPNS_7RequestE(
    Consolidator *self, Request *req)
{
    Span s(pt::kConsolidator);
    Nest n(pt::g_consolidatorDepth);
    return s.result(
        __real__ZN7slinfer12Consolidator13tryPreemptForEPNS_7RequestE(
            self, req));
}

// ---- core.quantifier ------------------------------------------------
Seconds
__real__ZNK7slinfer10Quantifier14decodeEstimateERKNS_12HardwareSpecERKNS_9ModelSpecEil(
    const Quantifier *self, const HardwareSpec &hw, const ModelSpec &m,
    int batch, Tokens ctx);
Seconds
__wrap__ZNK7slinfer10Quantifier14decodeEstimateERKNS_12HardwareSpecERKNS_9ModelSpecEil(
    const Quantifier *self, const HardwareSpec &hw, const ModelSpec &m,
    int batch, Tokens ctx)
{
    pt::countEstimate(pt::kDecodeEstimates);
    return __real__ZNK7slinfer10Quantifier14decodeEstimateERKNS_12HardwareSpecERKNS_9ModelSpecEil(
        self, hw, m, batch, ctx);
}

Seconds
__real__ZNK7slinfer10Quantifier15prefillEstimateERKNS_12HardwareSpecERKNS_9ModelSpecEl(
    const Quantifier *self, const HardwareSpec &hw, const ModelSpec &m,
    Tokens len);
Seconds
__wrap__ZNK7slinfer10Quantifier15prefillEstimateERKNS_12HardwareSpecERKNS_9ModelSpecEl(
    const Quantifier *self, const HardwareSpec &hw, const ModelSpec &m,
    Tokens len)
{
    pt::countEstimate(pt::kPrefillEstimates);
    return __real__ZNK7slinfer10Quantifier15prefillEstimateERKNS_12HardwareSpecERKNS_9ModelSpecEl(
        self, hw, m, len);
}

void __real__ZN7slinfer10Quantifier7profileERKNS_12HardwareSpecERKNS_9ModelSpecEi(
    Quantifier *self, const HardwareSpec &hw, const ModelSpec &m,
    int samples);
void
__wrap__ZN7slinfer10Quantifier7profileERKNS_12HardwareSpecERKNS_9ModelSpecEi(
    Quantifier *self, const HardwareSpec &hw, const ModelSpec &m,
    int samples)
{
    Span s(pt::kProfile);
    __real__ZN7slinfer10Quantifier7profileERKNS_12HardwareSpecERKNS_9ModelSpecEi(
        self, hw, m, samples);
}

// ---- core.memory_subsystem ------------------------------------------
MemorySubsystem::Plan
__real__ZNK7slinfer15MemorySubsystem9planAdmitERKNS_8InstanceERKNS_7RequestEd(
    const MemorySubsystem *self, const Instance &inst, const Request &req,
    double avgOut);
MemorySubsystem::Plan
__wrap__ZNK7slinfer15MemorySubsystem9planAdmitERKNS_8InstanceERKNS_7RequestEd(
    const MemorySubsystem *self, const Instance &inst, const Request &req,
    double avgOut)
{
    Span s(pt::kMemory);
    return __real__ZNK7slinfer15MemorySubsystem9planAdmitERKNS_8InstanceERKNS_7RequestEd(
        self, inst, req, avgOut);
}

void
__real__ZN7slinfer15MemorySubsystem10commitPlanERNS_8InstanceERKNS0_4PlanE(
    MemorySubsystem *self, Instance &inst,
    const MemorySubsystem::Plan &plan);
void
__wrap__ZN7slinfer15MemorySubsystem10commitPlanERNS_8InstanceERKNS0_4PlanE(
    MemorySubsystem *self, Instance &inst,
    const MemorySubsystem::Plan &plan)
{
    Span s(pt::kMemory);
    __real__ZN7slinfer15MemorySubsystem10commitPlanERNS_8InstanceERKNS0_4PlanE(
        self, inst, plan);
}

bool __real__ZN7slinfer15MemorySubsystem17onRequestCompleteERNS_8InstanceEd(
    MemorySubsystem *self, Instance &inst, double avgOut);
bool
__wrap__ZN7slinfer15MemorySubsystem17onRequestCompleteERNS_8InstanceEd(
    MemorySubsystem *self, Instance &inst, double avgOut)
{
    Span s(pt::kMemory);
    return __real__ZN7slinfer15MemorySubsystem17onRequestCompleteERNS_8InstanceEd(
        self, inst, avgOut);
}

MemorySubsystem::GrowResult
__real__ZN7slinfer15MemorySubsystem16tryEmergencyGrowERNS_8InstanceEd(
    MemorySubsystem *self, Instance &inst, double avgOut);
MemorySubsystem::GrowResult
__wrap__ZN7slinfer15MemorySubsystem16tryEmergencyGrowERNS_8InstanceEd(
    MemorySubsystem *self, Instance &inst, double avgOut)
{
    pt::count(pt::kEmergencyGrowCalls);
    Span s(pt::kMemory);
    return __real__ZN7slinfer15MemorySubsystem16tryEmergencyGrowERNS_8InstanceEd(
        self, inst, avgOut);
}

void
__real__ZN7slinfer15MemorySubsystem9beginLoadERNS_8InstanceENS_19BasicInlineCallbackILm16EEE(
    MemorySubsystem *self, Instance &inst, MemorySubsystem::DoneFn loaded);
void
__wrap__ZN7slinfer15MemorySubsystem9beginLoadERNS_8InstanceENS_19BasicInlineCallbackILm16EEE(
    MemorySubsystem *self, Instance &inst, MemorySubsystem::DoneFn loaded)
{
    Span s(pt::kMemory);
    __real__ZN7slinfer15MemorySubsystem9beginLoadERNS_8InstanceENS_19BasicInlineCallbackILm16EEE(
        self, inst, std::move(loaded));
}

void
__real__ZN7slinfer15MemorySubsystem11beginUnloadERNS_8InstanceENS_19BasicInlineCallbackILm16EEE(
    MemorySubsystem *self, Instance &inst,
    MemorySubsystem::DoneFn unloaded);
void
__wrap__ZN7slinfer15MemorySubsystem11beginUnloadERNS_8InstanceENS_19BasicInlineCallbackILm16EEE(
    MemorySubsystem *self, Instance &inst,
    MemorySubsystem::DoneFn unloaded)
{
    Span s(pt::kMemory);
    __real__ZN7slinfer15MemorySubsystem11beginUnloadERNS_8InstanceENS_19BasicInlineCallbackILm16EEE(
        self, inst, std::move(unloaded));
}

// ---- core.token_scheduler + hw.perf_model ---------------------------
void __real__ZN7slinfer14TokenScheduler4kickEv(TokenScheduler *self);
void
__wrap__ZN7slinfer14TokenScheduler4kickEv(TokenScheduler *self)
{
    pt::count(pt::kSchedulerKicks);
    __real__ZN7slinfer14TokenScheduler4kickEv(self);
}

Seconds
__real__ZN7slinfer9PerfModel10decodeTimeERKNS_12HardwareSpecERKNS_9ModelSpecEil(
    const HardwareSpec &hw, const ModelSpec &m, int batch, Tokens ctx);
Seconds
__wrap__ZN7slinfer9PerfModel10decodeTimeERKNS_12HardwareSpecERKNS_9ModelSpecEil(
    const HardwareSpec &hw, const ModelSpec &m, int batch, Tokens ctx)
{
    pt::count(pt::kPerfDecodeCalls);
    return __real__ZN7slinfer9PerfModel10decodeTimeERKNS_12HardwareSpecERKNS_9ModelSpecEil(
        hw, m, batch, ctx);
}

Seconds
__real__ZN7slinfer9PerfModel11prefillTimeERKNS_12HardwareSpecERKNS_9ModelSpecEl(
    const HardwareSpec &hw, const ModelSpec &m, Tokens len);
Seconds
__wrap__ZN7slinfer9PerfModel11prefillTimeERKNS_12HardwareSpecERKNS_9ModelSpecEl(
    const HardwareSpec &hw, const ModelSpec &m, Tokens len)
{
    pt::count(pt::kPerfPrefillCalls);
    return __real__ZN7slinfer9PerfModel11prefillTimeERKNS_12HardwareSpecERKNS_9ModelSpecEl(
        hw, m, len);
}

// ---- stream ---------------------------------------------------------
bool __real__ZN7slinfer6stream10StrcReader4nextERNS0_11TraceRecordE(
    stream::StrcReader *self, stream::TraceRecord &rec);
bool
__wrap__ZN7slinfer6stream10StrcReader4nextERNS0_11TraceRecordE(
    stream::StrcReader *self, stream::TraceRecord &rec)
{
    Span s(pt::kStrcDecode);
    bool ok = __real__ZN7slinfer6stream10StrcReader4nextERNS0_11TraceRecordE(
        self, rec);
    if (ok)
        pt::count(pt::kStrcRecords);
    return s.result(ok);
}

// ---- metrics --------------------------------------------------------
void __real__ZN7slinfer8Recorder10onCompleteERKNS_7RequestEd(
    Recorder *self, const Request &req, Seconds now);
void
__wrap__ZN7slinfer8Recorder10onCompleteERKNS_7RequestEd(
    Recorder *self, const Request &req, Seconds now)
{
    pt::count(pt::kCompletions);
    if (req.firstTokenTime >= 0)
        pt::count(pt::kTtftSamples);
    __real__ZN7slinfer8Recorder10onCompleteERKNS_7RequestEd(self, req,
                                                             now);
}

Report
__real__ZN7slinfer6Report5buildERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8RecorderERKNS_12ClusterStatsERKSt6vectorIdSaIdEE(
    const std::string &system, const Recorder &rec,
    const ClusterStats &stats, const std::vector<double> &points);
Report
__wrap__ZN7slinfer6Report5buildERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8RecorderERKNS_12ClusterStatsERKSt6vectorIdSaIdEE(
    const std::string &system, const Recorder &rec,
    const ClusterStats &stats, const std::vector<double> &points)
{
    Span s(pt::kReportBuild);
    return __real__ZN7slinfer6Report5buildERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8RecorderERKNS_12ClusterStatsERKSt6vectorIdSaIdEE(
        system, rec, stats, points);
}

// ---- harness / scenario (Session construction) ----------------------
std::vector<std::unique_ptr<Node>>
__real__ZN7slinfer12buildClusterERKNS_11ClusterSpecEi(
    const ClusterSpec &cluster, int partitionsPerNode);
std::vector<std::unique_ptr<Node>>
__wrap__ZN7slinfer12buildClusterERKNS_11ClusterSpecEi(
    const ClusterSpec &cluster, int partitionsPerNode)
{
    Span s(pt::kCluster);
    return __real__ZN7slinfer12buildClusterERKNS_11ClusterSpecEi(
        cluster, partitionsPerNode);
}

std::unique_ptr<ControllerBase>
__real__ZN7slinfer10makeSystemENS_10SystemKindERNS_9SimulatorERNS_13ClusterHandleESt6vectorINS_9ModelSpecESaIS6_EES5_IdSaIdEENS_16ControllerConfigERNS_8RecorderE(
    SystemKind kind, Simulator &sim, ClusterHandle &cluster,
    std::vector<ModelSpec> modelSpecs,
    std::vector<double> initialAvgOutput, ControllerConfig cfg,
    Recorder &recorder);
std::unique_ptr<ControllerBase>
__wrap__ZN7slinfer10makeSystemENS_10SystemKindERNS_9SimulatorERNS_13ClusterHandleESt6vectorINS_9ModelSpecESaIS6_EES5_IdSaIdEENS_16ControllerConfigERNS_8RecorderE(
    SystemKind kind, Simulator &sim, ClusterHandle &cluster,
    std::vector<ModelSpec> modelSpecs,
    std::vector<double> initialAvgOutput, ControllerConfig cfg,
    Recorder &recorder)
{
    Span s(pt::kController);
    return __real__ZN7slinfer10makeSystemENS_10SystemKindERNS_9SimulatorERNS_13ClusterHandleESt6vectorINS_9ModelSpecESaIS6_EES5_IdSaIdEENS_16ControllerConfigERNS_8RecorderE(
        kind, sim, cluster, std::move(modelSpecs),
        std::move(initialAvgOutput), std::move(cfg), recorder);
}

void __real__ZNK7slinfer16ExperimentConfig8validateEv(
    const ExperimentConfig *self);
void
__wrap__ZNK7slinfer16ExperimentConfig8validateEv(
    const ExperimentConfig *self)
{
    Span s(pt::kValidate);
    __real__ZNK7slinfer16ExperimentConfig8validateEv(self);
}

} // extern "C"
