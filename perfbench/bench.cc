/**
 * @file
 * The benchmark program: builds one workload, times Session
 * construction and whole replays, and prints one JSON line with the
 * raw measurements for run.py to check and summarize.
 *
 *   perfbench_run pack --workload W --out FILE [--horizon S]
 *   perfbench_run run --workload W --seed N --seconds S
 *                 --strc FILE --expect-records N
 *                 [--ref 0|1]
 *   perfbench_trace run ...   (same flags; one traced replay)
 *
 * Every workload replays a packed trace whose arrivals and request
 * lengths are pinned (cmdPack); the run seed drives the simulated
 * execution noise. Replays are open-loop on one thread:
 *   fleet-640    catalog scenario, slinfer, materialized replay
 *   flash-crowd  catalog MMPP scenario, slinfer, materialized replay
 *   stream-sllm  sllm+c streaming a 5400 s Azure-style trace on the
 *                fleet-640 cluster
 *
 * `pack --horizon S` cuts a trace to its first S simulated seconds
 * (the self-test). `--ref 1` interleaves the frozen reference kernel
 * (refkernel.hh) with the replay and reports its block times so host
 * time can be normalized; block time is excluded from replay time.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/proc.hh"
#include "common/rng.hh"
#include "harness/session.hh"
#include "refkernel.hh"
#include "scenario/scenario.hh"
#include "stream/codec.hh"
#include "workload/azure_trace.hh"
#include "workload/dataset.hh"

#ifdef PERFBENCH_TRACED
#include "trace.hh"
#endif

using namespace slinfer;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The stream-sllm trace: Azure-style arrivals for the fleet-640
 *  model set over a 90-minute window, from a pinned seed. */
constexpr double kStreamWindowS = 5400.0;
constexpr std::uint64_t kStreamTraceSeed = 7;

/** The fork tag a Session derives its request-length RNG with
 *  (harness/session.cc); packing with it reproduces catalog runs. */
constexpr std::uint64_t kSessionLengthFork = 0x1E46;

/** Host time between reference-kernel blocks. */
constexpr double kRefEveryS = 0.25;

struct Args
{
    std::string cmd;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    std::string strc;
    std::string out;
    std::uint64_t expectRecords = 0;
    double horizon = 0.0;
    bool ref = true;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench_run pack --workload W --out FILE "
                 "[--horizon S]\n"
                 "       perfbench_run run --workload W --seed N "
                 "--seconds S --strc FILE --expect-records N "
                 "[--ref 0|1]\n"
                 "W: fleet-640 | flash-crowd | stream-sllm\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Args a;
    a.cmd = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, &end, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, &end);
        else if (k == "--strc")
            a.strc = v;
        else if (k == "--out")
            a.out = v;
        else if (k == "--expect-records")
            a.expectRecords = std::strtoull(v, &end, 10);
        else if (k == "--horizon")
            a.horizon = std::strtod(v, &end);
        else if (k == "--ref")
            a.ref = std::strtol(v, &end, 10) != 0;
        else
            usage(("unknown flag " + k).c_str());
        if (end && *end != '\0')
            usage(("malformed value for " + k).c_str());
    }
    return a;
}

/** Keep the arrivals of the first `horizon` seconds. */
void
cutTrace(AzureTrace &trace, double horizon)
{
    auto past = std::find_if(
        trace.arrivals.begin(), trace.arrivals.end(),
        [horizon](const Arrival &x) { return x.time >= horizon; });
    trace.arrivals.erase(past, trace.arrivals.end());
    trace.duration = horizon;
}

const scenario::Scenario &
catalog(const char *name)
{
    const scenario::Scenario *sc = scenario::byName(name);
    if (!sc) {
        std::fprintf(stderr, "perfbench: scenario %s missing\n", name);
        std::exit(1);
    }
    return *sc;
}

/** The catalog scenario behind a workload's fleet, cluster and SLOs. */
const scenario::Scenario &
scenarioOf(const std::string &workload)
{
    if (workload == "fleet-640" || workload == "flash-crowd")
        return catalog(workload.c_str());
    if (workload == "stream-sllm")
        return catalog("fleet-640");
    usage(("unknown workload " + workload).c_str());
}

/**
 * The run seed of the timed replays. flash-crowd runs overloaded, and
 * any perturbation of its execution noise moves its shadow-validation
 * work by up to 1.7x (README.md), so its timed replays pin the
 * catalog's seed; its simulated outcome comes from one more, untimed
 * replay under `--seed` (cmdRun).
 */
std::uint64_t
timedSeed(const Args &a)
{
    return a.workload == "flash-crowd" ? scenarioOf(a.workload).seed
                                       : a.seed;
}

ExperimentConfig
makeConfig(const Args &a, std::uint64_t seed)
{
    if (a.strc.empty())
        usage("run needs --strc (see the pack command)");
    const scenario::Scenario &sc = scenarioOf(a.workload);
    ExperimentConfig cfg = sc.toExperiment(SystemKind::Slinfer, seed);
    cfg.arrivals = nullptr;
    cfg.stream.tracePath = a.strc;
    if (a.workload == "stream-sllm") {
        cfg.system = SystemKind::SllmC;
        cfg.stream.enabled = true;
    }
    return cfg;
}

/**
 * Write a workload's pinned trace: arrivals and request lengths fixed
 * by the workload, not by the run seed. The catalog workloads use the
 * scenario's own default seed and draw lengths exactly as a Session
 * seeded with it would, so replaying the file reproduces the catalog
 * run; the run seed then drives only the simulated execution noise.
 */
int
cmdPack(const Args &a)
{
    if (a.out.empty())
        usage("pack needs --out");
    const scenario::Scenario &sc = scenarioOf(a.workload);
    AzureTrace trace;
    std::uint64_t seed = sc.seed;
    if (a.workload == "stream-sllm") {
        AzureTraceConfig tc;
        tc.numModels = static_cast<int>(sc.models.size());
        tc.duration = kStreamWindowS;
        tc.seed = seed = kStreamTraceSeed;
        trace = generateAzureTrace(tc);
    } else {
        trace = sc.arrivals->generate(seed);
    }
    if (a.horizon > 0)
        cutTrace(trace, a.horizon);
    if (!sc.datasetPerModel.empty())
        usage("per-model datasets are not packed");
    const Dataset lengths(sc.dataset);
    Rng lenRng = Rng(seed).fork(kSessionLengthFork);

    stream::StrcHeader hdr;
    hdr.hasLengths = true;
    hdr.numModels = static_cast<std::uint32_t>(sc.models.size());
    hdr.duration = trace.duration;
    std::string err;
    stream::StrcWriter w;
    if (!w.open(a.out, hdr, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }
    for (const Arrival &x : trace.arrivals) {
        LengthSample len = lengths.sample(lenRng);
        stream::TraceRecord r;
        r.time = x.time;
        r.model = x.model;
        r.inputLen = static_cast<std::uint32_t>(len.input);
        r.targetOutput = static_cast<std::uint32_t>(len.output);
        w.add(r);
    }
    if (!w.finish(&err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }
    std::printf("{\"records\": %" PRIu64 "}\n", w.written());
    return 0;
}

// --------------------------------------------------------------------
// JSON output
// --------------------------------------------------------------------

/** Minimal JSON writer: doubles keep all 17 significant digits so
 *  run.py can compare simulated metrics bit for bit. */
class Json
{
  public:
    void open(char c)
    {
        value();
        out_ += c;
        first_.push_back(true);
    }
    void close(char c)
    {
        out_ += c;
        first_.pop_back();
    }
    void key(const char *k)
    {
        comma();
        out_ += '"';
        out_ += k;
        out_ += "\": ";
        afterKey_ = true;
    }
    void num(double v)
    {
        value();
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out_ += buf;
    }
    void count(std::uint64_t v)
    {
        value();
        out_ += std::to_string(v);
    }
    void str(const std::string &s)
    {
        value();
        out_ += '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                out_ += c;
        }
        out_ += '"';
    }
    void boolean(bool b)
    {
        value();
        out_ += b ? "true" : "false";
    }
    void nums(const std::vector<double> &v)
    {
        open('[');
        for (double x : v)
            num(x);
        close(']');
    }
    const std::string &text() const { return out_; }

  private:
    void comma()
    {
        if (!first_.back())
            out_ += ", ";
        first_.back() = false;
    }
    /** Separator before a value: none right after a key. */
    void value()
    {
        if (afterKey_)
            afterKey_ = false;
        else if (!first_.empty())
            comma();
    }

    std::string out_;
    std::vector<bool> first_;
    bool afterKey_ = false;
};

// --------------------------------------------------------------------
// Measurement
// --------------------------------------------------------------------

/** Interleaves reference-kernel blocks with measured work. */
class RefClock
{
  public:
    explicit RefClock(bool on) : on_(on), last_(Clock::now()) {}

    /** True once kRefEveryS of host time has passed since the last
     *  block (never when disabled). */
    bool due() const { return on_ && since(last_) >= kRefEveryS; }

    /** Run a block now and append its host time (no-op when
     *  disabled). */
    void block(std::vector<double> &into)
    {
        if (!on_)
            return;
        Clock::time_point t0 = Clock::now();
        std::uint64_t sum = kernel_.runBlock();
        last_ = Clock::now();
        if (checksum_ == 0)
            checksum_ = sum;
        else if (sum != checksum_)
            checksumOk_ = false;
        into.push_back(std::chrono::duration<double>(last_ - t0).count());
    }

    bool checksumOk() const { return checksumOk_; }

  private:
    bool on_;
    perfbench::RefKernel kernel_;
    Clock::time_point last_;
    std::uint64_t checksum_ = 0;
    bool checksumOk_ = true;
};

/** The simulated outcome of one replay: deterministic per seed. */
struct SimOutcome
{
    std::uint64_t arrivals = 0, completed = 0, dropped = 0, sloMet = 0;
    double durationS = 0, p50 = 0, p95 = 0, gpuNodes = 0, cpuNodes = 0;

    bool operator==(const SimOutcome &o) const
    {
        return std::memcmp(this, &o, sizeof *this) == 0;
    }
};

SimOutcome
outcomeOf(const Report &r, double duration)
{
    SimOutcome o;
    o.arrivals = r.totalRequests;
    o.completed = r.completed;
    o.dropped = r.dropped;
    o.sloMet = r.sloMet;
    o.durationS = duration;
    o.p50 = r.p50Ttft;
    o.p95 = r.p95Ttft;
    o.gpuNodes = r.avgGpuNodesUsed;
    o.cpuNodes = r.avgCpuNodesUsed;
    return o;
}

struct Replay
{
    /** Replay host time cut at each reference block; slice i ran
     *  right after block i of `refS` (block 0 precedes the Session's
     *  construction). Their sum is the replay's host time. */
    std::vector<double> sliceS;
    std::vector<double> refS;
    SimOutcome sim;
    Report report;
    std::uint64_t streamReplayed = 0;
    std::uint64_t poolHighWater = 0;
};

/** Advance `s` to its window's end in 1-simulated-second steps (pure
 *  observation: the event sequence is unchanged), then finish().
 *  Between steps, run a reference block whenever one is due. */
void
replay(Session &s, RefClock &ref, Replay &r)
{
    const Seconds dur = s.duration();
    Clock::time_point slice = Clock::now();
    for (Seconds t = 1.0;; t += 1.0) {
        s.advanceTo(std::min(t, dur));
        if (ref.due()) {
            r.sliceS.push_back(since(slice));
            ref.block(r.refS);
            slice = Clock::now();
        }
        if (t >= dur)
            break;
    }
    r.report = s.finish();
    r.sliceS.push_back(since(slice));
    r.sim = outcomeOf(r.report, dur);
    if (s.feed())
        r.streamReplayed = s.feed()->replayed();
    r.poolHighWater = s.streamPoolSize();
}

struct Check
{
    std::string name;
    bool ok;
    std::string detail;
};

void
addSimChecks(const Args &a, const Replay &r, std::vector<Check> &checks)
{
    const SimOutcome &o = r.sim;
    checks.push_back({"arrivals_eq_completed_plus_dropped",
                      o.arrivals == o.completed + o.dropped,
                      std::to_string(o.arrivals) + " vs " +
                          std::to_string(o.completed) + "+" +
                          std::to_string(o.dropped)});
    checks.push_back({"slo_met_le_completed", o.sloMet <= o.completed,
                      std::to_string(o.sloMet) + " vs " +
                          std::to_string(o.completed)});
    checks.push_back({"arrivals_nonzero", o.arrivals > 0,
                      std::to_string(o.arrivals)});
    checks.push_back({"arrivals_eq_packed", o.arrivals == a.expectRecords,
                      std::to_string(o.arrivals) + " arrived, " +
                          std::to_string(a.expectRecords) + " packed"});
    if (a.workload == "stream-sllm") {
        checks.push_back({"stream_replayed_eq_packed",
                          r.streamReplayed == a.expectRecords,
                          std::to_string(r.streamReplayed) +
                              " replayed, " +
                              std::to_string(a.expectRecords) +
                              " packed"});
    }
}

void
emitSim(Json &j, const char *key, const Replay &r)
{
    const SimOutcome &o = r.sim;
    j.key(key);
    j.open('{');
    j.key("arrivals");
    j.count(o.arrivals);
    j.key("completed");
    j.count(o.completed);
    j.key("dropped");
    j.count(o.dropped);
    j.key("slo_met");
    j.count(o.sloMet);
    j.key("duration_s");
    j.num(o.durationS);
    j.key("ttft_p50_s");
    j.num(o.p50);
    j.key("ttft_p95_s");
    j.num(o.p95);
    j.key("gpu_nodes_mean");
    j.num(o.gpuNodes);
    j.key("cpu_nodes_mean");
    j.num(o.cpuNodes);
    j.key("stream_replayed");
    j.count(r.streamReplayed);
    j.key("stream_pool_high_water");
    j.count(r.poolHighWater);
    j.close('}');
}

void
emitChecks(Json &j, const std::vector<Check> &checks)
{
    j.key("checks");
    j.open('[');
    for (const Check &c : checks) {
        j.open('{');
        j.key("name");
        j.str(c.name);
        j.key("ok");
        j.boolean(c.ok);
        j.key("detail");
        j.str(c.detail);
        j.close('}');
    }
    j.close(']');
}

#ifdef PERFBENCH_TRACED
void
emitTrace(Json &j, const Report &report, int setupCount)
{
    namespace pt = perfbench::trace;
    static const char *const kLayerNames[pt::kNumLayers] = {
        "dispatch", "shadow",  "consolidator", "memory",   "strc_decode",
        "report",   "cluster", "profile",      "controller", "validate"};
    static const char *const kLeafNames[pt::kNumLeaves] = {
        "decode_estimates", "prefill_estimates", "estimates_in_shadow",
        "perf_decode_calls", "perf_prefill_calls", "scheduler_kicks",
        "completions", "ttft_samples", "shadow_in_consolidator",
        "strc_records", "emergency_grow_calls"};
    static const char *const kPhaseNames[pt::kNumPhases] = {"setup",
                                                            "replay"};
    j.key("setup_sessions");
    j.count(static_cast<std::uint64_t>(setupCount));
    j.key("trace");
    j.open('{');
    for (int p = 0; p < pt::kNumPhases; ++p) {
        j.key(kPhaseNames[p]);
        j.open('{');
        for (int l = 0; l < pt::kNumLayers; ++l) {
            pt::LayerTotals t =
                pt::layer(static_cast<pt::Phase>(p),
                          static_cast<pt::Layer>(l));
            j.key(kLayerNames[l]);
            j.open('{');
            j.key("calls");
            j.count(t.calls);
            j.key("true");
            j.count(t.trueResults);
            j.key("incl_s");
            j.num(t.inclusiveS);
            j.key("self_s");
            j.num(t.selfS);
            j.close('}');
        }
        for (int l = 0; l < pt::kNumLeaves; ++l) {
            j.key(kLeafNames[l]);
            j.count(pt::leaf(static_cast<pt::Phase>(p),
                             static_cast<pt::Leaf>(l)));
        }
        j.close('}');
    }
    j.close('}');
    j.key("counters");
    j.open('{');
    for (const auto &[name, value] : report.counters) {
        j.key(name.c_str());
        j.count(value);
    }
    j.close('}');
}
#endif

int
cmdRun(const Args &a)
{
    const ExperimentConfig base = makeConfig(a, timedSeed(a));
#ifdef PERFBENCH_TRACED
    namespace pt = perfbench::trace;
    ExperimentConfig cfg = base;
    cfg.obs.counters = true; // reports stay byte-identical
    const bool traced = true;
    RefClock ref(false);
    pt::reset();
#else
    const ExperimentConfig &cfg = base;
    const bool traced = false;
    RefClock ref(a.ref);
#endif
    Clock::time_point start = Clock::now();
    // Every Session construction is a set-up sample; with the kernel
    // on, setupRefS[i] is the block run right before sample i.
    std::vector<double> setupS, setupRefS;
    std::vector<Replay> replays;
    std::vector<Check> checks;

    auto construct = [&]() {
        ref.block(setupRefS);
#ifdef PERFBENCH_TRACED
        pt::setPhase(pt::kSetup);
#endif
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Session> s = Session::create(cfg);
        setupS.push_back(since(t0));
        return s;
    };

    // One whole replay on a fresh Session; returns its wall time.
    auto runReplay = [&]() {
        Clock::time_point w0 = Clock::now();
        std::unique_ptr<Session> s = construct();
        Replay r;
        if (!setupRefS.empty()) // block 0: the one before construction
            r.refS.push_back(setupRefS.back());
#ifdef PERFBENCH_TRACED
        pt::setPhase(pt::kReplay);
#endif
        replay(*s, ref, r);
        s.reset();
        if (!replays.empty() && !(r.sim == replays.front().sim))
            checks.push_back({"replays_bit_identical", false,
                              "replay " + std::to_string(replays.size()) +
                                  " differs from replay 0"});
        replays.push_back(std::move(r));
        return since(w0);
    };

    // The first replay runs first, so peak RSS is the footprint of one
    // Session end to end however many replays the run then fits.
    double lastWall = runReplay();
    const double peakRssMb = static_cast<double>(peakRssBytes()) / 1e6;

    // Dedicated set-up samples: Session construction alone.
    const double setupUntil =
        since(start) + (traced ? 0.0 : 0.15 * a.seconds);
    const int setupMin = traced ? 3 : 5, setupMax = traced ? 3 : 40;
    for (int i = 0; i < setupMin ||
                    (i < setupMax && since(start) < setupUntil);
         ++i)
        construct();

    // More replays while another should finish inside the budget (the
    // traced run times one replay only).
    while (!traced && since(start) + lastWall <= a.seconds)
        lastWall = runReplay();

    if (replays.size() > 1 &&
        std::none_of(checks.begin(), checks.end(), [](const Check &c) {
            return c.name == "replays_bit_identical";
        }))
        checks.push_back({"replays_bit_identical", true,
                          std::to_string(replays.size()) + " replays"});
    addSimChecks(a, replays.front(), checks);
    checks.push_back({"reference_kernel_checksum", ref.checksumOk(), ""});

    // The simulated outcome under --seed, when the timed replays pinned
    // another seed: one more replay, after all timing is done.
    std::unique_ptr<Replay> seeded;
    if (!traced && timedSeed(a) != a.seed) {
        std::unique_ptr<Session> s =
            Session::create(makeConfig(a, a.seed));
        RefClock off(false);
        seeded = std::make_unique<Replay>();
        replay(*s, off, *seeded);
        addSimChecks(a, *seeded, checks);
    }

    Json j;
    j.open('{');
    j.key("workload");
    j.str(a.workload);
    j.key("seed");
    j.count(a.seed);
    j.key("traced");
    j.boolean(traced);
    j.key("wall_s");
    j.num(since(start));
    j.key("setup_s");
    j.nums(setupS);
    j.key("setup_ref_s");
    j.nums(setupRefS);
    j.key("replays");
    j.open('[');
    for (const Replay &r : replays) {
        j.open('{');
        j.key("slice_s");
        j.nums(r.sliceS);
        j.key("ref_s");
        j.nums(r.refS);
        j.close('}');
    }
    j.close(']');
    emitSim(j, "sim", replays.front());
    if (seeded)
        emitSim(j, "seeded_sim", *seeded);
    j.key("peak_rss_mb");
    j.num(peakRssMb);
#ifdef PERFBENCH_TRACED
    emitTrace(j, replays.front().report,
              static_cast<int>(setupS.size()));
#endif
    emitChecks(j, checks);
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (a.cmd == "pack")
        return cmdPack(a);
    if (a.cmd == "run")
        return cmdRun(a);
    usage(("unknown command " + a.cmd).c_str());
}
