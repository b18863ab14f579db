/**
 * @file
 * Session-lifecycle tests: split-advance determinism (stepping is pure
 * observation), live sampling invariants, every intervention kind, the
 * timeline parser, and the timeline-driven catalog scenarios.
 */

#include <gtest/gtest.h>

#include "harness/session.hh"
#include "scenario/scenario.hh"
#include "scenario/timeline.hh"

namespace slinfer
{
namespace
{

/** A small, fast experiment shared by most tests below. */
ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.system = SystemKind::Slinfer;
    cfg.cluster.cpuNodes = 2;
    cfg.cluster.gpuNodes = 2;
    cfg.models = replicateModel(llama2_7b(), 8);
    AzureTraceConfig tc;
    tc.numModels = 8;
    tc.duration = 120.0;
    tc.seed = 3;
    cfg.trace = generateAzureTrace(tc);
    cfg.duration = 120.0;
    return cfg;
}

TEST(Session, SplitAdvanceIsByteIdenticalToOneShot)
{
    ExperimentConfig cfg = smallConfig();
    Report oneShot = runExperiment(cfg);

    Session split(cfg);
    split.advanceTo(cfg.duration / 2);
    split.advanceTo(cfg.duration);
    Report stepped = split.finish();

    EXPECT_EQ(toJson(oneShot), toJson(stepped));
}

TEST(Session, ManyStepsAndSamplingDoNotPerturbTheRun)
{
    ExperimentConfig cfg = smallConfig();
    Report oneShot = runExperiment(cfg);

    Session s(cfg);
    for (int i = 1; i <= 10; ++i) {
        s.advanceBy(cfg.duration / 10);
        MetricsView v = s.sample(); // observation must be free
        EXPECT_EQ(v.inFlight, v.arrived - v.completed - v.dropped);
    }
    EXPECT_EQ(toJson(oneShot), toJson(s.finish()));
}

TEST(Session, SampleCountersAreMonotoneAndConsistent)
{
    ExperimentConfig cfg = smallConfig();
    Session s(cfg);
    EXPECT_DOUBLE_EQ(s.duration(), 120.0);

    std::size_t prev_arrived = 0, prev_completed = 0, prev_dropped = 0;
    for (int i = 1; i <= 6; ++i) {
        s.advanceTo(20.0 * i);
        MetricsView v = s.sample();
        EXPECT_DOUBLE_EQ(v.time, 20.0 * i);
        EXPECT_GE(v.arrived, prev_arrived);
        EXPECT_GE(v.completed, prev_completed);
        EXPECT_GE(v.dropped, prev_dropped);
        EXPECT_EQ(v.queueDepthPerModel.size(), cfg.models.size());
        EXPECT_GE(v.instancesCreated, v.instancesLive);
        EXPECT_GE(v.busySecondsCpu, 0.0);
        EXPECT_GE(v.busySecondsGpu, 0.0);
        prev_arrived = v.arrived;
        prev_completed = v.completed;
        prev_dropped = v.dropped;
    }
    Report r = s.finish();
    EXPECT_TRUE(s.finished());
    EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
}

TEST(Session, WindowedRunMatchesUnwindowedScalars)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);
    cfg.windows = 4;
    Report windowed = runExperiment(cfg);

    ASSERT_EQ(windowed.windows.size(), 4u);
    // Windowing is observation only: every scalar stays bit-equal.
    EXPECT_EQ(plain.totalRequests, windowed.totalRequests);
    EXPECT_DOUBLE_EQ(plain.p95Ttft, windowed.p95Ttft);
    EXPECT_DOUBLE_EQ(plain.kvUtilization, windowed.kvUtilization);
    EXPECT_DOUBLE_EQ(plain.scalingOverhead, windowed.scalingOverhead);
    // Window boundaries tile the metrics window; arrivals total up.
    std::size_t arrived = 0;
    for (std::size_t i = 0; i < windowed.windows.size(); ++i) {
        const Report::Window &w = windowed.windows[i];
        EXPECT_DOUBLE_EQ(w.end - w.start, 30.0);
        arrived += w.arrived;
    }
    EXPECT_EQ(arrived, windowed.totalRequests);
}

// ------------------------------------------------------------------
// Interventions
// ------------------------------------------------------------------

TEST(Session, NodeFailureDrainsAndRestoreRecovers)
{
    ExperimentConfig cfg = smallConfig();

    auto run = [&cfg]() {
        Session s(cfg);
        s.advanceTo(40.0);
        Intervention fail;
        fail.kind = Intervention::Kind::NodeFail;
        fail.node = 2; // first GPU node
        s.inject(fail);
        s.advanceTo(80.0);
        Intervention restore;
        restore.kind = Intervention::Kind::NodeRestore;
        restore.node = 2;
        s.inject(restore);
        s.advanceTo(cfg.duration);
        return s.finish();
    };

    Report a = run();
    Report b = run();
    // Interventions are deterministic...
    EXPECT_EQ(toJson(a), toJson(b));
    // ...and actually perturb the run.
    Report plain = runExperiment(cfg);
    EXPECT_NE(toJson(plain), toJson(a));
    EXPECT_EQ(a.completed + a.dropped, a.totalRequests);
}

TEST(Session, RedeployColdRestartsAModel)
{
    ExperimentConfig cfg = smallConfig();
    auto run = [&cfg]() {
        Session s(cfg);
        s.advanceTo(60.0);
        Intervention roll;
        roll.kind = Intervention::Kind::ModelRedeploy;
        roll.model = 0;
        s.inject(roll);
        s.advanceTo(cfg.duration);
        return s.finish();
    };
    Report a = run();
    Report b = run();
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_EQ(a.completed + a.dropped, a.totalRequests);
}

TEST(Session, RetireCancelsFutureArrivals)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    Session s(cfg);
    s.advanceTo(30.0);
    Intervention retire;
    retire.kind = Intervention::Kind::ModelRetire;
    retire.model = 0;
    s.inject(retire);
    s.advanceTo(cfg.duration);
    Report r = s.finish();

    // Cancelled arrivals never reach the controller.
    EXPECT_LT(r.totalRequests, plain.totalRequests);
    EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
    // The retired model's queue stays empty afterwards.
}

TEST(Session, ArrivalScaleThinsAndClones)
{
    ExperimentConfig cfg = smallConfig();
    Report plain = runExperiment(cfg);

    auto scaled = [&cfg](double factor) {
        Session s(cfg);
        s.advanceTo(10.0);
        Intervention scale;
        scale.kind = Intervention::Kind::ArrivalScale;
        scale.factor = factor;
        s.inject(scale);
        s.advanceTo(cfg.duration);
        return s.finish();
    };
    Report doubled = scaled(2.0);
    Report thinned = scaled(0.3);
    EXPECT_GT(doubled.totalRequests, plain.totalRequests);
    EXPECT_LT(thinned.totalRequests, plain.totalRequests);
    EXPECT_EQ(doubled.completed + doubled.dropped,
              doubled.totalRequests);
}

TEST(Session, DeployThenBurstServesANewModel)
{
    ExperimentConfig cfg = smallConfig();
    Session s(cfg);
    s.advanceTo(20.0);

    Intervention deploy;
    deploy.kind = Intervention::Kind::ModelDeploy;
    deploy.spec = llama2_7b();
    s.inject(deploy);
    ASSERT_EQ(s.controller().models().size(), cfg.models.size() + 1);

    Intervention burst;
    burst.kind = Intervention::Kind::ArrivalBurst;
    burst.model = static_cast<int>(cfg.models.size()); // the new model
    burst.rpm = 120.0;
    burst.duration = 30.0;
    s.inject(burst);
    s.advanceTo(cfg.duration);
    Report r = s.finish();

    Report plain = runExperiment(cfg);
    EXPECT_GT(r.totalRequests, plain.totalRequests);
    EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
}

// ------------------------------------------------------------------
// Timelines
// ------------------------------------------------------------------

TEST(Timeline, ParsesEveryKind)
{
    Timeline tl;
    std::string err;
    ASSERT_TRUE(scenario::parseTimeline(R"([
        {"at": 300, "kind": "node-fail", "node": 4},
        {"at": 600, "kind": "node-restore", "node": 4},
        {"at": 120, "kind": "model-redeploy", "model": 3},
        {"at": 240, "kind": "model-retire", "model": 2},
        {"at": 360, "kind": "model-deploy", "spec": "llama2-7b"},
        {"at": 480, "kind": "arrival-scale", "factor": 2.5, "model": 1},
        {"at": 540, "kind": "arrival-burst", "model": 0,
         "rpm": 90, "duration": 60}
    ])", tl, &err)) << err;
    ASSERT_EQ(tl.size(), 7u);
    EXPECT_EQ(tl[0].kind, Intervention::Kind::NodeFail);
    EXPECT_EQ(tl[0].node, 4);
    EXPECT_DOUBLE_EQ(tl[0].at, 300.0);
    EXPECT_EQ(tl[4].kind, Intervention::Kind::ModelDeploy);
    EXPECT_EQ(tl[4].spec.name, "Llama-2-7B");
    EXPECT_DOUBLE_EQ(tl[5].factor, 2.5);
    EXPECT_EQ(tl[6].model, 0);
    EXPECT_DOUBLE_EQ(tl[6].duration, 60.0);

    // The object form round-trips too.
    ASSERT_TRUE(scenario::parseTimeline(
        R"({"timeline": [{"at": 1, "kind": "node-fail", "node": 0}]})",
        tl, &err))
        << err;
    EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, RejectsMalformedEntries)
{
    Timeline tl;
    std::string err;
    EXPECT_FALSE(scenario::parseTimeline("{", tl, &err));
    EXPECT_FALSE(scenario::parseTimeline(
        R"([{"kind": "node-fail", "node": 1}])", tl, &err)); // no at
    EXPECT_FALSE(scenario::parseTimeline(
        R"([{"at": 1, "kind": "wat"}])", tl, &err));
    EXPECT_FALSE(scenario::parseTimeline(
        R"([{"at": 1, "kind": "model-deploy", "spec": "gpt-17t"}])", tl,
        &err));
    EXPECT_FALSE(scenario::parseTimeline(
        R"([{"at": 1, "kind": "model-deploy"}])", tl, &err));
}

TEST(Timeline, ConfigTimelineIsDeterministic)
{
    ExperimentConfig cfg = smallConfig();
    Intervention fail;
    fail.kind = Intervention::Kind::NodeFail;
    fail.at = 40.0;
    fail.node = 3;
    Intervention restore;
    restore.kind = Intervention::Kind::NodeRestore;
    restore.at = 80.0;
    restore.node = 3;
    cfg.timeline = {fail, restore};

    Report a = runExperiment(cfg);
    Report b = runExperiment(cfg);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_EQ(a.completed + a.dropped, a.totalRequests);
}

TEST(Timeline, MalformedTimelineInConfigIsFatal)
{
    ExperimentConfig cfg = smallConfig();
    Intervention iv;
    iv.kind = Intervention::Kind::NodeFail; // node unset
    cfg.timeline = {iv};
    EXPECT_DEATH(runExperiment(cfg), "needs `node`");
}

// ------------------------------------------------------------------
// Timeline-driven catalog entries
// ------------------------------------------------------------------

class TimelineScenario : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TimelineScenario, RunsDeterministicallyWithInvariants)
{
    const scenario::Scenario *sc = scenario::byName(GetParam());
    ASSERT_NE(sc, nullptr);
    EXPECT_FALSE(sc->timeline.empty());
    Report a = scenario::runScenario(*sc, SystemKind::Slinfer);
    Report b = scenario::runScenario(*sc, SystemKind::Slinfer);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_EQ(a.completed + a.dropped, a.totalRequests);
    EXPECT_GT(a.completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, TimelineScenario,
                         ::testing::Values("fleet-node-failure",
                                           "fleet-rolling-deploy",
                                           "fleet-surge-scale"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(Session, FinishLeavesNoRequestStranded)
{
    // flash-crowd at seed 1 used to end with 59 requests queued on a
    // GPU instance whose KV grow could never land (the resize needs
    // the old and new allocation side by side): its scheduler starved,
    // and once arrivals stopped nothing kicked it again. finish() now
    // wakes such partitions and drains them.
    const scenario::Scenario *sc = scenario::byName("flash-crowd");
    ASSERT_NE(sc, nullptr);
    Report r = runExperiment(sc->toExperiment(SystemKind::Slinfer, 1));
    EXPECT_EQ(r.completed + r.dropped, r.totalRequests);
}

// ------------------------------------------------------------------
// Up-front validation (ExperimentConfig::validate)
// ------------------------------------------------------------------

TEST(Validate, DatasetArityMismatchIsFatal)
{
    ExperimentConfig cfg = smallConfig();
    cfg.datasetPerModel = {DatasetKind::AzureConv}; // 1 entry, 8 models
    EXPECT_DEATH(runExperiment(cfg), "one entry per model");
}

TEST(Validate, LifecycleMisuseIsFatal)
{
    ExperimentConfig cfg = smallConfig();
    Session s(cfg);
    s.advanceTo(50.0);
    EXPECT_DEATH(s.advanceTo(10.0), "past");
    s.advanceTo(cfg.duration);
    s.finish();
    EXPECT_DEATH(s.finish(), "twice");
}

} // namespace
} // namespace slinfer
