/**
 * @file
 * Per-layer spans and counts gathered by the --wrap interposers in
 * trace_wrap.cc (linked into perfbench_trace only).
 *
 * Timed entry points push a span; a span's self time is its duration
 * minus the time of the timed spans nested in it. Hot leaves (the
 * quantifier's estimates, the perf model, scheduler kicks, recorder
 * completions) are counted, never timed: timing ~45M estimate calls
 * per fleet-640 replay would double its host time. Their time stays
 * in the self time of the span that called them.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>

namespace perfbench
{
namespace trace
{

/** Which part of the benchmark the wrapped calls belong to. */
enum Phase
{
    kSetup,  ///< inside Session construction
    kReplay, ///< advanceTo(duration) + finish()
    kNumPhases
};

/** Timed layers, one per wrapped entry-point group. */
enum Layer
{
    kDispatch,     ///< EventQueue::popAndRun
    kShadow,       ///< ShadowValidator::canAdmit / canAdmitNew
    kConsolidator, ///< Consolidator::tryPreemptFor
    kMemory,       ///< MemorySubsystem admission/complete/grow/load ops
    kStrcDecode,   ///< StrcReader::next
    kReportBuild,  ///< Report::build
    kCluster,      ///< buildCluster
    kProfile,      ///< Quantifier::profile
    kController,   ///< makeSystem (controller construction)
    kValidate,     ///< ExperimentConfig::validate
    kNumLayers
};

/** Counted-only calls (and attributed counts). */
enum Leaf
{
    kDecodeEstimates,      ///< Quantifier::decodeEstimate
    kPrefillEstimates,     ///< Quantifier::prefillEstimate
    kEstimatesInShadow,    ///< either estimate, under a kShadow span
    kPerfDecodeCalls,      ///< PerfModel::decodeTime
    kPerfPrefillCalls,     ///< PerfModel::prefillTime
    kSchedulerKicks,       ///< TokenScheduler::kick
    kCompletions,          ///< Recorder::onComplete
    kTtftSamples,          ///< completions that carry a first token
    kShadowInConsolidator, ///< shadow calls under a kConsolidator span
    kStrcRecords,          ///< StrcReader::next calls that returned one
    kEmergencyGrowCalls,   ///< MemorySubsystem::tryEmergencyGrow
    kNumLeaves
};

struct LayerTotals
{
    std::uint64_t calls = 0;
    /** Calls whose boolean result was true (shadow accepts,
     *  successful preemptions); 0 for layers without one. */
    std::uint64_t trueResults = 0;
    double inclusiveS = 0.0;
    double selfS = 0.0;
};

/** Attribute subsequent wrapped calls to `p`. */
void setPhase(Phase p);

/** Zero every total (both phases). */
void reset();

LayerTotals layer(Phase p, Layer l);
std::uint64_t leaf(Phase p, Leaf l);

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
