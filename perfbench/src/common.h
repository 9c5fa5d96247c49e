/**
 * @file
 * Shared pieces of the repository benchmark: command-line options, the
 * result every workload fills in, the in-memory span tracer, output
 * digests, and the timing decorator the workloads hand to the
 * controller (or call directly) around core::ResilienceScheme::apply.
 *
 * Every timing is taken here, in the benchmark's own code, around calls
 * into the repository's public functions; nothing inside src/ is
 * instrumented for it.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptlab/environment.h"
#include "core/schemes.h"
#include "sim/cluster.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** Workload size: the benchmark's own, or the smoke test's tiny one. */
enum class Scale { Full, Smoke };

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
    /** Test hook: flip one bit of the recorded digest that the output
     * check compares, so the smoke test can show the check fails. */
    bool corruptDigest = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct Result
{
    /** Checked operations (epochs or serve runs) and how many failed
     * their output check. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Output-check failures, one line each; empty = correct. */
    std::vector<std::string> errors;
    /** The gated end-to-end metrics, the same names on every
     * workload (see perfbench/README.md). */
    std::vector<Metric> endToEnd;
    /** The workload's own end-to-end metrics under their descriptive
     * names (reported, not gated). */
    std::vector<Metric> report;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> perLayer;
    /** Self seconds per span name (traced runs only). */
    std::vector<Metric> selfTimes;

    void
    fail(std::string why)
    {
        errors.push_back(std::move(why));
    }
};

/**
 * In-memory span recorder. A span has a name, a start and an end
 * (seconds since the tracer was made), the span that caused it, and the
 * run id shared by every span of the run. Disabled, it records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        uint32_t name = 0;
        double start = 0.0;
        double end = 0.0;
        int32_t parent = -1;
    };

    explicit Tracer(uint64_t runId) : runId_(runId) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Seconds since the tracer was made (the spans' time base). */
    double now() const { return secondsSince(origin_); }
    /** @p t on the spans' time base. */
    double at(Clock::time_point t) const
    {
        return secondsBetween(origin_, t);
    }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name);
    void close(int id);
    /** Record an already finished span. */
    int add(const char *name, double start, double end, int parent);
    /** Innermost open span, -1 if none. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }
    size_t size() const { return spans_.size(); }
    /** Give every parentless span recorded at index >= @p from, other
     * than @p parent itself, the parent @p parent. */
    void adopt(size_t from, int parent);

    /** Inclusive seconds per span name. */
    std::map<std::string, double> totalSeconds() const;
    /** Self seconds per span name: duration minus what children cover. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as JSON; false if the file cannot be written. */
    bool write(const std::string &path, const std::string &workload) const;

  private:
    uint32_t intern(const char *name);

    bool enabled_ = false;
    uint64_t runId_;
    Clock::time_point origin_ = Clock::now();
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** FNV-1a digest of a plan's action sequence and planned assignment. */
uint64_t digestResult(const phoenix::core::SchemeResult &result);

/** Capacity sanity of a planned state: "" if every healthy node holds
 * at most its capacity and no failed node holds anything. */
std::string checkPlannedState(const phoenix::sim::ClusterState &state);

/** One apply() call as the decorator saw it. */
struct EpochRecord
{
    double applySeconds = 0.0;
    uint64_t digest = 0;
    size_t deletes = 0;
    size_t migrations = 0;
    size_t restarts = 0;
    size_t placed = 0;
    size_t ranked = 0;
    phoenix::core::OpCounters ops;
};

/**
 * PhoenixScheme(Cost) with default options, its apply() run as the
 * three public steps PhoenixScheme::apply performs (estimate, global
 * rank, pack), each under its own span. Its outputs are the same as
 * PhoenixScheme's; the workloads check that.
 */
class SteppedPhoenixCost : public phoenix::core::ResilienceScheme
{
  public:
    explicit SteppedPhoenixCost(Tracer &tracer) : tracer_(tracer) {}

    std::string name() const override { return "PhoenixCost"; }
    phoenix::core::SchemeResult
    apply(const std::vector<phoenix::sim::Application> &apps,
          const phoenix::sim::ClusterState &current) override;

  private:
    Tracer &tracer_;
    phoenix::core::Planner planner_;
    phoenix::core::PackingScheduler packer_;
    phoenix::core::AppRank appRank_;
};

/**
 * Timing decorator around a ResilienceScheme. It times apply() (span
 * "core.apply"), then, outside that timing, digests and sanity-checks
 * the result and optionally keeps a copy of the input state for the
 * output check. Time spent on that bookkeeping is summed in
 * bookkeepingSeconds so callers can take it out of an epoch.
 */
class TimedScheme : public phoenix::core::ResilienceScheme
{
  public:
    TimedScheme(std::unique_ptr<phoenix::core::ResilienceScheme> inner,
                Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_->name(); }
    phoenix::core::SchemeResult
    apply(const std::vector<phoenix::sim::Application> &apps,
          const phoenix::sim::ClusterState &current) override;
    /** Plan with @p inner from the next apply() on. */
    void
    setInner(std::unique_ptr<phoenix::core::ResilienceScheme> inner)
    {
        inner_ = std::move(inner);
    }
    void
    noteDirtyNodes(const std::vector<phoenix::sim::NodeId> &nodes) override
    {
        inner_->noteDirtyNodes(nodes);
    }

    std::vector<EpochRecord> epochs;
    /** Sanity-check failures of planned states. */
    std::vector<std::string> problems;
    double bookkeepingSeconds = 0.0;
    /** When set, the next apply() keeps a copy of its input here. */
    bool captureNext = false;
    std::optional<phoenix::sim::ClusterState> captured;
    /** Runs (traced) just before each apply, inside the epoch. */
    std::function<void()> beforeApply;

  private:
    std::unique_ptr<phoenix::core::ResilienceScheme> inner_;
    Tracer &tracer_;
};

/** The scheme a workload plans with: PhoenixScheme(Cost) untraced, its
 * stepped twin when traced. */
std::unique_ptr<phoenix::core::ResilienceScheme>
makePhoenixCost(Tracer &tracer, bool stepped);

/**
 * The AdaptLab environment shape of the fig8b harness at @p nodes
 * (Alibaba-style mix, service-level tagging at the 90th percentile,
 * calls-per-minute resources, 80% demand).
 */
phoenix::adaptlab::EnvironmentConfig sizedConfig(size_t nodes,
                                                 uint64_t seed);

/** Number of pods (replicas) of @p apps. */
size_t podCount(const std::vector<phoenix::sim::Application> &apps);

/** Peak resident set size of this process, MiB. */
double peakRssMiB();

/** Median; NaN for an empty sample. */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/**
 * Median of a timing sample plus the highest percentile it supports
 * (at least ten samples beyond it), as report metrics
 * "<stem>_p50_s", "<stem>_p<P>_s" and "<stem>_samples".
 */
void reportTimingSample(Result &result, const std::string &stem,
                        const std::vector<double> &samples);

/**
 * Per-layer metrics every workload emits, zero where the workload does
 * not exercise the layer. Filled from the tracer and the workload's
 * counts, in the order BENCHMARK.json lists them.
 */
struct LayerCounts
{
    double coreExecuteSeconds = 0.0;
    phoenix::core::OpCounters ops;
    size_t deletes = 0;
    size_t migrations = 0;
    size_t restarts = 0;
    size_t placed = 0;
    size_t ranked = 0;
    size_t kubeEvents = 0;
    size_t evictedPods = 0;
    size_t pendingMax = 0;
    size_t invariantViolations = 0;
    size_t serveOffered = 0;
    size_t serveServed = 0;
    size_t serveShed = 0;
    size_t serveFailed = 0;
    size_t serveReplans = 0;
    /** Host seconds the traced and the untraced pass spent on the same
     * amount of work: trace.overhead_fraction is their ratio - 1. */
    double tracedPerUnit = 0.0;
    double untracedPerUnit = 0.0;
    /** Host seconds the traced pass measured (the shares' base). */
    double tracedHostSeconds = 0.0;

    void addEpoch(const EpochRecord &epoch);
};

void fillPerLayer(Result &result, const Tracer &tracer,
                  const LayerCounts &counts);

Result runKubeZoneKill(const Options &options);
Result runReplan(const Options &options);
Result runServeCap50(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
