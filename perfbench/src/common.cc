#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>

namespace perfbench {

using namespace phoenix;

uint32_t
Tracer::intern(const char *name)
{
    for (uint32_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return i;
    }
    names_.emplace_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
}

int
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    const int id = add(name, now(), -1.0, current());
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<size_t>(id)].end = now();
    // Spans close innermost first; tolerate a stray id all the same.
    const auto it = std::find(stack_.begin(), stack_.end(), id);
    if (it != stack_.end())
        stack_.erase(it, stack_.end());
}

int
Tracer::add(const char *name, double start, double end, int parent)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{intern(name), start, end, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::adopt(size_t from, int parent)
{
    for (size_t i = from; i < spans_.size(); ++i) {
        if (spans_[i].parent < 0 && static_cast<int>(i) != parent)
            spans_[i].parent = parent;
    }
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::map<std::string, double> out;
    for (const Span &span : spans_)
        out[names_[span.name]] += span.end - span.start;
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[names_[spans_[i].name]] += self[i];
    return out;
}

bool
Tracer::write(const std::string &path, const std::string &workload) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::setprecision(17);
    out << "{\"run_id\": \"" << std::hex << runId_ << std::dec
        << "\", \"workload\": \"" << workload << "\", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << names_[span.name]
            << "\", \"start\": " << span.start << ", \"end\": " << span.end
            << ", \"parent\": " << span.parent << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

namespace {

struct Fnv
{
    uint64_t hash = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }

    void
    mix(const sim::PodRef &ref)
    {
        mix(ref.app);
        mix(ref.ms);
        mix(ref.replica);
    }
};

} // namespace

uint64_t
digestResult(const core::SchemeResult &result)
{
    Fnv fnv;
    for (const core::Action &action : result.pack.actions) {
        fnv.mix(static_cast<uint64_t>(action.kind));
        fnv.mix(action.pod);
        fnv.mix(action.from);
        fnv.mix(action.to);
    }
    fnv.mix(0xa55a5aa5ull); // separates the two sequences
    for (const auto &[pod, node] : result.pack.state.assignment()) {
        fnv.mix(pod);
        fnv.mix(node);
    }
    return fnv.hash;
}

std::string
checkPlannedState(const sim::ClusterState &state)
{
    for (size_t id = 0; id < state.nodeCount(); ++id) {
        const auto node = static_cast<sim::NodeId>(id);
        const double used = state.used(node);
        if (!state.isHealthy(node) && used > 1e-9)
            return "planned state keeps " + std::to_string(used) +
                   " CPU on failed node " + std::to_string(id);
        if (used > state.node(node).capacity + 1e-6)
            return "planned state overfills node " + std::to_string(id);
    }
    return "";
}

core::SchemeResult
SteppedPhoenixCost::apply(const std::vector<sim::Application> &apps,
                          const sim::ClusterState &current)
{
    core::SchemeResult result;
    core::CostObjective objective;
    const auto plan_start = Clock::now();
    {
        ScopedSpan span(tracer_, "core.estimate");
        planner_.priorityEstimatorInto(apps, appRank_);
    }
    const core::OpCounters estimator_ops = planner_.lastOps();
    {
        ScopedSpan span(tracer_, "core.rank");
        planner_.globalRankInto(apps, appRank_, objective,
                                current.healthyCapacity(), result.plan);
    }
    result.planOps = planner_.lastOps();
    result.planOps += estimator_ops;
    result.planSeconds = secondsSince(plan_start);
    const auto pack_start = Clock::now();
    {
        ScopedSpan span(tracer_, "core.pack");
        result.pack = packer_.pack(apps, current, result.plan);
    }
    result.packSeconds = secondsSince(pack_start);
    return result;
}

core::SchemeResult
TimedScheme::apply(const std::vector<sim::Application> &apps,
                   const sim::ClusterState &current)
{
    if (beforeApply)
        beforeApply();
    const auto start = Clock::now();
    core::SchemeResult result;
    {
        ScopedSpan span(tracer_, "core.apply");
        result = inner_->apply(apps, current);
    }
    const auto end = Clock::now();

    EpochRecord epoch;
    epoch.applySeconds = secondsBetween(start, end);
    epoch.digest = digestResult(result);
    for (const core::Action &action : result.pack.actions) {
        if (action.kind == core::ActionKind::Delete)
            ++epoch.deletes;
        else if (action.kind == core::ActionKind::Migrate)
            ++epoch.migrations;
        else
            ++epoch.restarts;
    }
    epoch.placed = result.pack.placed;
    epoch.ranked = result.plan.size();
    epoch.ops = result.planOps;
    epoch.ops += result.pack.ops;
    epochs.push_back(epoch);
    std::string problem = checkPlannedState(result.pack.state);
    if (!problem.empty())
        problems.push_back(std::move(problem));
    if (captureNext) {
        captured = current;
        captureNext = false;
    }
    bookkeepingSeconds += secondsSince(end);
    return result;
}

std::unique_ptr<core::ResilienceScheme>
makePhoenixCost(Tracer &tracer, bool stepped)
{
    if (stepped)
        return std::make_unique<SteppedPhoenixCost>(tracer);
    return std::make_unique<core::PhoenixScheme>(core::Objective::Cost);
}

adaptlab::EnvironmentConfig
sizedConfig(size_t nodes, uint64_t seed)
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = nodes;
    config.seed = seed;
    config.demandFraction = 0.8;
    config.tagging.scheme = workloads::TaggingScheme::ServiceLevel;
    config.tagging.percentile = 0.9;
    config.resources.model = workloads::ResourceModel::CallsPerMinute;
    if (nodes <= 1000) {
        // Small clusters cannot host the 3000-service giants.
        config.alibaba.appCount = 5;
        config.alibaba.sizeScale =
            std::max(0.004, 0.005 * static_cast<double>(nodes) / 10.0);
        config.nodeCapacity = 64.0;
        config.maxReplicas = 1;
    } else {
        config.alibaba.appCount = 18;
        config.alibaba.sizeScale = std::max(
            0.05, std::min(1.0, static_cast<double>(nodes) / 100000.0));
        // ~16 pods per 16-CPU node.
        config.nodeCapacity = 16.0;
        config.resources.minCpu = 0.5;
        config.resources.maxCpu = 8.0;
    }
    return config;
}

size_t
podCount(const std::vector<sim::Application> &apps)
{
    size_t pods = 0;
    for (const sim::Application &app : apps) {
        for (const sim::Microservice &ms : app.services)
            pods += static_cast<size_t>(std::max(ms.replicas, 1));
    }
    return pods;
}

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

void
reportTimingSample(Result &result, const std::string &stem,
                   const std::vector<double> &samples)
{
    result.report.push_back({stem + "_p50_s", median(samples), "s"});
    // The highest whole percentile with at least ten samples above it.
    const double n = static_cast<double>(samples.size());
    if (n >= 20.0) {
        const int p = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n)));
        if (p > 50) {
            result.report.push_back({stem + "_p" + std::to_string(p) + "_s",
                                     percentile(samples, p), "s"});
        }
    }
    result.report.push_back({stem + "_samples", n, "count"});
}

void
LayerCounts::addEpoch(const EpochRecord &epoch)
{
    ops += epoch.ops;
    deletes += epoch.deletes;
    migrations += epoch.migrations;
    restarts += epoch.restarts;
    placed += epoch.placed;
    ranked += epoch.ranked;
}

void
fillPerLayer(Result &result, const Tracer &tracer, const LayerCounts &counts)
{
    const auto total = tracer.totalSeconds();
    const auto seconds = [&total](const char *name) {
        const auto it = total.find(name);
        return it == total.end() ? 0.0 : it->second;
    };
    const auto count = [](auto v) { return static_cast<double>(v); };
    auto &out = result.perLayer;
    out.push_back({"core.apply_s", seconds("core.apply"), "s"});
    out.push_back({"core.estimate_s", seconds("core.estimate"), "s"});
    out.push_back({"core.rank_s", seconds("core.rank"), "s"});
    out.push_back({"core.pack_s", seconds("core.pack"), "s"});
    out.push_back({"core.execute_s", counts.coreExecuteSeconds, "s"});
    out.push_back({"core.heap_pushes", count(counts.ops.heapPushes), "count"});
    out.push_back(
        {"core.best_fit_probes", count(counts.ops.bestFitProbes), "count"});
    out.push_back({"core.kv_ops", count(counts.ops.kvOps), "count"});
    out.push_back({"core.actions.delete", count(counts.deletes), "count"});
    out.push_back(
        {"core.actions.migrate", count(counts.migrations), "count"});
    out.push_back({"core.actions.restart", count(counts.restarts), "count"});
    out.push_back({"core.placed_ratio",
                   counts.ranked == 0 ? 0.0
                                      : count(counts.placed) /
                                            count(counts.ranked),
                   "fraction"});
    out.push_back({"kube.observe_s", seconds("kube.observe"), "s"});
    out.push_back({"kube.poll_probe_s", seconds("kube.poll_probe"), "s"});
    out.push_back({"kube.loop_s", seconds("kube.loop"), "s"});
    out.push_back({"kube.events", count(counts.kubeEvents), "count"});
    out.push_back({"kube.settle_s", seconds("kube.settle"), "s"});
    out.push_back({"kube.evicted_pods", count(counts.evictedPods), "count"});
    out.push_back({"kube.pending_max", count(counts.pendingMax), "count"});
    out.push_back({"kube.invariant_violations",
                   count(counts.invariantViolations), "count"});
    out.push_back(
        {"adaptlab.env_build_s", seconds("adaptlab.env_build"), "s"});
    out.push_back({"serve.run_s", seconds("serve.run"), "s"});
    out.push_back({"serve.offered", count(counts.serveOffered), "count"});
    out.push_back({"serve.served", count(counts.serveServed), "count"});
    out.push_back({"serve.shed", count(counts.serveShed), "count"});
    out.push_back({"serve.failed", count(counts.serveFailed), "count"});
    out.push_back({"serve.replans", count(counts.serveReplans), "count"});
    for (const auto &[name, self] : tracer.selfSeconds())
        result.selfTimes.push_back({name, self, "s"});
    out.push_back({"trace.host_s", counts.tracedHostSeconds, "s"});
    out.push_back({"trace.overhead_fraction",
                   counts.untracedPerUnit > 0.0
                       ? counts.tracedPerUnit / counts.untracedPerUnit - 1.0
                       : 0.0,
                   "fraction"});
}

} // namespace perfbench
