/**
 * @file
 * Workload kube-zonekill-10k: an AdaptLab cluster (fig8b's 10k-node
 * shape, ~166k pods) loaded into the mini-Kubernetes with nodes
 * labelled into eight zones, PhoenixController planning with a
 * default-options PhoenixScheme(Cost) behind the timing decorator.
 * Each iteration kills one zone, 240 simulated seconds later a second
 * one (ready capacity falls below the 80% demand, so deletion and
 * migration run), and 240 s later restores both, then runs 240 s more:
 * three replan epochs per iteration.
 *
 * The benchmark drives EventQueue::step itself and times every step; a
 * step during which the controller's history grows is a replan epoch.
 */

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common.h"
#include "core/controller.h"
#include "kube/kube.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace perfbench {

using namespace phoenix;

namespace {

// Eight zones of 12.5%: one zone down leaves room for the 80% demand,
// two zones down (75%) do not, so the second kill makes the packer
// repack and delete. With ten zones, two down leave exactly the 80%
// demand and every pod still fits: no deletion or repack runs.
constexpr size_t kZones = 8;
/** Simulated seconds between the fault steps of one iteration. After a
 * zone kill, detection (100 s grace), the next poll, pod start-up (up
 * to 60 s) and the poll that sees it all Running take about 195 s at
 * most. Three steps, hence three kinds of epoch: the median epoch of
 * whole iterations then falls inside the middle kind, not on the
 * boundary between two. */
constexpr double kPhaseSec = 240.0;
/** Bring-up and recovery give up after this much simulated time. */
constexpr double kSettleLimitSec = 3600.0;

struct Testbed
{
    adaptlab::Environment env;
    std::vector<std::vector<sim::NodeId>> zones;
    // Destroyed in reverse order: the controller before the cluster
    // it drives, the cluster before its event queue.
    std::unique_ptr<sim::EventQueue> events;
    std::unique_ptr<kube::KubeCluster> cluster;
    TimedScheme *scheme = nullptr; // owned by the controller
    std::unique_ptr<core::PhoenixController> controller;
};

/** Host time and samples of one measured pass. */
struct Pass
{
    std::vector<double> epochSeconds;
    double hostSeconds = 0.0;
    double simSeconds = 0.0;
    size_t loopEvents = 0;
    size_t pendingMax = 0;
};

class Stepper
{
  public:
    Stepper(Testbed &bed, Tracer &tracer) : bed_(bed), tracer_(tracer) {}

    /** Step events due up to @p until, timing each step. */
    void
    runUntil(double until, Pass &pass)
    {
        sim::EventQueue &events = *bed_.events;
        const auto &history = bed_.controller->history();
        while (!events.empty() && events.nextEventAt() <= until) {
            const size_t replans = history.size();
            const double bookkeeping = bed_.scheme->bookkeepingSeconds;
            const size_t mark = tracer_.size();
            const auto t0 = Clock::now();
            events.step();
            const auto t1 = Clock::now();
            const double step = secondsBetween(t0, t1);
            pass.hostSeconds += step;
            if (history.size() > replans) {
                pass.epochSeconds.push_back(
                    step - (bed_.scheme->bookkeepingSeconds - bookkeeping));
                // The spans the step opened are the epoch's children;
                // the loop segment before it is not.
                const int id = tracer_.add("kube.epoch", tracer_.at(t0),
                                           tracer_.at(t1), -1);
                tracer_.adopt(mark, id);
                closeSegment();
            } else {
                ++pass.loopEvents;
                if (!segment_)
                    segmentStart_ = t0;
                segment_ = true;
                segmentEnd_ = t1;
            }
            if (tracer_.enabled() && events.now() >= nextProbe_) {
                probe(pass);
                nextProbe_ =
                    (std::floor(events.now() / kPollSec) + 1.0) * kPollSec;
            }
        }
        closeSegment();
        events.runUntil(until); // advance the clock to the phase end
    }

    /** Stop (or start) the kubelets of @p zone, timed as host work. */
    void
    setZone(size_t zone, bool up, Pass &pass)
    {
        const auto t0 = Clock::now();
        for (sim::NodeId node : bed_.zones[zone]) {
            if (up)
                bed_.cluster->startKubelet(node);
            else
                bed_.cluster->stopKubelet(node);
        }
        pass.hostSeconds += secondsSince(t0);
    }

  private:
    static constexpr double kPollSec = core::ControllerConfig{}.pollPeriod;

    void
    closeSegment()
    {
        if (segment_)
            tracer_.add("kube.loop", tracer_.at(segmentStart_),
                        tracer_.at(segmentEnd_), -1);
        segment_ = false;
    }

    /** What the controller's poll reads besides the observed state:
     * capacity and fingerprint, plus the running set while a replan
     * waits for recovery. */
    void
    probe(Pass &pass)
    {
        closeSegment();
        const auto &history = bed_.controller->history();
        const auto t0 = Clock::now();
        {
            ScopedSpan span(tracer_, "kube.poll_probe");
            sink_ += bed_.cluster->observedReadyCapacity();
            sink_ += static_cast<double>(
                bed_.cluster->observedReadyFingerprint() & 1);
            if (!history.empty() && history.back().recoveredAt < 0.0)
                sink_ += static_cast<double>(
                    bed_.cluster->runningPods().size());
        }
        pass.hostSeconds += secondsSince(t0);
        pass.pendingMax =
            std::max(pass.pendingMax, bed_.cluster->pendingCount());
    }

    Testbed &bed_;
    Tracer &tracer_;
    bool segment_ = false;
    Clock::time_point segmentStart_;
    Clock::time_point segmentEnd_;
    double nextProbe_ = 0.0;
    double sink_ = 0.0;
};

std::unique_ptr<Testbed>
bringUp(size_t nodes, uint64_t seed, Tracer &tracer, Result &result)
{
    auto bed = std::make_unique<Testbed>();
    {
        ScopedSpan span(tracer, "adaptlab.env_build");
        bed->env = adaptlab::buildEnvironment(sizedConfig(nodes, seed));
    }
    bed->events = std::make_unique<sim::EventQueue>();
    kube::KubeConfig config;
    // The release configuration: no per-event invariant sweep; the
    // output check inspects the end state instead.
    config.validateInvariants = false;
    config.seed = util::cellSeed(seed, 1);
    bed->cluster = std::make_unique<kube::KubeCluster>(*bed->events, config);
    bed->zones.resize(kZones);
    for (size_t id = 0; id < bed->env.cluster.nodeCount(); ++id) {
        const auto node = static_cast<sim::NodeId>(id);
        const auto zone = static_cast<uint32_t>(id % kZones);
        bed->cluster->addNode(bed->env.cluster.node(node).capacity, zone);
        bed->zones[zone].push_back(node);
    }
    for (const sim::Application &app : bed->env.apps)
        bed->cluster->addApplication(app);
    auto scheme = std::make_unique<TimedScheme>(
        makePhoenixCost(tracer, false), tracer);
    bed->scheme = scheme.get();
    bed->controller = std::make_unique<core::PhoenixController>(
        *bed->events, *bed->cluster, std::move(scheme));

    // Initial placement settles when the first plan is fully running.
    ScopedSpan span(tracer, "kube.settle");
    const auto &history = bed->controller->history();
    while (!(!history.empty() && history.back().recoveredAt >= 0.0) &&
           bed->events->now() < kSettleLimitSec && bed->events->step()) {
    }
    if (history.empty() || history.back().recoveredAt < 0.0)
        result.fail("initial placement did not settle");
    return bed;
}

/** Zones killed by iteration @p k: two distinct ones, from the seed. */
std::pair<size_t, size_t>
zonesFor(uint64_t seed, size_t k)
{
    util::Rng rng(util::cellSeed(seed, 2, k));
    const size_t a = rng() % kZones;
    const size_t b = (a + 1 + rng() % (kZones - 1)) % kZones;
    return {a, b};
}

/** Outcome of the first iteration (deterministic for a seed). */
struct Outcome
{
    double recoverySimSeconds = -1.0;
    double availability = -1.0;
    /** Pods Running at the deepest degradation / all pods. */
    double servedFraction = -1.0;
};

void
iteration(Testbed &bed, Stepper &stepper, uint64_t seed, size_t k, Pass &pass,
          Outcome *outcome)
{
    const auto [a, b] = zonesFor(seed, k);
    const double start = bed.events->now();
    const size_t before = bed.controller->history().size();
    stepper.setZone(a, false, pass);
    stepper.runUntil(start + kPhaseSec, pass);
    if (outcome) {
        const auto &history = bed.controller->history();
        if (history.size() > before && history[before].recoveredAt >= 0.0)
            outcome->recoverySimSeconds = history[before].recoveredAt - start;
    }
    stepper.setZone(b, false, pass);
    stepper.runUntil(start + 2 * kPhaseSec, pass);
    if (outcome) {
        // The deepest degradation: two zones down, plan executed.
        const sim::ClusterState state = bed.cluster->observedState();
        outcome->availability = sim::criticalServiceAvailability(
            bed.cluster->apps(),
            sim::activeSetFromCluster(bed.cluster->apps(), state));
        outcome->servedFraction =
            static_cast<double>(bed.cluster->runningPods().size()) /
            static_cast<double>(podCount(bed.cluster->apps()));
    }
    stepper.setZone(a, true, pass);
    stepper.setZone(b, true, pass);
    stepper.runUntil(start + 3 * kPhaseSec, pass);
    pass.simSeconds += 3 * kPhaseSec;
}

/**
 * Output check, outside any timed region: one more zone kill whose
 * epoch keeps its input, compared against a fresh default
 * PhoenixScheme(Cost) on that same observed state; then recovery, the
 * end-state capacity check, the invariant counter and the target pods.
 * Returns the fraction of target pods not Running at the horizon.
 */
double
check(Testbed &bed, Stepper &stepper, uint64_t seed, size_t k,
      const Options &options, Result &result)
{
    Pass ignored;
    const size_t zone = zonesFor(seed, k).first;
    const double start = bed.events->now();
    bed.scheme->captureNext = true;
    stepper.setZone(zone, false, ignored);
    stepper.runUntil(start + kPhaseSec, ignored);
    if (!bed.scheme->captured) {
        result.fail("kube: the check fault caused no replan");
    } else {
        core::PhoenixScheme fresh(core::Objective::Cost);
        const uint64_t expected = digestResult(
            fresh.apply(bed.cluster->apps(), *bed.scheme->captured));
        const uint64_t got = bed.scheme->epochs.back().digest ^
                             (options.corruptDigest ? 1u : 0u);
        ++result.attempted;
        if (got != expected) {
            ++result.failed;
            result.fail("kube: epoch digest differs from a fresh "
                        "PhoenixScheme on the same observed state");
        }
        bed.scheme->captured.reset();
    }
    stepper.setZone(zone, true, ignored);
    const auto &history = bed.controller->history();
    double until = start + 2 * kPhaseSec;
    stepper.runUntil(until, ignored);
    while (history.back().recoveredAt < 0.0 &&
           until < start + kSettleLimitSec) {
        until += kPhaseSec;
        stepper.runUntil(until, ignored);
    }

    for (const std::string &problem : bed.scheme->problems)
        result.fail("kube: " + problem);
    result.failed += bed.scheme->problems.size();
    bed.scheme->problems.clear();
    if (bed.cluster->invariantViolations() != 0)
        result.fail("kube: " +
                    std::to_string(bed.cluster->invariantViolations()) +
                    " invariant violations");

    // End state: no node holds more than its capacity.
    std::vector<double> used(bed.cluster->nodeCount(), 0.0);
    for (const sim::Application &app : bed.cluster->apps()) {
        for (const sim::Microservice &ms : app.services) {
            for (int r = 0; r < std::max(ms.replicas, 1); ++r) {
                const kube::Pod *pod = bed.cluster->pod(
                    sim::PodRef{app.id, ms.id, static_cast<uint32_t>(r)});
                if (pod && pod->phase != kube::PodPhase::Pending)
                    used[pod->node] += pod->cpu;
            }
        }
    }
    for (size_t n = 0; n < used.size(); ++n) {
        if (used[n] > bed.cluster->nodeCapacity(
                          static_cast<sim::NodeId>(n)) + 1e-6) {
            result.fail("kube: node " + std::to_string(n) +
                        " holds more than its capacity");
            break;
        }
    }

    const auto running = bed.cluster->runningPods();
    const auto &target = bed.controller->currentTarget();
    size_t missing = 0;
    for (const sim::PodRef &ref : target)
        missing += running.count(ref) ? 0 : 1;
    if (missing > 0)
        result.fail("kube: " + std::to_string(missing) +
                    " target pods not Running at the horizon");
    return target.empty() ? 1.0
                          : static_cast<double>(missing) /
                                static_cast<double>(target.size());
}

} // namespace

Result
runKubeZoneKill(const Options &options)
{
    Result result;
    Tracer tracer(util::cellSeed(options.seed, 0x6b756265));
    const size_t nodes = options.scale == Scale::Full ? 10000 : 300;

    // Set-up, three times (each takes seconds); the last testbed is the
    // one measured. In a traced run the last set-up is traced.
    constexpr int kSetups = 3;
    std::vector<double> setups;
    std::unique_ptr<Testbed> bed;
    for (int i = 0; i < kSetups; ++i) {
        bed.reset();
        tracer.setEnabled(options.trace && i == kSetups - 1);
        const auto t0 = Clock::now();
        bed = bringUp(nodes, options.seed, tracer, result);
        setups.push_back(secondsSince(t0));
    }
    tracer.setEnabled(false);
    Stepper stepper(*bed, tracer);

    Pass pass;
    Outcome outcome;
    size_t k = 0;
    const auto measure_start = Clock::now();
    do {
        iteration(*bed, stepper, options.seed, k, pass,
                  k == 0 ? &outcome : nullptr);
        ++k;
    } while (secondsSince(measure_start) < options.seconds);
    result.attempted += pass.epochSeconds.size();
    const double failed_fraction =
        check(*bed, stepper, options.seed, k++, options, result);
    if (outcome.recoverySimSeconds < 0.0)
        result.fail("kube: the first zone kill did not recover within "
                    "its phase");

    const double setup = median(setups);
    const double epoch = median(pass.epochSeconds);
    const double speed = pass.simSeconds / pass.hostSeconds;
    const double rss = peakRssMiB();
    result.endToEnd = {{"setup_s", setup, "s"},
                       {"op_p50_s", epoch, "s"},
                       {"work_per_host_s", speed, "1/s"},
                       {"availability", outcome.availability, "fraction"},
                       {"served_fraction", outcome.servedFraction,
                        "fraction"},
                       {"peak_rss_mib", rss, "MiB"}};
    result.report.push_back({"setup_s", setup, "s"});
    reportTimingSample(result, "epoch", pass.epochSeconds);
    result.report.push_back({"sim_s_per_host_s", speed, "sim_s/s"});
    result.report.push_back(
        {"recovery_sim_s", outcome.recoverySimSeconds, "sim_s"});
    result.report.push_back(
        {"availability", outcome.availability, "fraction"});
    result.report.push_back(
        {"running_pod_fraction", outcome.servedFraction, "fraction"});
    result.report.push_back({"failed_fraction", failed_fraction, "fraction"});
    result.report.push_back({"peak_rss_mib", rss, "MiB"});
    result.report.push_back({"kube_events", static_cast<double>(
                                                pass.loopEvents +
                                                pass.epochSeconds.size()),
                             "count"});

    if (!options.trace)
        return result;

    // Traced pass: same loop, planning through the stepped scheme, the
    // observe step and the poll probes timed as their own spans.
    tracer.setEnabled(true);
    bed->scheme->setInner(makePhoenixCost(tracer, true));
    bed->scheme->bookkeepingSeconds = 0.0;
    bed->scheme->beforeApply = [&bed, &tracer] {
        ScopedSpan span(tracer, "kube.observe");
        const sim::ClusterState observed = bed->cluster->observedState();
        (void)observed;
    };
    const size_t evicted_before = bed->cluster->evictedPodCount();
    const size_t first_traced = bed->scheme->epochs.size();
    Pass traced;
    const auto traced_start = Clock::now();
    do {
        iteration(*bed, stepper, options.seed, k++, traced, nullptr);
    } while (secondsSince(traced_start) < options.seconds);
    tracer.setEnabled(false);
    bed->scheme->beforeApply = nullptr;

    LayerCounts counts;
    for (size_t i = first_traced; i < bed->scheme->epochs.size(); ++i)
        counts.addEpoch(bed->scheme->epochs[i]);
    const auto self = tracer.selfSeconds();
    const auto total = tracer.totalSeconds();
    const auto get = [](const std::map<std::string, double> &m,
                        const char *name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    counts.coreExecuteSeconds = get(self, "kube.epoch") -
                                get(total, "kube.observe") -
                                bed->scheme->bookkeepingSeconds;
    counts.kubeEvents = traced.loopEvents;
    counts.evictedPods = bed->cluster->evictedPodCount() - evicted_before;
    counts.pendingMax = traced.pendingMax;
    counts.invariantViolations = bed->cluster->invariantViolations();
    counts.tracedHostSeconds = traced.hostSeconds;
    counts.tracedPerUnit = traced.hostSeconds / traced.simSeconds;
    counts.untracedPerUnit = pass.hostSeconds / pass.simSeconds;
    // The stepped scheme must agree with PhoenixScheme too.
    check(*bed, stepper, options.seed, k, options, result);
    fillPerLayer(result, tracer, counts);
    if (!options.traceOut.empty() &&
        !tracer.write(options.traceOut, options.workload))
        std::cerr << "warning: cannot write spans to " << options.traceOut
                  << "\n";
    return result;
}

} // namespace perfbench
