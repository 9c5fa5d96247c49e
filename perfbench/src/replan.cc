/**
 * @file
 * Workload replan-100k: the 100k-node AdaptLab environment with no
 * kube. One long-lived default-options PhoenixScheme(Cost), behind the
 * timing decorator, has apply() called on a fixed series of observed
 * states, each built with ClusterState::failNode/restoreNode on the
 * previous planned state: zone a fails, zone b fails (capacity falls
 * below the 80% demand), zone a returns, zone b returns. The series
 * repeats with new zones until the run's time is up.
 */

#include <iostream>

#include "common.h"
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

struct Series
{
    std::vector<uint64_t> digests;
    double applySeconds = 0.0;
    /** Input of the last epoch (kept for the output check). */
    std::optional<sim::ClusterState> lastInput;
    /** Active set planned after the second zone failed, in series 0,
     * and the fraction of all pods that plan places. */
    sim::ActiveSet deepest;
    double deepestPlaced = 0.0;
};

void
setZone(sim::ClusterState &state, size_t zone, bool up)
{
    for (size_t id = zone; id < state.nodeCount(); id += kZones) {
        if (up)
            state.restoreNode(static_cast<sim::NodeId>(id));
        else
            state.failNode(static_cast<sim::NodeId>(id));
    }
}

/**
 * Run series @p k from @p planned (updated to the last planned state).
 * Only the apply() calls are timed; building the states is not.
 */
void
runSeries(TimedScheme &scheme, const std::vector<sim::Application> &apps,
          uint64_t seed, size_t k, sim::ClusterState &planned, Series &out)
{
    util::Rng rng(util::cellSeed(seed, 3, k));
    const size_t a = rng() % kZones;
    const size_t b = (a + 1 + rng() % (kZones - 1)) % kZones;
    const std::pair<size_t, bool> steps[] = {
        {a, false}, {b, false}, {a, true}, {b, true}};
    for (size_t i = 0; i < 4; ++i) {
        sim::ClusterState observed = planned;
        setZone(observed, steps[i].first, steps[i].second);
        core::SchemeResult result = scheme.apply(apps, observed);
        out.applySeconds += scheme.epochs.back().applySeconds;
        out.digests.push_back(scheme.epochs.back().digest);
        planned = std::move(result.pack.state);
        if (k == 0 && i == 1) {
            out.deepest = sim::activeSetFromCluster(apps, planned);
            out.deepestPlaced =
                static_cast<double>(planned.assignment().size()) /
                static_cast<double>(podCount(apps));
        }
        if (i == 3)
            out.lastInput = std::move(observed);
    }
}

} // namespace

Result
runReplan(const Options &options)
{
    Result result;
    Tracer tracer(util::cellSeed(options.seed, 0x7265706c));
    const size_t nodes = options.scale == Scale::Full ? 100000 : 500;

    // Set-up, five times (two seconds each); the last environment is
    // the one measured. In a traced run the last build is traced.
    constexpr int kSetups = 5;
    std::vector<double> setups;
    adaptlab::Environment env;
    for (int i = 0; i < kSetups; ++i) {
        env = adaptlab::Environment();
        tracer.setEnabled(options.trace && i == kSetups - 1);
        const auto t0 = Clock::now();
        {
            ScopedSpan span(tracer, "adaptlab.env_build");
            env = adaptlab::buildEnvironment(sizedConfig(nodes, options.seed));
        }
        setups.push_back(secondsSince(t0));
    }
    tracer.setEnabled(false);

    TimedScheme scheme(makePhoenixCost(tracer, false), tracer);
    Series series;
    sim::ClusterState planned = env.cluster;
    size_t k = 0;
    const auto measure_start = Clock::now();
    do {
        runSeries(scheme, env.apps, options.seed, k++, planned, series);
    } while (secondsSince(measure_start) < options.seconds);

    // Output check, untimed: every planned state is sane, and the last
    // epoch matches a fresh default PhoenixScheme on the same input.
    result.attempted = scheme.epochs.size();
    result.failed = scheme.problems.size();
    for (const std::string &problem : scheme.problems)
        result.fail("replan: " + problem);
    {
        core::PhoenixScheme fresh(core::Objective::Cost);
        const uint64_t expected =
            digestResult(fresh.apply(env.apps, *series.lastInput));
        const uint64_t got =
            series.digests.back() ^ (options.corruptDigest ? 1u : 0u);
        if (got != expected) {
            ++result.failed;
            result.fail("replan: last epoch differs from a fresh "
                        "PhoenixScheme on the same observed state");
        }
    }

    std::vector<double> epochs;
    for (const EpochRecord &epoch : scheme.epochs)
        epochs.push_back(epoch.applySeconds);
    const sim::ActiveSet &active = series.deepest;
    const double availability =
        sim::criticalServiceAvailability(env.apps, active);
    const double revenue = sim::revenueNormalized(env.apps, active);
    const double setup = median(setups);
    const double epoch = median(epochs);
    const double rate =
        static_cast<double>(epochs.size()) / series.applySeconds;
    const double rss = peakRssMiB();
    result.endToEnd = {{"setup_s", setup, "s"},
                       {"op_p50_s", epoch, "s"},
                       {"work_per_host_s", rate, "1/s"},
                       {"availability", availability, "fraction"},
                       {"served_fraction", series.deepestPlaced, "fraction"},
                       {"peak_rss_mib", rss, "MiB"}};
    result.report.push_back({"setup_s", setup, "s"});
    reportTimingSample(result, "epoch", epochs);
    result.report.push_back({"availability", availability, "fraction"});
    result.report.push_back({"revenue", revenue, "normalized"});
    result.report.push_back(
        {"placed_pod_fraction", series.deepestPlaced, "fraction"});
    result.report.push_back({"demand_fraction",
                             env.cluster.usedCapacity() /
                                 env.cluster.totalCapacity(),
                             "fraction"});
    result.report.push_back(
        {"failed_fraction",
         static_cast<double>(result.failed) /
             static_cast<double>(result.attempted),
         "fraction"});
    result.report.push_back({"peak_rss_mib", rss, "MiB"});

    if (!options.trace)
        return result;

    // Traced pass: the same series from the same start, planned through
    // the three steps one by one; every epoch both passes ran must give
    // the same digest.
    tracer.setEnabled(true);
    TimedScheme stepped(makePhoenixCost(tracer, true), tracer);
    Series traced;
    planned = env.cluster;
    k = 0;
    const auto traced_start = Clock::now();
    do {
        runSeries(stepped, env.apps, options.seed, k++, planned, traced);
    } while (secondsSince(traced_start) < options.seconds);
    tracer.setEnabled(false);
    const size_t common = std::min(traced.digests.size(),
                                   series.digests.size());
    for (size_t i = 0; i < common; ++i) {
        if (traced.digests[i] != series.digests[i]) {
            result.fail("replan: traced epoch " + std::to_string(i) +
                        " differs from the untraced one");
            break;
        }
    }
    for (const std::string &problem : stepped.problems)
        result.fail("replan (traced): " + problem);

    LayerCounts counts;
    for (const EpochRecord &epoch_record : stepped.epochs)
        counts.addEpoch(epoch_record);
    counts.tracedHostSeconds = traced.applySeconds;
    counts.tracedPerUnit =
        traced.applySeconds / static_cast<double>(stepped.epochs.size());
    counts.untracedPerUnit =
        series.applySeconds / static_cast<double>(scheme.epochs.size());
    fillPerLayer(result, tracer, counts);
    if (!options.traceOut.empty() &&
        !tracer.write(options.traceOut, options.workload))
        std::cerr << "warning: cannot write spans to " << options.traceOut
                  << "\n";
    return result;
}

} // namespace perfbench
