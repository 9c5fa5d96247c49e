/**
 * @file
 * Workload serve-cap50: serve::runServe on the 25-node CloudLab
 * testbed, bench_serve's cap50 failure (half the capacity fails at
 * t=600 s, everything returns from t=1500 s) under the diurnal load
 * shape, PhoenixCost with admission on and the harness's forced
 * invariant checker. Each run draws its failure and traffic from the
 * seed and the run's index.
 *
 * runServe builds its own controller, so the traced run times the
 * control plane by replaying each run's scenario without the front end
 * (same testbed, scheme and failures) behind the timing decorator; the
 * replay must make as many replans as the run did.
 */

#include <iostream>
#include <sstream>

#include "apps/cloudlab.h"
#include "common.h"
#include "core/controller.h"
#include "serve/harness.h"
#include "util/rng.h"

namespace perfbench {

using namespace phoenix;

namespace {

struct Timeline
{
    double warmup;
    double failAt;
    double recoverAt;
    double end;
};

constexpr Timeline kFull{300.0, 600.0, 1500.0, 1800.0};
constexpr Timeline kSmoke{100.0, 200.0, 400.0, 500.0};

serve::ServeConfig
cap50Config(const Timeline &tl, uint64_t seed, size_t run)
{
    serve::ServeConfig config;
    config.scheme = serve::ServeScheme::PhoenixCost;
    config.scenario.failCapacityFraction(tl.failAt, 0.5)
        .recoverAll(tl.recoverAt, 15.0);
    config.scenarioOptions.seed = util::cellSeed(seed, 4, run);
    config.warmupSec = tl.warmup;
    config.endTime = tl.end;
    // The diurnal shape over the serving window.
    const apps::RateCurve day =
        apps::RateCurve::diurnal(tl.end - tl.warmup, 0.6, 1.5);
    for (const auto &[t, v] : day.points())
        config.frontend.curve.point(t + tl.warmup, v);
    config.frontend.windowSec = 5.0;
    config.frontend.admission.enabled = true;
    config.frontend.seed = util::cellSeed(seed, 5, run);
    return config;
}

/** Exact string of a run's deterministic outputs. */
std::string
canonical(const serve::ServeResult &r)
{
    std::ostringstream os;
    os << std::hexfloat << r.offered << '|' << r.served << '|' << r.shed
       << '|' << r.failed << '|' << r.criticalViolationSeconds << '|'
       << r.nonCriticalViolationSeconds << '|' << r.replans << '|'
       << r.invariantViolations;
    for (const serve::ClassReport &rep : r.classes)
        os << '|' << rep.offered << ',' << rep.served << ',' << rep.p95Ms;
    return os.str();
}

/** Accounting and invariant checks of one run; false on a failure. */
bool
checkRun(const serve::ServeResult &r, size_t run, Result &result)
{
    bool ok = true;
    if (r.offered != r.served + r.shed + r.failed) {
        result.fail("serve run " + std::to_string(run) +
                    ": offered != served + shed + failed");
        ok = false;
    }
    if (r.invariantViolations != 0) {
        result.fail("serve run " + std::to_string(run) + ": " +
                    std::to_string(r.invariantViolations) +
                    " invariant violations");
        ok = false;
    }
    if (r.offered == 0) {
        result.fail("serve run " + std::to_string(run) + ": no traffic");
        ok = false;
    }
    return ok;
}

/** The run's control plane without the front end; returns replans. */
size_t
replayControlPlane(const serve::ServeConfig &config, Tracer &tracer,
                   LayerCounts &counts, Result &result)
{
    sim::EventQueue events;
    kube::KubeConfig kube_config = config.kube;
    kube_config.validateInvariants = true; // as runServe forces it
    kube::KubeCluster cluster(events, kube_config);
    const apps::CloudLabTestbed testbed =
        apps::makeCloudLabTestbed(config.testbed);
    for (size_t n = 0; n < testbed.config.nodeCount; ++n)
        cluster.addNode(testbed.config.cpusPerNode);
    for (const auto &service_app : testbed.serviceApps)
        cluster.addApplication(service_app.app);
    auto scheme = std::make_unique<TimedScheme>(
        makePhoenixCost(tracer, true), tracer);
    TimedScheme &timed = *scheme;
    core::PhoenixController controller(events, cluster, std::move(scheme));
    sim::ScenarioRunner runner(events, cluster, config.scenario,
                               config.scenarioOptions);
    events.runUntil(config.endTime);
    for (const EpochRecord &epoch : timed.epochs)
        counts.addEpoch(epoch);
    for (const std::string &problem : timed.problems)
        result.fail("serve replay: " + problem);
    return controller.history().size();
}

} // namespace

Result
runServeCap50(const Options &options)
{
    Result result;
    Tracer tracer(util::cellSeed(options.seed, 0x73657276));
    const Timeline &tl = options.scale == Scale::Full ? kFull : kSmoke;

    // Set-up: bring the testbed up and serve run 0, five times (a
    // quarter second each). Run 0 is the check run: every repeat must
    // give the same outputs.
    constexpr int kSetups = 5;
    std::vector<double> setups;
    serve::ServeResult first;
    std::string first_canonical;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        serve::ServeResult r =
            serve::runServe(cap50Config(tl, options.seed, 0));
        setups.push_back(secondsSince(t0));
        std::string text = canonical(r);
        if (options.corruptDigest && i == kSetups - 1)
            text += "#";
        if (i == 0) {
            first = std::move(r);
            first_canonical = std::move(text);
        } else if (text != first_canonical) {
            result.fail("serve: run 0 is not reproducible");
        }
    }
    ++result.attempted;
    if (!checkRun(first, 0, result))
        ++result.failed;

    std::vector<double> run_seconds;
    std::vector<double> req_rates;
    std::vector<double> sim_rates;
    size_t run = 1;
    const auto measure_start = Clock::now();
    do {
        const serve::ServeConfig config = cap50Config(tl, options.seed, run);
        const auto t0 = Clock::now();
        const serve::ServeResult r = serve::runServe(config);
        const double host = secondsSince(t0);
        run_seconds.push_back(host);
        req_rates.push_back(static_cast<double>(r.offered) / host);
        sim_rates.push_back(config.endTime / host);
        ++result.attempted;
        if (!checkRun(r, run, result))
            ++result.failed;
        ++run;
    } while (secondsSince(measure_start) < options.seconds);

    const double setup = median(setups);
    const double req_rate = median(req_rates);
    const double availability = first.criticalGoodput;
    const double rss = peakRssMiB();
    result.endToEnd = {{"setup_s", setup, "s"},
                       {"op_p50_s", median(run_seconds), "s"},
                       {"work_per_host_s", req_rate, "1/s"},
                       {"availability", availability, "fraction"},
                       {"served_fraction", first.totalGoodput, "fraction"},
                       {"peak_rss_mib", rss, "MiB"}};
    result.report.push_back({"setup_s", setup, "s"});
    reportTimingSample(result, "run", run_seconds);
    result.report.push_back(
        {"sim_s_per_host_s", median(sim_rates), "sim_s/s"});
    result.report.push_back({"req_per_host_s", req_rate, "1/s"});
    result.report.push_back({"crit_slo_viol_sim_s",
                             first.criticalViolationSeconds, "sim_s"});
    result.report.push_back({"shed_fraction", first.shedFraction, "fraction"});
    result.report.push_back(
        {"failed_fraction",
         static_cast<double>(first.failed) /
             static_cast<double>(first.offered),
         "fraction"});
    result.report.push_back({"availability", availability, "fraction"});
    result.report.push_back({"goodput", first.totalGoodput, "fraction"});
    result.report.push_back({"peak_rss_mib", rss, "MiB"});

    if (!options.trace)
        return result;

    // Traced pass: the same runs from run 1, each followed by its
    // control-plane replay.
    tracer.setEnabled(true);
    LayerCounts counts;
    double traced_seconds = 0.0;
    std::vector<double> traced_run_seconds;
    run = 1;
    const auto traced_start = Clock::now();
    do {
        const serve::ServeConfig config = cap50Config(tl, options.seed, run);
        const auto t0 = Clock::now();
        serve::ServeResult r;
        {
            ScopedSpan span(tracer, "serve.run");
            r = serve::runServe(config);
        }
        traced_run_seconds.push_back(secondsSince(t0));
        traced_seconds += traced_run_seconds.back();
        counts.serveOffered += r.offered;
        counts.serveServed += r.served;
        counts.serveShed += r.shed;
        counts.serveFailed += r.failed;
        counts.serveReplans += r.replans;
        counts.invariantViolations += r.invariantViolations;
        size_t replans = 0;
        {
            ScopedSpan span(tracer, "serve.replay");
            replans = replayControlPlane(config, tracer, counts, result);
        }
        if (replans != r.replans)
            result.fail("serve: replay made " + std::to_string(replans) +
                        " replans, run " + std::to_string(run) + " made " +
                        std::to_string(r.replans));
        ++run;
    } while (secondsSince(traced_start) < options.seconds);
    tracer.setEnabled(false);

    // Overhead over the runs both passes made (the same inputs).
    const size_t both = std::min(traced_run_seconds.size(), run_seconds.size());
    double traced_sum = 0.0;
    double untraced_sum = 0.0;
    for (size_t i = 0; i < both; ++i) {
        traced_sum += traced_run_seconds[i];
        untraced_sum += run_seconds[i];
    }
    counts.tracedHostSeconds = traced_seconds;
    counts.tracedPerUnit = traced_sum;
    counts.untracedPerUnit = untraced_sum;
    fillPerLayer(result, tracer, counts);
    if (!options.traceOut.empty() &&
        !tracer.write(options.traceOut, options.workload))
        std::cerr << "warning: cannot write spans to " << options.traceOut
                  << "\n";
    return result;
}

} // namespace perfbench
