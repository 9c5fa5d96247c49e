/**
 * @file
 * perfbench: the repository benchmark's single binary.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--scale full|smoke] [--trace-out PATH] [--corrupt-digest]
 *
 * Workloads: kube-zonekill-10k, replan-100k, serve-cap50 (see
 * perfbench/README.md). The run is single-threaded. It prints a
 * readable table, then one "perfbench-report {...}" line with every
 * number the run took, and last one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * holding the gated end-to-end metrics (untraced run) or the per-layer
 * metrics (--trace 1). A failed output check prints correct=false and
 * exits 1; bad arguments exit 2 without a result.
 */

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload kube-zonekill-10k|"
                 "replan-100k|serve-cap50 [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale full|smoke] [--trace-out PATH] "
                 "[--corrupt-digest]\n";
    std::exit(2);
}

bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corrupt-digest") {
            options.corruptDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        uint64_t number = 0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, options.seed))
                usage("bad --seed " + value);
        } else if (arg == "--seconds") {
            if (!parseUnsigned(value, number) || number < 1 || number > 3600)
                usage("bad --seconds " + value);
            options.seconds = static_cast<double>(number);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            options.trace = value == "1";
        } else if (arg == "--scale") {
            if (value != "full" && value != "smoke")
                usage("bad --scale " + value);
            options.scale = value == "full" ? Scale::Full : Scale::Smoke;
        } else if (arg == "--trace-out") {
            options.traceOut = value;
        } else {
            usage("unknown flag " + arg);
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << std::setprecision(17) << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << quoted(metrics[i].name)
           << ": {\"value\": " << metrics[i].value
           << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::cout << title << "\n";
    for (const Metric &m : metrics) {
        std::cout << "  " << std::left << std::setw(28) << m.name
                  << std::right << std::setw(16) << std::setprecision(6)
                  << m.value << "  " << m.unit << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    Result result;
    if (options.workload == "kube-zonekill-10k")
        result = runKubeZoneKill(options);
    else if (options.workload == "replan-100k")
        result = runReplan(options);
    else if (options.workload == "serve-cap50")
        result = runServeCap50(options);
    else
        usage("unknown workload " + options.workload);

    for (const auto *list :
         {&result.endToEnd, &result.report, &result.perLayer}) {
        for (const Metric &m : *list) {
            if (!std::isfinite(m.value))
                result.fail("metric " + m.name + " is not finite");
        }
    }
    const bool correct = result.errors.empty();

    std::cout << "perfbench " << options.workload << " seed "
              << options.seed << " seconds " << options.seconds
              << (options.trace ? " traced" : "") << "\n";
    printTable("end-to-end (gated):", result.endToEnd);
    printTable("workload metrics:", result.report);
    if (options.trace) {
        // Layer shares of the traced pass's host time.
        double host = 0.0;
        for (const Metric &m : result.perLayer) {
            if (m.name == "trace.host_s")
                host = m.value;
        }
        std::cout << "per-layer (traced pass, share of "
                  << std::setprecision(6) << host << " host s):\n";
        for (const Metric &m : result.perLayer) {
            std::cout << "  " << std::left << std::setw(28) << m.name
                      << std::right << std::setw(16) << m.value << "  "
                      << m.unit;
            if (m.unit == "s" && host > 0.0 && m.name != "trace.host_s")
                std::cout << "  (" << std::setprecision(3)
                          << 100.0 * m.value / host << "%)"
                          << std::setprecision(6);
            std::cout << "\n";
        }
    }
    if (options.trace)
        printTable("span self time (traced pass):", result.selfTimes);
    for (const std::string &error : result.errors)
        std::cout << "CHECK FAILED: " << error << "\n";

    std::cout << "perfbench-report {\"workload\": " << quoted(options.workload)
              << ", \"seed\": " << options.seed << ", \"correct\": "
              << (correct ? "true" : "false")
              << ", \"end_to_end\": " << metricsJson(result.endToEnd)
              << ", \"report\": " << metricsJson(result.report)
              << ", \"per_layer\": " << metricsJson(result.perLayer) << "}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": "
              << metricsJson(options.trace ? result.perLayer
                                           : result.endToEnd)
              << "}" << std::endl;
    return correct ? 0 : 1;
}
