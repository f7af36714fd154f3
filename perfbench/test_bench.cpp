/**
 * @file
 * Tests of the benchmark's own code. Run with the repository root as
 * the only argument (ctest passes it):
 *
 *   perfbench_tests /path/to/repo
 */
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/spec.hpp"
#include "bench.hpp"
#include "sim/executor.hpp"

using namespace perfbench;

namespace
{

int g_failures = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            ++g_failures;                                                 \
        }                                                                 \
    } while (0)

std::string g_root;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The workload's spec shrunk to test scale, so a real sweep of every
 *  workload fits in a unit test. */
coopsim::api::ExperimentSpec
testScaleSpec(const Workload &workload)
{
    coopsim::api::ExperimentSpec spec = loadSpec(workload, g_root, 42);
    spec.scale = "test";
    return spec;
}

void
testMetricNames()
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *defs) {
            CHECK(validMetricName(def.name));
            CHECK(!def.unit.empty() && def.unit.size() <= 16);
            CHECK(def.better == "lower" || def.better == "higher");
        }
    }
    CHECK(!validMetricName(""));
    CHECK(!validMetricName(".share"));
    CHECK(!validMetricName("llc access"));
    CHECK(!validMetricName("sweep_s\""));
    CHECK(validMetricName("partition.decide_us.lookahead"));
}

/** BENCHMARK.json declares exactly the metrics the code emits. */
void
testBenchmarkJsonMatchesCode()
{
    const std::string json = readFile(g_root + "/BENCHMARK.json");
    CHECK(!json.empty());
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *defs) {
            const std::string entry = "\"name\": \"" + def.name +
                                      "\", \"unit\": \"" + def.unit +
                                      "\", \"better\": \"" + def.better +
                                      "\"";
            CHECK(json.find(entry) != std::string::npos);
        }
    }
    for (const Workload &w : workloads()) {
        CHECK(json.find("\"name\": \"" + w.name + "\"") !=
              std::string::npos);
    }
}

/** A real (test-scale) sweep of every workload, real forked set-ups
 *  and the process's own peak RSS yield every end-to-end metric,
 *  positive and with its unit. */
void
testEveryWorkloadEmitsEveryMetric()
{
    coopsim::sim::RunExecutor::instance().setThreads(1);
    for (const Workload &w : workloads()) {
        const std::vector<double> setup_s =
            forkedSetupSamples(w, g_root, 42, 3);
        CHECK(setup_s.size() == 3);
        HostProbe probe;
        probe.start();
        SweepOutcome sweep =
            runSweep(testScaleSpec(w), Reference{}, &probe);
        sweep.probe_ms = probe.stop();
        CHECK(sweep.probe_ms > 0.0);
        CHECK(sweep.failed == 0);
        CHECK(sweep.attempted == sweep.lines.size());
        const double peak_rss_mb = peakRssMiB();
        CHECK(peak_rss_mb > 0.0);
        const MetricValues values =
            endToEndValues({sweep, sweep}, setup_s, peak_rss_mb);
        for (const MetricDef &def : endToEndMetrics()) {
            const auto it = values.find(def.name);
            CHECK(it != values.end() && it->second > 0.0);
        }
        CHECK(values.size() == endToEndMetrics().size());
        const std::string line =
            resultJson(true, sweep.attempted, 0, values, endToEndMetrics());
        for (const MetricDef &def : endToEndMetrics()) {
            CHECK(line.find("\"" + def.name + "\": {\"value\": ") !=
                  std::string::npos);
            CHECK(line.find("\"unit\": \"" + def.unit + "\"") !=
                  std::string::npos);
        }
        CHECK(line.rfind("{\"correct\": true, \"attempted\": ", 0) == 0);
    }
    bool threw = false;
    try {
        resultJson(true, 1, 0, {{"sweep_s", 1.0}}, endToEndMetrics());
    } catch (const std::logic_error &) {
        threw = true;
    }
    CHECK(threw);
}

/** A perturbed, dropped or unknown store line fails the gate. */
void
testPerturbedLineFails()
{
    const SweepOutcome sweep =
        runSweep(testScaleSpec(workloadByName("schemes-4c")), Reference{});
    Reference ref;
    ref.loaded = true;
    for (const RunLine &l : sweep.lines) {
        ref.line_hash[l.key] = fnv1a64(l.line);
    }
    writeReference("perfbench_test_ref.txt", "test", ref);
    const Reference reloaded = loadReference("perfbench_test_ref.txt");
    std::remove("perfbench_test_ref.txt");
    CHECK(reloaded.loaded);
    CHECK(reloaded.line_hash == ref.line_hash);
    CHECK(countMismatches(sweep.lines, reloaded) == 0);

    std::vector<RunLine> perturbed = sweep.lines;
    std::string &line = perturbed[3].line;
    const std::size_t digit = line.find_last_of("0123456789");
    line[digit] = line[digit] == '7' ? '8' : '7';
    CHECK(countMismatches(perturbed, reloaded) == 1);

    std::vector<RunLine> dropped = sweep.lines;
    dropped.pop_back();
    CHECK(countMismatches(dropped, reloaded) == 1);

    std::vector<RunLine> extra = sweep.lines;
    extra.push_back({"group scheme=nope", "x"});
    CHECK(countMismatches(extra, reloaded) == 1);

    // Test-scale keys are unknown to the committed bench-scale
    // reference, and every bench-scale key is missing from them.
    const Reference committed =
        loadReference(referencePath(g_root, "schemes-4c", 42));
    CHECK(committed.loaded);
    CHECK(committed.line_hash.size() == sweep.lines.size());
    CHECK(countMismatches(sweep.lines, committed) ==
          2 * sweep.lines.size());
}

/** The seed argument changes only the RunKeys' seed. */
void
testSeedOnlyChangesRunKeySeed()
{
    for (const std::uint64_t arg : {0ull, 1ull, 7ull, 42ull, 1729ull,
                                    123456789ull}) {
        const std::uint64_t seed = workloadSeed(arg);
        CHECK(seed == workloadSeed(arg));
        bool known = false;
        for (const std::uint64_t s : referenceSeeds()) {
            known = known || s == seed;
        }
        CHECK(known);
    }
    CHECK(workloadSeed(42) == 42);
    CHECK(workloadSeed(1729) == 1729);
    CHECK(workloadSeed(2) != workloadSeed(3));

    for (const Workload &w : workloads()) {
        CHECK(isSampled(loadSpec(w, g_root, 42)) == !w.sampling.empty());
        const auto base = coopsim::api::expandSpec(loadSpec(w, g_root, 42));
        const auto other =
            coopsim::api::expandSpec(loadSpec(w, g_root, 1729));
        CHECK(!base.empty());
        CHECK(base.size() == other.size());
        for (std::size_t i = 0; i < base.size() && i < other.size(); ++i) {
            CHECK(base[i].seed == 42);
            CHECK(other[i].seed == 1729);
            coopsim::sim::RunKey reseeded = other[i];
            reseeded.seed = 42;
            CHECK(reseeded == base[i]);
        }
        // Every committed reference covers exactly the expanded keys.
        for (const std::uint64_t s : referenceSeeds()) {
            const Reference ref =
                loadReference(referencePath(g_root, w.name, s));
            CHECK(ref.loaded);
            CHECK(ref.line_hash.size() == base.size());
            CHECK(w.sampling.empty() || !ref.exact_ws.empty());
        }
    }
}

/** The probe measures work done, and end-to-end timings are rescaled
 *  by it: the same sweep on a host half as fast reads the same. */
void
testHostProbeRescales()
{
    CHECK(HostProbe::measure(0.02) > 0.0);
    {
        HostProbe stopped_at_once;
        stopped_at_once.start();
        CHECK(stopped_at_once.stop() > 0.0);
    }
    SweepOutcome fast;
    fast.wall_s = 2.0;
    fast.cpu_s = 4.0;
    fast.insts = 8e9;
    fast.probe_ms = kReferenceSliceMs;
    SweepOutcome slow = fast;
    slow.wall_s = 4.0;
    slow.cpu_s = 8.0;
    slow.probe_ms = 2.0 * kReferenceSliceMs;
    const MetricValues a = endToEndValues({fast}, {1e-4}, 80.0);
    const MetricValues b = endToEndValues({slow}, {1e-4}, 80.0);
    CHECK(std::fabs(a.at("sweep_s") - 2.0) < 1e-12);
    CHECK(std::fabs(b.at("sweep_s") - 2.0) < 1e-12);
    CHECK(std::fabs(a.at("sim_mips") - 2000.0) < 1e-9);
    CHECK(std::fabs(b.at("sim_mips") - 2000.0) < 1e-9);
    bool threw = false;
    try {
        fast.probe_ms = 0.0;
        endToEndValues({fast}, {1e-4}, 80.0);
    } catch (const std::logic_error &) {
        threw = true;
    }
    CHECK(threw);
}

void
testQuantiles()
{
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({1.0, 2.0, 3.0, 4.0}) == 2.5);
    CHECK(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9) > 4.5);
    CHECK(median({}) == 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    g_root = argc > 1 ? argv[1] : "..";
    testMetricNames();
    testBenchmarkJsonMatchesCode();
    testQuantiles();
    testHostProbeRescales();
    testSeedOnlyChangesRunKeySeed();
    testEveryWorkloadEmitsEveryMetric();
    testPerturbedLineFails();
    if (g_failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}
