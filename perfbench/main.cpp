/**
 * @file
 * coopbench: one workload of the coopsim benchmark in a fresh process.
 *
 *   coopbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--root DIR] [--git-rev REV] [--git-dirty 0|1]
 *   coopbench --write-ref --workload NAME --seed N [--root DIR]
 *   coopbench --setup-batch K --workload NAME --seed N [--root DIR]
 *
 * `--setup-batch` prints K cold set-up times, one per line; coopbench
 * starts itself that way to measure setup_s (see setupFloor()).
 *
 * The last stdout line is the JSON result; a `# host` line before it
 * records the host and build. See README.md for the metrics.
 */
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "sim/executor.hpp"

namespace api = coopsim::api;
namespace sim = coopsim::sim;
using namespace perfbench;

namespace
{

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

/** Forked set-ups per setup_s batch; the batch reports its fastest. */
constexpr int kSetupBatch = 256;

/** Probe time before each sweep on a host with no CPU to spare. */
constexpr double kProbeAloneSeconds = 0.5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 36.0;
    bool trace = false;
    bool write_ref = false;
    int setup_batch = 0;
    std::string root = ".";
    std::string git_rev = "unknown";
    std::string git_dirty = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "coopbench: %s\n"
                 "usage: coopbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--root DIR]\n"
                 "       coopbench --write-ref --workload NAME --seed N\n"
                 "       coopbench --setup-batch K --workload NAME "
                 "--seed N\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-ref") {
            args.write_ref = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (flag == "--setup-batch") {
                args.setup_batch = std::stoi(value);
            } else if (flag == "--root") {
                args.root = value;
            } else if (flag == "--git-rev") {
                args.git_rev = value;
            } else if (flag == "--git-dirty") {
                args.git_dirty = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (args.workload.empty()) {
        usage("--workload is required");
    }
    return args;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<unsigned>(CPU_COUNT(&set));
    }
    return 1;
}

double
loadAverage1m()
{
    double load = 0.0;
    std::ifstream in("/proc/loadavg");
    in >> load;
    return load;
}

/**
 * One setup_s sample: the fastest of kSetupBatch cold set-ups. They
 * run in a freshly started `coopbench --setup-batch` (this process has
 * warm registries), so each forked set-up is what a new user process
 * pays. The fastest of a batch drops set-ups slowed by contention on
 * the host; the run reports the median over its batches, each rescaled
 * by the host probe that ran beside it.
 */
double
setupFloor(const Args &args, const Workload &workload, std::uint64_t seed)
{
    const std::vector<std::string> words = {
        "coopbench",  "--setup-batch", std::to_string(kSetupBatch),
        "--workload", workload.name,   "--seed",
        std::to_string(seed), "--root", args.root};
    std::vector<char *> argv;
    for (const std::string &word : words) {
        argv.push_back(const_cast<char *>(word.c_str()));
    }
    argv.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0) {
        throw std::runtime_error("pipe failed");
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        close(fds[0]);
        dup2(fds[1], STDOUT_FILENO);
        close(fds[1]);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string text;
    char buffer[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buffer, sizeof(buffer))) > 0) {
        text.append(buffer, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    std::istringstream in(text);
    std::vector<double> samples;
    for (double value = 0.0; in >> value;) {
        samples.push_back(value);
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        samples.size() != static_cast<std::size_t>(kSetupBatch)) {
        throw std::runtime_error("set-up batch failed");
    }
    return *std::min_element(samples.begin(), samples.end());
}

/**
 * Runs @p work(probe) and returns the host probe's ms per slice while
 * it ran. With a CPU to spare (@p beside) the probe runs on it for the
 * whole of @p work, so both see the same host; otherwise it runs just
 * before @p work and @p work gets no probe.
 */
template <typename Work>
double
probed(bool beside, Work work)
{
    if (!beside) {
        const double probe_ms = HostProbe::measure(kProbeAloneSeconds);
        work(nullptr);
        return probe_ms;
    }
    HostProbe probe;
    probe.start();
    work(&probe);
    return probe.stop();
}

int
writeReferenceFiles(const Args &args, const Workload &workload,
                    const api::ExperimentSpec &spec)
{
    const Reference none;
    const SweepOutcome sweep = runSweep(spec, none);
    if (sweep.failed != 0) {
        std::fprintf(stderr, "coopbench: %" PRIu64 " runs failed\n",
                     sweep.failed);
        return 1;
    }
    Reference ref;
    for (const RunLine &line : sweep.lines) {
        ref.line_hash[line.key] = fnv1a64(line.line);
    }
    if (isSampled(spec)) {
        ref.exact_ws = exactWeightedSpeedups(spec);
    }
    const std::string path =
        referencePath(args.root, workload.name, args.seed);
    writeReference(path,
                   "coopbench reference: " + workload.name + " seed " +
                       std::to_string(args.seed) + ", " +
                       std::to_string(sweep.lines.size()) + " RunKeys",
                   ref);
    std::fprintf(stderr, "coopbench: wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *workload = nullptr;
    try {
        workload = &workloadByName(args.workload);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    if (!std::ifstream(args.root + "/" + workload->spec_file)) {
        std::fprintf(stderr, "coopbench: %s/%s not found\n",
                     args.root.c_str(), workload->spec_file.c_str());
        return 2;
    }
    const std::uint64_t seed =
        args.write_ref ? args.seed : workloadSeed(args.seed);
    const unsigned cpus = hostCpus();
    const unsigned concurrency = std::min(kConcurrency, cpus);
    const bool probe_beside = cpus > concurrency;

    try {
        if (args.setup_batch > 0) {
            // A fresh process: its forked children start cold.
            for (const double value : forkedSetupSamples(
                     *workload, args.root, seed, args.setup_batch)) {
                std::printf("%.9e\n", value);
            }
            return 0;
        }
        api::ExperimentSpec spec;
        setupOnce(*workload, args.root, seed, &spec);

        // Workers plus the collecting caller equal the concurrency; the
        // executor cannot run zero workers, so a one-CPU host still
        // gets one worker and the caller (recorded in the host line).
        sim::RunExecutor::instance().setThreads(
            args.write_ref ? std::max(1u, cpus - 1)
                           : std::max(1u, concurrency - 1));
        if (args.write_ref) {
            return writeReferenceFiles(args, *workload, spec);
        }

        const Reference ref =
            loadReference(referencePath(args.root, workload->name, seed));
        if (!ref.loaded) {
            std::fprintf(stderr, "coopbench: no reference for %s seed %"
                                 PRIu64 "\n",
                         workload->name.c_str(), seed);
            return 3;
        }

        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::vector<SweepOutcome> sweeps;
        std::vector<double> walls;
        std::vector<double> setup_floors;
        double peak_rss_mb = 0.0;
        MetricValues metrics;
        const auto start = std::chrono::steady_clock::now();
        const auto elapsed = [&] {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };
        // Timed repetitions: at least one, then as many more as fit in
        // the measuring time (the traced run measures one sweep). Each
        // untraced repetition takes one setup_s batch first, so the
        // set-up samples spread over the run like the sweeps. Both are
        // timed with the host probe and rescaled to the reference host.
        do {
            if (args.trace) {
                sweeps.push_back(runSweep(spec, ref));
            } else {
                double fastest = 0.0;
                const double setup_probe_ms =
                    probed(probe_beside, [&](const HostProbe *) {
                        fastest = setupFloor(args, *workload, seed);
                    });
                setup_floors.push_back(fastest /
                                       hostSlowdown(setup_probe_ms));
                SweepOutcome sweep;
                const double sweep_probe_ms =
                    probed(probe_beside, [&](const HostProbe *probe) {
                        sweep = runSweep(spec, ref, probe);
                    });
                sweep.probe_ms = sweep_probe_ms;
                sweeps.push_back(std::move(sweep));
            }
            SweepOutcome &sweep = sweeps.back();
            attempted += sweep.attempted;
            failed += sweep.failed;
            walls.push_back(sweep.wall_s);
            if (walls.size() == 1) {
                // The first sweep's peak is what a user's process
                // reaches; later repetitions only add allocator
                // fragmentation from the cleared memo.
                peak_rss_mb = peakRssMiB();
            }
            if (args.trace) {
                metrics = runTraced(spec, sweep, concurrency, attempted,
                                    failed);
                break;
            }
            sweep.lines.clear();
        } while (elapsed() + median(walls) <= args.seconds);

        if (!args.trace) {
            metrics = endToEndValues(sweeps, setup_floors, peak_rss_mb);
        }
        std::printf("# %s seed=%" PRIu64 " (workload seed %" PRIu64
                    ") samp_err_pct=%.4f failed=%" PRIu64 "/%" PRIu64
                    " sweep_s:",
                    workload->name.c_str(), args.seed, seed,
                    sweeps.back().samp_err_pct, failed, attempted);
        for (const double wall : walls) {
            std::printf(" %.4f", wall);
        }
        std::printf(" cpu_s:");
        for (const SweepOutcome &sweep : sweeps) {
            std::printf(" %.4f", sweep.cpu_s);
        }
        std::printf(" probe_ms:");
        for (const SweepOutcome &sweep : sweeps) {
            std::printf(" %.4f", sweep.probe_ms);
        }
        std::printf(" setup_ref_us:");
        for (const double floor : setup_floors) {
            std::printf(" %.1f", floor * 1e6);
        }
        std::printf("\n");
        std::printf("# host {\"nproc\": %u, \"concurrency\": %u, "
                    "\"executor_workers\": %u, \"host_probe\": \"%s\", "
                    "\"compiler\": \"%s\", "
                    "\"git_rev\": \"%s\", \"git_dirty\": \"%s\", "
                    "\"loadavg_1m\": %.2f}\n",
                    cpus, concurrency, sim::RunExecutor::instance().threads(),
                    args.trace ? "off" : probe_beside ? "beside" : "before",
                    kCompiler, args.git_rev.c_str(),
                    args.git_dirty.c_str(), loadAverage1m());
        std::printf("%s\n",
                    resultJson(failed == 0, attempted, failed, metrics,
                               args.trace ? perLayerMetrics()
                                          : endToEndMetrics())
                        .c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "coopbench: %s\n", e.what());
        return 1;
    }
}
