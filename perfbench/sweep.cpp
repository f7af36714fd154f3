#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "bench.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"

namespace perfbench
{

namespace api = coopsim::api;
namespace sim = coopsim::sim;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

double
setupOnce(const Workload &workload, const std::string &root,
          std::uint64_t seed, api::ExperimentSpec *spec_out)
{
    const double c0 = cpuSeconds();
    api::warmAllRegistries();
    api::ExperimentSpec spec = loadSpec(workload, root, seed);
    const std::vector<sim::RunKey> keys = api::expandSpec(spec);
    const double elapsed = cpuSeconds() - c0;
    if (keys.empty()) {
        throw std::runtime_error("workload expands to no RunKeys");
    }
    if (spec_out != nullptr) {
        *spec_out = std::move(spec);
    }
    return elapsed;
}

std::vector<double>
forkedSetupSamples(const Workload &workload, const std::string &root,
                   std::uint64_t seed, int samples)
{
    std::vector<double> out;
    for (int s = 0; s < samples; ++s) {
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
            double value = -1.0;
            try {
                value = setupOnce(workload, root, seed, nullptr);
            } catch (...) {
            }
            const ssize_t n = write(fds[1], &value, sizeof(value));
            _exit(n == sizeof(value) ? 0 : 1);
        }
        close(fds[1]);
        double value = -1.0;
        const ssize_t n = read(fds[0], &value, sizeof(value));
        close(fds[0]);
        int status = 0;
        waitpid(pid, &status, 0);
        if (n != sizeof(value) || value <= 0.0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            throw std::runtime_error("set-up sample failed");
        }
        out.push_back(value);
    }
    return out;
}

namespace
{

/** printTable with stdout sent to /dev/null: the table is rendered
 *  (and paid for) on every repetition without flooding the output. */
void
renderTable(const api::ExperimentResults &results)
{
    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);
    const int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, STDOUT_FILENO);
    close(null_fd);
    api::printTable(results);
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    close(saved);
}

/** Checks every sampled group cell against the exact reference;
 *  returns the cells outside their own CI and sets the mean error. */
std::uint64_t
checkSampledCells(const api::ExperimentResults &results,
                  const Reference &ref, SweepOutcome &out)
{
    std::uint64_t outside = 0;
    double err_sum = 0.0;
    std::uint64_t cells = 0;
    for (const auto &group : results.groups()) {
        for (const std::string &part : results.spec().partitioners) {
            api::Cell cell;
            cell.group = group.name;
            cell.partitioner = part;
            ++cells;
            const auto it = ref.exact_ws.find(cellKey(group.name, part));
            if (it == ref.exact_ws.end()) {
                ++outside;
                continue;
            }
            const double ws = results.weightedSpeedup(cell);
            const double ci = results.weightedSpeedupCi(cell);
            const double diff = std::fabs(ws - it->second);
            err_sum += diff / it->second;
            if (diff > ci) {
                ++outside;
            }
        }
    }
    out.attempted += cells;
    out.samp_err_pct =
        cells > 0 ? 100.0 * err_sum / static_cast<double>(cells) : 0.0;
    return outside;
}

} // namespace

MetricValues
endToEndValues(const std::vector<SweepOutcome> &sweeps,
               const std::vector<double> &setup_s, double peak_rss_mb)
{
    std::vector<double> walls;
    std::vector<double> mips;
    for (const SweepOutcome &sweep : sweeps) {
        if (sweep.probe_ms <= 0.0) {
            throw std::logic_error("sweep timed without a host probe");
        }
        const double slowdown = hostSlowdown(sweep.probe_ms);
        walls.push_back(sweep.wall_s / slowdown);
        mips.push_back(sweep.insts / (sweep.cpu_s / slowdown) / 1e6);
    }
    return {{"sweep_s", median(walls)},
            {"sim_mips", median(mips)},
            {"setup_s", median(setup_s)},
            {"peak_rss_mb", peak_rss_mb}};
}

std::map<std::string, double>
exactWeightedSpeedups(api::ExperimentSpec spec)
{
    spec.sampling = {"exact"};
    const api::ExperimentResults results(spec);
    std::map<std::string, double> out;
    for (const auto &group : results.groups()) {
        for (const std::string &part : spec.partitioners) {
            api::Cell cell;
            cell.group = group.name;
            cell.partitioner = part;
            out[cellKey(group.name, part)] = results.weightedSpeedup(cell);
        }
    }
    return out;
}

SweepOutcome
runSweep(const api::ExperimentSpec &spec, const Reference &ref,
         const HostProbe *beside)
{
    const auto sweepCpu = [beside] {
        return cpuSeconds() -
               (beside != nullptr ? beside->cpuSeconds() : 0.0);
    };
    sim::RunExecutor &executor = sim::RunExecutor::instance();
    sim::StreamCache &streams = sim::StreamCache::instance();
    executor.clear();
    streams.clear();
    streams.resetStats();

    SweepOutcome out;
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = sweepCpu();

    const api::ExperimentResults results(spec);
    const std::vector<sim::RunKey> &keys = results.keys();
    std::vector<const sim::RunResult *> collected(keys.size(), nullptr);
    std::uint64_t run_failures = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        try {
            collected[i] = &executor.run(keys[i]);
        } catch (const sim::RunFailure &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
            ++run_failures;
        }
    }
    if (run_failures == 0) {
        renderTable(results);
    }

    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.cpu_s = sweepCpu() - c0;
    const sim::StreamCache::Stats stream_stats = streams.stats();
    out.streams_generated = stream_stats.streams_generated;
    out.streams_replayed = stream_stats.streams_replayed;

    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (collected[i] == nullptr) {
            continue;
        }
        out.lines.push_back({api::formatRunKey(keys[i]),
                             coopsim::store::formatStoreLine(
                                 keys[i], *collected[i])});
        for (const sim::AppResult &app : collected[i]->apps) {
            out.insts += static_cast<double>(app.insts);
        }
    }
    out.attempted = keys.size();
    out.failed = ref.loaded ? countMismatches(out.lines, ref) : run_failures;
    if (isSampled(spec) && run_failures == 0 && ref.loaded) {
        out.failed += checkSampledCells(results, ref, out);
    }
    return out;
}

} // namespace perfbench
