/**
 * @file
 * The pieces of the coopsim benchmark that its tests check directly:
 * workload definitions, the seed rule, the metric catalogue, the
 * correctness gate against committed references, and the result line.
 *
 * main.cpp drives the timed sweeps and layers.cpp the traced run; both
 * only combine what is declared here.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <atomic>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.hpp"

namespace perfbench
{

/** Busy simulation threads of a timed sweep: one executor worker plus
 *  the collecting caller (RunExecutor::run helps drain the queue). */
inline constexpr unsigned kConcurrency = 2;

/** One named benchmark workload: a committed spec plus overrides. */
struct Workload
{
    std::string name;
    /** Spec file, relative to the repository root. */
    std::string spec_file;
    /** Replaces the spec's group axis when non-empty. */
    std::vector<std::string> groups;
    /** Replaces the spec's sampling axis when non-empty. */
    std::string sampling;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload named @p name; throws std::invalid_argument. */
const Workload &workloadByName(const std::string &name);

/** Workload seeds with committed references: 42 and one held-out
 *  seed. */
const std::vector<std::uint64_t> &referenceSeeds();

/**
 * The workload seed that `--seed N` selects: N itself when it has a
 * committed reference, otherwise the reference seed at N mod 2. The
 * same argument always selects the same inputs, and every input the
 * benchmark can run has a reference to check it against.
 */
std::uint64_t workloadSeed(std::uint64_t seed_arg);

/**
 * The spec the user path runs for @p workload: parsed from
 * `<root>/<spec_file>`, with the workload's overrides and @p seed as
 * the only seed. Nothing else differs between seeds.
 */
coopsim::api::ExperimentSpec loadSpec(const Workload &workload,
                                      const std::string &root,
                                      std::uint64_t seed);

/** True when @p spec runs a sampling mode other than exact: its
 *  results are estimates, checked against an exact reference
 *  (samp_err_pct) on top of the bit-exact store lines. */
bool isSampled(const coopsim::api::ExperimentSpec &spec);

/** A metric as BENCHMARK.json declares it. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;
};

/** Metrics of every untraced run (`--trace 0`). */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of every traced run (`--trace 1`). */
const std::vector<MetricDef> &perLayerMetrics();

/** True when @p name matches [A-Za-z0-9_.-]+ and starts with a letter
 *  or digit. */
bool validMetricName(const std::string &name);

// ---------------------------------------------------------------------------
// Correctness gate

/** FNV-1a 64-bit hash. */
std::uint64_t fnv1a64(const std::string &text);

/** One collected run: its formatted key and its store line. */
struct RunLine
{
    std::string key;
    std::string line;
};

/** A committed reference for one (workload, seed). */
struct Reference
{
    bool loaded = false;
    /** formatRunKey -> fnv1a64(formatStoreLine). */
    std::map<std::string, std::uint64_t> line_hash;
    /** "<group> <partitioner>" -> exact weighted speedup (sampled
     *  workloads only). */
    std::map<std::string, double> exact_ws;
};

/** `<root>/perfbench/ref/<workload>.seed<seed>.txt`. */
std::string referencePath(const std::string &root,
                          const std::string &workload,
                          std::uint64_t seed);

/** Parses a reference file; loaded stays false when it is missing. */
Reference loadReference(const std::string &path);

/** Writes @p ref in the format loadReference() reads. */
void writeReference(const std::string &path, const std::string &title,
                    const Reference &ref);

/**
 * Runs of @p lines whose store line differs from the reference, or
 * whose key the reference does not list. Keys the reference lists but
 * @p lines lacks are counted too, so a dropped run fails the gate.
 */
std::uint64_t countMismatches(const std::vector<RunLine> &lines,
                              const Reference &ref);

/** Cell key used by Reference::exact_ws. */
std::string cellKey(const std::string &group,
                    const std::string &partitioner);

// ---------------------------------------------------------------------------
// Statistics and output

/** Linear-interpolated quantile @p q in [0, 1] (0 for an empty set). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

using MetricValues = std::map<std::string, double>;

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * every metric of @p defs (and only those) as {"value", "unit"}.
 * Throws std::logic_error when @p values lacks a metric of @p defs.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricValues &values,
                       const std::vector<MetricDef> &defs);

// ---------------------------------------------------------------------------
// Host speed (hostprobe.cpp)

/** Accesses of the host probe's reference kernel per slice. */
inline constexpr std::uint64_t kHostProbeSliceOps = 65536;

/** ms per slice of the reference kernel on the reference host, the
 *  speed end-to-end timings are rescaled to: a 4-vCPU Intel Xeon VM,
 *  gcc 12.2 -O3, with the sweep running beside the probe. */
inline constexpr double kReferenceSliceMs = 2.5;

/** Host seconds per reference-host second while a probe read
 *  @p probe_ms: above 1 when the host runs slower than the reference. */
inline double
hostSlowdown(double probe_ms)
{
    return probe_ms / kReferenceSliceMs;
}

/**
 * Measures how fast the host runs now by timing a fixed reference
 * kernel (a small LRU cache model replaying a fixed stream) in slices.
 * The kernel's code and input never change between commits, so the
 * ratio of a sweep's time to the probe's slice time removes the
 * host's drift and keeps what the simulator's code changed.
 */
class HostProbe
{
  public:
    HostProbe() = default;
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;
    ~HostProbe();

    /** Starts slices on a thread of its own, beside the caller. */
    void start();
    /** Stops the thread; returns its mean ms per slice. */
    double stop();
    /** CPU-seconds the started thread has used so far. */
    double cpuSeconds() const;

    /** Runs slices on the calling thread for about @p seconds; returns
     *  the mean ms per slice. */
    static double measure(double seconds);

  private:
    std::thread thread_;
    clockid_t cpu_clock_{};
    std::atomic<bool> stop_{false};
    double slice_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Sweeps (sweep.cpp, layers.cpp)

/** One timed pass of the user path and what its gate found. */
struct SweepOutcome
{
    double wall_s = 0.0;
    /** Process CPU-seconds over the same interval (all threads). */
    double cpu_s = 0.0;
    /** Σ AppResult.insts over every collected run. */
    double insts = 0.0;
    /** RunKeys plus (sampled workloads) group cells checked. */
    std::uint64_t attempted = 0;
    /** Runs that threw, differ from the reference, or are missing,
     *  plus sampled cells outside their own CI. */
    std::uint64_t failed = 0;
    /** Mean |sampled - exact| / exact weighted speedup, in percent
     *  (0 for exact workloads). */
    double samp_err_pct = 0.0;
    std::uint64_t streams_generated = 0;
    std::uint64_t streams_replayed = 0;
    /** HostProbe ms per slice while the sweep ran (0 = not probed). */
    double probe_ms = 0.0;
    std::vector<RunLine> lines;
};

/**
 * Runs @p spec once through the user path from a cleared executor memo
 * and stream cache: ExperimentResults (expand + prefetch), collect
 * every RunKey, render the table (to /dev/null). Timing covers first
 * submission to rendered table; the gate against @p ref runs after.
 * An unloaded @p ref skips the gate (reference writing). The CPU time
 * of a probe running @p beside is left out of cpu_s.
 */
SweepOutcome runSweep(const coopsim::api::ExperimentSpec &spec,
                      const Reference &ref,
                      const HostProbe *beside = nullptr);

/** Every end-to-end metric of an untraced run: medians over the timed
 *  @p sweeps (each rescaled to the reference host speed by its
 *  probe_ms, see hostSlowdown()) and over @p setup_s (one set-up floor
 *  per batch, see forkedSetupSamples(), already rescaled), plus peak
 *  RSS. Throws std::logic_error when a sweep was not probed. */
MetricValues endToEndValues(const std::vector<SweepOutcome> &sweeps,
                            const std::vector<double> &setup_s,
                            double peak_rss_mb);

/** Exact weighted speedup of every (group, partitioner) cell of
 *  @p spec with its sampling axis forced to exact — the reference a
 *  sampled workload's samp_err_pct is computed against. */
std::map<std::string, double>
exactWeightedSpeedups(coopsim::api::ExperimentSpec spec);

/** Process CPU-seconds (all threads) since process start. */
double cpuSeconds();

/** VmHWM of this process in MiB (0 when /proc is unavailable). */
double peakRssMiB();

/**
 * The user path up to the first submission: registries (which build
 * the G8-G64 mixes), spec parse and RunKey expansion. Returns the CPU
 * time it took (the caller is single-threaded, so this is its wall
 * time minus any time descheduled) and, when @p spec_out is set, the
 * parsed spec. Only the first call in a process pays for the
 * registries.
 */
double setupOnce(const Workload &workload, const std::string &root,
                 std::uint64_t seed,
                 coopsim::api::ExperimentSpec *spec_out);

/**
 * @p samples set-up times, each from a child forked off the calling
 * process that runs setupOnce() and reports over a pipe. The children
 * pay a fresh process's set-up only when the caller has not warmed
 * the registries itself; coopbench therefore calls this from a
 * freshly started process (`--setup-batch`). Throws when a child
 * fails.
 */
std::vector<double> forkedSetupSamples(const Workload &workload,
                                       const std::string &root,
                                       std::uint64_t seed, int samples);

/**
 * The traced run's per-layer metrics (every perLayerMetrics() name):
 * a serial pass over @p spec's RunKeys plus layer probes driven by the
 * workload's own streams; @p sweep is the traced run's timed sweep.
 * Runs whose serial line differs from the sweep's add to @p failed.
 */
MetricValues runTraced(const coopsim::api::ExperimentSpec &spec,
                       const SweepOutcome &sweep, unsigned concurrency,
                       std::uint64_t &attempted, std::uint64_t &failed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
