#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <stdexcept>
#include <vector>

#include "bench.hpp"

namespace perfbench
{

namespace
{

constexpr std::size_t kSets = 4096;
constexpr std::size_t kWays = 16;
/** Replayed deltas, read in order like a memoized op stream. With the
 *  cache model's 768 KiB of state the kernel stays in a core's L2, so
 *  it neither competes with the sweep for the shared L3 nor grows the
 *  process much. */
constexpr std::size_t kStreamWords = std::size_t{1} << 16;

using Clock = std::chrono::steady_clock;

/** Where the kernel's result goes, so its work cannot be optimised
 *  away. */
std::atomic<std::uint64_t> g_probe_cycles{0};

const std::vector<std::uint32_t> &
referenceStream()
{
    static const std::vector<std::uint32_t> stream = [] {
        std::vector<std::uint32_t> words(kStreamWords);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint32_t &word : words) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            word = static_cast<std::uint32_t>(x >> 32);
        }
        return words;
    }();
    return stream;
}

/** State of the reference kernel's cache model. */
struct ProbeCache
{
    std::vector<std::uint64_t> tags =
        std::vector<std::uint64_t>(kSets * kWays);
    std::vector<std::uint32_t> stamps =
        std::vector<std::uint32_t>(kSets * kWays);
    std::uint64_t addr = 0;
    std::uint32_t clock = 0;

    void
    reset()
    {
        std::fill(tags.begin(), tags.end(), ~std::uint64_t{0});
        std::fill(stamps.begin(), stamps.end(), 0);
        addr = 0;
        clock = 0;
    }
};

/**
 * The one cache model every probe uses (probes never overlap). It is
 * allocated once and never freed: freeing a block this large would
 * raise glibc's mmap threshold and change how the simulator's own
 * allocations are served, and with them peak_rss_mb.
 */
ProbeCache &
probeCache()
{
    static ProbeCache cache;
    return cache;
}

/**
 * One slice of the reference kernel: kHostProbeSliceOps accesses of a
 * 16-way LRU cache model fed by the fixed stream, with a miss-latency
 * accumulator standing in for the core model. Returns the accumulated
 * cycles so the work cannot be optimised away.
 */
std::uint64_t
probeSlice(ProbeCache &cache, std::uint64_t slice)
{
    const std::vector<std::uint32_t> &stream = referenceStream();
    std::uint64_t cycles = 0;
    std::uint64_t addr = cache.addr;
    for (std::uint64_t i = 0; i < kHostProbeSliceOps; ++i) {
        const std::uint32_t d =
            stream[(slice * kHostProbeSliceOps + i) & (kStreamWords - 1)];
        if ((d & 3) != 0) {
            addr += 64 * ((d >> 2) & 7);
        } else {
            addr = (addr ^ (std::uint64_t{d} << 4)) & 0x3ffffffffULL;
        }
        const std::size_t set = (addr >> 6) & (kSets - 1);
        const std::uint64_t tag = addr >> 18;
        std::uint64_t *way_tags = &cache.tags[set * kWays];
        std::uint32_t *way_stamps = &cache.stamps[set * kWays];
        std::size_t hit = kWays;
        std::size_t victim = 0;
        for (std::size_t w = 0; w < kWays; ++w) {
            if (way_tags[w] == tag) {
                hit = w;
            }
            if (way_stamps[w] < way_stamps[victim]) {
                victim = w;
            }
        }
        if (hit != kWays) {
            way_stamps[hit] = ++cache.clock;
            cycles += 3 + (cycles & 1);
        } else {
            way_tags[victim] = tag;
            way_stamps[victim] = ++cache.clock;
            cycles += 40 + (d >> 28);
        }
    }
    cache.addr = addr;
    return cycles;
}

/** Runs slices until @p done says stop; returns ms per slice. */
template <typename Done>
double
runSlices(Done done)
{
    ProbeCache &cache = probeCache();
    cache.reset();
    std::uint64_t slices = 0;
    std::uint64_t cycles = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1 = t0;
    // At least one slice, so a probe stopped at once still measures.
    do {
        cycles += probeSlice(cache, slices);
        ++slices;
        t1 = Clock::now();
    } while (!done(t1 - t0));
    g_probe_cycles.fetch_add(cycles, std::memory_order_relaxed);
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           static_cast<double>(slices);
}

} // namespace

HostProbe::~HostProbe()
{
    if (thread_.joinable()) {
        stop();
    }
}

void
HostProbe::start()
{
    referenceStream();
    probeCache();
    stop_.store(false);
    thread_ = std::thread([this] {
        slice_ms_ = runSlices([this](Clock::duration) {
            return stop_.load(std::memory_order_relaxed);
        });
    });
    if (pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) != 0) {
        stop();
        throw std::runtime_error("host probe CPU clock unavailable");
    }
}

double
HostProbe::stop()
{
    stop_.store(true);
    thread_.join();
    return slice_ms_;
}

double
HostProbe::cpuSeconds() const
{
    timespec ts{};
    if (clock_gettime(cpu_clock_, &ts) != 0) {
        throw std::runtime_error("host probe CPU clock unreadable");
    }
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
HostProbe::measure(double seconds)
{
    referenceStream();
    probeCache();
    const auto limit = std::chrono::duration<double>(seconds);
    return runSlices([limit](Clock::duration elapsed) {
        return elapsed >= limit;
    });
}

} // namespace perfbench
