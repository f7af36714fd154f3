/**
 * @file
 * Microbenchmarks of the LLC access hot path under each scheme
 * (google-benchmark): simulator throughput, not simulated metrics.
 */

#include <benchmark/benchmark.h>

#include "api/registry.hpp"
#include "common/rng.hpp"

using namespace coopsim;

namespace
{

llc::LlcConfig
benchConfig()
{
    llc::LlcConfig config;
    config.geometry = {512ull * 8 * 64, 8, 64};
    config.num_cores = 2;
    config.umon_sample_period = 4;
    return config;
}

void
runAccessLoop(benchmark::State &state, const char *scheme)
{
    mem::DramModel dram;
    const auto llc = api::makeLlcByName(scheme, benchConfig(), dram);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        const CoreId core = static_cast<CoreId>(rng.nextBelow(2));
        const Addr addr = (static_cast<Addr>(core + 1) << 40) |
                          (rng.nextBelow(1u << 15) << 6);
        now += 3;
        benchmark::DoNotOptimize(
            llc->access(core, addr, AccessType::Read, now));
    }
}

} // namespace

static void
BM_LlcUnmanaged(benchmark::State &state)
{
    runAccessLoop(state, "unmanaged");
}
BENCHMARK(BM_LlcUnmanaged);

static void
BM_LlcFairShare(benchmark::State &state)
{
    runAccessLoop(state, "fairshare");
}
BENCHMARK(BM_LlcFairShare);

static void
BM_LlcUcp(benchmark::State &state)
{
    runAccessLoop(state, "ucp");
}
BENCHMARK(BM_LlcUcp);

static void
BM_LlcCooperative(benchmark::State &state)
{
    runAccessLoop(state, "coop");
}
BENCHMARK(BM_LlcCooperative);
