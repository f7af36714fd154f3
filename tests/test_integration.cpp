/**
 * @file
 * Cross-module integration tests: whole-system runs under every scheme
 * must reproduce the paper's qualitative relationships.
 */

#include <gtest/gtest.h>

#include <coopsim/experiment.hpp>

using namespace coopsim;
using namespace coopsim::sim;

namespace
{

/** Test-scale results view of every scheme on @p groups (with the
 *  solo baselines the weighted-speedup checks need). */
api::ExperimentResults
testResults(std::vector<std::string> groups)
{
    api::ExperimentSpec spec;
    spec.layout = "none";
    spec.schemes = {"unmanaged", "fairshare", "cpe", "ucp", "coop"};
    spec.groups = std::move(groups);
    spec.scale = "test";
    return api::runExperiment(spec);
}

} // namespace

TEST(Integration, WaysProbedOrderingAcrossSchemes)
{
    // Paper Section 4: Unmanaged and UCP probe every way; FairShare
    // probes its share; Cooperative probes fewer than FairShare on
    // average (2.9 vs 4 at two cores).
    const api::ExperimentResults results = testResults({"G2-2"});
    const std::string group = "G2-2";

    const double unmanaged =
        results.result({.group = group, .scheme = "unmanaged"}).avg_ways_probed;
    const double fair =
        results.result({.group = group, .scheme = "fairshare"}).avg_ways_probed;
    const double ucp =
        results.result({.group = group, .scheme = "ucp"}).avg_ways_probed;
    const double coop =
        results.result({.group = group, .scheme = "coop"})
            .avg_ways_probed;

    EXPECT_DOUBLE_EQ(unmanaged, 8.0);
    EXPECT_DOUBLE_EQ(ucp, 8.0);
    EXPECT_DOUBLE_EQ(fair, 4.0);
    EXPECT_LT(coop, fair);
}

TEST(Integration, DynamicEnergyShapeMatchesFigure6)
{
    const api::ExperimentResults results = testResults({"G2-2"});
    const std::string group = "G2-2";

    const double fair =
        results.result({.group = group, .scheme = "fairshare"})
            .dynamic_energy_nj;
    const double unmanaged =
        results.result({.group = group, .scheme = "unmanaged"})
            .dynamic_energy_nj;
    const double ucp =
        results.result({.group = group, .scheme = "ucp"}).dynamic_energy_nj;
    const double coop =
        results.result({.group = group, .scheme = "coop"})
            .dynamic_energy_nj;

    // Unmanaged ~2x FairShare; UCP slightly above Unmanaged (monitor
    // hardware); Cooperative below FairShare.
    EXPECT_NEAR(unmanaged / fair, 2.0, 0.25);
    EXPECT_GT(ucp, unmanaged);
    EXPECT_LT(coop, fair);
}

TEST(Integration, StaticEnergyOnlyGatingSchemesSave)
{
    const api::ExperimentResults results = testResults({"G2-2"});
    const std::string group = "G2-2";

    const RunResult &fair =
        results.result({.group = group, .scheme = "fairshare"});
    const RunResult &coop =
        results.result({.group = group, .scheme = "coop"});
    const RunResult &cpe =
        results.result({.group = group, .scheme = "cpe"});

    // Static energy is proportional to powered ways x time; compare
    // per cycle so runtime differences don't blur the comparison.
    const double fair_rate =
        fair.static_energy_nj / static_cast<double>(fair.total_cycles);
    const double coop_rate =
        coop.static_energy_nj / static_cast<double>(coop.total_cycles);
    const double cpe_rate =
        cpe.static_energy_nj / static_cast<double>(cpe.total_cycles);
    EXPECT_LT(coop_rate, fair_rate);
    EXPECT_LT(cpe_rate, fair_rate);
}

TEST(Integration, CooperativePerformanceIsCompetitive)
{
    // Paper: Cooperative within ~1% of UCP and never much below
    // FairShare. At the tiny Test scale we allow a wider band but the
    // ordering must hold loosely.
    const api::ExperimentResults results = testResults({"G2-8"});
    const std::string group = "G2-8";

    const double fair =
        results.weightedSpeedup({.group = group, .scheme = "fairshare"});
    const double ucp =
        results.weightedSpeedup({.group = group, .scheme = "ucp"});
    const double coop =
        results.weightedSpeedup({.group = group, .scheme = "coop"});

    EXPECT_GT(coop, 0.85 * fair);
    EXPECT_GT(coop, 0.85 * ucp);
    EXPECT_GT(fair, 0.0);
}

TEST(Integration, TakeoverMachineryOnlyActiveUnderCooperative)
{
    const api::ExperimentResults results = testResults({"G2-12"});
    const std::string group = "G2-12";

    const RunResult &fair =
        results.result({.group = group, .scheme = "fairshare"});
    EXPECT_EQ(fair.donor_hits + fair.donor_misses +
                  fair.recipient_hits + fair.recipient_misses,
              0u);
    EXPECT_EQ(fair.flushed_lines, 0u);
    EXPECT_EQ(fair.repartitions, 0u);
}

TEST(Integration, FlushSeriesAccountsForAllFlushes)
{
    const api::ExperimentResults results = testResults({"G2-12"});
    const std::string group = "G2-12";
    const RunResult &coop =
        results.result({.group = group, .scheme = "coop"});

    std::uint64_t series_total = 0;
    for (const std::uint64_t bin : coop.flush_series) {
        series_total += bin;
    }
    EXPECT_EQ(series_total, coop.flushed_lines);
}

TEST(Integration, EveryTwoCoreGroupRunsUnderEveryScheme)
{
    const api::ExperimentResults results = testResults({"G2-*"});
    for (const auto &group : results.groups()) {
        for (const std::string &scheme : results.spec().schemes) {
            const RunResult &r =
                results.result({.group = group.name, .scheme = scheme});
            ASSERT_EQ(r.apps.size(), 2u) << group.name;
            EXPECT_GT(r.apps[0].ipc, 0.0)
                << group.name << " " << scheme;
        }
    }
}

TEST(Integration, FourCoreGroupsRunUnderCooperative)
{
    api::ExperimentSpec spec;
    spec.layout = "none";
    spec.with_solo = false;
    spec.groups = {"G4-1", "G4-5", "G4-11"};
    spec.scale = "test";
    const api::ExperimentResults results = api::runExperiment(spec);
    for (const auto &group : results.groups()) {
        const RunResult &r = results.result({.group = group.name});
        ASSERT_EQ(r.apps.size(), 4u);
        EXPECT_LE(r.avg_ways_probed, 16.0);
        EXPECT_GT(r.avg_ways_probed, 0.0);
    }
}

TEST(Integration, HighMpkiAppsMeasureHigherMpki)
{
    // lbm (Table 3: 20.1) must measure far above povray (0.1) in the
    // same run.
    const api::ExperimentResults results = testResults({"G2-4"});
    const RunResult &r =
        results.result({.group = "G2-4", .scheme = "fairshare"});
    EXPECT_GT(r.apps[0].mpki, 5.0);  // lbm
    EXPECT_LT(r.apps[1].mpki, 2.0);  // povray
    EXPECT_GT(r.apps[0].mpki, 10.0 * r.apps[1].mpki);
}

TEST(Integration, DramTrafficConsistent)
{
    const api::ExperimentResults results = testResults({"G2-8"});
    const RunResult &r =
        results.result({.group = "G2-8", .scheme = "coop"});
    // Every LLC miss becomes a DRAM access (reads + writes >= misses
    // modulo warm-up reset boundary effects).
    std::uint64_t misses = 0;
    for (const auto &app : r.apps) {
        misses += app.llc_misses;
    }
    EXPECT_GT(r.dram_reads, 0u);
    EXPECT_EQ(r.dram_flushes, r.flushed_lines);
}
