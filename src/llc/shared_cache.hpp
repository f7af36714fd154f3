/**
 * @file
 * Shared last-level cache: configuration, common state and statistics
 * for all five partitioning schemes evaluated in the paper.
 *
 * BaseLlc owns the tag/state array, the connection to DRAM, the energy
 * meter and the per-core counters; the scheme subclasses in
 * llc/schemes.hpp implement the access and epoch behaviour.
 *
 * Timing convention: access() returns the cycle at which the requested
 * data is available to the core. State changes (fills, evictions) are
 * applied immediately — the usual trace-simulation approximation. A
 * scheme may additionally report the LLC as busy (DynamicCPE stalls all
 * cores during its bulk flushes).
 */

#ifndef COOPSIM_LLC_SHARED_CACHE_HPP
#define COOPSIM_LLC_SHARED_CACHE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "energy/accounting.hpp"
#include "llc/slice_hash.hpp"
#include "mem/dram.hpp"
#include "partition/partitioner.hpp"

namespace coopsim::llc
{

/**
 * How unowned ways save static energy (extension; DESIGN.md §8).
 *
 * GatedVdd is the paper's mechanism (Powell et al.): the way loses its
 * contents and its leakage entirely. Drowsy (Flautner et al., which
 * the paper's related work suggests layering on) keeps the contents in
 * a low-voltage state at a fraction of the leakage; a core that
 * re-acquires a drowsy way finds its old (clean) lines still there.
 */
enum class GatingMode : std::uint8_t
{
    GatedVdd,
    Drowsy,
};

/** Configuration of the shared LLC. */
struct LlcConfig
{
    cache::CacheGeometry geometry{2ull << 20, 8, 64};
    std::uint32_t num_cores = 2;
    /** Serial tag+data hit latency (paper: 15 / 20 cycles). */
    Tick hit_latency = 15;
    cache::ReplPolicy repl = cache::ReplPolicy::Lru;
    std::uint64_t seed = 1;

    /** Turn-off threshold T for Cooperative (Algorithm 1). */
    double threshold = 0.05;
    partition::ThresholdMode threshold_mode =
        partition::ThresholdMode::MissRatio;
    /** Way-allocation algorithm the epoch decision runs (UCP, CPE and
     *  Cooperative; see partition/partitioner.hpp). */
    partition::Partitioner partitioner =
        partition::Partitioner::Lookahead;
    /** Gating threshold used by Dynamic CPE's profile allocator
     *  (slightly laxer than Cooperative's T, so CPE gates a little
     *  less aggressively, as in the paper's Figures 7/10). */
    double cpe_gate_threshold = 0.035;
    /** Minimum ways any core keeps. */
    std::uint32_t min_ways_per_core = 1;
    /** UMON dynamic set sampling period. */
    std::uint32_t umon_sample_period = 32;
    /**
     * Repartition confirmation: a changed allocation is adopted only
     * after this many consecutive epochs request the same target
     * (1 = adopt immediately). Dampens decision flapping when the
     * sampled utility curves are noisy, without blocking the
     * energy-motivated way turn-offs (which never reduce misses).
     */
    std::uint32_t confirm_epochs = 2;
    /**
     * Transitions older than this are forced to completion at the next
     * epoch (flushing the remaining dirty donor lines). The paper lets
     * stragglers run on; a bound keeps pathological never-accessed
     * ways from staying in limbo forever.
     */
    Tick stale_transition_cycles = 10'000'000;

    /** Static-saving mechanism for unowned ways (Cooperative only). */
    GatingMode gating = GatingMode::GatedVdd;
    /** Leakage of a drowsy way relative to a powered one. */
    double drowsy_leak_fraction = 0.25;

    /** Fig 16 time series: bin width and bin count (cycles). */
    Tick flush_series_bin = 500'000;
    std::uint32_t flush_series_bins = 24;

    /** Bank (slice) count; 1 = the paper's monolithic LLC. The total
     *  geometry is divided set-wise across banks, each bank keeping
     *  the full way count (llc/banked.hpp). */
    std::uint32_t banks = 1;
    /** Slice-selection hash routing accesses to banks. */
    SliceHashKind slice_hash = SliceHashKind::Mod;
    /** Cycles a bank's port stays busy per access (the bank-conflict
     *  queuing model; only meaningful when banks > 1). */
    Tick bank_occupancy_cycles = 2;
};

/** Result of one LLC access. */
struct LlcAccess
{
    bool hit = false;
    /** True when the core owns no ways and the access bypassed the LLC. */
    bool bypass = false;
    /** Cycle at which data is available to the requesting core. */
    Cycle ready_at = 0;
    /** Tag ways probed (the dynamic-energy driver). */
    std::uint32_t ways_probed = 0;
};

/** Per-core LLC counters. */
struct CoreLlcStats
{
    stats::Counter accesses;
    stats::Counter hits;
    stats::Counter misses;
    stats::Counter writebacks;
    stats::Counter bypasses;
};

/** Takeover-event breakdown (paper Figure 14). */
struct TakeoverEventStats
{
    stats::Counter donor_hits;
    stats::Counter donor_misses;
    stats::Counter recipient_hits;
    stats::Counter recipient_misses;

    std::uint64_t total() const
    {
        return donor_hits.value() + donor_misses.value() +
               recipient_hits.value() + recipient_misses.value();
    }
};

/**
 * Abstract LLC interface: what the simulated system (cores, collect())
 * and the API layer see. Two concrete families implement it — BaseLlc
 * (the monolithic scheme hierarchy below) and BankedLlc (llc/banked.hpp,
 * a slice-hashed array of BaseLlc banks).
 */
class Llc
{
  public:
    virtual ~Llc() = default;

    Llc(const Llc &) = delete;
    Llc &operator=(const Llc &) = delete;

    /**
     * Performs a demand access by @p core.
     *
     * @param core Requesting core.
     * @param addr Byte address (block-aligned internally).
     * @param type Read or Write.
     * @param now  Cycle the request reaches the LLC. Calls must be in
     *             non-decreasing @p now order across all cores.
     */
    virtual LlcAccess access(CoreId core, Addr addr, AccessType type,
                             Cycle now) = 0;

    /**
     * Partitioning-epoch boundary (every 5 M cycles in the paper).
     */
    virtual void epoch(Cycle now) = 0;

    /** Ways currently powered (fractional for set-gated schemes;
     *  averaged over banks for a banked LLC). */
    virtual double poweredWays() const = 0;

    /** Current way allocation per core (logical, for inspection). */
    virtual std::vector<std::uint32_t> allocation() const = 0;

    /** Integrates leakage up to @p now (also called by accesses). */
    virtual void integrateStatic(Cycle now) = 0;

    /**
     * Zeroes all measurement counters (energy, per-core stats, flush
     * series, transfer durations). Cache contents, permissions and
     * monitor state are untouched — used at the end of warm-up.
     */
    virtual void resetStats(Cycle now) = 0;

    // --- inspection -----------------------------------------------------

    virtual const LlcConfig &config() const = 0;
    virtual const CoreLlcStats &coreStats(CoreId core) const = 0;
    virtual const TakeoverEventStats &takeoverEvents() const = 0;
    virtual const stats::TimeSeries &flushSeries() const = 0;
    /** Completed way-transfer durations in cycles (Fig 15). */
    virtual const std::vector<double> &transferDurations() const = 0;
    /** Total lines flushed LLC->memory by partitioning activity. */
    virtual std::uint64_t flushedLines() const = 0;
    /** Partitioning decisions taken. */
    virtual std::uint64_t epochsRun() const = 0;
    /** Epochs whose allocation differed from the previous one. */
    virtual std::uint64_t repartitions() const = 0;
    /** Accumulated energy (summed over banks for a banked LLC). */
    virtual energy::EnergyTotals energyTotals() const = 0;
    /** Mean tag ways probed per access. */
    virtual double avgWaysProbed() const = 0;

    /** Bank (slice) count; 1 for the monolithic schemes. */
    virtual std::uint32_t banks() const { return 1; }
    /** Accesses that found their bank's port busy. */
    virtual std::uint64_t bankConflicts() const { return 0; }
    /** Cycles those accesses waited for the port. */
    virtual std::uint64_t bankConflictCycles() const { return 0; }

    /**
     * Claims @p addr's bank port at @p now without touching the
     * arrays: returns the cycle the access would actually start after
     * any port conflict, holding the port for the usual occupancy.
     * Monolithic schemes have no port model and return @p now. The
     * set-sampling decorator uses this to charge unsampled accesses
     * the same slice contention the sampled ones measure.
     */
    virtual Cycle portAccess(Addr addr, Cycle now)
    {
        (void)addr;
        return now;
    }

    /**
     * Op-sampling support, mirroring mem::DramModel::carryBacklog:
     * port busy-until state pending at @p from moves forward by
     * @p delta when the clock jumps over a fast-forward gap, so slice
     * contention survives the jump. No-op for schemes without a port
     * model.
     */
    virtual void carryBacklog(Cycle from, Cycle delta)
    {
        (void)from;
        (void)delta;
    }

    std::uint64_t hitsTotal() const;
    std::uint64_t missesTotal() const;

  protected:
    Llc() = default;
};

/**
 * Abstract monolithic shared LLC: common state and statistics for the
 * five scheme subclasses in llc/schemes.hpp.
 */
class BaseLlc : public Llc
{
  public:
    BaseLlc(const LlcConfig &config, mem::DramModel &dram,
            bool has_partition_hw);

    /** Default epoch: no-op (Unmanaged, FairShare). */
    void epoch(Cycle now) override;

    double poweredWays() const override;

    void integrateStatic(Cycle now) override;

    void resetStats(Cycle now) override;

    // --- inspection -----------------------------------------------------

    const LlcConfig &config() const override { return config_; }
    const cache::SetAssocCache &array() const { return array_; }
    const energy::EnergyAccounting &energy() const { return energy_; }
    const CoreLlcStats &coreStats(CoreId core) const override;
    const TakeoverEventStats &takeoverEvents() const override
    {
        return events_;
    }
    const stats::TimeSeries &flushSeries() const override
    {
        return flush_series_;
    }
    const std::vector<double> &transferDurations() const override
    {
        return transfer_durations_;
    }
    std::uint64_t flushedLines() const override
    {
        return flushed_lines_.value();
    }
    std::uint64_t epochsRun() const override { return epochs_.value(); }
    std::uint64_t repartitions() const override
    {
        return repartitions_.value();
    }
    energy::EnergyTotals energyTotals() const override
    {
        return energy_.totals();
    }
    double avgWaysProbed() const override
    {
        return energy_.avgWaysProbed();
    }

  protected:
    /** Charges an access to the meters and per-core stats. */
    void chargeAccess(CoreId core, std::uint32_t ways_probed, bool hit,
                      bool data_read, bool data_write, bool monitored);

    /** Records a partitioning-induced flush of one line at @p now. */
    void recordFlush(Cycle now);

    /** Marks the time origin for the Fig 16 flush series. */
    void setFlushOrigin(Cycle now) { flush_origin_ = now; }

    LlcConfig config_;
    cache::SetAssocCache array_;
    mem::DramModel &dram_;
    energy::EnergyAccounting energy_;
    std::vector<CoreLlcStats> core_stats_;
    TakeoverEventStats events_;
    stats::TimeSeries flush_series_;
    Cycle flush_origin_ = 0;
    std::vector<double> transfer_durations_;
    stats::Counter flushed_lines_;
    stats::Counter epochs_;
    stats::Counter repartitions_;
};

} // namespace coopsim::llc

#endif // COOPSIM_LLC_SHARED_CACHE_HPP
