/**
 * @file
 * The traced run: per-layer costs and shares of one workload.
 *
 * 1. Every RunKey runs serially, from a cleared stream memo, as
 *    sim::executeRun composes it (runConfig + the StreamCache factory
 *    + System), with a counting shim on the stream factory. That gives
 *    per-run wall time, delivered ops and driver quanta.
 * 2. Each layer's public class is timed on inputs taken from the
 *    workload's own streams: the first ops the serial pass consumed
 *    from its largest group's streams, interleaved as LLC accesses, on
 *    that group's LLC geometry.
 * 3. A layer's share is its per-call cost times its in-run call count
 *    over the serial run time. Every delivered op is one LLC access, so
 *    access counts are exact; misses and DRAM traffic use the measured
 *    window's rate per access, and epochs the simulated cycles. Nested
 *    layers (the LLC calls cache, UMON, partition, energy and DRAM)
 *    report self time only.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "api/registry.hpp"
#include "bench.hpp"
#include "cache/cache.hpp"
#include "energy/accounting.hpp"
#include "energy/cacti_model.hpp"
#include "llc/permissions.hpp"
#include "mem/dram.hpp"
#include "partition/partitioner.hpp"
#include "sampling/set_sampled.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"
#include "tracefile/trace_format.hpp"
#include "umon/umon.hpp"

namespace perfbench
{

namespace api = coopsim::api;
namespace sim = coopsim::sim;
namespace core = coopsim::core;
using coopsim::Addr;
using coopsim::AccessType;
using coopsim::CoreId;
using coopsim::Cycle;

namespace
{

using Clock = std::chrono::steady_clock;

/** Keeps probe results observable so no loop is optimised away. */
volatile std::uint64_t g_sink = 0;

/** Median ns per call over five timed passes (after one warm-up). */
template <class Pass>
double
nsPerCall(double calls_per_pass, Pass &&pass)
{
    pass();
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        pass();
        ns.push_back(std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count() /
                     calls_per_pass);
    }
    return median(ns);
}

// ---------------------------------------------------------------------------
// Serial pass

/** A stream as System opened it (the stream factory's arguments) and
 *  the first ops its run consumed. */
struct RecordedStream
{
    std::uint32_t core = 0;
    coopsim::trace::AppProfile profile;
    coopsim::trace::StreamGeometry geometry;
    std::uint64_t seed = 0;
    std::vector<core::MemOp> ops;
};

/** Forwards a stream and counts what the core model consumed; with a
 *  @p record buffer it also keeps the first @p record_limit ops. */
class CountingStream final : public core::OpStream
{
  public:
    CountingStream(std::unique_ptr<core::OpStream> inner,
                   std::uint64_t &run_ops, std::uint64_t &stream_ops,
                   std::vector<core::MemOp> *record,
                   std::size_t record_limit)
        : inner_(std::move(inner)), run_ops_(run_ops),
          stream_ops_(stream_ops), record_(record),
          record_limit_(record_limit)
    {
    }

    core::MemOp next() override
    {
        ++run_ops_;
        ++stream_ops_;
        const core::MemOp op = inner_->next();
        keep(&op, 1);
        return op;
    }

    std::size_t nextBatch(core::MemOp *out, std::size_t max) override
    {
        const std::size_t n = inner_->nextBatch(out, max);
        run_ops_ += n;
        stream_ops_ += n;
        keep(out, n);
        return n;
    }

  private:
    void keep(const core::MemOp *ops, std::size_t n)
    {
        if (record_ != nullptr && record_->size() < record_limit_) {
            record_->insert(record_->end(), ops,
                            ops + std::min(n, record_limit_ -
                                                  record_->size()));
        }
    }

    std::unique_ptr<core::OpStream> inner_;
    std::uint64_t &run_ops_;
    std::uint64_t &stream_ops_;
    std::vector<core::MemOp> *record_;
    std::size_t record_limit_;
};

struct SerialRun
{
    sim::RunKey key;
    sim::RunResult result;
    std::uint64_t delivered_ops = 0;
    sim::DriverStats driver;
    double wall_s = 0.0;
};

/**
 * One RunKey as executeRun composes it, with the counting shim; the
 * deepest consumption of each memoized stream goes to @p stream_ops
 * (what the memo had to generate). With @p record set, every stream
 * the run opens is appended to it with its first @p record_limit ops.
 */
SerialRun
runCounted(const sim::RunKey &key,
           std::map<std::string, std::uint64_t> &stream_ops,
           std::deque<RecordedStream> *record, std::size_t record_limit)
{
    SerialRun run;
    run.key = key;
    const auto t0 = Clock::now();
    sim::SystemConfig config = sim::runConfig(key);
    std::vector<coopsim::trace::AppProfile> profiles;
    if (key.kind == sim::RunKey::Kind::Group) {
        profiles = coopsim::trace::groupProfiles(
            api::workloadRegistry().get(key.name));
    } else {
        config.num_cores = 1;
        config.llc.num_cores = 1;
        profiles = {coopsim::trace::specProfile(key.name)};
    }
    const sim::StreamFactory memo = sim::StreamCache::instance().factory(
        key.seed, key.scale, key.num_cores);
    std::vector<std::pair<std::string, std::unique_ptr<std::uint64_t>>>
        opened;
    config.stream_factory =
        [&](std::uint32_t c, const coopsim::trace::AppProfile &profile,
            const coopsim::trace::StreamGeometry &geometry,
            std::uint64_t seed) -> std::unique_ptr<core::OpStream> {
        opened.emplace_back(profile.name + "/" + std::to_string(c) + "/" +
                                std::to_string(key.num_cores),
                            std::make_unique<std::uint64_t>(0));
        std::vector<core::MemOp> *ops = nullptr;
        if (record != nullptr) {
            record->push_back({c, profile, geometry, seed, {}});
            ops = &record->back().ops;
            ops->reserve(record_limit);
        }
        return std::make_unique<CountingStream>(
            memo(c, profile, geometry, seed), run.delivered_ops,
            *opened.back().second, ops, record_limit);
    };
    {
        sim::System system(config, profiles);
        run.result = system.run();
        run.driver = system.driverStats();
    }
    run.wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (const auto &[name, ops] : opened) {
        std::uint64_t &deepest = stream_ops[name];
        deepest = std::max(deepest, *ops);
    }
    return run;
}

// ---------------------------------------------------------------------------
// Probe inputs

/** The workload's own inputs for the layer probes: the ops of its
 *  largest group, and the same ops as interleaved LLC accesses. */
struct Sample
{
    sim::RunKey key;
    sim::SystemConfig config;
    coopsim::llc::LlcConfig llc;
    std::vector<std::vector<core::MemOp>> ops; // per core
    std::uint64_t total_ops = 0;
    struct Access
    {
        CoreId core;
        Addr addr;
        AccessType type;
    };
    /** LLC-level accesses, interleaved round-robin across cores. */
    std::vector<Access> accesses;
    double generate_ns = 0.0;
};

/** The group RunKey with the most cores (the first of them). */
sim::RunKey
probeKey(const std::vector<sim::RunKey> &keys)
{
    const sim::RunKey *best = nullptr;
    for (const sim::RunKey &key : keys) {
        if (key.kind == sim::RunKey::Kind::Group &&
            (best == nullptr || key.num_cores > best->num_cores)) {
            best = &key;
        }
    }
    if (best == nullptr) {
        throw std::runtime_error("workload has no group RunKey to probe");
    }
    return *best;
}

/** Ops recorded per core of the probe key: enough for about 1.2M
 *  accesses in all, at least 20,000 per core. */
std::size_t
probeOpsPerCore(const sim::RunKey &key)
{
    return std::max<std::size_t>(20'000, 1'200'000 / key.num_cores);
}

bool
sameOp(const core::MemOp &a, const core::MemOp &b)
{
    return a.gap_insts == b.gap_insts && a.addr == b.addr &&
           a.type == b.type && a.llc_level == b.llc_level;
}

/**
 * The probe inputs from the serial pass's recording of @p key's
 * streams. Generation is timed by regenerating each stream from the
 * factory arguments System passed, which must reproduce the recorded
 * ops.
 */
Sample
buildSample(const sim::RunKey &key, std::deque<RecordedStream> recorded)
{
    Sample s;
    s.key = key;
    s.config = sim::runConfig(s.key);
    s.llc = s.config.llc;
    s.llc.num_cores = s.config.num_cores;
    s.llc.seed = s.config.seed;

    std::sort(recorded.begin(), recorded.end(),
              [](const RecordedStream &a, const RecordedStream &b) {
                  return a.core < b.core;
              });
    const std::size_t cores = recorded.size();
    std::size_t per_core = probeOpsPerCore(key);
    for (std::size_t c = 0; c < cores; ++c) {
        if (recorded[c].core != c) {
            throw std::runtime_error("probe run did not open one stream "
                                     "per core");
        }
        per_core = std::min(per_core, recorded[c].ops.size());
    }
    if (cores == 0 || per_core == 0) {
        throw std::runtime_error("probe run consumed no ops");
    }
    for (RecordedStream &stream : recorded) {
        stream.ops.resize(per_core);
        s.ops.push_back(std::move(stream.ops));
    }
    s.total_ops = per_core * cores;

    std::vector<std::vector<core::MemOp>> regenerated(
        cores, std::vector<core::MemOp>(per_core));
    s.generate_ns = nsPerCall(static_cast<double>(s.total_ops), [&] {
        for (std::size_t c = 0; c < cores; ++c) {
            const RecordedStream &r = recorded[c];
            coopsim::trace::SyntheticStream stream(r.profile, r.geometry,
                                                   r.core, r.seed);
            std::size_t done = 0;
            while (done < per_core) {
                done += stream.nextBatch(
                    regenerated[c].data() + done,
                    std::min<std::size_t>(64, per_core - done));
            }
        }
    });
    for (std::size_t c = 0; c < cores; ++c) {
        if (!std::equal(s.ops[c].begin(), s.ops[c].end(),
                        regenerated[c].begin(), sameOp)) {
            throw std::runtime_error("generation probe: regenerated ops "
                                     "differ from the run's stream");
        }
    }

    // Synthetic ops are all LLC-level accesses.
    for (std::size_t i = 0; i < per_core && s.accesses.size() < 400'000;
         ++i) {
        for (std::size_t c = 0; c < cores; ++c) {
            const core::MemOp &op = s.ops[c][i];
            s.accesses.push_back({static_cast<CoreId>(c), op.addr, op.type});
        }
    }
    return s;
}

// ---------------------------------------------------------------------------
// Layer probes

struct Probes
{
    double generate_ns = 0.0;
    double encode_ns = 0.0;
    double decode_ns = 0.0;
    double lookup_w16_ns = 0.0;
    double lookup_w64_ns = 0.0;
    double victim_ns = 0.0;
    std::map<std::string, double> llc_ns;
    double powered_count_ns = 0.0;
    double umon_ns = 0.0;
    double miss_curve_us = 0.0;
    std::map<std::string, double> decide_us;
    double mem_ns = 0.0;
    double on_access_ns = 0.0;
    double integrate_ns = 0.0;
    double sampling_ns = 0.0;
};

void
probeTracefile(const Sample &s, Probes &p)
{
    constexpr std::size_t kFrame = 4096;
    std::string buffer;
    p.encode_ns = nsPerCall(static_cast<double>(s.total_ops), [&] {
        buffer.clear();
        for (const auto &ops : s.ops) {
            for (std::size_t i = 0; i < ops.size(); i += kFrame) {
                buffer += coopsim::tracefile::encodeFrame(
                    ops.data() + i, std::min(kFrame, ops.size() - i));
            }
        }
    });
    const std::size_t logical = buffer.size();
    buffer.append(coopsim::tracefile::kDecodeSlack, '\0');
    const std::string label = "perfbench probe buffer";
    std::uint64_t checksum = 0;
    std::uint64_t decoded = 0;
    p.decode_ns = nsPerCall(static_cast<double>(s.total_ops), [&] {
        coopsim::tracefile::FrameDecoder decoder;
        decoder.reset(buffer.data(), 0, logical, &label);
        core::MemOp out[64];
        checksum = 0;
        decoded = 0;
        while (const std::size_t n = decoder.decode(out, 64)) {
            for (std::size_t i = 0; i < n; ++i) {
                checksum += out[i].addr ^ out[i].gap_insts;
            }
            decoded += n;
        }
    });
    std::uint64_t expected = 0;
    for (const auto &ops : s.ops) {
        for (const core::MemOp &op : ops) {
            expected += op.addr ^ op.gap_insts;
        }
    }
    if (decoded != s.total_ops || checksum != expected) {
        throw std::runtime_error("tracefile probe: decode does not "
                                 "reproduce the encoded ops");
    }
}

void
probeCache(const Sample &s, Probes &p)
{
    namespace cache = coopsim::cache;
    const auto calls = static_cast<double>(s.accesses.size());
    const std::uint32_t sets = s.llc.geometry.numSets() /
                               std::max<std::uint32_t>(1, s.llc.banks);
    const auto lookup_ns = [&](std::uint32_t ways, double *victim_ns) {
        const cache::CacheGeometry geometry{
            static_cast<std::uint64_t>(sets) * ways * 64, ways, 64};
        cache::SetAssocCache array(geometry);
        const cache::WayMask all = cache::fullMask(ways);
        for (const Sample::Access &a : s.accesses) {
            const Addr block = array.slicer().blockAlign(a.addr);
            const auto set = array.slicer().set(block);
            const cache::LookupResult r = array.lookup(block, all);
            if (r.hit) {
                array.touch(set, r.way);
            } else {
                array.insert(block, set, array.victim(set, all), a.core,
                             false);
            }
        }
        const double ns = nsPerCall(calls, [&] {
            for (const Sample::Access &a : s.accesses) {
                g_sink = g_sink + array.lookup(a.addr, all).hit;
            }
        });
        if (victim_ns != nullptr) {
            *victim_ns = nsPerCall(calls, [&] {
                for (const Sample::Access &a : s.accesses) {
                    g_sink = g_sink +
                             array.victim(array.slicer().set(a.addr), all);
                }
            });
        }
        return ns;
    };
    const std::uint32_t ways = s.llc.geometry.ways;
    p.lookup_w16_ns = lookup_ns(16, ways <= 16 ? &p.victim_ns : nullptr);
    p.lookup_w64_ns = lookup_ns(64, ways > 16 ? &p.victim_ns : nullptr);
}

/** Drives @p llc over the sample's accesses at a steady issue rate,
 *  running epoch() on the configuration's epoch boundaries. */
double
llcAccessNs(const Sample &s, coopsim::llc::Llc &llc)
{
    constexpr Cycle kGap = 20;
    Cycle now = 0;
    Cycle next_epoch = s.config.epoch_cycles;
    return nsPerCall(static_cast<double>(s.accesses.size()), [&] {
        for (const Sample::Access &a : s.accesses) {
            now += kGap;
            if (now >= next_epoch) {
                llc.epoch(now);
                next_epoch += s.config.epoch_cycles;
            }
            g_sink = g_sink + llc.access(a.core, a.addr, a.type, now).hit;
        }
    });
}

void
probeLlc(const Sample &s, Probes &p)
{
    for (const std::string scheme :
         {"unmanaged", "fairshare", "ucp", "cpe", "coop"}) {
        coopsim::mem::DramModel dram(s.config.dram);
        const auto llc = api::makeLlcByName(scheme, s.llc, dram);
        p.llc_ns[scheme] = llcAccessNs(s, *llc);
    }
    coopsim::mem::DramModel dram(s.config.dram);
    coopsim::sampling::SetSampledLlc sampled(
        s.llc, coopsim::sampling::kDefaultSetPeriod, dram,
        [&](const coopsim::llc::LlcConfig &inner) {
            return api::makeLlcByName(s.key.scheme, inner, dram);
        });
    p.sampling_ns = llcAccessNs(s, sampled);

    const std::uint32_t ways = s.llc.geometry.ways;
    coopsim::llc::PermissionFile perms(ways, s.llc.num_cores);
    for (std::uint32_t w = 0; w + 1 < ways; ++w) {
        perms.setOwner(w, static_cast<CoreId>(w % s.llc.num_cores));
    }
    constexpr int kCalls = 1'000'000;
    p.powered_count_ns = nsPerCall(kCalls, [&] {
        std::uint64_t sum = 0;
        for (int i = 0; i < kCalls; ++i) {
            sum += perms.poweredCount();
            g_sink = sum;
        }
    });
}

void
probeMonitorsAndPartition(const Sample &s, Probes &p)
{
    namespace umon = coopsim::umon;
    namespace partition = coopsim::partition;
    const std::uint32_t banks = std::max<std::uint32_t>(1, s.llc.banks);
    umon::UmonConfig config;
    config.llc_sets = s.llc.geometry.numSets() / banks;
    config.llc_ways = s.llc.geometry.ways;
    config.block_bytes = s.llc.geometry.block_bytes;
    config.sample_period = s.llc.umon_sample_period;
    std::vector<umon::UtilityMonitor> monitors(
        s.llc.num_cores, umon::UtilityMonitor(config));
    p.umon_ns = nsPerCall(static_cast<double>(s.accesses.size()), [&] {
        for (const Sample::Access &a : s.accesses) {
            monitors[a.core].access(a.addr);
        }
    });
    std::vector<partition::AppDemand> demands;
    p.miss_curve_us =
        nsPerCall(static_cast<double>(monitors.size()), [&] {
            demands.clear();
            for (const umon::UtilityMonitor &m : monitors) {
                demands.push_back(
                    {m.missCurve(), static_cast<double>(m.accessCount())});
            }
        }) /
        1000.0;
    partition::LookaheadConfig lookahead;
    lookahead.threshold = s.llc.threshold;
    lookahead.mode = s.llc.threshold_mode;
    lookahead.min_ways_per_app = s.llc.min_ways_per_core;
    for (const std::string name : {"lookahead", "equalshare", "greedy"}) {
        const partition::Partitioner which =
            api::partitionerRegistry().get(name);
        constexpr int kCalls = 200;
        p.decide_us[name] =
            nsPerCall(kCalls, [&] {
                for (int i = 0; i < kCalls; ++i) {
                    g_sink = g_sink + partition::decidePartition(
                                          which, demands,
                                          s.llc.geometry.ways, lookahead)
                                          .unallocated;
                }
            }) /
            1000.0;
    }
}

void
probeMemAndEnergy(const Sample &s, Probes &p)
{
    coopsim::mem::DramModel dram(s.config.dram);
    Cycle now = 0;
    p.mem_ns = nsPerCall(static_cast<double>(s.accesses.size()), [&] {
        for (const Sample::Access &a : s.accesses) {
            now += 50;
            g_sink = g_sink + dram.access(a.addr, a.type, now);
        }
    });

    coopsim::energy::CacheOrg org;
    org.size_bytes = s.llc.geometry.size_bytes;
    org.ways = s.llc.geometry.ways;
    org.block_bytes = s.llc.geometry.block_bytes;
    org.has_partition_hw = true;
    coopsim::energy::EnergyAccounting meter(
        coopsim::energy::deriveProfile(org), org.ways);
    constexpr int kCalls = 1'000'000;
    p.on_access_ns = nsPerCall(kCalls, [&] {
        for (int i = 0; i < kCalls; ++i) {
            meter.onAccess(org.ways - (i & 3), (i & 1) != 0, (i & 1) == 0,
                           true);
        }
    });
    p.integrate_ns = nsPerCall(kCalls, [&] {
        for (int i = 0; i < kCalls; ++i) {
            now += 20;
            meter.integrate(now, static_cast<double>(org.ways - (i & 3)));
        }
    });
    g_sink = g_sink + static_cast<std::uint64_t>(meter.totals().static_nj);
}

bool
monitored(const std::string &scheme)
{
    return scheme == "ucp" || scheme == "cpe" || scheme == "coop";
}

} // namespace

MetricValues
runTraced(const api::ExperimentSpec &spec, const SweepOutcome &sweep,
          unsigned concurrency, std::uint64_t &attempted,
          std::uint64_t &failed)
{
    // 1. Serial pass from a cleared memo (one busy simulation thread).
    const std::vector<sim::RunKey> keys = api::expandSpec(spec);
    sim::StreamCache::instance().clear();
    std::map<std::string, std::uint64_t> stream_ops;
    std::vector<SerialRun> runs;
    std::map<std::string, std::uint64_t> sweep_hash;
    for (const RunLine &line : sweep.lines) {
        sweep_hash[line.key] = fnv1a64(line.line);
    }
    const sim::RunKey probe_key = probeKey(keys);
    std::deque<RecordedStream> recorded;
    for (const sim::RunKey &key : keys) {
        const bool probe = recorded.empty() && key == probe_key;
        runs.push_back(runCounted(key, stream_ops,
                                  probe ? &recorded : nullptr,
                                  probeOpsPerCore(probe_key)));
        const auto it = sweep_hash.find(api::formatRunKey(key));
        ++attempted;
        if (it == sweep_hash.end() ||
            it->second !=
                fnv1a64(coopsim::store::formatStoreLine(
                    key, runs.back().result))) {
            ++failed;
        }
    }

    // 2. Layer probes on the workload's own streams.
    const Sample sample = buildSample(probe_key, std::move(recorded));
    Probes p;
    p.generate_ns = sample.generate_ns;
    probeTracefile(sample, p);
    probeCache(sample, p);
    probeLlc(sample, p);
    probeMonitorsAndPartition(sample, p);
    probeMemAndEnergy(sample, p);

    // 3. In-run call counts and shares. Synthetic streams deliver
    // LLC-level ops only, so every delivered op is one LLC access (the
    // private L1 is never on the path, and fast-forward consumes none).
    double serial_s = 0.0;
    std::vector<double> run_s;
    double delivered_ops = 0.0;
    double quanta = 0.0;
    double steps = 0.0;
    double llc_accesses = 0.0;
    double llc_hits = 0.0;
    double bank_conflicts = 0.0;
    double dram_reads = 0.0;
    double insts = 0.0;
    double repartitions = 0.0;
    double windows = 0.0;
    double max_rel_ci = 0.0;
    double cost_cache = 0.0;
    double cost_llc_total = 0.0;
    double cost_umon = 0.0;
    double cost_partition = 0.0;
    double cost_mem = 0.0;
    double cost_energy = 0.0;
    double cost_sampling = 0.0;
    for (const SerialRun &run : runs) {
        const sim::RunResult &r = run.result;
        serial_s += run.wall_s;
        run_s.push_back(run.wall_s);
        delivered_ops += static_cast<double>(run.delivered_ops);
        quanta += static_cast<double>(run.driver.quanta);
        steps += static_cast<double>(run.driver.steps);
        double acc = 0.0;
        double hits = 0.0;
        for (const sim::AppResult &app : r.apps) {
            acc += static_cast<double>(app.llc_accesses);
            hits += static_cast<double>(app.llc_hits);
            insts += static_cast<double>(app.insts);
            if (app.ipc > 0.0) {
                max_rel_ci = std::max(max_rel_ci, app.ipc_ci / app.ipc);
            }
        }
        llc_accesses += acc;
        llc_hits += hits;
        bank_conflicts += static_cast<double>(r.bank_conflicts);
        dram_reads += static_cast<double>(r.dram_reads);
        repartitions += static_cast<double>(r.repartitions);
        windows += static_cast<double>(r.sample_windows);

        // Whole-run counts: accesses from the delivered ops, misses and
        // DRAM traffic at the measured window's rate per access, epochs
        // from the simulated cycles.
        const sim::SystemConfig config = sim::runConfig(run.key);
        const double period =
            coopsim::sampling::resolve(config.sampling).set_period;
        const double calls = static_cast<double>(run.delivered_ops);
        const double inner = calls / period;
        const double miss_rate = acc > 0.0 ? 1.0 - hits / acc : 0.0;
        const double dram_rate =
            acc > 0.0 ? static_cast<double>(r.dram_reads + r.dram_writebacks +
                                            r.dram_flushes) /
                            acc
                      : 0.0;
        const double epochs = static_cast<double>(r.total_cycles) /
                              static_cast<double>(config.epoch_cycles);
        const double banks =
            run.key.kind == sim::RunKey::Kind::Group
                ? std::max<std::uint32_t>(1, config.llc.banks)
                : 1.0;
        const double cores = static_cast<double>(r.apps.size());
        const std::string &scheme = run.key.scheme;
        const double lookup_ns = config.llc.geometry.ways <= 16
                                     ? p.lookup_w16_ns
                                     : p.lookup_w64_ns;
        const auto found = p.llc_ns.find(scheme);
        const double llc_ns = found != p.llc_ns.end() ? found->second : 0.0;

        cost_cache += inner * (lookup_ns + miss_rate * p.victim_ns);
        cost_llc_total += inner * llc_ns;
        if (monitored(scheme)) {
            cost_umon += inner * p.umon_ns +
                         epochs * cores * banks * p.miss_curve_us * 1e3;
            cost_partition +=
                epochs * banks * 1e3 *
                p.decide_us[api::partitionerKeyOf(run.key.partitioner)];
        }
        cost_energy += inner * (p.on_access_ns + p.integrate_ns);
        cost_mem += calls * dram_rate * p.mem_ns;
        if (period > 1.0) {
            cost_sampling +=
                std::max(0.0, calls * p.sampling_ns - inner * llc_ns);
        }
    }
    double generated_ops = 0.0;
    for (const auto &[name, ops] : stream_ops) {
        generated_ops += static_cast<double>(ops);
    }
    const double cost_trace = generated_ops * p.generate_ns;
    const double cost_tracefile =
        generated_ops * p.encode_ns + delivered_ops * p.decode_ns;
    // The LLC's self time (which includes poweredCount): its accesses
    // and epochs minus the layers they call.
    const double cost_llc =
        std::max(0.0, cost_llc_total - cost_cache - cost_umon -
                          cost_partition - cost_energy - cost_mem);

    const double serial_ns = serial_s * 1e9;
    MetricValues m;
    const auto share = [&](const char *name, double cost_ns) {
        m[name] = cost_ns / serial_ns;
    };
    share("trace.share", cost_trace);
    share("tracefile.share", cost_tracefile);
    share("cache.share", cost_cache);
    share("llc.share", cost_llc);
    share("umon.share", cost_umon);
    share("partition.share", cost_partition);
    share("mem.share", cost_mem);
    share("energy.share", cost_energy);
    share("sampling.share", cost_sampling);
    double attributed = 0.0;
    for (const auto &[name, value] : m) {
        attributed += value;
    }
    m["sim.unattributed_share"] = 1.0 - attributed;

    m["sim.run_s.p50"] = quantile(run_s, 0.5);
    m["sim.run_s.p90"] = quantile(run_s, 0.9);
    m["sim.run_s.count"] = static_cast<double>(run_s.size());
    m["sim.executor.idle_share"] =
        1.0 - serial_s / (concurrency * sweep.wall_s);
    m["sim.driver.quantum_ops"] = quanta > 0.0 ? steps / quanta : 0.0;
    m["sim.stream.generated"] = static_cast<double>(sweep.streams_generated);
    m["sim.stream.replayed"] = static_cast<double>(sweep.streams_replayed);
    m["trace.generate_ns_per_op"] = p.generate_ns;
    m["tracefile.encode_ns_per_op"] = p.encode_ns;
    m["tracefile.decode_ns_per_op"] = p.decode_ns;
    m["cache.lookup_ns.w16"] = p.lookup_w16_ns;
    m["cache.lookup_ns.w64"] = p.lookup_w64_ns;
    m["cache.victim_ns"] = p.victim_ns;
    for (const auto &[scheme, ns] : p.llc_ns) {
        m["llc.access_ns." + scheme] = ns;
    }
    m["llc.powered_count_ns"] = p.powered_count_ns;
    m["llc.hit_ratio"] = llc_accesses > 0.0 ? llc_hits / llc_accesses : 0.0;
    m["llc.bank_conflicts_per_kacc"] =
        llc_accesses > 0.0 ? 1000.0 * bank_conflicts / llc_accesses : 0.0;
    m["umon.access_ns"] = p.umon_ns;
    m["umon.miss_curve_us"] = p.miss_curve_us;
    for (const auto &[name, us] : p.decide_us) {
        m["partition.decide_us." + name] = us;
    }
    m["partition.repartitions"] = repartitions;
    m["mem.access_ns"] = p.mem_ns;
    m["mem.reads_per_kinst"] = insts > 0.0 ? 1000.0 * dram_reads / insts : 0.0;
    m["energy.on_access_ns"] = p.on_access_ns;
    m["energy.integrate_ns"] = p.integrate_ns;
    m["sampling.access_ns"] = p.sampling_ns;
    m["sampling.windows"] = windows;
    m["sampling.max_rel_ci"] = max_rel_ci;
    m["samp_err_pct"] = sweep.samp_err_pct;
    return m;
}

} // namespace perfbench
