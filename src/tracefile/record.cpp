#include "tracefile/record.hpp"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "sim/system.hpp"
#include "trace/generator.hpp"
#include "tracefile/trace_workloads.hpp"
#include "tracefile/trace_writer.hpp"

namespace coopsim::tracefile
{

namespace
{

/** The spec's Group keys for @p group_name, in expansion order. */
std::vector<sim::RunKey>
groupKeysOf(const std::vector<sim::RunKey> &keys,
            const std::string &group_name)
{
    std::vector<sim::RunKey> out;
    for (const sim::RunKey &key : keys) {
        if (key.kind == sim::RunKey::Kind::Group &&
            key.name == group_name) {
            out.push_back(key);
        }
    }
    return out;
}

/**
 * The inner (generating) stream both recording passes tee from:
 * memo-backed when the stream cache is enabled, so the generator runs
 * once per distinct stream — pass 1's counting runs replay it for
 * every configuration and pass 2 replays it a final time into the
 * writer, making --record effectively single-pass — and a plain
 * SyntheticStream under --no-stream-memo.
 */
std::unique_ptr<core::OpStream>
makeInner(std::uint32_t c, const trace::AppProfile &profile,
          const trace::StreamGeometry &geometry, std::uint64_t seed,
          std::uint64_t run_seed, const std::string &scale,
          std::uint32_t num_cores)
{
    sim::StreamCache &cache = sim::StreamCache::instance();
    if (!cache.enabled()) {
        return std::make_unique<trace::SyntheticStream>(profile, geometry, c,
                                                        seed);
    }
    sim::StreamCache::Key key;
    key.workload = profile.name;
    key.slot = c;
    key.seed = run_seed;
    key.scale = scale;
    key.num_cores = num_cores;
    return cache.open(key, profile, geometry, seed);
}

} // namespace

std::size_t
recordSpec(const api::ExperimentSpec &spec, const std::string &dir)
{
    const std::vector<trace::WorkloadGroup> groups =
        api::validateSpecGroups(spec);
    if (spec.seeds.size() != 1) {
        COOPSIM_FATAL("--record needs a spec with exactly one seed "
                      "(a trace pins the generator seed); this spec "
                      "sweeps ", spec.seeds.size());
    }
    for (const trace::WorkloadGroup &group : groups) {
        if (isTraceWorkload(group.name)) {
            COOPSIM_FATAL("--record on the trace workload '", group.name,
                          "': replays cannot be re-recorded — record "
                          "from the synthetic group instead");
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        COOPSIM_FATAL("cannot create trace directory '", dir,
                      "': ", ec.message());
    }

    const std::vector<sim::RunKey> all_keys =
        api::expandSpec(spec, groups);
    std::size_t files_written = 0;

    for (const trace::WorkloadGroup &group : groups) {
        const std::vector<sim::RunKey> keys =
            groupKeysOf(all_keys, group.name);
        if (keys.empty()) {
            continue; // filtered out by the cores= axis
        }
        const auto num_cores =
            static_cast<std::uint32_t>(group.apps.size());

        // Pass 1: run every configuration of this group with a
        // counting tee to learn the deepest per-core consumption the
        // spec's cross-product reaches.
        std::vector<std::uint64_t> deepest(num_cores, 0);
        for (const sim::RunKey &key : keys) {
            sim::SystemConfig config = sim::runConfig(key);
            std::vector<RecordingStream *> counters(num_cores, nullptr);
            config.stream_factory =
                [&counters, &config, &spec, num_cores](
                    std::uint32_t c, const trace::AppProfile &profile,
                    const trace::StreamGeometry &geometry,
                    std::uint64_t seed)
                -> std::unique_ptr<core::OpStream> {
                auto tee = std::make_unique<RecordingStream>(
                    makeInner(c, profile, geometry, seed, config.seed,
                              spec.scale, num_cores),
                    nullptr);
                counters[c] = tee.get();
                return tee;
            };
            sim::System system(config, trace::groupProfiles(group));
            system.run();
            for (std::uint32_t c = 0; c < num_cores; ++c) {
                deepest[c] =
                    std::max(deepest[c], counters[c]->delivered());
            }
        }

        // Pass 2: re-generate each core's stream from the start and
        // capture it, with 25% (min one frame) of headroom so small
        // consumption differences — a new scheme, another partitioner
        // — replay from the same files instead of dying at the tail.
        sim::SystemConfig config = sim::runConfig(keys.front());
        std::vector<RecordingStream *> recorders(num_cores, nullptr);
        config.stream_factory =
            [&](std::uint32_t c, const trace::AppProfile &profile,
                const trace::StreamGeometry &geometry, std::uint64_t seed)
            -> std::unique_ptr<core::OpStream> {
            TraceHeader header;
            header.core = c;
            header.num_cores = num_cores;
            header.seed = config.seed;
            header.llc_sets = geometry.llc_sets;
            header.block_bytes = geometry.block_bytes;
            header.workload = group.name;
            header.app = profile.name;
            header.scale = spec.scale;
            const std::string path =
                (std::filesystem::path(dir) /
                 traceFileName(group.name, c))
                    .string();
            auto tee = std::make_unique<RecordingStream>(
                makeInner(c, profile, geometry, seed, config.seed,
                          spec.scale, num_cores),
                std::make_unique<TraceWriter>(path, header));
            recorders[c] = tee.get();
            return tee;
        };
        // The System constructor is the stream builder here — it owns
        // the profile phase rescaling and geometry handshake — but the
        // system is never run: the recording just drains each stream.
        sim::System system(config, trace::groupProfiles(group));
        for (std::uint32_t c = 0; c < num_cores; ++c) {
            const std::uint64_t margin = std::max<std::uint64_t>(
                deepest[c] / 4, kFrameOps);
            recorders[c]->extendTo(deepest[c] + margin);
            recorders[c]->finish();
            ++files_written;
        }
        COOPSIM_INFORM("recorded '", group.name, "' (", num_cores,
                       " cores, ", keys.size(), " configuration(s), ",
                       "deepest ", *std::max_element(deepest.begin(),
                                                     deepest.end()),
                       " ops)");
    }
    return files_written;
}

} // namespace coopsim::tracefile
