#include "bench.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"schemes-4c", "specs/fig08.spec", {}, ""},
        {"manycore-32c", "specs/banked.spec", {"G32-cpu1", "G32-cpu2"},
         ""},
        {"sampled-scaling", "specs/scaling.spec", {}, "setop"},
    };
    return table;
}

const Workload &
workloadByName(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name) {
            return w;
        }
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<std::uint64_t> &
referenceSeeds()
{
    static const std::vector<std::uint64_t> seeds = {42, 1729};
    return seeds;
}

std::uint64_t
workloadSeed(std::uint64_t seed_arg)
{
    const std::vector<std::uint64_t> &seeds = referenceSeeds();
    if (std::find(seeds.begin(), seeds.end(), seed_arg) != seeds.end()) {
        return seed_arg;
    }
    return seeds[seed_arg % seeds.size()];
}

coopsim::api::ExperimentSpec
loadSpec(const Workload &workload, const std::string &root,
         std::uint64_t seed)
{
    coopsim::api::ExperimentSpec spec =
        coopsim::api::parseSpecFile(root + "/" + workload.spec_file);
    if (!workload.groups.empty()) {
        spec.groups = workload.groups;
    }
    if (!workload.sampling.empty()) {
        spec.sampling = {workload.sampling};
    }
    spec.scale = "bench";
    spec.seeds = {seed};
    return spec;
}

bool
isSampled(const coopsim::api::ExperimentSpec &spec)
{
    return std::any_of(spec.sampling.begin(), spec.sampling.end(),
                       [](const std::string &mode) {
                           return mode != "exact";
                       });
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sweep_s", "s", "lower"},
        {"sim_mips", "Minst/s", "higher"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MiB", "lower"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.run_s.p50", "s", "lower"},
        {"sim.run_s.p90", "s", "lower"},
        {"sim.run_s.count", "count", "higher"},
        {"sim.executor.idle_share", "ratio", "lower"},
        {"sim.driver.quantum_ops", "ops", "higher"},
        {"sim.stream.generated", "count", "lower"},
        {"sim.stream.replayed", "count", "higher"},
        {"sim.unattributed_share", "ratio", "lower"},
        {"trace.generate_ns_per_op", "ns", "lower"},
        {"trace.share", "ratio", "lower"},
        {"tracefile.encode_ns_per_op", "ns", "lower"},
        {"tracefile.decode_ns_per_op", "ns", "lower"},
        {"tracefile.share", "ratio", "lower"},
        {"cache.lookup_ns.w16", "ns", "lower"},
        {"cache.lookup_ns.w64", "ns", "lower"},
        {"cache.victim_ns", "ns", "lower"},
        {"cache.share", "ratio", "lower"},
        {"llc.access_ns.unmanaged", "ns", "lower"},
        {"llc.access_ns.fairshare", "ns", "lower"},
        {"llc.access_ns.ucp", "ns", "lower"},
        {"llc.access_ns.cpe", "ns", "lower"},
        {"llc.access_ns.coop", "ns", "lower"},
        {"llc.powered_count_ns", "ns", "lower"},
        {"llc.hit_ratio", "ratio", "higher"},
        {"llc.bank_conflicts_per_kacc", "count", "lower"},
        {"llc.share", "ratio", "lower"},
        {"umon.access_ns", "ns", "lower"},
        {"umon.miss_curve_us", "us", "lower"},
        {"umon.share", "ratio", "lower"},
        {"partition.decide_us.lookahead", "us", "lower"},
        {"partition.decide_us.equalshare", "us", "lower"},
        {"partition.decide_us.greedy", "us", "lower"},
        {"partition.repartitions", "count", "lower"},
        {"partition.share", "ratio", "lower"},
        {"mem.access_ns", "ns", "lower"},
        {"mem.reads_per_kinst", "count", "lower"},
        {"mem.share", "ratio", "lower"},
        {"energy.on_access_ns", "ns", "lower"},
        {"energy.integrate_ns", "ns", "lower"},
        {"energy.share", "ratio", "lower"},
        {"sampling.access_ns", "ns", "lower"},
        {"sampling.windows", "count", "lower"},
        {"sampling.max_rel_ci", "ratio", "lower"},
        {"sampling.share", "ratio", "lower"},
        {"samp_err_pct", "%", "lower"},
    };
    return defs;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64) {
        return false;
    }
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
referencePath(const std::string &root, const std::string &workload,
              std::uint64_t seed)
{
    return root + "/perfbench/ref/" + workload + ".seed" +
           std::to_string(seed) + ".txt";
}

// Reference file lines (tab-separated, '#' comments):
//   line   <hex>  <formatRunKey>
//   exact  <group> <partitioner> <weighted speedup, %.17g>
Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream in(path);
    if (!in) {
        return ref;
    }
    std::string text;
    while (std::getline(in, text)) {
        if (text.empty() || text[0] == '#') {
            continue;
        }
        std::vector<std::string> fields;
        std::stringstream ss(text);
        std::string field;
        while (std::getline(ss, field, '\t')) {
            fields.push_back(field);
        }
        if (fields[0] == "line" && fields.size() == 3) {
            ref.line_hash[fields[2]] = std::stoull(fields[1], nullptr, 16);
        } else if (fields[0] == "exact" && fields.size() == 4) {
            ref.exact_ws[cellKey(fields[1], fields[2])] =
                std::stod(fields[3]);
        } else {
            throw std::runtime_error("malformed reference line in " +
                                     path + ": " + text);
        }
    }
    ref.loaded = true;
    return ref;
}

void
writeReference(const std::string &path, const std::string &title,
               const Reference &ref)
{
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
    char buf[64];
    out << "# " << title << "\n";
    for (const auto &[key, hash] : ref.line_hash) {
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
        out << "line\t" << buf << "\t" << key << "\n";
    }
    for (const auto &[cell, ws] : ref.exact_ws) {
        const std::size_t space = cell.find(' ');
        std::snprintf(buf, sizeof(buf), "%.17g", ws);
        out << "exact\t" << cell.substr(0, space) << "\t"
            << cell.substr(space + 1) << "\t" << buf << "\n";
    }
}

std::uint64_t
countMismatches(const std::vector<RunLine> &lines, const Reference &ref)
{
    std::uint64_t failed = 0;
    std::uint64_t matched = 0;
    for (const RunLine &l : lines) {
        const auto it = ref.line_hash.find(l.key);
        if (it == ref.line_hash.end()) {
            ++failed;
        } else if (it->second != fnv1a64(l.line)) {
            ++failed;
            ++matched;
        } else {
            ++matched;
        }
    }
    return failed + (ref.line_hash.size() - matched);
}

std::string
cellKey(const std::string &group, const std::string &partitioner)
{
    return group + " " + partitioner;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricValues &values, const std::vector<MetricDef> &defs)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &def : defs) {
        const auto it = values.find(def.name);
        if (it == values.end()) {
            throw std::logic_error("metric " + def.name + " not measured");
        }
        if (!std::isfinite(it->second)) {
            throw std::logic_error("metric " + def.name + " is not finite");
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g", it->second);
        out << (first ? "" : ", ") << "\"" << def.name
            << "\": {\"value\": " << buf << ", \"unit\": \"" << def.unit
            << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
