#include "api/spec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "api/parse_util.hpp"
#include "api/registry.hpp"
#include "common/geometry.hpp"
#include "common/logging.hpp"
#include "trace/spec_profiles.hpp"

namespace coopsim::api
{

using detail::parseDouble;
using detail::splitWords;

namespace
{

constexpr const char *kSpecMagic = "coopsim-spec v1";

// ---------------------------------------------------------------------------
// Value codecs shared by spec lines and key-line fields

template <auto Member>
constexpr bool kNone = std::is_null_pointer_v<decltype(Member)>;

/** Appends the text of @p value: a list's values space-separated, an
 *  enum as its name in @p Registry. */
template <auto Registry = nullptr, typename T>
void
put(std::string &out, const T &value)
{
    if constexpr (std::is_enum_v<T>) {
        out += Registry().nameOf(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out += value;
    } else if constexpr (std::is_same_v<T, bool>) {
        out += value ? "on" : "off";
    } else if constexpr (std::is_same_v<T, double>) {
        out += detail::fmtDouble(value);
    } else {
        out += std::to_string(value);
    }
}

template <auto Registry = nullptr, typename T>
void
put(std::string &out, const std::vector<T> &values)
{
    const char *separator = "";
    for (const T &value : values) {
        out += separator;
        separator = " ";
        put(out, value);
    }
}

/** Parses one word into @p value; false when it is malformed. A name
 *  must be in @p Registry (an enum takes the value it names). NaN and
 *  integers above the field's width are malformed: a NaN key never
 *  equals itself, and a truncated count names another run. */
template <auto Registry = nullptr, typename T>
bool
get(const std::string &text, T &value)
{
    if constexpr (!kNone<Registry>) {
        const auto *named = Registry().find(text);
        if (named == nullptr) {
            return false;
        }
        if constexpr (std::is_enum_v<T>) {
            value = *named;
        } else {
            value = text;
        }
        return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        value = text;
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        value = text == "on";
        return value || text == "off";
    } else if constexpr (std::is_same_v<T, double>) {
        return detail::tryParseDouble(text, value) && !std::isnan(value);
    } else {
        std::uint64_t wide = 0;
        if (!detail::tryParseUint(text, wide) ||
            wide > std::numeric_limits<T>::max()) {
            return false;
        }
        value = static_cast<T>(wide);
        return true;
    }
}

/** Parses a spec value; fatal, naming @p noun, when it is malformed. */
template <typename T>
void
parseValue(const std::string &text, const char *noun, T &value)
{
    if (!get(text, value)) {
        COOPSIM_FATAL("invalid ", noun, " value '", text, "'",
                      std::is_same_v<T, bool> ? " (expected on or off)"
                                              : "");
    }
}

/** A list line replaces the whole list, one value per word. */
template <typename T>
void
parseValue(const std::string &text, const char *noun,
           std::vector<T> &values)
{
    std::vector<T> parsed;
    for (const std::string &word : splitWords(text)) {
        parseValue(word, noun, parsed.emplace_back());
    }
    values = std::move(parsed);
}

// ---------------------------------------------------------------------------
// The axis table

/** Key-line fields written only while one of them is off its RunKey
 *  default, so lines written before they existed stay byte-stable. */
enum class Omit : std::uint8_t
{
    Never,
    Banking,
    Sampling,
};

/** One ExperimentSpec line, with the Cell member of a swept axis and
 *  the RunKey member of a key-line field; row() fills the codecs. */
struct Field
{
    const char *key;
    /** Names the value in fatal messages (the key when unset). */
    const char *noun = nullptr;
    /** Key-line field name and its position on the line. */
    const char *field = nullptr;
    std::size_t slot = 0;
    Omit omit = Omit::Never;
    /** The key-line value solo keys hold, or nullptr when they take the
     *  axis from the cell or spec like group keys. */
    const char *solo = nullptr;
    /** Expands fastest whatever its row (seeds, as every store and
     *  shard so far was ordered). */
    bool innermost = false;

    void (*format)(const ExperimentSpec &, std::string &) = nullptr;
    void (*parse)(const std::string &, const char *,
                  ExperimentSpec &) = nullptr;
    std::vector<std::string> (*names)() = nullptr;
    /** Sets the cell's member to the spec's @p i-th value; false past
     *  the end. */
    bool (*pick)(const ExperimentSpec &, std::size_t i, Cell &) = nullptr;
    void (*build)(const Field &, const ExperimentSpec &, const Cell &,
                  sim::RunKey &) = nullptr;
    void (*format_key)(const sim::RunKey &, std::string &) = nullptr;
    bool (*parse_key)(const std::string &, sim::RunKey &) = nullptr;
    bool (*is_default)(const sim::RunKey &) = nullptr;
};

/** The value a cell sets for an axis, or nullptr. */
const std::string *
chosen(const std::string &name)
{
    return name.empty() ? nullptr : &name;
}

template <typename T>
const T *
chosen(const std::optional<T> &value)
{
    return value ? &*value : nullptr;
}

/** key.*KeyMember from the cell's value, else the spec's first. Names
 *  resolve here, so an unknown one is fatal at key-build time rather
 *  than in a worker thread mid-sweep. */
template <auto SpecMember, auto CellMember, auto KeyMember, auto Registry>
void
buildAxis(const Field &field, const ExperimentSpec &spec, const Cell &cell,
          sim::RunKey &key)
{
    const auto *value = chosen(cell.*CellMember);
    if (value == nullptr) {
        if ((spec.*SpecMember).empty()) {
            COOPSIM_FATAL("cell does not specify a ", field.noun,
                          " and the spec's ", field.noun,
                          " axis is empty");
        }
        value = &(spec.*SpecMember).front();
    }
    if constexpr (kNone<Registry>) {
        key.*KeyMember = *value;
    } else if (!get<Registry>(*value, key.*KeyMember)) {
        Registry().get(*value); // fatal, listing the known names
    }
}

/** Completes table row @p f with the codecs of the members it names. */
template <auto SpecMember, auto CellMember = nullptr,
          auto KeyMember = nullptr, auto Registry = nullptr>
constexpr Field
row(Field f)
{
    f.noun = f.noun != nullptr ? f.noun : f.key;
    f.format = [](const ExperimentSpec &spec, std::string &out) {
        put(out, spec.*SpecMember);
    };
    f.parse = [](const std::string &text, const char *noun,
                 ExperimentSpec &spec) {
        parseValue(text, noun, spec.*SpecMember);
    };
    if constexpr (!kNone<Registry>) {
        f.names = [] { return Registry().names(); };
    }
    if constexpr (!kNone<CellMember>) {
        f.pick = [](const ExperimentSpec &spec, std::size_t i, Cell &cell) {
            const auto &axis = spec.*SpecMember;
            if (i < axis.size()) {
                cell.*CellMember = axis[i];
            }
            return i < axis.size();
        };
        f.build = buildAxis<SpecMember, CellMember, KeyMember, Registry>;
    }
    if constexpr (!kNone<KeyMember>) {
        f.format_key = [](const sim::RunKey &key, std::string &out) {
            put<Registry>(out, key.*KeyMember);
        };
        f.parse_key = [](const std::string &text, sim::RunKey &key) {
            return get<Registry>(text, key.*KeyMember);
        };
        f.is_default = [](const sim::RunKey &key) {
            return key.*KeyMember == sim::RunKey{}.*KeyMember;
        };
    }
    return f;
}

using Spec = ExperimentSpec;
using Key = sim::RunKey;

/**
 * Every spec line, in spec-text order. A new axis is one row here plus
 * the members it names; a new key-line field takes the next slot and
 * an Omit group, so existing key lines stay byte-stable. Scale and the
 * sampling knobs are set by buildKey(), name and core count by
 * groupKey() and soloKey().
 */
constexpr Field kFields[] = {
    row<&Spec::name>({.key = "name"}),
    row<&Spec::title>({.key = "title"}),
    row<&Spec::layout>({.key = "layout"}),
    row<&Spec::metric>({.key = "metric"}),
    row<&Spec::baseline>({.key = "baseline"}),
    row<&Spec::higher_better>({.key = "higher_better"}),
    row<&Spec::with_solo>({.key = "with_solo"}),
    row<&Spec::schemes, &Cell::scheme, &Key::scheme, schemeRegistry>(
        {.key = "schemes", .noun = "scheme", .field = "scheme", .slot = 0,
         .solo = "unmanaged"}),
    row<&Spec::groups, nullptr, &Key::name>(
        {.key = "groups", .field = "name", .slot = 1}),
    row<&Spec::cores, nullptr, &Key::num_cores>(
        {.key = "cores", .field = "cores", .slot = 2}),
    row<&Spec::thresholds, &Cell::threshold, &Key::threshold>(
        {.key = "thresholds", .noun = "threshold", .field = "threshold",
         .slot = 4, .solo = "0"}),
    row<&Spec::threshold_modes, &Cell::threshold_mode, &Key::threshold_mode,
        thresholdModeRegistry>({.key = "threshold_modes",
                                .noun = "threshold mode", .field = "tmode",
                                .slot = 5, .solo = "missratio"}),
    row<&Spec::partitioners, &Cell::partitioner, &Key::partitioner,
        partitionerRegistry>({.key = "partitioners", .noun = "partitioner",
                              .field = "partitioner", .slot = 6,
                              .solo = "lookahead"}),
    row<&Spec::repl, &Cell::repl, &Key::repl, replPolicyRegistry>(
        {.key = "repl", .noun = "replacement policy", .field = "repl",
         .slot = 7}),
    row<&Spec::gating, &Cell::gating, &Key::gating, gatingModeRegistry>(
        {.key = "gating", .noun = "gating mode", .field = "gating",
         .slot = 8, .solo = "gatedvdd"}),
    row<&Spec::seeds, &Cell::seed, &Key::seed>(
        {.key = "seeds", .noun = "seed", .field = "seed", .slot = 9,
         .innermost = true}),
    row<&Spec::banks, &Cell::banks, &Key::banks>(
        {.key = "banks", .field = "banks", .slot = 10,
         .omit = Omit::Banking, .solo = "0"}),
    row<&Spec::slice_hashes, &Cell::slice_hash, &Key::slice_hash,
        sliceHashRegistry>({.key = "slice_hashes", .noun = "slice hash",
                            .field = "slice-hash", .slot = 11,
                            .omit = Omit::Banking, .solo = "mod"}),
    row<&Spec::sampling, &Cell::sampling, &Key::sampling, samplingRegistry>(
        {.key = "sampling", .noun = "sampling mode", .field = "sampling",
         .slot = 12, .omit = Omit::Sampling}),
    row<&Spec::set_sample_period, nullptr, &Key::set_sample_period>(
        {.key = "set_sample_period", .field = "sample-period", .slot = 13,
         .omit = Omit::Sampling}),
    row<&Spec::op_sample_windows, nullptr, &Key::op_sample_windows>(
        {.key = "op_sample_windows", .field = "op-windows", .slot = 14,
         .omit = Omit::Sampling}),
    row<&Spec::scale, nullptr, &Key::scale, scaleRegistry>(
        {.key = "scale", .field = "scale", .slot = 3}),
    row<&Spec::solos>({.key = "solos"}),
    row<&Spec::solo_cores>({.key = "solo_cores"}),
};

/** The key-line fields in line order (indexed by slot). */
constexpr auto kKeyLine = [] {
    std::array<const Field *, std::ranges::count_if(kFields, [](auto &f) {
                                  return f.field != nullptr;
                              })>
        line{};
    for (const Field &f : kFields) {
        if (f.field != nullptr) {
            line[f.slot] = &f;
        }
    }
    return line;
}();
static_assert(std::ranges::find(kKeyLine, nullptr) == kKeyLine.end(),
              "each key-line slot holds exactly one field");

/** The swept axes in expansion order: table order, innermost rows
 *  last; @p solo_only keeps the axes solo keys take from the cell. */
std::vector<const Field *>
sweepOrder(bool solo_only)
{
    std::vector<const Field *> axes;
    for (const bool innermost : {false, true}) {
        for (const Field &f : kFields) {
            if (f.pick != nullptr && f.innermost == innermost &&
                (!solo_only || f.solo == nullptr)) {
                axes.push_back(&f);
            }
        }
    }
    return axes;
}

/** Calls @p emit with every cell of the cross-product of @p axes over
 *  @p cell, the first axis outermost. */
template <typename Emit>
void
forEachCell(const ExperimentSpec &spec, std::span<const Field *const> axes,
            Cell &cell, Emit &&emit)
{
    if (axes.empty()) {
        emit(cell);
        return;
    }
    for (std::size_t i = 0; axes.front()->pick(spec, i, cell); ++i) {
        forEachCell(spec, axes.subspan(1), cell, emit);
    }
}

/** The RunKey members the spec and @p cell determine, for a key of
 *  @p kind: a solo key holds the rows' solo values where they have
 *  one. */
sim::RunKey
buildKey(const ExperimentSpec &spec, const Cell &cell, sim::RunKey::Kind kind)
{
    static const sim::RunKey solo_base = [] {
        sim::RunKey key;
        key.kind = sim::RunKey::Kind::Solo;
        for (const Field &f : kFields) {
            if (f.solo != nullptr) {
                f.parse_key(f.solo, key);
            }
        }
        return key;
    }();
    const bool solo = kind == sim::RunKey::Kind::Solo;
    sim::RunKey key = solo ? solo_base : sim::RunKey{};
    for (const Field &f : kFields) {
        if (f.build != nullptr && !(solo && f.solo != nullptr)) {
            f.build(f, spec, cell, key);
        }
    }
    key.scale = scaleRegistry().get(spec.scale);
    // Knobs the mode does not use are zeroed, so exact keys carry no
    // sampling state.
    key.set_sample_period =
        sampling::setSampled(key.sampling) ? spec.set_sample_period : 0;
    key.op_sample_windows =
        key.sampling != sampling::Mode::Exact ? spec.op_sample_windows : 0;
    return key;
}

/** The apps named by the solos axis ("*" expands to all of Table 3). */
std::vector<std::string>
resolveSolos(const ExperimentSpec &spec)
{
    std::vector<std::string> apps;
    for (const std::string &name : spec.solos) {
        if (name == "*") {
            for (const std::string &app : trace::allSpecApps()) {
                apps.push_back(app);
            }
        } else {
            apps.push_back(name);
        }
    }
    return apps;
}

} // namespace

sim::RunKey
groupKey(const ExperimentSpec &spec, const Cell &cell)
{
    sim::RunKey key = buildKey(spec, cell, sim::RunKey::Kind::Group);
    key.name = cell.group;
    key.num_cores = static_cast<std::uint32_t>(
        workloadRegistry().get(cell.group).apps.size());
    return key;
}

sim::RunKey
soloKey(const ExperimentSpec &spec, const std::string &app,
        std::uint32_t cores, const Cell &cell)
{
    sim::RunKey key = buildKey(spec, cell, sim::RunKey::Kind::Solo);
    key.name = app;
    key.num_cores = cores;
    return key;
}

void
validateSpec(const ExperimentSpec &spec)
{
    validateSpecGroups(spec);
}

std::vector<trace::WorkloadGroup>
validateSpecGroups(const ExperimentSpec &spec)
{
    static const char *kLayouts[] = {
        "schemes",  "thresholds", "partitioners", "takeover",
        "transfers", "bandwidth", "none",
    };
    bool layout_known = false;
    for (const char *layout : kLayouts) {
        layout_known = layout_known || spec.layout == layout;
    }
    if (!layout_known) {
        std::string known;
        for (const char *layout : kLayouts) {
            known += known.empty() ? "" : ", ";
            known += layout;
        }
        COOPSIM_FATAL("unknown layout '", spec.layout, "' (expected ",
                      known, ")");
    }
    // Building each axis value into a key resolves every name.
    for (const Field &f : kFields) {
        Cell cell;
        sim::RunKey key;
        for (std::size_t i = 0; f.pick != nullptr && f.pick(spec, i, cell);
             ++i) {
            f.build(f, spec, cell, key);
        }
    }
    std::vector<trace::WorkloadGroup> groups = resolveSpecGroups(spec);
    if (spec.set_sample_period != 0 &&
        !isPowerOfTwo(spec.set_sample_period)) {
        COOPSIM_FATAL("set_sample_period ", spec.set_sample_period,
                      " must be a power of two (or 0 for the default)");
    }
    scaleRegistry().get(spec.scale);
    for (const std::string &app : resolveSolos(spec)) {
        trace::specProfile(app); // fatal on an unknown benchmark
    }
    if (!spec.groups.empty() && !spec.cores.empty() && groups.empty()) {
        COOPSIM_FATAL("the cores filter leaves no workload group (the "
                      "groups axis resolves to none of the listed "
                      "core counts)");
    }
    if (spec.layout == "schemes" && !spec.schemes.empty()) {
        bool found = false;
        for (const std::string &scheme : spec.schemes) {
            found = found || scheme == spec.baseline;
        }
        if (!found) {
            COOPSIM_FATAL("baseline scheme '", spec.baseline,
                          "' is not in the spec's schemes axis");
        }
    }
    if (spec.layout == "thresholds") {
        const double baseline =
            parseDouble(spec.baseline, "baseline threshold");
        bool found = false;
        for (const double t : spec.thresholds) {
            found = found || t == baseline;
        }
        if (!found) {
            COOPSIM_FATAL("baseline threshold ", spec.baseline,
                          " is not in the spec's thresholds axis");
        }
    }
    if (spec.layout == "partitioners") {
        bool found = false;
        for (const std::string &partitioner : spec.partitioners) {
            found = found || partitioner == spec.baseline;
        }
        if (!found) {
            COOPSIM_FATAL("baseline partitioner '", spec.baseline,
                          "' is not in the spec's partitioners axis");
        }
    }
    if ((spec.layout == "transfers" || spec.layout == "bandwidth") &&
        spec.schemes.size() < 2) {
        COOPSIM_FATAL("layout '", spec.layout,
                      "' compares the first two schemes; the spec "
                      "names ", spec.schemes.size());
    }
    if (spec.layout == "takeover" && spec.schemes.empty()) {
        COOPSIM_FATAL("layout 'takeover' needs a scheme");
    }
    return groups;
}

std::vector<trace::WorkloadGroup>
resolveSpecGroups(const ExperimentSpec &spec)
{
    std::vector<trace::WorkloadGroup> groups;
    for (const std::string &pattern : spec.groups) {
        for (trace::WorkloadGroup &group : resolveWorkloads(pattern)) {
            const auto size = static_cast<std::uint32_t>(group.apps.size());
            if (spec.cores.empty() ||
                std::ranges::find(spec.cores, size) != spec.cores.end()) {
                groups.push_back(std::move(group));
            }
        }
    }
    return groups;
}

std::vector<sim::RunKey>
expandSpec(const ExperimentSpec &spec)
{
    return expandSpec(spec, validateSpecGroups(spec));
}

std::vector<sim::RunKey>
expandSpec(const ExperimentSpec &spec,
           const std::vector<trace::WorkloadGroup> &groups)
{
    static const std::vector<const Field *> group_axes = sweepOrder(false);
    static const std::vector<const Field *> solo_axes = sweepOrder(true);
    std::vector<sim::RunKey> keys;

    // Group runs: the full cross-product, groups outermost so all
    // cells of one table row are adjacent in the queue.
    for (const trace::WorkloadGroup &group : groups) {
        Cell cell{.group = group.name};
        forEachCell(spec, group_axes, cell, [&](const Cell &full) {
            keys.push_back(groupKey(spec, full));
        });
    }

    // Solo baselines: the solo axes are app x cores x the axes soloKey()
    // inherits (repl, sampling, seed); it normalises every other axis
    // away. An (app, cores) pair shared by several groups is expanded
    // once, and repeated axis values yield each key once.
    std::set<std::pair<std::string, std::uint32_t>> expanded;
    std::unordered_set<sim::RunKey, sim::RunKeyHash> seen;
    auto add_solo = [&](const std::string &app, std::uint32_t cores) {
        if (!expanded.emplace(app, cores).second) {
            return;
        }
        Cell cell;
        forEachCell(spec, solo_axes, cell, [&](const Cell &full) {
            sim::RunKey key = soloKey(spec, app, cores, full);
            if (seen.insert(key).second) {
                keys.push_back(std::move(key));
            }
        });
    };
    if (spec.with_solo) {
        for (const trace::WorkloadGroup &group : groups) {
            const auto cores =
                static_cast<std::uint32_t>(group.apps.size());
            for (const std::string &app : group.apps) {
                add_solo(app, cores);
            }
        }
    }
    for (const std::string &app : resolveSolos(spec)) {
        add_solo(app, spec.solo_cores);
    }
    return keys;
}

std::vector<SweptAxis>
sweptAxes()
{
    std::vector<SweptAxis> axes;
    for (const Field &f : kFields) {
        if (f.pick != nullptr) {
            axes.push_back({f.key, f.names != nullptr
                                       ? f.names()
                                       : std::vector<std::string>{}});
        }
    }
    return axes;
}

std::vector<sim::RunKey>
shardKeys(const std::vector<sim::RunKey> &keys, unsigned index,
          unsigned count)
{
    if (count < 1) {
        COOPSIM_FATAL("shard count must be at least 1");
    }
    if (index >= count) {
        COOPSIM_FATAL("shard index ", index, " out of range for ",
                      count, " shards (need 0 <= I < N)");
    }
    std::vector<sim::RunKey> slice;
    slice.reserve(keys.size() / count + 1);
    for (std::size_t i = index; i < keys.size(); i += count) {
        slice.push_back(keys[i]);
    }
    return slice;
}

// ---------------------------------------------------------------------------
// Canonical text encoding

std::string
formatSpec(const ExperimentSpec &spec)
{
    std::string out = kSpecMagic;
    out += "\n";
    for (const Field &f : kFields) {
        out += f.key;
        const std::size_t bare = out.size();
        out += " ";
        f.format(spec, out);
        if (out.size() == bare + 1) {
            out.pop_back(); // an empty value leaves the bare key
        }
        out += "\n";
    }
    return out;
}

ExperimentSpec
parseSpec(const std::string &text)
{
    std::istringstream stream(text);
    std::string line;
    if (!std::getline(stream, line) || line != kSpecMagic) {
        COOPSIM_FATAL("not a coopsim spec (expected first line '",
                      kSpecMagic, "', got '", line, "')");
    }

    ExperimentSpec spec;
    // The defaulted axes are replaced, not appended to, when the key
    // appears.
    while (std::getline(stream, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t space = line.find(' ');
        const std::string key = line.substr(0, space);
        const auto f = std::ranges::find_if(
            kFields, [&key](const Field &f) { return key == f.key; });
        if (f == std::end(kFields)) {
            COOPSIM_FATAL("unknown spec key '", key, "'");
        }
        f->parse(space == std::string::npos ? "" : line.substr(space + 1),
                 f->noun, spec);
    }
    return spec;
}

ExperimentSpec
parseSpecFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        COOPSIM_FATAL("cannot open spec file '", path, "'");
    }
    std::ostringstream text;
    text << file.rdbuf();
    return parseSpec(text.str());
}

std::string
formatRunKey(const sim::RunKey &key)
{
    std::string out =
        key.kind == sim::RunKey::Kind::Group ? "group" : "solo";
    for (const Field *f : kKeyLine) {
        const auto omitted = [&](const Field *g) {
            return g->omit != f->omit || g->is_default(key);
        };
        if (f->omit != Omit::Never && std::ranges::all_of(kKeyLine, omitted)) {
            continue; // every field of its omission group is at default
        }
        out += " ";
        out += f->field;
        out += "=";
        f->format_key(key, out);
    }
    return out;
}

bool
tryParseRunKey(const std::string &line, sim::RunKey &out)
{
    const std::vector<std::string> words = splitWords(line);
    if (words.empty() ||
        (words[0] != "group" && words[0] != "solo")) {
        return false;
    }
    sim::RunKey key;
    key.kind = words[0] == "group" ? sim::RunKey::Kind::Group
                                   : sim::RunKey::Kind::Solo;
    for (std::size_t i = 1; i < words.size(); ++i) {
        const std::size_t eq = words[i].find('=');
        if (eq == std::string::npos) {
            return false;
        }
        const std::string name = words[i].substr(0, eq);
        const auto f = std::ranges::find_if(
            kKeyLine, [&name](const Field *f) { return name == f->field; });
        if (f == kKeyLine.end() ||
            !(*f)->parse_key(words[i].substr(eq + 1), key)) {
            return false;
        }
    }
    out = std::move(key);
    return true;
}

sim::RunKey
parseRunKey(const std::string &line)
{
    sim::RunKey key;
    if (!tryParseRunKey(line, key)) {
        COOPSIM_FATAL("invalid run key line '", line, "'");
    }
    return key;
}

} // namespace coopsim::api
