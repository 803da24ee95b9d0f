#include "sweep/shard.hpp"

#include <stdexcept>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"

namespace mbcr::sweep {

namespace {

/// "64x2" -> {sets 64, ways 2}.
std::pair<std::uint32_t, std::uint32_t> parse_geometry(
    const std::string& text) {
  const std::size_t x = text.find('x');
  if (x == std::string::npos || x == 0 || x + 1 == text.size()) {
    throw std::invalid_argument("sweep geometry '" + text +
                                "': expected SETSxWAYS, e.g. 64x2");
  }
  try {
    const auto sets =
        parse_uint<std::uint32_t>("geometries", text.substr(0, x));
    const auto ways =
        parse_uint<std::uint32_t>("geometries", text.substr(x + 1));
    if (sets != 0 && ways != 0) return {sets, ways};
  } catch (const std::invalid_argument&) {
    // The geometry may come from a spec document, not a flag: report it
    // as a geometry, not as `--geometries`.
  }
  throw std::invalid_argument("sweep geometry '" + text +
                              "': expected SETSxWAYS with positive "
                              "integers, e.g. 64x2");
}

/// A decimal-string member of the `seeds` array (64-bit seeds are
/// strings in spec JSON, like StudySpec's).
std::uint64_t seed_member(const std::string& text) {
  try {
    return parse_u64("seeds", text);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("sweep spec: seeds member '" + text +
                                "': expected a non-negative integer");
  }
}

json::Value string_array(const std::vector<std::string>& items) {
  json::Array arr;
  arr.reserve(items.size());
  for (const std::string& s : items) arr.emplace_back(s);
  return json::Value(std::move(arr));
}

}  // namespace

void SweepSpec::validate() const {
  for (const std::string& g : geometries) parse_geometry(g);
  for (const std::string& p : placements) parse_placement(p);
  for (const std::string& p : l2_policies) parse_l2_policy(p);
  if (!l2_policies.empty() && !base.config.machine.l2.enabled) {
    throw std::invalid_argument(
        "sweep l2-policies axis needs an enabled L2 (--l2-sets > 0)");
  }
  if (slice_runs > 0 && base.mode != core::StudyMode::kMeasure) {
    throw std::invalid_argument(
        "sweep slice-runs only applies to measure mode");
  }
  if (!suites.empty() && base.randprog_seed.has_value()) {
    throw std::invalid_argument(
        "sweep suites axis conflicts with a randprog base spec");
  }
  // The cross product itself is checked point-by-point in expand().
  expand();
}

std::vector<core::StudySpec> SweepSpec::expand() const {
  // Every axis degenerates to "the base value" when empty, so the loops
  // below always execute and an axis-free sweep is exactly one point.
  const std::vector<std::string> suite_axis =
      suites.empty() ? std::vector<std::string>{base.suite} : suites;
  const std::vector<std::string> geom_axis =
      geometries.empty() ? std::vector<std::string>{""} : geometries;
  const std::vector<std::string> l2_axis =
      l2_policies.empty() ? std::vector<std::string>{""} : l2_policies;
  const std::vector<std::string> place_axis =
      placements.empty() ? std::vector<std::string>{""} : placements;
  const std::vector<std::uint64_t> seed_axis =
      seeds.empty()
          ? std::vector<std::uint64_t>{base.config.campaign.master_seed}
          : seeds;

  std::vector<core::StudySpec> points;
  points.reserve(suite_axis.size() * geom_axis.size() * l2_axis.size() *
                 place_axis.size() * seed_axis.size());
  for (const std::string& suite : suite_axis) {
    for (const std::string& geom : geom_axis) {
      for (const std::string& l2pol : l2_axis) {
        for (const std::string& place : place_axis) {
          for (const std::uint64_t seed : seed_axis) {
            core::StudySpec point = base;
            point.suite = suite;
            if (!geom.empty()) {
              const auto [sets, ways] = parse_geometry(geom);
              point.config.machine.il1.sets = sets;
              point.config.machine.il1.ways = ways;
              point.config.machine.dl1.sets = sets;
              point.config.machine.dl1.ways = ways;
            }
            if (!l2pol.empty()) {
              point.config.machine.l2.policy = parse_l2_policy(l2pol);
            }
            if (!place.empty()) {
              const Placement p = parse_placement(place);
              point.config.machine.il1.placement = p;
              point.config.machine.dl1.placement = p;
            }
            point.config.campaign.master_seed = seed;
            point.validate();
            points.push_back(std::move(point));
          }
        }
      }
    }
  }
  return points;
}

json::Value SweepSpec::to_json() const {
  json::Object o;
  o.reserve(7);
  o.emplace_back("base", base.to_json());
  o.emplace_back("suites", string_array(suites));
  o.emplace_back("geometries", string_array(geometries));
  o.emplace_back("l2_policies", string_array(l2_policies));
  o.emplace_back("placements", string_array(placements));
  {
    // 64-bit seeds as decimal strings, like StudySpec does.
    json::Array arr;
    arr.reserve(seeds.size());
    for (const std::uint64_t s : seeds) arr.emplace_back(std::to_string(s));
    o.emplace_back("seeds", std::move(arr));
  }
  o.emplace_back("slice_runs", slice_runs);
  return json::Value(std::move(o));
}

SweepSpec SweepSpec::from_json(const json::Value& doc) {
  try {
    if (!doc.is_object()) {
      throw std::invalid_argument("sweep spec JSON must be an object");
    }
    SweepSpec spec;
    if (const json::Value* b = doc.find("base")) {
      spec.base = core::StudySpec::from_json(*b);
    }
    const auto read_strings = [&](const char* key,
                                  std::vector<std::string>& out) {
      if (const json::Value* v = doc.find(key)) {
        for (const json::Value& item : v->as_array()) {
          out.push_back(item.as_string());
        }
      }
    };
    read_strings("suites", spec.suites);
    read_strings("geometries", spec.geometries);
    read_strings("l2_policies", spec.l2_policies);
    read_strings("placements", spec.placements);
    if (const json::Value* v = doc.find("seeds")) {
      for (const json::Value& item : v->as_array()) {
        spec.seeds.push_back(
            item.is_string()
                ? seed_member(item.as_string())
                : json::as_integer<std::uint64_t>(item, "seeds"));
      }
    }
    if (const json::Value* v = doc.find("slice_runs")) {
      spec.slice_runs = json::as_integer<std::size_t>(*v, "slice_runs");
    }
    return spec;
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::runtime_error& e) {
    // Accessor type mismatches are malformed input: exit 2, not 1.
    throw std::invalid_argument(std::string("sweep spec: ") + e.what());
  }
}

std::string SweepSpec::id() const {
  const std::uint64_t h = util::fnv1a64(to_json().dump(0));
  char buf[17];
  static const char* kHex = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    buf[i] = kHex[(h >> (60 - 4 * i)) & 0xF];
  }
  buf[16] = '\0';
  return std::string(buf);
}

std::vector<SweepUnit> expand_units(
    const SweepSpec& spec, const std::vector<core::StudySpec>& points) {
  std::vector<SweepUnit> units;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const core::StudySpec& point = points[p];
    const bool sliceable = spec.slice_runs > 0 &&
                           point.mode == core::StudyMode::kMeasure &&
                           point.measure_runs > spec.slice_runs;
    if (!sliceable) {
      units.push_back({p, 0, 0});
      continue;
    }
    for (std::size_t first = 0; first < point.measure_runs;
         first += spec.slice_runs) {
      units.push_back(
          {p, first, std::min(spec.slice_runs, point.measure_runs - first)});
    }
  }
  return units;
}

std::vector<ShardRange> assign_shards(std::size_t units, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("sweep needs at least one shard");
  }
  std::vector<ShardRange> out(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    out[i] = {units * i / shards, units * (i + 1) / shards};
  }
  return out;
}

}  // namespace mbcr::sweep
