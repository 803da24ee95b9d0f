#include "sweep/journal.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/types.h>
#endif

#include "util/atomic_file.hpp"

namespace mbcr::sweep {

namespace {

std::string shard_file_name(std::size_t shard) {
  std::string n = std::to_string(shard);
  while (n.size() < 3) n.insert(n.begin(), '0');
  return "shard-" + n + ".json";
}

void make_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             std::strerror(errno));
  }
#else
  (void)path;
#endif
}

json::Value units_json(const std::vector<SweepUnit>& units) {
  json::Array arr;
  arr.reserve(units.size());
  for (const SweepUnit& u : units) {
    json::Object o;
    o.reserve(3);
    o.emplace_back("point", u.point);
    o.emplace_back("first_run", u.first_run);
    o.emplace_back("runs", u.runs);
    arr.emplace_back(std::move(o));
  }
  return json::Value(std::move(arr));
}

std::vector<SweepUnit> units_from_json(const json::Value& v) {
  std::vector<SweepUnit> out;
  for (const json::Value& item : v.as_array()) {
    SweepUnit u;
    u.point = json::as_integer<std::size_t>(item.at("point"), "point");
    u.first_run =
        json::as_integer<std::size_t>(item.at("first_run"), "first_run");
    u.runs = json::as_integer<std::size_t>(item.at("runs"), "runs");
    out.push_back(u);
  }
  return out;
}

/// The checksummed portion of a shard file, in canonical member order.
/// Writer and verifier both serialize through here, so the checksum is
/// over one well-defined byte string.
json::Value shard_payload(const std::string& sweep_id,
                          const ShardResult& result) {
  json::Object o;
  o.reserve(5);
  o.emplace_back("schema", kShardSchema);
  o.emplace_back("sweep_id", sweep_id);
  o.emplace_back("shard", result.shard);
  o.emplace_back("units", units_json(result.units));
  {
    json::Array studies;
    studies.reserve(result.studies.size());
    for (const json::Value& s : result.studies) studies.push_back(s);
    o.emplace_back("studies", std::move(studies));
  }
  return json::Value(std::move(o));
}

}  // namespace

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

std::string shard_path(const std::string& dir, std::size_t shard) {
  return dir + "/shards/" + shard_file_name(shard);
}

std::string shard_log_path(const std::string& dir, std::size_t shard,
                           int attempt) {
  return dir + "/logs/shard-" + std::to_string(shard) + "-attempt-" +
         std::to_string(attempt) + ".log";
}

void ensure_journal_dirs(const std::string& dir) {
  // mkdir -p over the requested path, then the two fixed subdirs.
  std::string prefix;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      if (!prefix.empty() && prefix != "/" && prefix != ".") {
        make_dir(prefix);
      }
    }
    if (i < dir.size()) prefix += dir[i];
  }
  make_dir(dir + "/shards");
  make_dir(dir + "/logs");
}

void write_manifest(const std::string& dir, const Manifest& manifest) {
  json::Object o;
  o.reserve(6);
  o.emplace_back("schema", kManifestSchema);
  o.emplace_back("sweep_id", manifest.sweep_id);
  o.emplace_back("spec", manifest.spec);
  o.emplace_back("shards", manifest.shards);
  o.emplace_back("units", manifest.units);
  o.emplace_back("points", manifest.points);
  util::write_file_atomic(manifest_path(dir),
                          json::Value(std::move(o)).dump(2) + "\n");
}

Manifest load_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  json::Value doc;
  try {
    doc = json::parse(util::read_file(path));
    Manifest m;
    if (doc.at("schema").as_string() != kManifestSchema) {
      throw std::runtime_error("schema is not " +
                               std::string(kManifestSchema));
    }
    m.sweep_id = doc.at("sweep_id").as_string();
    m.spec = doc.at("spec");
    m.shards = json::as_integer<std::size_t>(doc.at("shards"), "shards");
    m.units = json::as_integer<std::size_t>(doc.at("units"), "units");
    m.points = json::as_integer<std::size_t>(doc.at("points"), "points");
    if (m.shards == 0) throw std::runtime_error("zero shards");
    return m;
  } catch (const std::exception& e) {
    throw std::invalid_argument("sweep manifest " + path + ": " + e.what());
  }
}

std::string shard_result_text(const std::string& sweep_id,
                              const ShardResult& result) {
  json::Value payload = shard_payload(sweep_id, result);
  const std::string checksum = util::checksum_text(payload.dump(0));
  payload.set("payload_checksum", checksum);
  return payload.dump(2) + "\n";
}

void write_shard_result(const std::string& dir, const std::string& sweep_id,
                        const ShardResult& result) {
  util::write_file_atomic(shard_path(dir, result.shard),
                          shard_result_text(sweep_id, result));
}

std::optional<ShardResult> load_shard_result(const std::string& dir,
                                             const std::string& sweep_id,
                                             std::size_t shard,
                                             std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why) *why = reason;
    return std::nullopt;
  };
  const std::string path = shard_path(dir, shard);
  std::string text;
  try {
    text = util::read_file(path);
  } catch (const std::exception&) {
    return fail("missing result file " + path);
  }
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    return fail(path + ": " + e.what());
  }
  try {
    if (doc.at("schema").as_string() != kShardSchema) {
      return fail(path + ": schema is not " + std::string(kShardSchema));
    }
    if (doc.at("sweep_id").as_string() != sweep_id) {
      return fail(path + ": sweep id " + doc.at("sweep_id").as_string() +
                  " does not match " + sweep_id);
    }
    ShardResult result;
    result.shard = json::as_integer<std::size_t>(doc.at("shard"), "shard");
    if (result.shard != shard) {
      return fail(path + ": shard number mismatch");
    }
    result.units = units_from_json(doc.at("units"));
    for (const json::Value& s : doc.at("studies").as_array()) {
      result.studies.push_back(s);
    }
    if (result.studies.size() != result.units.size()) {
      return fail(path + ": unit/study arity mismatch");
    }
    const std::string recorded = doc.at("payload_checksum").as_string();
    const std::string computed =
        util::checksum_text(shard_payload(sweep_id, result).dump(0));
    if (recorded != computed) {
      return fail(path + ": checksum mismatch (recorded " + recorded +
                  ", computed " + computed + ")");
    }
    return result;
  } catch (const std::exception& e) {
    return fail(path + ": " + e.what());
  }
}

}  // namespace mbcr::sweep
