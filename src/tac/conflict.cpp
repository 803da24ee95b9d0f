#include "tac/conflict.hpp"

#include <algorithm>

#include "tac/impact.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"

namespace mbcr::tac {

bool modulo_group_co_mappable(std::span<const Addr> lines,
                              std::uint32_t sets) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      if (lines[i] / sets == lines[j] / sets) return false;
    }
  }
  return true;
}

double binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0.0;
  k = std::min(k, n - k);
  double r = 1.0;
  for (std::size_t i = 1; i <= k; ++i) {
    r *= static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return r;
}

namespace {

/// Recursively distributes `remaining` picks over clusters c..end.
void distribute(const ReuseProfile& profile, const CacheConfig& cache,
                const ConflictConfig& cfg, std::size_t n_clusters,
                std::size_t cluster, std::size_t remaining,
                std::vector<std::size_t>& mult,
                std::vector<ConflictGroup>& out) {
  if (remaining == 0) {
    // One poll per candidate group: a group costs `impact_trials` replays,
    // and wide caches enumerate enough of them to run for minutes.
    util::throw_if_shutdown();
    ConflictGroup g;
    g.cluster_multiplicity = mult;
    double combos = 1.0;
    std::vector<std::size_t> rep_indices;
    std::uint64_t access_count = 0;
    for (std::size_t c = 0; c < mult.size(); ++c) {
      if (mult[c] == 0) continue;
      const AccessCluster& cl = profile.clusters[c];
      combos *= binomial(cl.size(), mult[c]);
      for (std::size_t i = 0; i < mult[c]; ++i) {
        rep_indices.push_back(cl.line_indices[i]);
        access_count += profile.lines[cl.line_indices[i]].count;
      }
    }
    if (combos <= 0.0) return;
    if (static_cast<double>(access_count) <
        cfg.min_access_share * static_cast<double>(profile.sequence_length)) {
      return;
    }
    g.group_size = rep_indices.size();
    g.combination_count = combos;
    g.extra_misses = group_extra_misses(
        profile, rep_indices, cache.ways,
        mix64(g.group_size, cfg.seed), cfg.impact_trials);
    for (std::size_t idx : rep_indices) {
      g.representative_lines.push_back(profile.lines[idx].line);
    }
    if (g.extra_misses > 0.0) out.push_back(std::move(g));
    return;
  }
  if (cluster >= n_clusters) return;
  const std::size_t cap =
      std::min(remaining, profile.clusters[cluster].size());
  for (std::size_t m = 0; m <= cap; ++m) {
    mult[cluster] = m;
    distribute(profile, cache, cfg, n_clusters, cluster + 1, remaining - m,
               mult, out);
  }
  mult[cluster] = 0;
}

}  // namespace

std::vector<ConflictGroup> enumerate_conflict_groups(
    const ReuseProfile& profile, const CacheConfig& cache,
    const ConflictConfig& config) {
  std::vector<ConflictGroup> out;
  const std::size_t n_clusters =
      std::min(config.max_clusters, profile.clusters.size());
  for (std::size_t extra : config.extra_group_sizes) {
    const std::size_t k = cache.ways + 1 + extra;
    std::size_t available = 0;
    for (std::size_t c = 0; c < n_clusters; ++c) {
      available += profile.clusters[c].size();
    }
    if (available < k) continue;
    std::vector<std::size_t> mult(n_clusters, 0);
    distribute(profile, cache, config, n_clusters, 0, k, mult, out);
  }
  std::sort(out.begin(), out.end(),
            [](const ConflictGroup& a, const ConflictGroup& b) {
              return a.extra_misses > b.extra_misses;
            });
  return out;
}

std::vector<ConflictGroup> enumerate_conflict_groups_exhaustive(
    const ReuseProfile& profile, const CacheConfig& cache,
    std::size_t group_size, std::uint32_t impact_trials,
    std::uint64_t seed) {
  std::vector<ConflictGroup> out;
  const std::size_t n = profile.lines.size();
  if (n < group_size) return out;
  std::vector<std::size_t> pick(group_size);
  // Iterative enumeration of all C(n, k) index combinations.
  for (std::size_t i = 0; i < group_size; ++i) pick[i] = i;
  bool more = true;
  while (more) {
    util::throw_if_shutdown();
    ConflictGroup g;
    g.group_size = group_size;
    g.combination_count = 1.0;
    g.extra_misses =
        group_extra_misses(profile, pick, cache.ways, seed, impact_trials);
    for (std::size_t idx : pick) {
      g.representative_lines.push_back(profile.lines[idx].line);
    }
    if (g.extra_misses > 0.0) out.push_back(std::move(g));
    // Advance to the next combination (standard odometer).
    more = false;
    for (std::size_t i = group_size; i-- > 0;) {
      if (pick[i] != i + n - group_size) {
        ++pick[i];
        for (std::size_t j = i + 1; j < group_size; ++j) {
          pick[j] = pick[j - 1] + 1;
        }
        more = true;
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ConflictGroup& a, const ConflictGroup& b) {
              return a.extra_misses > b.extra_misses;
            });
  return out;
}

}  // namespace mbcr::tac
