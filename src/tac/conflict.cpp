#include "tac/conflict.hpp"

#include <algorithm>

#include "tac/impact.hpp"
#include "util/pool.hpp"
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

/// Candidates whose impacts one `parallel_for` estimates. Large enough to
/// amortise the hand-off to the pool, small enough to stay in cache. The
/// results do not depend on it.
constexpr std::size_t kBatch = 4096;

/// Candidates per pool chunk: their costs vary by orders of magnitude.
constexpr std::size_t kGrain = 16;

/// Walks the cluster multisets of one group size k in a fixed order and
/// keeps the groups with positive impact, in that order.
class Enumerator {
public:
  Enumerator(const ReuseProfile& profile, const CacheConfig& cache,
             const ConflictConfig& cfg, std::size_t n_clusters,
             std::size_t k, unsigned threads, std::vector<ConflictGroup>& out)
      : profile_(profile),
        cache_(cache),
        cfg_(cfg),
        n_clusters_(n_clusters),
        k_(k),
        seed_(mix64(k, cfg.seed)),
        min_accesses_(cfg.min_access_share *
                      static_cast<double>(profile.sequence_length)),
        max_helpers_(ThreadPool::helpers_for(threads)),
        modulo_(cache.placement == Placement::kModulo),
        out_(out) {
    if (modulo_) {
      // Distinct S-line blocks per cluster, for the pigeonhole test.
      distinct_blocks_.reserve(n_clusters);
      std::vector<Addr> blocks;
      for (std::size_t c = 0; c < n_clusters; ++c) {
        blocks.clear();
        for (const std::size_t idx : profile.clusters[c].line_indices) {
          blocks.push_back(profile.lines[idx].line / cache.sets);
        }
        std::sort(blocks.begin(), blocks.end());
        distinct_blocks_.push_back(static_cast<std::size_t>(
            std::unique(blocks.begin(), blocks.end()) - blocks.begin()));
      }
    }
    picks_.reserve(k);
    lines_.reserve(kBatch * k);
  }

  void run() {
    distribute(0, k_, 1.0, 0, true);
    flush();
  }

private:
  /// Distributes `remaining` picks over clusters `cluster`..end. `combos`
  /// is the running prod C(|c_i|, m_i), multiplied in cluster order;
  /// `separable` is false once some cluster gives more lines than it has
  /// distinct blocks.
  void distribute(std::size_t cluster, std::size_t remaining, double combos,
                  std::uint64_t accesses, bool separable) {
    if (remaining == 0) {
      leaf(combos, accesses, separable);
      return;
    }
    if (cluster >= n_clusters_) return;
    const AccessCluster& cl = profile_.clusters[cluster];
    const std::size_t cap = std::min(remaining, cl.size());
    distribute(cluster + 1, remaining, combos, accesses, separable);
    for (std::size_t m = 1; m <= cap; ++m) {
      const std::size_t idx = cl.line_indices[m - 1];
      picks_.push_back(idx);
      accesses += profile_.lines[idx].count;
      distribute(cluster + 1, remaining - m, combos * binomial(cl.size(), m),
                 accesses,
                 separable && (!modulo_ || distinct_blocks_[cluster] >= m));
    }
    picks_.resize(picks_.size() - cap);
  }

  void leaf(double combos, std::uint64_t accesses, bool separable) {
    // One poll per candidate group: a wide cache enumerates enough of
    // them to run for minutes.
    util::throw_if_shutdown();
    if (static_cast<double>(accesses) < min_accesses_) return;
    bool co_mappable = true;
    if (modulo_) {
      if (combos <= 1.0) {
        // One concrete group: its own lines decide.
        rep_.clear();
        for (const std::size_t idx : picks_) {
          rep_.push_back(profile_.lines[idx].line);
        }
        co_mappable = modulo_group_co_mappable(rep_, cache_.sets);
      } else {
        co_mappable = separable;
      }
    }
    lines_.insert(lines_.end(), picks_.begin(), picks_.end());
    combos_.push_back(combos);
    co_mappable_.push_back(co_mappable);
    if (combos_.size() == kBatch) flush();
  }

  /// Estimates the batch's impacts on the pool, then appends the positive
  /// ones serially, in enumeration order.
  void flush() {
    const std::size_t n = combos_.size();
    extra_.resize(n);
    ThreadPool::shared().parallel_for(
        n, kGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            // Polled again here, where the time goes; the pool rethrows
            // on the calling thread.
            util::throw_if_shutdown();
            extra_[i] = group_extra_misses(
                profile_, std::span<const std::size_t>(&lines_[i * k_], k_),
                cache_.ways, seed_, cfg_.impact_trials);
          }
        },
        max_helpers_);
    for (std::size_t i = 0; i < n; ++i) {
      if (extra_[i] <= 0.0) continue;
      ConflictGroup g;
      g.group_size = k_;
      g.combination_count = combos_[i];
      g.extra_misses = extra_[i];
      g.representative_lines.reserve(k_);
      for (std::size_t j = i * k_; j < (i + 1) * k_; ++j) {
        g.representative_lines.push_back(profile_.lines[lines_[j]].line);
      }
      g.co_mappable = co_mappable_[i];
      out_.push_back(std::move(g));
    }
    lines_.clear();
    combos_.clear();
    co_mappable_.clear();
  }

  const ReuseProfile& profile_;
  const CacheConfig& cache_;
  const ConflictConfig& cfg_;
  const std::size_t n_clusters_;
  const std::size_t k_;
  /// Shared by every size-k group, so an impact does not depend on
  /// which thread estimates it, or when.
  const std::uint64_t seed_;
  const double min_accesses_;
  const std::size_t max_helpers_;
  const bool modulo_;
  std::vector<ConflictGroup>& out_;
  std::vector<std::size_t> distinct_blocks_;
  std::vector<std::size_t> picks_;  ///< representative line indices
  std::vector<Addr> rep_;
  // The batch, flat: candidate i's lines are lines_[i*k, (i+1)*k).
  std::vector<std::size_t> lines_;
  std::vector<double> combos_;
  std::vector<bool> co_mappable_;
  std::vector<double> extra_;
};

}  // namespace

std::vector<ConflictGroup> enumerate_conflict_groups(
    const ReuseProfile& profile, const CacheConfig& cache,
    const ConflictConfig& config, unsigned threads) {
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
    Enumerator(profile, cache, config, n_clusters, k, threads, out).run();
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
    g.co_mappable = cache.placement != Placement::kModulo ||
                    modulo_group_co_mappable(g.representative_lines,
                                             cache.sets);
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
