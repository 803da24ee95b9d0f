// Conflict-group enumeration over access clusters.
//
// A "conflict group" is a set of k distinct cache lines that overflows a
// set if co-mapped (k = W+1 is the minimal over-capacity group; the
// paper's Sec. 3.1 worked examples count exactly these). Lines inside a
// temporal cluster are symmetric, so we enumerate *cluster multisets*:
// pick m_i lines from cluster i with sum m_i = k. Each multiset stands
// for prod_i C(|cluster_i|, m_i) concrete groups, all with the same
// expected impact, which we estimate once on representatives.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_config.hpp"
#include "tac/reuse.hpp"

namespace mbcr::tac {

struct ConflictGroup {
  std::size_t group_size = 0;    ///< k = sum m_i
  double combination_count = 0;  ///< prod C(|c_i|, m_i)
  double extra_misses = 0;       ///< expected, if co-mapped
  std::vector<Addr> representative_lines;
  /// False only under random-modulo placement, when every combination
  /// the class stands for contains two same-block lines (co-mapping
  /// probability exactly 0): the class is a single concrete group whose
  /// lines clash, or some cluster contributes more lines than it spans
  /// distinct blocks (pigeonhole). A class that merely *might* clash
  /// stays co-mappable with its full combination count — that
  /// overestimates the event probability, the conservative direction.
  bool co_mappable = true;
};

struct ConflictConfig {
  std::size_t max_clusters = 24;   ///< hottest clusters considered
  std::uint32_t impact_trials = 8;
  std::uint64_t seed = 0x7ac0ffee;
  /// Group sizes to enumerate, as offsets from W+1 (0 => exactly W+1).
  /// The default also enumerates W+2 groups: rarer double-conflict layouts
  /// whose impact exceeds the W+1 knee (they drive the largest run counts
  /// on streaming kernels, cf. the paper's ns at 500k runs).
  std::vector<std::size_t> extra_group_sizes = {0, 1};
  /// Skip groups whose combined access count is below this share of the
  /// sequence (they cannot matter).
  double min_access_share = 0.001;
};

/// Enumerates cluster multisets of the configured sizes and estimates
/// their impact. Returns groups sorted by extra_misses descending.
/// Impacts are estimated in batches on the shared campaign pool;
/// `threads` caps the claimants like CampaignConfig::threads (0 = the
/// whole pool, 1 = the calling thread alone). The result does not depend
/// on it. Both enumerators poll the shutdown flag once per candidate
/// group and throw util::ShutdownRequested after a SIGINT/SIGTERM.
std::vector<ConflictGroup> enumerate_conflict_groups(
    const ReuseProfile& profile, const CacheConfig& cache,
    const ConflictConfig& config = {}, unsigned threads = 0);

/// Exhaustive per-line enumeration (no clustering) for small traces;
/// used by the ablation bench to validate the clustered search.
std::vector<ConflictGroup> enumerate_conflict_groups_exhaustive(
    const ReuseProfile& profile, const CacheConfig& cache,
    std::size_t group_size, std::uint32_t impact_trials = 8,
    std::uint64_t seed = 0x7ac0ffee);

/// n choose k as a double (combination counts can exceed 2^64).
double binomial(std::size_t n, std::size_t k);

/// Whether a concrete line group can co-map into one set under
/// random-modulo placement with `sets` sets. Lines in the same S-line
/// block keep distinct modulo offsets under every per-run rotation, so a
/// group containing two of them has co-mapping probability exactly 0;
/// a block-distinct group co-maps with the same (1/S)^(k-1) as under
/// hash placement (each block's rotation is independently uniform).
bool modulo_group_co_mappable(std::span<const Addr> lines,
                              std::uint32_t sets);

}  // namespace mbcr::tac
