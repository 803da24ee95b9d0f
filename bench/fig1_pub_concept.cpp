// Fig. 1(b) + Sec. 2: the PUB upper-bounding concept on the paper's own
// sequences. M_if = {ABCA}, M_else = {BACA}, M_pub = {ABACA}:
//  * on a time-randomized (random-replacement) set, M_pub's expected miss
//    count upper-bounds both branches;
//  * on 2-way LRU the property FAILS: {ABCA} misses 4 times while the
//    longer {ABACA} misses only 3 — PUB is incompatible with
//    time-deterministic caches.
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "cache/lru_cache.hpp"
#include "tac/impact.hpp"

int main(int argc, char** argv) {
  using namespace mbcr;
  const bench::BenchOptions opt = bench::parse_options(
      argc, argv, "Fig 1(b): PUB sequence upper-bounding, random vs LRU");

  constexpr Addr A = 1, B = 2, C = 3;
  const std::map<std::string, std::vector<Addr>> seqs{
      {"M_if   {A B C A}", {A, B, C, A}},
      {"M_else {B A C A}", {B, A, C, A}},
      {"M_pub  {A B A C A}", {A, B, A, C, A}},
  };

  const std::uint32_t trials =
      static_cast<std::uint32_t>(bench::scaled_runs(opt, 100'000, 1'000'000));

  AsciiTable table({"sequence", "E[misses] random 2-way", "misses LRU 2-way"});
  std::map<std::string, double> rnd;
  std::map<std::string, std::uint64_t> lru;
  for (const auto& [name, seq] : seqs) {
    rnd[name] = tac::expected_misses_single_set(seq, 2, opt.seed, trials);
    LruCache cache(CacheConfig{1, 2, 32});
    for (Addr line : seq) cache.access_line(line);
    lru[name] = cache.misses();
    table.add_row({name, fmt(rnd[name], 3), fmt(double(lru[name]), 0)});
  }
  std::cout << "Fig 1(b) reproduction (" << trials
            << " random-replacement trials per sequence)\n\n";
  bench::print_table(opt, table);

  const bool random_ok = rnd.at("M_pub  {A B A C A}") >=
                             rnd.at("M_if   {A B C A}") - 1e-3 &&
                         rnd.at("M_pub  {A B A C A}") >=
                             rnd.at("M_else {B A C A}") - 1e-3;
  const bool lru_violates = lru.at("M_pub  {A B A C A}") <
                            lru.at("M_if   {A B C A}");
  std::cout << "\nrandom replacement: pubbed sequence upper-bounds both "
               "branches: "
            << (random_ok ? "YES" : "NO") << "\n";
  std::cout << "LRU: inserting an access REDUCED misses (4 -> "
            << lru.at("M_pub  {A B A C A}")
            << "), monotonicity violated as the paper states: "
            << (lru_violates ? "YES" : "NO") << "\n";
  return (random_ok && lru_violates) ? 0 : 1;
}
