#include "cpu/trace.hpp"

#include <array>
#include <unordered_map>
#include <unordered_set>

namespace mbcr {

std::vector<Addr> MemTrace::line_sequence(bool instruction_side,
                                          Addr line_bytes) const {
  std::vector<Addr> out;
  out.reserve(accesses.size());
  for (const Access& a : accesses) {
    if (a.is_instruction() == instruction_side) {
      out.push_back(line_of(a.addr, line_bytes));
    }
  }
  return out;
}

std::size_t MemTrace::unique_lines(bool instruction_side,
                                   Addr line_bytes) const {
  std::unordered_set<Addr> lines;
  for (const Access& a : accesses) {
    if (a.is_instruction() == instruction_side) {
      lines.insert(line_of(a.addr, line_bytes));
    }
  }
  return lines.size();
}

CompactTrace CompactTrace::from(const MemTrace& trace, Addr line_bytes) {
  CompactTrace out;
  out.accesses = trace.accesses.size();
  std::unordered_map<Addr, std::uint32_t> imap;
  std::unordered_map<Addr, std::uint32_t> dmap;
  // Line id of the previous access per side; kNone before the first.
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t last_iline = kNone;
  std::uint32_t last_dline = kNone;
  std::uint32_t pos = 0;  // entries so far, both sides
  for (const Access& a : trace.accesses) {
    const Addr line = line_of(a.addr, line_bytes);
    if (a.is_instruction()) {
      auto [it, inserted] =
          imap.try_emplace(line, static_cast<std::uint32_t>(out.ilines.size()));
      if (inserted) out.ilines.push_back(line);
      if (it->second == last_iline) {
        ++out.folded_ifetches;
        continue;
      }
      last_iline = it->second;
      out.iseq.push_back(it->second);
      out.ipos.push_back(pos++);
    } else {
      auto [it, inserted] =
          dmap.try_emplace(line, static_cast<std::uint32_t>(out.dlines.size()));
      if (inserted) out.dlines.push_back(line);
      if (it->second == last_dline) {
        ++out.folded_loads;
        continue;
      }
      last_dline = it->second;
      out.dseq.push_back(it->second);
      out.dpos.push_back(pos++);
    }
  }
  // Group each side's positions by line (a counting sort over the line
  // ids, the DL1's after the IL1's).
  const std::size_t ni = out.ilines.size();
  out.line_begin.assign(ni + out.dlines.size() + 1, 0);
  for (const std::uint32_t id : out.iseq) ++out.line_begin[id + 1];
  for (const std::uint32_t id : out.dseq) ++out.line_begin[ni + id + 1];
  for (std::size_t c = 1; c < out.line_begin.size(); ++c) {
    out.line_begin[c] += out.line_begin[c - 1];
  }
  std::vector<std::uint32_t> next(out.line_begin.begin(),
                                  out.line_begin.end() - 1);
  out.line_entries.resize(out.size());
  out.line_gaps.resize(out.size());
  // Lists each side's positions by line, with their gap masks. A gap
  // holds bit b when an id with id % 64 == b came after the line's
  // previous position, which `last[b]`, the latest position of such an
  // id, tells. The line's own bit stays clear unless another id shares
  // it: the line itself was not accessed since.
  const auto index_side = [&](const std::vector<std::uint32_t>& seq,
                              std::size_t first_line) {
    std::array<std::int64_t, 64> last;
    last.fill(-1);
    for (std::uint32_t k = 0; k < seq.size(); ++k) {
      const std::uint32_t id = seq[k];
      const std::uint32_t at = next[first_line + id]++;
      std::uint64_t gap = ~std::uint64_t{0};
      if (at != out.line_begin[first_line + id]) {
        const std::uint32_t prev = out.line_entries[at - 1];
        gap = 0;
        for (int b = 0; b < 64; ++b) {
          gap |= std::uint64_t{last[b] > prev} << b;
        }
      }
      out.line_entries[at] = k;
      out.line_gaps[at] = gap;
      last[id % 64] = k;
    }
  };
  index_side(out.iseq, 0);
  index_side(out.dseq, ni);
  std::unordered_map<Addr, std::uint32_t> umap;
  const auto unify = [&](const std::vector<Addr>& lines,
                         std::vector<std::uint32_t>& uid) {
    uid.reserve(lines.size());
    for (const Addr line : lines) {
      auto [it, inserted] =
          umap.try_emplace(line, static_cast<std::uint32_t>(out.ulines.size()));
      if (inserted) out.ulines.push_back(line);
      uid.push_back(it->second);
    }
  };
  unify(out.ilines, out.iline_uid);
  unify(out.dlines, out.dline_uid);
  return out;
}

bool is_subsequence(std::span<const Addr> needle,
                    std::span<const Addr> haystack) {
  std::size_t i = 0;
  for (Addr x : haystack) {
    if (i == needle.size()) return true;
    if (needle[i] == x) ++i;
  }
  return i == needle.size();
}

}  // namespace mbcr
