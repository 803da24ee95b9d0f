#include "cpu/trace.hpp"

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
  for (std::uint32_t k = 0; k < out.iseq.size(); ++k) {
    out.line_entries[next[out.iseq[k]]++] = k;
  }
  for (std::uint32_t k = 0; k < out.dseq.size(); ++k) {
    out.line_entries[next[ni + out.dseq[k]]++] = k;
  }
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
