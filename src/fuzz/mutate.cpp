#include "fuzz/mutate.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "ir/program.hpp"
#include "ir/stmt.hpp"

namespace mbcr::fuzz {

namespace {

bool validates(const FuzzCaseData& data) {
  try {
    ir::validate(data.program);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// --- statement swap -------------------------------------------------------

/// Every slot that holds a child of a sequence block, across the tree.
void collect_seq_slots(const ir::StmtPtr& s,
                       std::vector<ir::StmtPtr*>& slots) {
  if (!s) return;
  for (ir::StmtPtr& c : s->children) {
    if (s->kind == ir::Stmt::Kind::kSeq) slots.push_back(&c);
    collect_seq_slots(c, slots);
  }
}

bool stmt_swap(const FuzzCaseData& seed, Xoshiro256& rng, FuzzCaseData& out) {
  out = editable(seed);
  std::vector<ir::StmtPtr*> slots;
  collect_seq_slots(out.program.body, slots);
  if (slots.size() < 2) return false;
  const std::size_t i = rng.uniform(static_cast<std::uint32_t>(slots.size()));
  std::size_t j = rng.uniform(static_cast<std::uint32_t>(slots.size() - 1));
  if (j >= i) ++j;
  // Swapping a slot into its own subtree would build a cycle; two slots
  // can only nest when one's statement contains the other's parent block.
  const auto contains = [](const ir::StmtPtr& root, const ir::StmtPtr* leaf) {
    const auto walk = [](const auto& self, const ir::StmtPtr& s,
                         const ir::StmtPtr* target) -> bool {
      if (!s) return false;
      if (&s == target) return true;
      for (const ir::StmtPtr& c : s->children) {
        if (self(self, c, target)) return true;
      }
      return false;
    };
    return walk(walk, root, leaf);
  };
  if (contains(*slots[i], slots[j]) || contains(*slots[j], slots[i])) {
    return false;
  }
  std::swap(*slots[i], *slots[j]);
  return validates(out);
}

// --- constant nudge -------------------------------------------------------

std::size_t count_consts(const ir::ExprPtr& e) {
  if (!e) return 0;
  if (e->kind == ir::Expr::Kind::kConst) return 1;
  return count_consts(e->a) + count_consts(e->b) + count_consts(e->c);
}

/// Rebuilds `e` with its k-th (pre-order) constant replaced; expressions
/// are immutable shared trees, so the edited path is fresh nodes and the
/// rest is shared with the original.
ir::ExprPtr rewrite_const(const ir::ExprPtr& e, std::size_t& k,
                          ir::Value replacement, bool& done) {
  if (!e || done) return e;
  using K = ir::Expr::Kind;
  switch (e->kind) {
    case K::kConst:
      if (k-- == 0) {
        done = true;
        return ir::cst(replacement);
      }
      return e;
    case K::kVar:
      return e;
    case K::kIndex: {
      ir::ExprPtr a = rewrite_const(e->a, k, replacement, done);
      return done ? ir::ld(e->name, std::move(a)) : e;
    }
    case K::kBin: {
      ir::ExprPtr a = rewrite_const(e->a, k, replacement, done);
      ir::ExprPtr b = rewrite_const(e->b, k, replacement, done);
      return done ? ir::bin(e->bin, std::move(a), std::move(b)) : e;
    }
    case K::kUn: {
      ir::ExprPtr a = rewrite_const(e->a, k, replacement, done);
      return done ? ir::un(e->un, std::move(a)) : e;
    }
    case K::kSelect: {
      ir::ExprPtr a = rewrite_const(e->a, k, replacement, done);
      ir::ExprPtr b = rewrite_const(e->b, k, replacement, done);
      ir::ExprPtr c = rewrite_const(e->c, k, replacement, done);
      return done ? ir::select(std::move(a), std::move(b), std::move(c)) : e;
    }
  }
  return e;
}

/// The expressions of a statement that are safe to nudge: values, array
/// indices and if-conditions. Loop conditions/inits stay untouched — a
/// nudged bound either breaks the max_trips contract or just burns
/// mutants on runaway-loop ExecErrors.
std::vector<ir::ExprPtr*> nudgeable_exprs(const ir::StmtPtr& s) {
  std::vector<ir::ExprPtr*> out;
  const auto walk = [&](const auto& self, const ir::StmtPtr& node) -> void {
    if (!node) return;
    if (node->value) out.push_back(&node->value);
    if (node->index) out.push_back(&node->index);
    if (node->kind == ir::Stmt::Kind::kIf && node->cond) {
      out.push_back(&node->cond);
    }
    for (const ir::StmtPtr& c : node->children) self(self, c);
  };
  walk(walk, s);
  return out;
}

ir::Value nudged(ir::Value v, Xoshiro256& rng) {
  switch (rng.uniform(6)) {
    case 0: return ir::wrap_add(v, 1);
    case 1: return ir::wrap_sub(v, 1);
    case 2: return ir::wrap_mul(v, 2);
    case 3: return v / 2;
    case 4: return ir::wrap_neg(v);
    default: return v == 0 ? 1 : 0;
  }
}

bool const_nudge(const FuzzCaseData& seed, Xoshiro256& rng,
                 FuzzCaseData& out) {
  out = editable(seed);
  std::vector<ir::ExprPtr*> exprs = nudgeable_exprs(out.program.body);
  std::vector<std::pair<ir::ExprPtr*, std::size_t>> slots;
  for (ir::ExprPtr* e : exprs) {
    const std::size_t n = count_consts(*e);
    for (std::size_t k = 0; k < n; ++k) slots.emplace_back(e, k);
  }
  if (slots.empty()) return false;
  const auto [expr, index] =
      slots[rng.uniform(static_cast<std::uint32_t>(slots.size()))];
  // Peek the old value to nudge relative to it.
  ir::Value old = 0;
  {
    std::size_t k = index;
    const auto find = [&](const auto& self, const ir::ExprPtr& e) -> bool {
      if (!e) return false;
      if (e->kind == ir::Expr::Kind::kConst) {
        if (k-- == 0) {
          old = e->value;
          return true;
        }
        return false;
      }
      return self(self, e->a) || self(self, e->b) || self(self, e->c);
    };
    find(find, *expr);
  }
  const ir::Value fresh = nudged(old, rng);
  if (fresh == old) return false;
  std::size_t k = index;
  bool done = false;
  *expr = rewrite_const(*expr, k, fresh, done);
  return done && validates(out);
}

// --- geometry perturbation ------------------------------------------------

bool geometry_perturb(const FuzzCaseData& seed, Xoshiro256& rng,
                      FuzzCaseData& out) {
  out = seed;
  platform::MachineConfig& m = out.machine;
  const bool up = rng.uniform(2) == 0;
  const auto bump = [&](auto& dim, std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t next = up ? std::uint64_t{dim} * 2 : dim / 2;
    if (next < lo || next > hi) return false;
    dim = static_cast<std::remove_reference_t<decltype(dim)>>(next);
    return true;
  };
  switch (rng.uniform(7)) {
    case 0: return bump(m.il1.sets, 1, 4096);
    case 1: return bump(m.il1.ways, 1, 64);
    case 2: return bump(m.dl1.sets, 1, 4096);
    case 3: return bump(m.dl1.ways, 1, 64);
    case 4: return bump(m.l2.l2.sets, 1, 4096);
    case 5: return bump(m.l2.l2.ways, 1, 64);
    default: return bump(m.l2.latency, 2, 80);
  }
}

// --- input-vector mutation ------------------------------------------------

bool mutate_inputs(const FuzzCaseData& seed, Xoshiro256& rng,
                   FuzzCaseData& out) {
  out = seed;
  if (out.inputs.empty()) {
    // Shrunk corpus entries keep at least one input, but be safe: a case
    // with no inputs gets one that perturbs the first scalar.
    if (out.program.scalars.empty()) return false;
    ir::InputVector in;
    in.label = "mut0";
    in.scalars[out.program.scalars.front()] =
        static_cast<ir::Value>(rng.uniform(64)) + 1;
    out.inputs.push_back(std::move(in));
    return true;
  }
  ir::InputVector& in =
      out.inputs[rng.uniform(static_cast<std::uint32_t>(out.inputs.size()))];
  switch (rng.uniform(5)) {
    case 0: {  // nudge (or create) one scalar
      if (out.program.scalars.empty()) return false;
      const std::string& name =
          out.program.scalars[rng.uniform(
              static_cast<std::uint32_t>(out.program.scalars.size()))];
      ir::Value& v = in.scalars[name];
      v = nudged(v, rng);
      return true;
    }
    case 1: {  // perturb one element of one provided array
      if (in.arrays.empty()) return false;
      auto it = in.arrays.begin();
      std::advance(it, rng.uniform(static_cast<std::uint32_t>(
                           in.arrays.size())));
      if (it->second.empty()) return false;
      ir::Value& v = it->second[rng.uniform(
          static_cast<std::uint32_t>(it->second.size()))];
      v = nudged(v, rng);
      return true;
    }
    case 2: {  // zero one provided array
      if (in.arrays.empty()) return false;
      auto it = in.arrays.begin();
      std::advance(it, rng.uniform(static_cast<std::uint32_t>(
                           in.arrays.size())));
      bool any = false;
      for (ir::Value& v : it->second) any |= (v != 0), v = 0;
      return any;
    }
    case 3: {  // duplicate an input with a fresh label
      if (out.inputs.size() >= 6) return false;
      ir::InputVector copy = in;
      copy.label = "mut" + std::to_string(out.inputs.size());
      out.inputs.push_back(std::move(copy));
      return true;
    }
    default: {  // drop an input
      if (out.inputs.size() <= 1) return false;
      out.inputs.erase(out.inputs.begin() +
                       rng.uniform(static_cast<std::uint32_t>(
                           out.inputs.size())));
      return true;
    }
  }
}

/// Scales the platform run-seed vector. Its length multiplies every
/// replay/campaign run count at once — a whole coverage dimension the
/// blind generator keeps constant — so doubling/halving walks entire
/// bucket families per application.
bool mutate_run_seeds(const FuzzCaseData& seed, Xoshiro256& rng,
                      FuzzCaseData& out) {
  out = seed;
  if (rng.uniform(3) != 0) {  // double (fresh derived values)
    if (out.run_seeds.empty() || out.run_seeds.size() >= 64) return false;
    const std::size_t n = out.run_seeds.size();
    for (std::size_t i = 0; i < n; ++i) {
      out.run_seeds.push_back(mix64(out.run_seeds[i], rng()));
    }
    return true;
  }
  if (out.run_seeds.size() <= 1) return false;  // halve
  out.run_seeds.resize((out.run_seeds.size() + 1) / 2);
  return true;
}

// --- splice ---------------------------------------------------------------

ir::ExprPtr rename_expr(const ir::ExprPtr& e,
                        const std::map<std::string, std::string>& names) {
  if (!e) return nullptr;
  using K = ir::Expr::Kind;
  switch (e->kind) {
    case K::kConst:
      return e;
    case K::kVar: {
      const auto it = names.find(e->name);
      return it == names.end() ? e : ir::var(it->second);
    }
    case K::kIndex: {
      const auto it = names.find(e->name);
      return ir::ld(it == names.end() ? e->name : it->second,
                    rename_expr(e->a, names));
    }
    case K::kBin:
      return ir::bin(e->bin, rename_expr(e->a, names),
                     rename_expr(e->b, names));
    case K::kUn:
      return ir::un(e->un, rename_expr(e->a, names));
    case K::kSelect:
      return ir::select(rename_expr(e->a, names), rename_expr(e->b, names),
                        rename_expr(e->c, names));
  }
  return e;
}

void rename_stmt(ir::StmtPtr& s,
                 const std::map<std::string, std::string>& names) {
  if (!s) return;
  if (!s->name.empty()) {
    const auto it = names.find(s->name);
    if (it != names.end()) s->name = it->second;
  }
  s->value = rename_expr(s->value, names);
  s->index = rename_expr(s->index, names);
  s->cond = rename_expr(s->cond, names);
  s->init = rename_expr(s->init, names);
  for (ir::StmtPtr& c : s->children) rename_stmt(c, names);
}

bool splice(const FuzzCaseData& seed, const FuzzCaseData* donor,
            FuzzCaseData& out) {
  if (!donor || !donor->program.body) return false;
  // Keep mutants bounded: unchecked splicing doubles case cost each
  // generation.
  if (ir::stmt_count(seed.program.body) +
          ir::stmt_count(donor->program.body) >
      300) {
    return false;
  }
  out = editable(seed);

  // A rename prefix no existing name uses, so repeated splices of already
  // spliced seeds stay collision-free.
  const auto taken = [&](const std::string& prefix) {
    const auto starts = [&](const std::string& name) {
      return name.compare(0, prefix.size(), prefix) == 0;
    };
    for (const ir::ArrayDecl& a : out.program.arrays) {
      if (starts(a.name)) return true;
    }
    for (const std::string& s : out.program.scalars) {
      if (starts(s)) return true;
    }
    return false;
  };
  std::string prefix = "z0_";
  for (int g = 0; taken(prefix); prefix = "z" + std::to_string(++g) + "_") {
  }

  std::map<std::string, std::string> names;
  for (const ir::ArrayDecl& a : donor->program.arrays) {
    names[a.name] = prefix + a.name;
    ir::ArrayDecl decl = a;
    decl.name = prefix + a.name;
    out.program.arrays.push_back(std::move(decl));
  }
  for (const std::string& s : donor->program.scalars) {
    names[s] = prefix + s;
    out.program.scalars.push_back(prefix + s);
  }

  ir::StmtPtr grafted = ir::clone(donor->program.body);
  rename_stmt(grafted, names);
  std::vector<ir::StmtPtr> stmts;
  stmts.push_back(std::move(out.program.body));
  stmts.push_back(std::move(grafted));
  out.program.body = ir::seq(std::move(stmts));

  // Carry the donor's first input along under the renamed identifiers so
  // the grafted code runs on data, not all-zeros.
  if (!donor->inputs.empty()) {
    const ir::InputVector& d = donor->inputs.front();
    for (ir::InputVector& in : out.inputs) {
      for (const auto& [name, v] : d.scalars) {
        const auto it = names.find(name);
        if (it != names.end()) in.scalars[it->second] = v;
      }
      for (const auto& [name, contents] : d.arrays) {
        const auto it = names.find(name);
        if (it != names.end()) in.arrays[it->second] = contents;
      }
    }
  }
  return validates(out);
}

}  // namespace

const char* to_string(MutationKind kind) {
  switch (kind) {
    case MutationKind::kSplice: return "splice";
    case MutationKind::kStmtSwap: return "stmt-swap";
    case MutationKind::kConstNudge: return "const-nudge";
    case MutationKind::kGeometry: return "geometry";
    case MutationKind::kInputs: return "inputs";
    case MutationKind::kRunSeeds: return "run-seeds";
  }
  return "?";
}

bool mutate_case(const FuzzCaseData& seed, const FuzzCaseData* donor,
                 MutationKind kind, Xoshiro256& rng, FuzzCaseData& out) {
  switch (kind) {
    case MutationKind::kSplice: return splice(seed, donor, out);
    case MutationKind::kStmtSwap: return stmt_swap(seed, rng, out);
    case MutationKind::kConstNudge: return const_nudge(seed, rng, out);
    case MutationKind::kGeometry: return geometry_perturb(seed, rng, out);
    case MutationKind::kInputs: return mutate_inputs(seed, rng, out);
    case MutationKind::kRunSeeds: return mutate_run_seeds(seed, rng, out);
  }
  return false;
}

FuzzCaseData mutate_any(const FuzzCaseData& seed, const FuzzCaseData* donor,
                        Xoshiro256& rng) {
  // Weighted draw biased toward the mutations that reach state the blind
  // generator cannot: geometry walks escape the fixed cache pools, and
  // splices grow programs past randprog's depth cap (new counter-delta
  // magnitudes, new opcode mixes). Value/input edits stay in the mix for
  // the value-dependent paths.
  static constexpr MutationKind kSchedule[] = {
      MutationKind::kGeometry,   MutationKind::kGeometry,
      MutationKind::kGeometry,   MutationKind::kRunSeeds,
      MutationKind::kRunSeeds,   MutationKind::kRunSeeds,
      MutationKind::kSplice,     MutationKind::kSplice,
      MutationKind::kStmtSwap,   MutationKind::kConstNudge,
      MutationKind::kConstNudge, MutationKind::kInputs,
      MutationKind::kInputs,
  };
  FuzzCaseData out;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const MutationKind kind =
        kSchedule[rng.uniform(std::size(kSchedule))];
    if (mutate_case(seed, donor, kind, rng, out)) {
      out.case_seed = mix64(rng(), seed.case_seed);
      return out;
    }
  }
  // kInputs cannot fail on well-formed cases; this fallback still covers
  // degenerate hand-built ones.
  if (!mutate_case(seed, donor, MutationKind::kInputs, rng, out)) out = seed;
  out.case_seed = mix64(rng(), seed.case_seed);
  return out;
}

}  // namespace mbcr::fuzz
