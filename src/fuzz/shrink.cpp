#include "fuzz/shrink.hpp"

#include <algorithm>
#include <functional>

#include "ir/stmt.hpp"
#include "util/signal.hpp"

namespace mbcr::fuzz {

namespace {

bool is_compound(const ir::StmtPtr& s) {
  using K = ir::Stmt::Kind;
  return s && (s->kind == K::kIf || s->kind == K::kFor ||
               s->kind == K::kWhile || s->kind == K::kGhost);
}

// --- statement-drop pass --------------------------------------------------

std::size_t count_drop_slots(const ir::StmtPtr& s) {
  if (!s) return 0;
  std::size_t n = 0;
  for (const ir::StmtPtr& c : s->children) {
    if (s->kind == ir::Stmt::Kind::kSeq) ++n;
    n += count_drop_slots(c);
  }
  return n;
}

/// Removes the k-th (pre-order) sequence child in place; true when done.
bool drop_slot(ir::StmtPtr& s, std::size_t& k) {
  if (!s) return false;
  for (std::size_t i = 0; i < s->children.size(); ++i) {
    if (s->kind == ir::Stmt::Kind::kSeq) {
      if (k == 0) {
        s->children.erase(s->children.begin() +
                          static_cast<std::ptrdiff_t>(i));
        return true;
      }
      --k;
    }
    if (drop_slot(s->children[i], k)) return true;
  }
  return false;
}

// --- hoist pass -----------------------------------------------------------

std::size_t count_hoist_slots(const ir::StmtPtr& s) {
  if (!s) return 0;
  std::size_t n = is_compound(s) ? 1 : 0;
  for (const ir::StmtPtr& c : s->children) n += count_hoist_slots(c);
  return n;
}

ir::StmtPtr hoist_replacement(const ir::StmtPtr& s) {
  if (s->kind == ir::Stmt::Kind::kFor) {
    // One body execution with the loop variable at its initial value.
    std::vector<ir::StmtPtr> stmts;
    stmts.push_back(ir::assign(s->name, s->init));
    stmts.push_back(s->children.at(0));
    return ir::seq(std::move(stmts));
  }
  return s->children.at(0);  // if -> then branch, while/ghost -> body
}

bool hoist_slot(ir::StmtPtr& s, std::size_t& k) {
  if (!s) return false;
  if (is_compound(s)) {
    if (k == 0) {
      s = hoist_replacement(s);
      return true;
    }
    --k;
  }
  for (ir::StmtPtr& c : s->children) {
    if (hoist_slot(c, k)) return true;
  }
  return false;
}

// --- loop-trip pass -------------------------------------------------------

bool trips_shrinkable(const ir::StmtPtr& s) {
  return s && s->kind == ir::Stmt::Kind::kFor && !s->pad_to_max &&
         s->step == 1 && s->init && s->init->kind == ir::Expr::Kind::kConst &&
         s->max_trips >= 3;
}

std::size_t count_trip_slots(const ir::StmtPtr& s) {
  if (!s) return 0;
  std::size_t n = trips_shrinkable(s) ? 1 : 0;
  for (const ir::StmtPtr& c : s->children) n += count_trip_slots(c);
  return n;
}

bool shrink_trip_slot(ir::StmtPtr& s, std::size_t& k) {
  if (!s) return false;
  if (trips_shrinkable(s)) {
    if (k == 0) {
      // Replace whatever (possibly input-dependent) bound the loop had
      // with a tight constant: exactly `trips` iterations, with one spare
      // trip of bound slack like the generator leaves.
      const std::uint64_t trips = s->max_trips / 2;
      s->cond = ir::var(s->name) <
                ir::cst(static_cast<ir::Value>(s->init->value) +
                        static_cast<ir::Value>(trips));
      s->max_trips = trips + 1;
      return true;
    }
    --k;
  }
  for (ir::StmtPtr& c : s->children) {
    if (shrink_trip_slot(c, k)) return true;
  }
  return false;
}

// --- array-drop pass ------------------------------------------------------

ir::ExprPtr strip_array_expr(const ir::ExprPtr& e, const std::string& arr) {
  if (!e) return nullptr;
  using K = ir::Expr::Kind;
  switch (e->kind) {
    case K::kConst:
    case K::kVar:
      return e;
    case K::kIndex:
      if (e->name == arr) return ir::cst(0);
      return ir::ld(e->name, strip_array_expr(e->a, arr));
    case K::kBin:
      return ir::bin(e->bin, strip_array_expr(e->a, arr),
                     strip_array_expr(e->b, arr));
    case K::kUn:
      return ir::un(e->un, strip_array_expr(e->a, arr));
    case K::kSelect:
      return ir::select(strip_array_expr(e->a, arr),
                        strip_array_expr(e->b, arr),
                        strip_array_expr(e->c, arr));
  }
  return e;
}

void strip_array_stmt(ir::StmtPtr& s, const std::string& arr) {
  if (!s) return;
  if (s->kind == ir::Stmt::Kind::kStore && s->name == arr) {
    s = ir::nop();
    return;
  }
  s->value = strip_array_expr(s->value, arr);
  s->index = strip_array_expr(s->index, arr);
  s->cond = strip_array_expr(s->cond, arr);
  s->init = strip_array_expr(s->init, arr);
  for (ir::StmtPtr& c : s->children) strip_array_stmt(c, arr);
}

// --- candidate generation -------------------------------------------------

using Candidates = std::vector<FuzzCaseData>;

Candidates input_candidates(const FuzzCaseData& data) {
  Candidates out;
  if (data.inputs.size() <= 1) return out;
  for (std::size_t i = 0; i < data.inputs.size(); ++i) {
    FuzzCaseData c = data;
    c.inputs.erase(c.inputs.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(c));
  }
  return out;
}

Candidates seed_candidates(const FuzzCaseData& data) {
  Candidates out;
  const std::size_t n = data.run_seeds.size();
  if (n <= 1) return out;
  {
    FuzzCaseData c = data;
    c.run_seeds.resize(n / 2);
    out.push_back(std::move(c));
  }
  for (const std::uint64_t seed : data.run_seeds) {
    FuzzCaseData c = data;
    c.run_seeds = {seed};
    out.push_back(std::move(c));
  }
  return out;
}

Candidates stmt_candidates(const FuzzCaseData& data) {
  Candidates out;
  const std::size_t slots = count_drop_slots(data.program.body);
  for (std::size_t k = 0; k < slots; ++k) {
    FuzzCaseData c = editable(data);
    std::size_t slot = k;
    drop_slot(c.program.body, slot);
    out.push_back(std::move(c));
  }
  return out;
}

Candidates hoist_candidates(const FuzzCaseData& data) {
  Candidates out;
  const std::size_t slots = count_hoist_slots(data.program.body);
  for (std::size_t k = 0; k < slots; ++k) {
    FuzzCaseData c = editable(data);
    std::size_t slot = k;
    hoist_slot(c.program.body, slot);
    out.push_back(std::move(c));
  }
  return out;
}

Candidates trip_candidates(const FuzzCaseData& data) {
  Candidates out;
  const std::size_t slots = count_trip_slots(data.program.body);
  for (std::size_t k = 0; k < slots; ++k) {
    FuzzCaseData c = editable(data);
    std::size_t slot = k;
    shrink_trip_slot(c.program.body, slot);
    out.push_back(std::move(c));
  }
  return out;
}

Candidates array_candidates(const FuzzCaseData& data) {
  Candidates out;
  for (std::size_t i = 0; i < data.program.arrays.size(); ++i) {
    FuzzCaseData c = editable(data);
    const std::string arr = c.program.arrays[i].name;
    strip_array_stmt(c.program.body, arr);
    c.program.arrays.erase(c.program.arrays.begin() +
                           static_cast<std::ptrdiff_t>(i));
    for (ir::InputVector& in : c.inputs) in.arrays.erase(arr);
    out.push_back(std::move(c));
  }
  return out;
}

// --- input-value pass -----------------------------------------------------

/// Value-level reductions of the surviving input vectors: zeroing, then
/// halving, then deduplicating array contents. The structural passes
/// decide *which* inputs and arrays survive; this one drives the
/// surviving values toward zero, so a value-dependent repro ends up
/// pinning just the values the failure actually needs.
Candidates value_candidates(const FuzzCaseData& data) {
  Candidates out;
  for (std::size_t i = 0; i < data.inputs.size(); ++i) {
    const auto derive = [&](auto edit) {
      FuzzCaseData c = data;
      if (edit(c.inputs[i])) out.push_back(std::move(c));
    };
    // Coarse first (the greedy loop tries candidates in order): all
    // values of the input at once, then per-value refinements.
    derive([](ir::InputVector& in) {  // zero everything
      bool changed = false;
      for (auto& [name, v] : in.scalars) changed |= (v != 0), v = 0;
      for (auto& [name, a] : in.arrays) {
        for (ir::Value& v : a) changed |= (v != 0), v = 0;
      }
      return changed;
    });
    derive([](ir::InputVector& in) {  // zero the arrays, keep scalars
      bool changed = false;
      for (auto& [name, a] : in.arrays) {
        for (ir::Value& v : a) changed |= (v != 0), v = 0;
      }
      return changed;
    });
    derive([](ir::InputVector& in) {  // halve everything
      bool changed = false;
      for (auto& [name, v] : in.scalars) changed |= (v != 0), v /= 2;
      for (auto& [name, a] : in.arrays) {
        for (ir::Value& v : a) changed |= (v != 0), v /= 2;
      }
      return changed;
    });
    derive([](ir::InputVector& in) {  // dedup: arrays become uniform
      bool changed = false;
      for (auto& [name, a] : in.arrays) {
        if (a.empty()) continue;
        for (ir::Value& v : a) changed |= (v != a.front()), v = a.front();
      }
      return changed;
    });
    for (const auto& [name, value] : data.inputs[i].scalars) {
      if (value == 0) continue;
      const std::string scalar = name;
      derive([&](ir::InputVector& in) {  // zero one scalar
        return in.scalars[scalar] = 0, true;
      });
      derive([&](ir::InputVector& in) {  // halve one scalar
        return in.scalars[scalar] /= 2, true;
      });
    }
  }
  return out;
}

Candidates geometry_candidates(const FuzzCaseData& data) {
  Candidates out;
  const auto add = [&](auto mutate) {
    FuzzCaseData c = data;
    if (mutate(c.machine)) out.push_back(std::move(c));
  };
  add([](platform::MachineConfig& m) {
    return m.il1.sets > 1 && ((m.il1.sets /= 2), true);
  });
  add([](platform::MachineConfig& m) {
    return m.il1.ways > 1 && ((m.il1.ways /= 2), true);
  });
  add([](platform::MachineConfig& m) {
    return m.dl1.sets > 1 && ((m.dl1.sets /= 2), true);
  });
  add([](platform::MachineConfig& m) {
    return m.dl1.ways > 1 && ((m.dl1.ways /= 2), true);
  });
  add([](platform::MachineConfig& m) {
    return m.l2.l2.sets > 1 && ((m.l2.l2.sets /= 2), true);
  });
  add([](platform::MachineConfig& m) {
    return m.l2.l2.ways > 1 && ((m.l2.l2.ways /= 2), true);
  });
  return out;
}

}  // namespace

FuzzCaseData shrink_case(const FuzzCaseData& failing, const Oracle& oracle,
                         bool inject_fault, std::size_t max_evaluations,
                         ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats ? *stats : local;

  FuzzCaseData current = failing;
  const auto still_fails = [&](const FuzzCaseData& candidate) {
    if (st.evaluated >= max_evaluations) return false;
    ++st.evaluated;
    try {
      ir::validate(candidate.program);
      return !oracle.run(candidate, inject_fault).ok;
    } catch (const util::ShutdownRequested&) {
      throw;  // SIGINT/SIGTERM aborts the shrink, not "candidate passed"
    } catch (const std::exception&) {
      return false;  // a shrink that crashes is not the same failure
    }
  };

  using Pass = Candidates (*)(const FuzzCaseData&);
  constexpr Pass kPasses[] = {
      input_candidates, seed_candidates,  stmt_candidates,
      hoist_candidates, trip_candidates,  array_candidates,
      value_candidates, geometry_candidates,
  };

  bool progressed = true;
  while (progressed && st.evaluated < max_evaluations) {
    progressed = false;
    for (const Pass pass : kPasses) {
      // Re-enumerate after every acceptance: candidate indices shift as
      // the case shrinks.
      bool pass_progressed = true;
      while (pass_progressed && st.evaluated < max_evaluations) {
        pass_progressed = false;
        for (FuzzCaseData& candidate : pass(current)) {
          if (still_fails(candidate)) {
            current = std::move(candidate);
            ++st.accepted;
            pass_progressed = true;
            progressed = true;
            break;
          }
        }
      }
    }
  }
  return current;
}

}  // namespace mbcr::fuzz
