#include "ir/interp.hpp"

#include "ir/bytecode.hpp"
#include "ir/verify.hpp"
#include "ir/vm.hpp"
#include "obs/trace.hpp"

namespace mbcr::ir {

namespace {

class Interp {
public:
  Interp(const Program& program, const Linked& linked,
         const ExecOptions& options)
      : prog_(program), linked_(linked), opt_(options) {}

  ExecResult run(const InputVector& input) {
    ExecResult result;
    Env env;
    for (const std::string& s : prog_.scalars) env.scalars[s] = 0;
    for (const ArrayDecl& a : prog_.arrays) {
      std::vector<Value> contents = a.init;
      contents.resize(a.size, 0);
      env.arrays[a.name] = std::move(contents);
    }
    for (const auto& [name, value] : input.scalars) {
      if (!env.scalars.contains(name)) {
        throw ExecError(prog_.name + ": input sets undeclared scalar '" +
                        name + "'");
      }
      env.scalars[name] = value;
    }
    for (const auto& [name, contents] : input.arrays) {
      auto it = env.arrays.find(name);
      if (it == env.arrays.end()) {
        throw ExecError(prog_.name + ": input sets undeclared array '" +
                        name + "'");
      }
      if (contents.size() > it->second.size()) {
        throw ExecError(prog_.name + ": input overflows array '" + name +
                        "'");
      }
      std::copy(contents.begin(), contents.end(), it->second.begin());
    }

    exec(prog_.body, env, /*ghost=*/false);

    result.trace = std::move(trace_);
    result.tokens = std::move(tokens_);
    result.env = std::move(env);
    result.leaf_steps = steps_;
    result.path = std::move(path_);
    return result;
  }

private:
  void exec(const StmtPtr& s, Env& env, bool ghost) {
    switch (s->kind) {
      case Stmt::Kind::kSeq:
        for (const auto& c : s->children) exec(c, env, ghost);
        break;
      case Stmt::Kind::kAssign: {
        step();
        fetch(Linked::slot_self(s->id), Linked::slot_self(s->origin));
        env.scalars[s->name] = eval(s->value, env, ghost);
        break;
      }
      case Stmt::Kind::kStore: {
        step();
        fetch(Linked::slot_self(s->id), Linked::slot_self(s->origin));
        const Value idx =
            wrap_index(env, s->name, eval(s->index, env, ghost), ghost);
        const Value value = eval(s->value, env, ghost);
        auto& arr = array_ref(env, s->name, idx);
        // Ghost stores are demoted to loads: same line is touched (and
        // allocated on a write-allocate cache) but no state is written.
        emit_data(s->name, idx, ghost ? AccessKind::kLoad : AccessKind::kStore);
        // In ghost mode `env` is the shadow copy made at the ghost boundary:
        // the write lands there so downstream ghost address computations stay
        // faithful to the branch they mirror, and is discarded afterwards.
        arr[static_cast<std::size_t>(idx)] = value;
        break;
      }
      case Stmt::Kind::kIf: {
        step();
        fetch(Linked::slot_cond(s->id), Linked::slot_cond(s->origin));
        const bool taken = eval(s->cond, env, ghost) != 0;
        if (!ghost) path_.events.emplace_back(s->id, taken ? 1 : 0);
        if (taken) {
          exec(s->children[0], env, ghost);
        } else if (s->children.size() > 1) {
          exec(s->children[1], env, ghost);
        }
        break;
      }
      case Stmt::Kind::kFor:
        exec_for(*s, env, ghost);
        break;
      case Stmt::Kind::kWhile:
        exec_while(*s, env, ghost);
        break;
      case Stmt::Kind::kGhost: {
        // A ghost region never leaks state, even inside another ghost.
        Env shadow = env;
        exec(s->children[0], shadow, /*ghost=*/true);
        break;
      }
      case Stmt::Kind::kNop:
        break;
    }
  }

  void exec_for(const Stmt& s, Env& env, bool ghost) {
    step();
    fetch(Linked::slot_init(s.id), Linked::slot_init(s.origin));
    env.scalars[s.name] = eval(s.init, env, ghost);
    std::uint64_t trips = 0;
    while (true) {
      step();
      fetch(Linked::slot_cond(s.id), Linked::slot_cond(s.origin));
      if (eval(s.cond, env, ghost) == 0) break;
      if (trips == s.max_trips) {
        throw ExecError(prog_.name + ": loop bound exceeded (for, id " +
                        std::to_string(s.id) + ")");
      }
      ++trips;
      exec(s.children[0], env, ghost);
      fetch(Linked::slot_step(s.id), Linked::slot_step(s.origin));
      env.scalars[s.name] = wrap_add(env.scalars[s.name], s.step);
    }
    if (!ghost) path_.events.emplace_back(s.id, trips);
    if (s.pad_to_max && trips < s.max_trips) {
      Env shadow = env;
      for (std::uint64_t r = trips; r < s.max_trips; ++r) {
        step();
        fetch(Linked::slot_cond(s.id), Linked::slot_cond(s.origin));
        (void)eval(s.cond, shadow, /*ghost=*/true);
        exec(s.children[0], shadow, /*ghost=*/true);
        fetch(Linked::slot_step(s.id), Linked::slot_step(s.origin));
        shadow.scalars[s.name] = wrap_add(shadow.scalars[s.name], s.step);
      }
    }
  }

  void exec_while(const Stmt& s, Env& env, bool ghost) {
    std::uint64_t trips = 0;
    while (true) {
      step();
      fetch(Linked::slot_cond(s.id), Linked::slot_cond(s.origin));
      if (eval(s.cond, env, ghost) == 0) break;
      if (trips == s.max_trips) {
        throw ExecError(prog_.name + ": loop bound exceeded (while, id " +
                        std::to_string(s.id) + ")");
      }
      ++trips;
      exec(s.children[0], env, ghost);
    }
    if (!ghost) path_.events.emplace_back(s.id, trips);
    if (s.pad_to_max && trips < s.max_trips) {
      Env shadow = env;
      for (std::uint64_t r = trips; r < s.max_trips; ++r) {
        step();
        fetch(Linked::slot_cond(s.id), Linked::slot_cond(s.origin));
        (void)eval(s.cond, shadow, /*ghost=*/true);
        exec(s.children[0], shadow, /*ghost=*/true);
      }
    }
  }

  Value eval(const ExprPtr& e, Env& env, bool ghost) {
    switch (e->kind) {
      case Expr::Kind::kConst:
        return e->value;
      case Expr::Kind::kVar: {
        const auto it = env.scalars.find(e->name);
        if (it == env.scalars.end()) {
          throw ExecError(prog_.name + ": read of undeclared scalar '" +
                          e->name + "'");
        }
        return it->second;
      }
      case Expr::Kind::kIndex: {
        const Value idx = wrap_index(env, e->name, eval(e->a, env, ghost), ghost);
        const auto& arr = array_ref(env, e->name, idx);
        emit_data(e->name, idx, AccessKind::kLoad);
        return arr[static_cast<std::size_t>(idx)];
      }
      case Expr::Kind::kBin: {
        const Value l = eval(e->a, env, ghost);
        const Value r = eval(e->b, env, ghost);
        return apply_bin(e->bin, l, r);
      }
      case Expr::Kind::kUn: {
        const Value v = eval(e->a, env, ghost);
        switch (e->un) {
          case UnOp::kNeg: return wrap_neg(v);
          case UnOp::kLNot: return v == 0 ? 1 : 0;
          case UnOp::kBitNot: return ~v;
        }
        return 0;
      }
      case Expr::Kind::kSelect: {
        // Predicated: all three operands are evaluated (and emit their
        // accesses) regardless of the condition — single-path by design.
        const Value cond = eval(e->a, env, ghost);
        const Value then_v = eval(e->b, env, ghost);
        const Value else_v = eval(e->c, env, ghost);
        return cond != 0 ? then_v : else_v;
      }
    }
    return 0;
  }

  Value apply_bin(BinOp op, Value l, Value r) {
    switch (op) {
      case BinOp::kAdd: return wrap_add(l, r);
      case BinOp::kSub: return wrap_sub(l, r);
      case BinOp::kMul: return wrap_mul(l, r);
      case BinOp::kDiv:
        if (r == 0) throw ExecError(prog_.name + ": division by zero");
        return wrap_div(l, r);
      case BinOp::kMod:
        if (r == 0) throw ExecError(prog_.name + ": modulo by zero");
        return wrap_mod(l, r);
      case BinOp::kShl: return wrap_shl(l, r);
      case BinOp::kShr: return l >> (r & 63);
      case BinOp::kBitAnd: return l & r;
      case BinOp::kBitOr: return l | r;
      case BinOp::kBitXor: return l ^ r;
      case BinOp::kLt: return l < r ? 1 : 0;
      case BinOp::kLe: return l <= r ? 1 : 0;
      case BinOp::kGt: return l > r ? 1 : 0;
      case BinOp::kGe: return l >= r ? 1 : 0;
      case BinOp::kEq: return l == r ? 1 : 0;
      case BinOp::kNe: return l != r ? 1 : 0;
      case BinOp::kLAnd: return (l != 0 && r != 0) ? 1 : 0;
      case BinOp::kLOr: return (l != 0 || r != 0) ? 1 : 0;
    }
    return 0;
  }

  /// Ghost execution is functionally innocuous padding: a real PUB pass
  /// emits padded accesses that stay inside the object they mirror. When a
  /// ghost iteration drives an index out of range (e.g. loop-bound padding
  /// walking past a data-dependent exit), wrap it into the array instead of
  /// faulting; real (non-ghost) accesses still bounds-check strictly.
  Value wrap_index(Env& env, const std::string& name, Value idx, bool ghost) {
    if (!ghost) return idx;
    const auto it = env.arrays.find(name);
    if (it == env.arrays.end() || it->second.empty()) return idx;
    const auto size = static_cast<Value>(it->second.size());
    return ((idx % size) + size) % size;
  }

  std::vector<Value>& array_ref(Env& env, const std::string& name,
                                Value idx) {
    auto it = env.arrays.find(name);
    if (it == env.arrays.end()) {
      throw ExecError(prog_.name + ": access to undeclared array '" + name +
                      "'");
    }
    if (idx < 0 || static_cast<std::size_t>(idx) >= it->second.size()) {
      throw ExecError(prog_.name + ": index " + std::to_string(idx) +
                      " out of bounds for array '" + name + "' (size " +
                      std::to_string(it->second.size()) + ")");
    }
    return it->second;
  }

  void fetch(std::uint64_t code_key, std::uint64_t origin_key) {
    if (!opt_.record_trace) return;
    const CodeSpan& span = linked_.span(code_key);
    for (std::uint32_t k = 0; k < span.n_instr; ++k) {
      trace_.emit(span.base + static_cast<Addr>(k) * kInstrBytes,
                  AccessKind::kIFetch);
    }
    tokens_.push_back(code_token(origin_key));
  }

  void emit_data(const std::string& array, Value idx, AccessKind kind) {
    if (!opt_.record_trace) return;
    const Addr base = linked_.array_base.at(array);
    const Addr addr = base + static_cast<Addr>(idx) * 4;
    trace_.emit(addr, kind);
    tokens_.push_back(data_token(addr));
  }

  void step() {
    if (++steps_ > opt_.max_leaf_steps) {
      throw ExecError(prog_.name + ": execution step budget exceeded");
    }
  }

  const Program& prog_;
  const Linked& linked_;
  ExecOptions opt_;
  MemTrace trace_;
  std::vector<std::uint64_t> tokens_;
  PathSignature path_;
  std::uint64_t steps_ = 0;
};

}  // namespace

const char* to_string(Executor executor) {
  return executor == Executor::kTree ? "tree" : "vm";
}

Executor parse_executor(const std::string& text) {
  if (text == "tree") return Executor::kTree;
  if (text == "vm") return Executor::kVm;
  throw std::invalid_argument("unknown executor '" + text +
                              "' (expected tree or vm)");
}

ExecResult execute(const Program& program, const Linked& linked,
                   const InputVector& input, const ExecOptions& options) {
  obs::Span span("execute");
  if (options.executor == Executor::kVm) {
    // Fail-closed pipeline: the verifier gates every program before the VM
    // sees it, which keeps the VM's unchecked operand stack safe.
    return vm::run(compile_verified(program, linked), input, options);
  }
  return execute_tree(program, linked, input, options);
}

ExecResult execute_tree(const Program& program, const Linked& linked,
                        const InputVector& input, const ExecOptions& options) {
  Interp interp(program, linked, options);
  return interp.run(input);
}

ExecResult lower_and_execute(const Program& program, const InputVector& input,
                             const ExecOptions& options) {
  const Linked linked = [&] {
    obs::Span span("lower");
    return lower(program);
  }();
  return execute(program, linked, input, options);
}

}  // namespace mbcr::ir
