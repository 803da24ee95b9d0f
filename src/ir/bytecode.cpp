#include "ir/bytecode.hpp"

#include <algorithm>
#include <sstream>

namespace mbcr::ir {

namespace {

// The bin/un opcode blocks mirror the BinOp/UnOp enums; the compiler maps
// an operator to its opcode by offset from the block start.
static_assert(static_cast<int>(OpCode::kLOr) - static_cast<int>(OpCode::kAdd) ==
              static_cast<int>(BinOp::kLOr) - static_cast<int>(BinOp::kAdd));
static_assert(static_cast<int>(OpCode::kBitNot) -
                  static_cast<int>(OpCode::kNeg) ==
              static_cast<int>(UnOp::kBitNot) - static_cast<int>(UnOp::kNeg));

OpCode bin_opcode(BinOp op) {
  return static_cast<OpCode>(static_cast<int>(OpCode::kAdd) +
                             static_cast<int>(op));
}

OpCode un_opcode(UnOp op) {
  return static_cast<OpCode>(static_cast<int>(OpCode::kNeg) +
                             static_cast<int>(op));
}

/// Net operand-stack effect of an op. No op pushes more than one value, so
/// tracking the running net depth op-by-op yields an exact high-water mark.
int stack_delta(OpCode code) {
  switch (code) {
    case OpCode::kPushConst:
    case OpCode::kLoadScalar:
      return 1;
    case OpCode::kStoreScalar:
    case OpCode::kPop:
    case OpCode::kBranch:
    case OpCode::kLoopNext:
      return -1;
    case OpCode::kStoreElem:
    case OpCode::kSelect:
      return -2;
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
    case OpCode::kShl:
    case OpCode::kShr:
    case OpCode::kBitAnd:
    case OpCode::kBitOr:
    case OpCode::kBitXor:
    case OpCode::kLt:
    case OpCode::kLe:
    case OpCode::kGt:
    case OpCode::kGe:
    case OpCode::kEq:
    case OpCode::kNe:
    case OpCode::kLAnd:
    case OpCode::kLOr:
      return -1;
    default:
      return 0;  // kLoadElem, unary ops, control flow, fetches, ghosts
  }
}

class Compiler {
public:
  Compiler(const Program& program, const Linked& linked)
      : prog_(program), linked_(linked) {
    bc_.name = prog_.name;
    bc_.err_div0 = prog_.name + ": division by zero";
    bc_.err_mod0 = prog_.name + ": modulo by zero";
    bc_.err_step = prog_.name + ": execution step budget exceeded";
    bc_.scalar_names = prog_.scalars;
    for (std::uint32_t i = 0; i < bc_.scalar_names.size(); ++i) {
      bc_.scalar_index.emplace(bc_.scalar_names[i], i);
    }
    std::uint32_t offset = 0;
    for (const ArrayDecl& a : prog_.arrays) {
      bc_.array_index.emplace(a.name,
                              static_cast<std::uint32_t>(bc_.arrays.size()));
      bc_.arrays.push_back({a.name, linked_.array_base.at(a.name), offset,
                            static_cast<std::uint32_t>(a.size)});
      std::vector<Value> contents = a.init;
      contents.resize(a.size, 0);
      bc_.heap_init.insert(bc_.heap_init.end(), contents.begin(),
                           contents.end());
      offset += static_cast<std::uint32_t>(a.size);
    }
  }

  BytecodeProgram compile_body() {
    compile_stmt(prog_.body);
    emit(OpCode::kHalt);
    bc_.max_stack = static_cast<std::uint32_t>(max_depth_);
    return std::move(bc_);
  }

private:
  std::uint32_t here() const {
    return static_cast<std::uint32_t>(bc_.ops.size());
  }

  std::uint32_t emit(OpCode code, std::uint32_t a = 0, std::uint32_t b = 0) {
    bc_.ops.push_back({code, a, b});
    depth_ += stack_delta(code);
    max_depth_ = std::max(max_depth_, depth_);
    return here() - 1;
  }

  void patch_a(std::uint32_t op, std::uint32_t target) {
    bc_.ops[op].a = target;
  }
  void patch_b(std::uint32_t op, std::uint32_t target) {
    bc_.ops[op].b = target;
  }

  std::uint32_t add_const(Value v) {
    const auto it = const_index_.find(v);
    if (it != const_index_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(bc_.consts.size());
    bc_.consts.push_back(v);
    const_index_.emplace(v, idx);
    return idx;
  }

  std::uint32_t add_site(std::uint64_t code_key, std::uint64_t origin_key) {
    const auto key = std::pair(code_key, origin_key);
    const auto it = site_index_.find(key);
    if (it != site_index_.end()) return it->second;
    const CodeSpan& span = linked_.span(code_key);
    const auto idx = static_cast<std::uint32_t>(bc_.sites.size());
    bc_.sites.push_back({span.base, span.n_instr, code_token(origin_key)});
    site_index_.emplace(key, idx);
    return idx;
  }

  std::uint32_t add_loop(const Stmt& s, const char* kind) {
    const auto idx = static_cast<std::uint32_t>(bc_.loops.size());
    bc_.loops.push_back({s.id, s.max_trips,
                         prog_.name + ": loop bound exceeded (" + kind +
                             ", id " + std::to_string(s.id) + ")"});
    return idx;
  }

  std::uint32_t add_branch_id(std::uint64_t stmt_id) {
    const auto idx = static_cast<std::uint32_t>(bc_.branch_ids.size());
    bc_.branch_ids.push_back(stmt_id);
    return idx;
  }

  std::uint32_t scalar_slot(const std::string& name) const {
    const auto it = bc_.scalar_index.find(name);
    if (it == bc_.scalar_index.end()) {
      throw ExecError(prog_.name + ": bytecode: unbound scalar '" + name +
                      "'");
    }
    return it->second;
  }

  std::uint32_t array_slot(const std::string& name) const {
    const auto it = bc_.array_index.find(name);
    if (it == bc_.array_index.end()) {
      throw ExecError(prog_.name + ": bytecode: unbound array '" + name +
                      "'");
    }
    return it->second;
  }

  void compile_expr(const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::kConst:
        emit(OpCode::kPushConst, add_const(e->value));
        break;
      case Expr::Kind::kVar:
        emit(OpCode::kLoadScalar, scalar_slot(e->name));
        break;
      case Expr::Kind::kIndex:
        compile_expr(e->a);
        emit(OpCode::kLoadElem, array_slot(e->name));
        break;
      case Expr::Kind::kBin:
        compile_expr(e->a);
        compile_expr(e->b);
        emit(bin_opcode(e->bin));
        break;
      case Expr::Kind::kUn:
        compile_expr(e->a);
        emit(un_opcode(e->un));
        break;
      case Expr::Kind::kSelect:
        compile_expr(e->a);
        compile_expr(e->b);
        compile_expr(e->c);
        emit(OpCode::kSelect);
        break;
    }
  }

  void compile_stmt(const StmtPtr& s) {
    switch (s->kind) {
      case Stmt::Kind::kSeq:
        for (const StmtPtr& c : s->children) compile_stmt(c);
        break;
      case Stmt::Kind::kAssign:
        emit(OpCode::kStepFetch, add_site(Linked::slot_self(s->id),
                                          Linked::slot_self(s->origin)));
        compile_expr(s->value);
        emit(OpCode::kStoreScalar, scalar_slot(s->name));
        break;
      case Stmt::Kind::kStore:
        emit(OpCode::kStepFetch, add_site(Linked::slot_self(s->id),
                                          Linked::slot_self(s->origin)));
        compile_expr(s->index);
        compile_expr(s->value);
        emit(OpCode::kStoreElem, array_slot(s->name));
        break;
      case Stmt::Kind::kIf:
        compile_if(*s);
        break;
      case Stmt::Kind::kFor:
        compile_for(*s);
        break;
      case Stmt::Kind::kWhile:
        compile_while(*s);
        break;
      case Stmt::Kind::kGhost:
        emit(OpCode::kGhostEnter);
        compile_stmt(s->children[0]);
        emit(OpCode::kGhostExit);
        break;
      case Stmt::Kind::kNop:
        break;
    }
  }

  void compile_if(const Stmt& s) {
    emit(OpCode::kStepFetch,
         add_site(Linked::slot_cond(s.id), Linked::slot_cond(s.origin)));
    compile_expr(s.cond);
    const std::uint32_t branch =
        emit(OpCode::kBranch, 0, add_branch_id(s.id));
    compile_stmt(s.children[0]);
    if (s.children.size() > 1) {
      const std::uint32_t skip_else = emit(OpCode::kJump);
      patch_a(branch, here());
      compile_stmt(s.children[1]);
      patch_a(skip_else, here());
    } else {
      patch_a(branch, here());
    }
  }

  // for: [init slot][kResetTrips] head: [cond slot][kLoopNext ->exit]
  //      [body][step slot][kAddScalarImm][kJump head]
  // exit: [kPathLoop] then, when pad_to_max, the ghost pad section:
  //      [kPadEnter ->done] padhead: [cond slot][kPop][body copy]
  //      [step slot][kAddScalarImm][kPadNext ->padhead][kGhostExit] done:
  void compile_for(const Stmt& s) {
    const std::uint32_t loop = add_loop(s, "for");
    const std::uint32_t cond_site =
        add_site(Linked::slot_cond(s.id), Linked::slot_cond(s.origin));
    const std::uint32_t step_site =
        add_site(Linked::slot_step(s.id), Linked::slot_step(s.origin));
    const std::uint32_t counter = scalar_slot(s.name);
    const std::uint32_t step_const = add_const(s.step);

    emit(OpCode::kStepFetch,
         add_site(Linked::slot_init(s.id), Linked::slot_init(s.origin)));
    compile_expr(s.init);
    emit(OpCode::kStoreScalar, counter);
    emit(OpCode::kResetTrips, loop);
    const std::uint32_t head = here();
    emit(OpCode::kStepFetch, cond_site);
    compile_expr(s.cond);
    const std::uint32_t next = emit(OpCode::kLoopNext, loop);
    compile_stmt(s.children[0]);
    emit(OpCode::kFetch, step_site);  // step slot fetches without a step()
    emit(OpCode::kAddScalarImm, counter, step_const);
    emit(OpCode::kJump, head);
    patch_b(next, here());
    emit(OpCode::kPathLoop, loop);
    if (s.pad_to_max) {
      const std::uint32_t pad = emit(OpCode::kPadEnter, loop);
      const std::uint32_t padhead = here();
      emit(OpCode::kStepFetch, cond_site);
      compile_expr(s.cond);
      emit(OpCode::kPop);  // condition evaluated for its accesses only
      compile_stmt(s.children[0]);
      emit(OpCode::kFetch, step_site);
      emit(OpCode::kAddScalarImm, counter, step_const);
      emit(OpCode::kPadNext, loop, padhead);
      emit(OpCode::kGhostExit);
      patch_b(pad, here());
    }
  }

  void compile_while(const Stmt& s) {
    const std::uint32_t loop = add_loop(s, "while");
    const std::uint32_t cond_site =
        add_site(Linked::slot_cond(s.id), Linked::slot_cond(s.origin));

    emit(OpCode::kResetTrips, loop);
    const std::uint32_t head = here();
    emit(OpCode::kStepFetch, cond_site);
    compile_expr(s.cond);
    const std::uint32_t next = emit(OpCode::kLoopNext, loop);
    compile_stmt(s.children[0]);
    emit(OpCode::kJump, head);
    patch_b(next, here());
    emit(OpCode::kPathLoop, loop);
    if (s.pad_to_max) {
      const std::uint32_t pad = emit(OpCode::kPadEnter, loop);
      const std::uint32_t padhead = here();
      emit(OpCode::kStepFetch, cond_site);
      compile_expr(s.cond);
      emit(OpCode::kPop);
      compile_stmt(s.children[0]);
      emit(OpCode::kPadNext, loop, padhead);
      emit(OpCode::kGhostExit);
      patch_b(pad, here());
    }
  }

  const Program& prog_;
  const Linked& linked_;
  BytecodeProgram bc_;
  std::map<Value, std::uint32_t> const_index_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t>
      site_index_;
  int depth_ = 0;
  int max_depth_ = 0;
};

}  // namespace

const char* to_string(OpCode code) {
  switch (code) {
#define MBCR_VM_NAME(name)                                                   \
  case OpCode::name:                                                         \
    return #name;
    MBCR_VM_OPCODES(MBCR_VM_NAME)
#undef MBCR_VM_NAME
  }
  return "?";
}

std::size_t BytecodeProgram::count_ops(OpCode code) const {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [&](const Op& op) { return op.code == code; }));
}

std::string BytecodeProgram::disassemble() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    out << i << "\t" << to_string(op.code);
    switch (op.code) {
      case OpCode::kPushConst:
        out << " " << consts[op.a];
        break;
      case OpCode::kLoadScalar:
      case OpCode::kStoreScalar:
        out << " " << scalar_names[op.a];
        break;
      case OpCode::kAddScalarImm:
        out << " " << scalar_names[op.a] << " += " << consts[op.b];
        break;
      case OpCode::kLoadElem:
      case OpCode::kStoreElem:
        out << " " << arrays[op.a].name;
        break;
      case OpCode::kStepFetch:
      case OpCode::kFetch:
        out << " site " << op.a << " (base 0x" << std::hex << sites[op.a].base
            << std::dec << ", " << sites[op.a].n_instr << " instr)";
        break;
      case OpCode::kJump:
        out << " -> " << op.a;
        break;
      case OpCode::kBranch:
        out << " stmt " << branch_ids[op.b] << ", else -> " << op.a;
        break;
      case OpCode::kResetTrips:
      case OpCode::kPathLoop:
        out << " loop " << op.a;
        break;
      case OpCode::kLoopNext:
        out << " loop " << op.a << ", exit -> " << op.b;
        break;
      case OpCode::kPadEnter:
        out << " loop " << op.a << ", done -> " << op.b;
        break;
      case OpCode::kPadNext:
        out << " loop " << op.a << ", head -> " << op.b;
        break;
      default:
        break;
    }
    out << "\n";
  }
  return out.str();
}

BytecodeProgram compile(const Program& program, const Linked& linked) {
  Compiler compiler(program, linked);
  return compiler.compile_body();
}

}  // namespace mbcr::ir
