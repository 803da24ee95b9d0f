#include "ir/verify.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mbcr::ir {

namespace {

/// How many operand-stack values an op pops and pushes. No op pushes more
/// than one, so the depth after each op is an exact running high-water
/// mark (the compiler's accounting in bytecode.cpp rests on the same fact).
struct StackEffect {
  int pops = 0;
  int pushes = 0;
};

StackEffect stack_effect(OpCode code) {
  if (code >= OpCode::kAdd && code <= OpCode::kLOr) return {2, 1};
  if (code >= OpCode::kNeg && code <= OpCode::kBitNot) return {1, 1};
  switch (code) {
    case OpCode::kPushConst:
    case OpCode::kLoadScalar:
      return {0, 1};
    case OpCode::kLoadElem:
      return {1, 1};
    case OpCode::kStoreScalar:
    case OpCode::kPop:
    case OpCode::kBranch:
    case OpCode::kLoopNext:
      return {1, 0};
    case OpCode::kStoreElem:
      return {2, 0};
    case OpCode::kSelect:
      return {3, 1};
    default:
      return {0, 0};
  }
}

/// What the walk knows at one op: the exact operand-stack depth and the
/// number of open ghost frames. `stack < 0` marks an op not reached yet.
struct Depths {
  std::int32_t stack = -1;
  std::int32_t ghost = 0;
};

class Checker {
public:
  Checker(const BytecodeProgram& bc, VerifyResult& out) : bc_(bc), out_(out) {}

  void structural();
  void walk();

private:
  void err(std::uint32_t op, std::string message) {
    out_.errors.push_back({op, std::move(message)});
  }

  void check_operands(std::uint32_t i, const Op& op);

  /// Control reaches op `t` with depths `d`: the first arrival records
  /// them and queues `t`; every later one must agree (one report per op).
  void reach(std::uint32_t t, Depths d);

  const BytecodeProgram& bc_;
  VerifyResult& out_;
  std::vector<Depths> at_;
  std::vector<bool> mismatched_;
  std::vector<std::uint32_t> work_;
};

void Checker::check_operands(std::uint32_t i, const Op& op) {
  const auto n = static_cast<std::uint32_t>(bc_.ops.size());
  const auto in_range = [&](const char* what, std::uint32_t idx,
                            std::size_t limit) {
    if (idx >= limit) {
      err(i, std::string(what) + " index " + std::to_string(idx) +
                 " out of range [0, " + std::to_string(limit) + ")");
    }
  };
  const auto target = [&](std::uint32_t t) {
    if (t >= n) {
      err(i, "jump target " + std::to_string(t) + " out of range [0, " +
                 std::to_string(n) + ")");
    }
  };
  switch (op.code) {
    case OpCode::kPushConst:
      in_range("constant", op.a, bc_.consts.size());
      break;
    case OpCode::kLoadScalar:
    case OpCode::kStoreScalar:
      in_range("scalar slot", op.a, bc_.scalar_names.size());
      break;
    case OpCode::kAddScalarImm:
      in_range("scalar slot", op.a, bc_.scalar_names.size());
      in_range("constant", op.b, bc_.consts.size());
      break;
    case OpCode::kLoadElem:
    case OpCode::kStoreElem:
      in_range("array slot", op.a, bc_.arrays.size());
      break;
    case OpCode::kStepFetch:
    case OpCode::kFetch:
      in_range("fetch site", op.a, bc_.sites.size());
      break;
    case OpCode::kJump:
      target(op.a);
      break;
    case OpCode::kBranch:
      target(op.a);
      in_range("branch id", op.b, bc_.branch_ids.size());
      break;
    case OpCode::kResetTrips:
    case OpCode::kPathLoop:
      in_range("loop slot", op.a, bc_.loops.size());
      break;
    case OpCode::kLoopNext:
    case OpCode::kPadEnter:
    case OpCode::kPadNext:
      in_range("loop slot", op.a, bc_.loops.size());
      target(op.b);
      break;
    default:
      break;
  }
}

void Checker::structural() {
  if (bc_.ops.empty()) {
    err(0, "empty op stream");
    return;
  }
  for (std::uint32_t i = 0; i < bc_.ops.size(); ++i) {
    check_operands(i, bc_.ops[i]);
  }
  // The last op must not fall through off the end of the stream.
  const OpCode last = bc_.ops.back().code;
  if (last != OpCode::kHalt && last != OpCode::kJump) {
    err(static_cast<std::uint32_t>(bc_.ops.size()) - 1,
        "control falls through off the end of the op stream");
  }
  // Array windows must tile the flat heap exactly.
  std::uint32_t offset = 0;
  for (std::size_t k = 0; k < bc_.arrays.size(); ++k) {
    const ArraySlot& a = bc_.arrays[k];
    if (a.offset != offset) {
      err(0, "array '" + a.name + "' heap window starts at " +
                 std::to_string(a.offset) + ", expected " +
                 std::to_string(offset));
    }
    offset += a.size;
  }
  if (offset != bc_.heap_init.size()) {
    err(0, "array windows cover " + std::to_string(offset) +
               " heap cells, heap_init has " +
               std::to_string(bc_.heap_init.size()));
  }
}

void Checker::reach(std::uint32_t t, Depths d) {
  Depths& seen = at_[t];
  if (seen.stack < 0) {
    seen = d;
    work_.push_back(t);
    return;
  }
  if (mismatched_[t]) return;
  if (seen.stack != d.stack) {
    err(t, "operand stack depth mismatch at merge: " +
               std::to_string(seen.stack) + " vs " + std::to_string(d.stack));
    mismatched_[t] = true;
  } else if (seen.ghost != d.ghost) {
    err(t, "ghost nesting depth mismatch at merge: " +
               std::to_string(seen.ghost) + " vs " + std::to_string(d.ghost));
    mismatched_[t] = true;
  }
}

void Checker::walk() {
  const auto n = static_cast<std::uint32_t>(bc_.ops.size());
  at_.assign(n, {});
  mismatched_.assign(n, false);
  work_.clear();
  reach(0, {0, 0});

  // Depths are plain integers that merges must match exactly, so there is
  // no fixpoint: each reachable op is visited once, from its first arrival.
  std::int32_t high = 0;
  std::uint32_t high_op = 0;
  while (!work_.empty()) {
    const std::uint32_t i = work_.back();
    work_.pop_back();
    const Op& op = bc_.ops[i];
    const Depths in = at_[i];
    const StackEffect effect = stack_effect(op.code);
    if (in.stack < effect.pops) {
      err(i, std::string("operand stack underflow: ") + to_string(op.code) +
                 " needs " + std::to_string(effect.pops) +
                 " value(s), depth is " + std::to_string(in.stack));
      continue;
    }
    Depths next{in.stack - effect.pops + effect.pushes, in.ghost};
    if (next.stack > high) {
      high = next.stack;
      high_op = i;
    }
    // The structural pass guarantees every target and every fallthrough
    // (i + 1 for any op but a final kHalt/kJump) is inside the stream.
    switch (op.code) {
      case OpCode::kHalt:
        if (in.ghost != 0) {
          err(i, "halt inside " + std::to_string(in.ghost) +
                     " open ghost frame(s)");
        }
        break;
      case OpCode::kJump:
        reach(op.a, next);
        break;
      case OpCode::kBranch:
        reach(i + 1, next);
        reach(op.a, next);
        break;
      case OpCode::kLoopNext:
      case OpCode::kPadNext:
        reach(i + 1, next);
        reach(op.b, next);
        break;
      case OpCode::kPadEnter:
        reach(op.b, next);
        ++next.ghost;  // the pad section runs inside a fresh ghost frame
        reach(i + 1, next);
        break;
      case OpCode::kGhostEnter:
        ++next.ghost;
        reach(i + 1, next);
        break;
      case OpCode::kGhostExit:
        if (in.ghost == 0) {
          err(i, "ghost exit with no open ghost frame");
          break;
        }
        --next.ghost;
        reach(i + 1, next);
        break;
      default:
        reach(i + 1, next);
        break;
    }
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    if (at_[i].stack < 0) out_.dead_ops.push_back(i);
  }
  out_.computed_max_stack = static_cast<std::uint32_t>(high);
  if (out_.errors.empty() && out_.computed_max_stack != bc_.max_stack) {
    err(high_op, "declared max_stack " + std::to_string(bc_.max_stack) +
                     " != computed high-water " +
                     std::to_string(out_.computed_max_stack));
  }
}

}  // namespace

std::string VerifyResult::describe() const {
  std::ostringstream out;
  for (const VerifyIssue& e : errors) {
    out << "op " << e.op << ": " << e.message << "\n";
  }
  return out.str();
}

VerifyResult verify(const BytecodeProgram& bc) {
  VerifyResult out;
  Checker checker(bc, out);
  checker.structural();
  if (!out.errors.empty()) return out;  // fail closed before the walk
  checker.walk();
  return out;
}

BytecodeProgram compile_verified(const Program& program, const Linked& linked) {
  BytecodeProgram bc = [&] {
    obs::Span span("compile");
    return compile(program, linked);
  }();
  obs::Span span("verify");
  const VerifyResult facts = verify(bc);
  if (!facts.ok()) {
    throw VerifyError(bc.name + ": verifier rejected compiled bytecode:\n" +
                      facts.describe());
  }
  if (obs::enabled()) {
    // Deterministic per program — coverage signal for the guided fuzzer.
    static const obs::Counter c_programs = obs::counter("verify.programs");
    c_programs.add();
  }
  return bc;
}

}  // namespace mbcr::ir
