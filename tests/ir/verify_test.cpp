// The static bytecode verifier (ir/verify) as a subsystem.
//
// Rejection: hand-corrupted bytecode — bad jump targets, out-of-range
// operand indices, stack underflow, a lying max_stack, unbalanced ghost
// frames, broken heap tiling — must be refused with a diagnostic that
// names the op and the reason. Acceptance: every suite kernel (original
// and pubbed) and 500 randprog seeds verify clean, with the computed
// high-water mark equal to the compiler's max_stack.
#include "ir/verify.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "ir/bytecode.hpp"
#include "ir/interp.hpp"
#include "ir/lower.hpp"
#include "ir/randprog.hpp"
#include "pub/pub_transform.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"

namespace mbcr::ir {
namespace {

Program sum_program() {
  Program p;
  p.name = "sum";
  p.arrays.push_back({"a", 4, {10, 20, 30, 40}});
  p.scalars = {"x", "i"};
  p.body = seq({
      assign("x", cst(0)),
      for_loop("i", cst(0), var("i") < cst(4), 1,
               assign("x", var("x") + ld("a", var("i"))), 4),
  });
  return p;
}

BytecodeProgram compile_sum() {
  const Program p = sum_program();
  return compile(p, lower(p));
}

/// Index of the first op with `code`, or fails the test.
std::uint32_t first_op(const BytecodeProgram& bc, OpCode code) {
  for (std::uint32_t i = 0; i < bc.ops.size(); ++i) {
    if (bc.ops[i].code == code) return i;
  }
  ADD_FAILURE() << "no " << to_string(code) << " op in " << bc.name;
  return 0;
}

/// The verdict must be a rejection and some diagnostic must mention
/// `needle` — the "precise diagnostics" contract.
void expect_rejected(const BytecodeProgram& bc, const std::string& needle) {
  const VerifyResult result = verify(bc);
  ASSERT_FALSE(result.ok()) << "expected a rejection mentioning \"" << needle
                            << "\", got a clean verdict";
  EXPECT_NE(result.describe().find(needle), std::string::npos)
      << "diagnostics lack \"" << needle << "\":\n"
      << result.describe();
}

// --- pass 1: structural rejection ----------------------------------------

TEST(VerifyStructural, AcceptsTheHealthyProgram) {
  const VerifyResult result = verify(compile_sum());
  EXPECT_TRUE(result.ok()) << result.describe();
  EXPECT_TRUE(result.dead_ops.empty());
}

TEST(VerifyStructural, RejectsTheEmptyOpStream) {
  BytecodeProgram bc = compile_sum();
  bc.ops.clear();
  expect_rejected(bc, "empty op stream");
}

TEST(VerifyStructural, RejectsAJumpTargetPastTheEnd) {
  BytecodeProgram bc = compile_sum();
  const std::uint32_t jump = first_op(bc, OpCode::kJump);
  bc.ops[jump].a = static_cast<std::uint32_t>(bc.ops.size());  // one past
  expect_rejected(bc, "op " + std::to_string(jump) + ": jump target " +
                          std::to_string(bc.ops.size()) + " out of range");
}

TEST(VerifyStructural, RejectsOutOfRangeOperandIndices) {
  {  // constant table
    BytecodeProgram bc = compile_sum();
    bc.ops[first_op(bc, OpCode::kPushConst)].a = 999;
    expect_rejected(bc, "constant index 999 out of range");
  }
  {  // scalar slots
    BytecodeProgram bc = compile_sum();
    bc.ops[first_op(bc, OpCode::kStoreScalar)].a = 7;
    expect_rejected(bc, "scalar slot index 7 out of range [0, 2)");
  }
  {  // array slots (the "index OOB" fixture: the slot, not the element)
    BytecodeProgram bc = compile_sum();
    bc.ops[first_op(bc, OpCode::kLoadElem)].a = 3;
    expect_rejected(bc, "array slot index 3 out of range [0, 1)");
  }
}

TEST(VerifyStructural, RejectsFallthroughOffTheEnd) {
  BytecodeProgram bc = compile_sum();
  ASSERT_EQ(bc.ops.back().code, OpCode::kHalt);
  bc.ops.pop_back();
  expect_rejected(bc, "falls through off the end");
}

TEST(VerifyStructural, RejectsABrokenHeapTiling) {
  BytecodeProgram bc = compile_sum();
  bc.arrays[0].offset = 2;  // window no longer starts where the heap does
  expect_rejected(bc, "heap window starts at 2, expected 0");

  BytecodeProgram shrunk = compile_sum();
  shrunk.heap_init.pop_back();
  expect_rejected(shrunk, "array windows cover 4 heap cells, heap_init has 3");
}

// --- pass 2: reachability-walk rejection -------------------------------------------

TEST(VerifyDataflow, RejectsStackUnderflow) {
  BytecodeProgram bc = compile_sum();
  // An kAdd as the very first op finds an empty operand stack.
  bc.ops.insert(bc.ops.begin(), Op{OpCode::kAdd, 0, 0});
  expect_rejected(bc, "operand stack underflow: kAdd needs 2 value(s)");
}

TEST(VerifyDataflow, RejectsALyingMaxStack) {
  BytecodeProgram bc = compile_sum();
  const std::uint32_t honest = bc.max_stack;
  bc.max_stack = honest + 1;  // an over-claim is rejected too: exactness
  expect_rejected(bc, "declared max_stack " + std::to_string(honest + 1) +
                          " != computed high-water " + std::to_string(honest));
}

TEST(VerifyDataflow, RejectsUnbalancedGhostFrames) {
  {  // an exit with no matching enter
    BytecodeProgram bc = compile_sum();
    bc.ops.insert(bc.ops.begin(), Op{OpCode::kGhostExit, 0, 0});
    expect_rejected(bc, "ghost exit with no open ghost frame");
  }
  {  // an enter that never exits: the final halt sees an open frame
    BytecodeProgram bc = compile_sum();
    ASSERT_EQ(bc.ops.back().code, OpCode::kHalt);
    bc.ops.insert(bc.ops.end() - 1, Op{OpCode::kGhostEnter, 0, 0});
    expect_rejected(bc, "halt inside 1 open ghost frame(s)");
  }
}

TEST(VerifyDataflow, RejectsDisagreeingDepthsAtAMerge) {
  // Both edges of the branch reach the halt at op 3; op 2 sits on one of
  // them only and changes a depth the merge then sees two values of.
  BytecodeProgram bc;
  bc.name = "merge";
  bc.consts = {1};
  bc.branch_ids = {0};
  bc.max_stack = 1;
  bc.ops = {Op{OpCode::kPushConst, 0, 0}, Op{OpCode::kBranch, 3, 0},
            Op{OpCode::kPushConst, 0, 0}, Op{OpCode::kHalt, 0, 0}};
  expect_rejected(bc, "op 3: operand stack depth mismatch at merge");

  bc.ops[2] = Op{OpCode::kGhostEnter, 0, 0};
  expect_rejected(bc, "op 3: ghost nesting depth mismatch at merge");
}

TEST(VerifyDataflow, FlagsStaticallyDeadOpsWithoutRejecting) {
  BytecodeProgram bc = compile_sum();
  // Jump over a freshly-inserted op: unreachable, flagged, not fatal.
  bc.ops.insert(bc.ops.begin(), Op{OpCode::kJump, 2, 0});
  bc.ops.insert(bc.ops.begin() + 1, Op{OpCode::kGhostExit, 0, 0});
  // All jump/branch targets after the insertion point moved by two.
  for (std::uint32_t i = 2; i < bc.ops.size(); ++i) {
    Op& op = bc.ops[i];
    switch (op.code) {
      case OpCode::kJump:
      case OpCode::kBranch:
        op.a += 2;
        break;
      case OpCode::kLoopNext:
      case OpCode::kPadEnter:
      case OpCode::kPadNext:
        op.b += 2;
        break;
      default:
        break;
    }
  }
  const VerifyResult result = verify(bc);
  EXPECT_TRUE(result.ok()) << result.describe();
  ASSERT_EQ(result.dead_ops.size(), 1u);
  EXPECT_EQ(result.dead_ops[0], 1u);
}

// --- acceptance: the suite and the generator ------------------------------

TEST(VerifyAcceptance, EverySuiteKernelVerifiesClean) {
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark bench = entry.make();
    for (const bool pub : {false, true}) {
      const Program program =
          pub ? pub::apply_pub(bench.program) : bench.program;
      const std::string where =
          std::string(entry.name) + (pub ? " pubbed" : " original");
      const BytecodeProgram bc = compile(program, lower(program));
      const VerifyResult facts = verify(bc);
      EXPECT_TRUE(facts.ok()) << where << ":\n" << facts.describe();
      EXPECT_EQ(facts.computed_max_stack, bc.max_stack) << where;
    }
  }
}

TEST(VerifyAcceptance, FiveHundredRandprogSeedsVerifyClean) {
  RandProgConfig cfg;
  cfg.scalar_alias_prob = 0.25;  // counters double as data registers
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Xoshiro256 rng(mix64(0x5eed, seed));
    const Program program = random_program(rng, cfg);
    const Program pubbed = pub::apply_pub(program);
    for (const Program* p : {&program, &pubbed}) {
      const BytecodeProgram bc = compile(*p, lower(*p));
      const VerifyResult facts = verify(bc);
      ASSERT_TRUE(facts.ok())
          << "seed " << seed << (p == &pubbed ? " pubbed" : " original")
          << ":\n"
          << facts.describe();
      ASSERT_EQ(facts.computed_max_stack, bc.max_stack) << "seed " << seed;
    }
  }
}

TEST(VerifyAcceptance, CompileVerifiedReturnsTheCompiledProgram) {
  const Program p = sum_program();
  const BytecodeProgram bc = compile_verified(p, lower(p));
  EXPECT_EQ(bc.ops.size(), compile_sum().ops.size());
  EXPECT_EQ(bc.count_ops(OpCode::kLoadElem), 1u);
  // Rejections surface as VerifyError, which fail-closed callers may catch
  // as ExecError.
  static_assert(std::is_base_of_v<ExecError, VerifyError>);
}

}  // namespace
}  // namespace mbcr::ir
