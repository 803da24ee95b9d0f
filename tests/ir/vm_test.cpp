// The bytecode VM pinned to the tree-walking interpreter.
//
// Compile-time checks (slot resolution, ghost/pad lowering, unbound-name
// errors), then the differential battery: every suite kernel (original and
// pubbed, every registered input) and 200 randprog seeds must produce
// bit-identical ExecResults — trace, env, tokens, path signature and
// leaf_steps — and byte-identical ExecError texts on every failure mode
// (division by zero, out-of-bounds, loop bound, step budget).
#include "ir/vm.hpp"

#include <gtest/gtest.h>

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

/// One engine's observation: result or ExecError text.
struct Observed {
  bool threw = false;
  std::string error;
  ExecResult result;
};

template <typename Fn>
Observed observe(Fn&& fn) {
  Observed o;
  try {
    o.result = fn();
  } catch (const ExecError& e) {
    o.threw = true;
    o.error = e.what();
  }
  return o;
}

/// The five-field bit-identity check, or error-text identity when the
/// tree-walker throws.
void expect_identical(const Program& program, const InputVector& input,
                      const ExecOptions& options = {},
                      const std::string& context = "") {
  const Linked linked = lower(program);
  const BytecodeProgram bytecode = compile(program, linked);
  const Observed tree =
      observe([&] { return execute_tree(program, linked, input, options); });
  const Observed vm =
      observe([&] { return vm::run(bytecode, input, options); });
  const std::string where =
      context.empty() ? program.name + " [" + input.label + "]" : context;
  ASSERT_EQ(tree.threw, vm.threw)
      << where << ": engines disagree on whether the run throws (tree \""
      << tree.error << "\", vm \"" << vm.error << "\")";
  if (tree.threw) {
    EXPECT_EQ(tree.error, vm.error) << where;
    return;
  }
  EXPECT_EQ(tree.result.trace.accesses, vm.result.trace.accesses) << where;
  EXPECT_EQ(tree.result.tokens, vm.result.tokens) << where;
  EXPECT_EQ(tree.result.path, vm.result.path) << where;
  EXPECT_EQ(tree.result.leaf_steps, vm.result.leaf_steps) << where;
  EXPECT_EQ(tree.result.env.scalars, vm.result.env.scalars) << where;
  EXPECT_EQ(tree.result.env.arrays, vm.result.env.arrays) << where;
}

// --- compilation ----------------------------------------------------------

TEST(BytecodeCompile, ResolvesNamesToDenseSlots) {
  const Program p = sum_program();
  const Linked linked = lower(p);
  const BytecodeProgram bc = compile(p, linked);

  // Scalars keep declaration order; the index maps agree with the tables.
  ASSERT_EQ(bc.scalar_names.size(), 2u);
  EXPECT_EQ(bc.scalar_names[0], "x");
  EXPECT_EQ(bc.scalar_names[1], "i");
  EXPECT_EQ(bc.scalar_index.at("x"), 0u);
  EXPECT_EQ(bc.scalar_index.at("i"), 1u);

  // Arrays carry the linked data address and a window of the flat heap
  // seeded from the declared init (zero-padded).
  ASSERT_EQ(bc.arrays.size(), 1u);
  EXPECT_EQ(bc.arrays[0].name, "a");
  EXPECT_EQ(bc.arrays[0].base, linked.array_base.at("a"));
  EXPECT_EQ(bc.arrays[0].size, 4u);
  EXPECT_EQ(bc.heap_init,
            (std::vector<Value>{10, 20, 30, 40}));

  // The constant loop bound is folded into a loop slot with its error
  // message precomposed.
  ASSERT_EQ(bc.loops.size(), 1u);
  EXPECT_EQ(bc.loops[0].max_trips, 4u);
  EXPECT_NE(bc.loops[0].bound_error.find("loop bound exceeded"),
            std::string::npos);
  EXPECT_GT(bc.max_stack, 0u);
  EXPECT_EQ(bc.ops.back().code, OpCode::kHalt);
}

TEST(BytecodeCompile, DedupesFetchSitesAndConstants) {
  Program p;
  p.name = "dedup";
  p.scalars = {"x", "i"};
  // The loop body re-executes the same statement: one fetch site, visited
  // four times. The constant 4 appears in two expressions: one const slot.
  p.body = for_loop("i", cst(0), var("i") < cst(4), 1,
                    assign("x", var("x") + cst(4)), 4);
  const BytecodeProgram bc = compile(p, lower(p));
  std::size_t fours = 0;
  for (const Value v : bc.consts) {
    if (v == 4) ++fours;
  }
  EXPECT_EQ(fours, 1u);
  // Sites: loop init, loop cond, loop step, body assign — each once.
  EXPECT_EQ(bc.sites.size(), 4u);
}

TEST(BytecodeCompile, LowersGhostToEnterExitOps) {
  Program p;
  p.name = "ghosted";
  p.scalars = {"x"};
  p.arrays.push_back({"a", 4, {}});
  p.body = seq({
      assign("x", cst(1)),
      ghost(store("a", cst(0), cst(9))),
  });
  const BytecodeProgram bc = compile(p, lower(p));
  EXPECT_EQ(bc.count_ops(OpCode::kGhostEnter), 1u);
  EXPECT_EQ(bc.count_ops(OpCode::kGhostExit), 1u);

  // No ghosts, no ghost ops.
  const Program sum = sum_program();
  const BytecodeProgram plain = compile(sum, lower(sum));
  EXPECT_EQ(plain.count_ops(OpCode::kGhostEnter), 0u);
  EXPECT_EQ(plain.count_ops(OpCode::kGhostExit), 0u);
  EXPECT_EQ(plain.count_ops(OpCode::kPadEnter), 0u);
}

TEST(BytecodeCompile, LowersPadToMaxToExplicitPadSection) {
  Program p = sum_program();
  // Mark the for-loop pad_to_max, as PUB does.
  p.body->children[1]->pad_to_max = true;
  const BytecodeProgram bc = compile(p, lower(p));
  EXPECT_EQ(bc.count_ops(OpCode::kPadEnter), 1u);
  EXPECT_EQ(bc.count_ops(OpCode::kPadNext), 1u);
  // The pad section closes the ghost frame kPadEnter opened.
  EXPECT_EQ(bc.count_ops(OpCode::kGhostExit), 1u);
  // The pad section re-emits the loop body: strictly more ops than the
  // unpadded compilation of the same program.
  const Program sum = sum_program();
  const BytecodeProgram plain = compile(sum, lower(sum));
  EXPECT_GT(bc.ops.size(), plain.ops.size());
}

TEST(BytecodeCompile, UnboundNamesAreCompileTimeExecErrors) {
  // lower() validates, so an unbound name can only reach compile() through
  // a program mutated after lowering — the compiler must still fail closed
  // rather than emit a slot for a name it cannot resolve.
  Program s;
  s.name = "bad-scalar";
  s.scalars = {"x"};
  s.body = assign("x", cst(1));
  const Linked s_linked = lower(s);
  s.scalars.clear();  // now "x" is unbound
  EXPECT_THROW(compile(s, s_linked), ExecError);

  Program a;
  a.name = "bad-array";
  a.scalars = {"x"};
  a.arrays.push_back({"a", 4, {}});
  a.body = assign("x", ld("a", cst(0)));
  const Linked a_linked = lower(a);
  a.arrays.clear();  // now "a" is unbound
  EXPECT_THROW(compile(a, a_linked), ExecError);
}

TEST(BytecodeCompile, DisassemblyListsEveryOp) {
  const Program sum = sum_program();
  const BytecodeProgram bc = compile(sum, lower(sum));
  const std::string listing = bc.disassemble();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(listing.begin(), listing.end(), '\n')),
            bc.ops.size());
  EXPECT_NE(listing.find("kHalt"), std::string::npos);
}

// --- differential battery -------------------------------------------------

TEST(VmEquivalence, AllSuiteKernelsAllInputsOriginalAndPubbed) {
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark bench = entry.make();
    const Program pubbed = pub::apply_pub(bench.program);
    std::vector<InputVector> inputs = bench.path_inputs;
    inputs.push_back(bench.default_input);
    for (const InputVector& in : inputs) {
      expect_identical(bench.program, in,
                       {}, bench.name + " [" + in.label + "] original");
      expect_identical(pubbed, in,
                       {}, bench.name + " [" + in.label + "] pubbed");
    }
  }
}

TEST(VmEquivalence, TwoHundredRandomProgramsOriginalAndPubbed) {
  RandProgConfig cfg;
  cfg.scalar_alias_prob = 0.25;  // counters double as data registers
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng(mix64(0xbc0de, seed));
    const Program program = random_program(rng, cfg);
    const Program pubbed = pub::apply_pub(program);
    for (int k = 0; k < 2; ++k) {
      const InputVector in = random_input(program, rng, cfg);
      expect_identical(program, in, {},
                       "seed " + std::to_string(seed) + " input " +
                           std::to_string(k) + " original");
      expect_identical(pubbed, in, {},
                       "seed " + std::to_string(seed) + " input " +
                           std::to_string(k) + " pubbed");
    }
  }
}

// --- error parity ---------------------------------------------------------

TEST(VmErrors, DivisionAndModuloByZeroTextsMatchTheTreeWalker) {
  for (const bool use_mod : {false, true}) {
    Program p;
    p.name = "div0";
    p.scalars = {"x", "y"};
    p.body = assign("x", use_mod ? var("x") % var("y")
                                 : var("x") / var("y"));
    expect_identical(p, {});  // y defaults to 0 -> both must throw alike
    const BytecodeProgram bc = compile(p, lower(p));
    try {
      vm::run(bc, {});
      FAIL() << "expected ExecError";
    } catch (const ExecError& e) {
      EXPECT_STREQ(e.what(), use_mod ? "div0: modulo by zero"
                                     : "div0: division by zero");
    }
  }
}

TEST(VmErrors, OutOfBoundsTextsMatchTheTreeWalker) {
  Program p;
  p.name = "oob";
  p.scalars = {"x", "k"};
  p.arrays.push_back({"a", 4, {}});
  p.body = assign("x", ld("a", var("k")));
  InputVector in;
  in.label = "far";
  in.scalars["k"] = 7;
  expect_identical(p, in);
  try {
    vm::run(compile(p, lower(p)), in);
    FAIL() << "expected ExecError";
  } catch (const ExecError& e) {
    EXPECT_STREQ(e.what(),
                 "oob: index 7 out of bounds for array 'a' (size 4)");
  }
  in.scalars["k"] = -1;  // negative indices are out of bounds, not wrapped
  expect_identical(p, in);
}

TEST(VmErrors, LoopBoundTextsMatchTheTreeWalker) {
  Program p;
  p.name = "runaway";
  p.scalars = {"x"};
  p.body = while_loop(cst(1), assign("x", var("x") + cst(1)), 3);
  expect_identical(p, {});
  try {
    vm::run(compile(p, lower(p)), {});
    FAIL() << "expected ExecError";
  } catch (const ExecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("runaway: loop bound exceeded (while, id "),
              std::string::npos);
  }
}

TEST(VmErrors, StepBudgetParityAtTheExactSameBudget) {
  // Both engines must throw the same text at the same max_leaf_steps, and
  // agree on the largest budget that still fails (i.e. they count steps
  // identically, not merely both overflow eventually).
  const Program p = sum_program();
  const Linked linked = lower(p);
  const BytecodeProgram bc = compile(p, linked);
  const std::uint64_t needed =
      execute_tree(p, linked, {}).leaf_steps;
  ASSERT_GT(needed, 1u);
  for (const std::uint64_t budget : {needed - 1, needed}) {
    ExecOptions options;
    options.max_leaf_steps = budget;
    expect_identical(p, {}, options,
                     "budget " + std::to_string(budget));
  }
  ExecOptions tight;
  tight.max_leaf_steps = needed - 1;
  try {
    vm::run(bc, {}, tight);
    FAIL() << "expected ExecError";
  } catch (const ExecError& e) {
    EXPECT_STREQ(e.what(), "sum: execution step budget exceeded");
  }
}

TEST(VmErrors, UndeclaredInputTextsMatchTheTreeWalker) {
  const Program p = sum_program();
  InputVector bad_scalar;
  bad_scalar.label = "bad";
  bad_scalar.scalars["nope"] = 1;
  expect_identical(p, bad_scalar);
  InputVector bad_array;
  bad_array.label = "bad";
  bad_array.arrays["nope"] = {1};
  expect_identical(p, bad_array);
  InputVector overflow;
  overflow.label = "bad";
  overflow.arrays["a"] = {1, 2, 3, 4, 5};
  expect_identical(p, overflow);
}

}  // namespace
}  // namespace mbcr::ir
