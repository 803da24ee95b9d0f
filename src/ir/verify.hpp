// Static verification of compiled bytecode: the fail-closed gate between
// the compiler (ir/bytecode) and the dispatch loop (ir/vm).
//
// `verify` runs two passes over a `BytecodeProgram` and never executes it:
//
//   pass 1 (structural): every jump/branch target lands on an op boundary
//   inside the program, every operand index (constant, scalar, array,
//   fetch-site, loop, branch-id) is in range, array heap windows tile the
//   flat heap exactly, and no op can fall through off the end of the op
//   stream.
//
//   pass 2 (reachability walk): one visit per reachable op computes the
//   *exact* operand-stack depth and ghost-frame depth there. Merge points
//   must agree on both, no op may underflow the stack, every kGhostExit
//   must close an open frame, kHalt must see none open, and the stack
//   high-water mark must equal the compiler's declared `max_stack`.
//   Unreachable ops are flagged, not rejected.
//
// Together the two passes are what make the VM's unchecked operand-stack
// pointer and its `frames_.back()` on ghost exit safe. `compile_verified`
// is the pipeline the default executor uses: compile, then verify,
// throwing VerifyError on any diagnostic (fail closed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/bytecode.hpp"
#include "ir/interp.hpp"

namespace mbcr::ir {

/// One verifier diagnostic, anchored at the op it was discovered on.
struct VerifyIssue {
  std::uint32_t op = 0;
  std::string message;
};

/// Everything `verify` learned about a program. `ok()` is the verdict;
/// the rest are facts callers may report (lint).
struct VerifyResult {
  std::vector<VerifyIssue> errors;

  /// Exact operand-stack high-water mark from the walk (equals the
  /// declared max_stack on accepted programs).
  std::uint32_t computed_max_stack = 0;
  /// Statically-unreachable op indices (flagged, not rejected).
  std::vector<std::uint32_t> dead_ops;

  bool ok() const { return errors.empty(); }
  /// "op 12: jump target 99 out of range [0, 40)" — one line per error.
  std::string describe() const;
};

/// Raised by `compile_verified` when the verifier rejects a program.
/// Derives ExecError so existing fail-closed catch sites keep working.
class VerifyError : public ExecError {
public:
  using ExecError::ExecError;
};

/// Static analysis of `bc`; never executes it.
VerifyResult verify(const BytecodeProgram& bc);

/// The fail-closed compile pipeline of the default executor: compile, then
/// verify (throws VerifyError listing every diagnostic when the verifier
/// rejects).
BytecodeProgram compile_verified(const Program& program, const Linked& linked);

}  // namespace mbcr::ir
