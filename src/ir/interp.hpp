// IR interpreter: executes a program on an input vector, producing the
// final architectural state and the memory-access trace (instruction
// fetches and data accesses) that the platform model replays.
//
// Ghost semantics (the PUB padding): a ghost region executes against a
// throw-away copy of the environment; its stores are emitted as *loads* of
// the same address (the cache effect of a functionally-innocuous access)
// and no architectural state escapes the region. Loops flagged
// `pad_to_max` run ghost iterations after their natural exit until the
// declared bound is reached.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/trace.hpp"
#include "ir/lower.hpp"
#include "ir/paths.hpp"
#include "ir/program.hpp"

namespace mbcr::ir {

struct Env {
  std::map<std::string, Value> scalars;
  std::map<std::string, std::vector<Value>> arrays;
};

/// The product runs one IR engine: compile to flat bytecode (ir/bytecode),
/// verify, and execute on the dispatch-loop VM (ir/vm). The tree-walker
/// (`execute_tree`) is the reference the VM is pinned to, called directly
/// by tests and the `vm` fuzz oracle.
///
/// Nothing in src/ reads this enum or the `executor` fields typed by it;
/// they exist because the whole-study benchmark's rebuild
/// (studybench/rebuild.cpp) still assigns them.
enum class Executor { kVm };

struct ExecOptions {
  std::uint64_t max_leaf_steps = 50'000'000;  ///< runaway guard
  Executor executor = Executor::kVm;          ///< unread; see Executor
};

struct ExecResult {
  MemTrace trace;
  Env env;
  std::uint64_t leaf_steps = 0;
  PathSignature path;  ///< branch decisions and loop trip counts

  /// Semantic token stream: one token per executed code block (keyed by the
  /// statement's *origin* id and sub-slot) and one per data access (keyed by
  /// address). Because PUB clones preserve origins and arrays are laid out
  /// identically in the original and pubbed programs, the paper's Eq. 2
  /// (M_pub^j is M_orig^j with insertions) becomes the checkable property
  /// "orig tokens are a subsequence of pubbed tokens" for the same input.
  std::vector<std::uint64_t> tokens;
};

/// Token constructors (exposed so tests can build expectations).
inline std::uint64_t data_token(Addr addr) {
  return (1ULL << 63) | addr;
}
inline std::uint64_t code_token(std::uint64_t origin_slot_key) {
  return origin_slot_key;
}

/// Raised on division by zero, out-of-bounds indexing, loop-bound
/// violations or the step guard; carries the program name and context.
class ExecError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Executes `program` (laid out as `linked`) on `input`: compile, verify,
/// then run on the bytecode VM.
ExecResult execute(const Program& program, const Linked& linked,
                   const InputVector& input, const ExecOptions& options = {});

/// The tree-walking reference interpreter — the oracle the bytecode VM is
/// differentially pinned to.
ExecResult execute_tree(const Program& program, const Linked& linked,
                        const InputVector& input,
                        const ExecOptions& options = {});

/// Convenience: lower + execute in one call.
ExecResult lower_and_execute(const Program& program, const InputVector& input,
                             const ExecOptions& options = {});

}  // namespace mbcr::ir
