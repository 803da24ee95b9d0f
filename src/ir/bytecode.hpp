// Bytecode for the IR: the compile half of the compile-then-execute
// executor pair (ir/vm.hpp holds the dispatch loop).
//
// `compile` flattens a lowered `ir::Program` into a linear op stream for a
// small stack machine. Everything the tree-walker resolves per node at run
// time is resolved once here:
//   - scalar and array names become dense slot indices (an unbound name is
//     a compile-time ExecError, though `validate()` makes that unreachable
//     through the public entry points);
//   - per-statement code spans and origin tokens become a fetch-site table,
//     so an instruction-fetch burst is one table row at run time;
//   - constant loop bounds are folded into per-loop slots with the
//     loop-bound ExecError message precomposed;
//   - ghost/`pad_to_max` regions are lowered to explicit kGhostEnter /
//     kGhostExit ops bracketing ordinary code (pad sections re-emit the
//     loop body, mirroring how PUB genuinely inflates the text segment).
//
// The VM executing this bytecode is bit-identical to the tree-walker:
// same trace, env, tokens, path signature, leaf_steps, and same ExecError
// what() strings. tests/ir/vm_test.cpp and the "vm" fuzz oracle pin this.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "ir/lower.hpp"
#include "ir/program.hpp"

namespace mbcr::ir {

// One X-macro is the single source of truth for the opcode set: the enum,
// the VM's computed-goto table (ir/vm.cpp) and to_string stay in sync by
// construction. Order matters — the 18 binary ops mirror BinOp and the 3
// unary ops mirror UnOp so the compiler maps them by offset.
#define MBCR_VM_OPCODES(X)                                                   \
  X(kHalt)        /* end of program */                                       \
  X(kPushConst)   /* push consts[a] */                                       \
  X(kLoadScalar)  /* push scalars[a] */                                      \
  X(kStoreScalar) /* scalars[a] = pop */                                     \
  X(kAddScalarImm) /* scalars[a] += consts[b] (for-loop step) */             \
  X(kLoadElem)    /* pop idx; push arrays[a][idx] (bounds/ghost-wrap) */     \
  X(kStoreElem)   /* pop value, idx; arrays[a][idx] = value */               \
  X(kAdd) X(kSub) X(kMul) X(kDiv) X(kMod)                                    \
  X(kShl) X(kShr) X(kBitAnd) X(kBitOr) X(kBitXor)                            \
  X(kLt) X(kLe) X(kGt) X(kGe) X(kEq) X(kNe)                                  \
  X(kLAnd) X(kLOr)                                                           \
  X(kNeg) X(kLNot) X(kBitNot)                                                \
  X(kSelect)      /* pop else, then, cond; push cond ? then : else */        \
  X(kPop)         /* discard top (pad-section condition value) */            \
  X(kStepFetch)   /* step guard + instruction fetches of sites[a] */         \
  X(kFetch)       /* fetches of sites[a], no step (for-loop step slot) */    \
  X(kJump)        /* ip = a */                                               \
  X(kBranch)      /* pop cond; path event (branch_ids[b], taken); if not    \
                     taken ip = a */                                         \
  X(kResetTrips)  /* loops[a].trips = 0 */                                   \
  X(kLoopNext)    /* pop cond; cond==0 -> ip = b; else bound-check+trip */   \
  X(kPathLoop)    /* path event (loops[a].stmt_id, trips) unless ghost */    \
  X(kPadEnter)    /* trips>=max -> ip = b; else push ghost frame */          \
  X(kPadNext)     /* ++trips; trips<max -> ip = b; else fall through */      \
  X(kGhostEnter)  /* push ghost frame (shadow copy of scalars+heap) */       \
  X(kGhostExit)   /* pop ghost frame (discard shadow state) */

enum class OpCode : std::uint8_t {
#define MBCR_VM_ENUM(name) name,
  MBCR_VM_OPCODES(MBCR_VM_ENUM)
#undef MBCR_VM_ENUM
};

inline constexpr std::size_t kOpCodeCount = []() {
  std::size_t n = 0;
#define MBCR_VM_COUNT(name) ++n;
  MBCR_VM_OPCODES(MBCR_VM_COUNT)
#undef MBCR_VM_COUNT
  return n;
}();

const char* to_string(OpCode code);

struct Op {
  OpCode code = OpCode::kHalt;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// One instruction-fetch burst: the code span of a statement slot plus the
/// semantic token keyed by the statement's *origin* slot (what makes the
/// PUB supersequence invariant checkable across original/pubbed programs).
struct FetchSite {
  Addr base = 0;
  std::uint32_t n_instr = 0;
  std::uint64_t token = 0;
};

/// One declared array: data address of element 0 and its window in the
/// VM's flat heap.
struct ArraySlot {
  std::string name;
  Addr base = 0;
  std::uint32_t offset = 0;  ///< index of element 0 in the flat heap
  std::uint32_t size = 0;    ///< element count
};

/// One loop occurrence: the bound folded at compile time, with the
/// loop-bound ExecError message precomposed so the hot path only compares.
struct LoopSlot {
  std::uint64_t stmt_id = 0;
  std::uint64_t max_trips = 0;
  std::string bound_error;
};

struct BytecodeProgram {
  std::string name;
  std::vector<Op> ops;
  std::vector<Value> consts;
  std::vector<FetchSite> sites;
  std::vector<LoopSlot> loops;
  std::vector<std::uint64_t> branch_ids;  ///< kBranch path-event stmt ids

  /// Scalar slot i holds the scalar named scalar_names[i] (declaration
  /// order); arrays live concatenated in one flat heap seeded from
  /// heap_init. The index maps exist for input application only.
  std::vector<std::string> scalar_names;
  std::vector<ArraySlot> arrays;
  std::vector<Value> heap_init;
  std::map<std::string, std::uint32_t> scalar_index;
  std::map<std::string, std::uint32_t> array_index;

  /// Operand-stack high-water mark, computed at compile time so the VM
  /// never checks for overflow at run time.
  std::uint32_t max_stack = 0;

  // Precomposed runtime error messages (byte-identical to the interpreter).
  std::string err_div0;
  std::string err_mod0;
  std::string err_step;

  std::size_t count_ops(OpCode code) const;
  /// Human-readable listing (debugging and docs; one op per line).
  std::string disassemble() const;
};

/// Compiles `program` (laid out as `linked`) to bytecode. Throws ExecError
/// on an unbound scalar/array name.
BytecodeProgram compile(const Program& program, const Linked& linked);

}  // namespace mbcr::ir
