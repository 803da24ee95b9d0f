// Bytecode VM: the execute half of the compile-then-execute executor pair
// (ir/bytecode.hpp holds the compiler).
//
// A portable switch dispatch loop over the flat op stream. All state is
// dense: a scalar slot vector, one flat heap for every array, a
// preallocated operand stack sized by the compiler, per-loop trip
// counters, and a ghost-frame stack of (scalars, heap) snapshots that
// implements the tree-walker's shadow-environment semantics for ghost
// regions and `pad_to_max` sections.
//
// `run` is bit-identical to `execute_tree` on the same lowered program:
// same trace, env, leaf_steps, path signature, PUB token stream, and the
// same ExecError what() strings on every error path. The equivalence is
// enforced by tests/ir/vm_test.cpp and fuzzed forever by the "vm" oracle.
#pragma once

#include "ir/bytecode.hpp"
#include "ir/interp.hpp"

namespace mbcr::ir::vm {

/// Executes compiled bytecode on `input`. `options.executor` is ignored
/// (this IS the VM); record_trace and max_leaf_steps behave exactly as in
/// the tree-walker.
ExecResult run(const BytecodeProgram& bytecode, const InputVector& input,
               const ExecOptions& options = {});

}  // namespace mbcr::ir::vm
