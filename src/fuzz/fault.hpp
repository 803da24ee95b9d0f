// Compile-time-gated deliberate bug hook: the fuzzer's end-to-end
// self-test.
//
// A build configured with -DMBCR_FUZZ_FAULT=ON compiles a known bug into
// `Machine::run_once`'s single-level replay loop (the first DL1 miss of a
// run forgets its memory-latency penalty). The differential fuzzer must
// then catch it (replay oracle: run_once != reference), shrink it, and
// emit a repro that keeps failing under the faulty build — proving the
// harness can actually fail, not just pass. Regular builds compile none of
// this: `fault_compiled_in()` is constant-false and the hook costs
// nothing.
//
// The runtime switch exists so the faulty build's own unit tests can turn
// the bug off where they need sane platform behavior.
#pragma once

namespace mbcr::fuzz {

/// True iff this binary was built with MBCR_FUZZ_FAULT.
constexpr bool fault_compiled_in() {
#ifdef MBCR_FUZZ_FAULT
  return true;
#else
  return false;
#endif
}

/// Armed by default when compiled in; always false otherwise.
bool fault_enabled();

/// Runtime toggle (no effect on builds without the hook).
void set_fault_enabled(bool enabled);

/// True iff this binary was built with MBCR_VM_FAULT: the bytecode-VM
/// analogue of MBCR_FUZZ_FAULT. The compiled-in bug (ir/vm.cpp) makes the
/// first array-element load of a run yield value+1 — a deliberate
/// miscompile the vm-vs-tree oracle must catch, shrink, and corpus-commit.
constexpr bool vm_fault_compiled_in() {
#ifdef MBCR_VM_FAULT
  return true;
#else
  return false;
#endif
}

/// Armed by default when compiled in; always false otherwise.
bool vm_fault_enabled();

/// Runtime toggle (no effect on builds without the hook).
void set_vm_fault_enabled(bool enabled);

}  // namespace mbcr::fuzz
