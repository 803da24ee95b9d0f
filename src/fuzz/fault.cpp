#include "fuzz/fault.hpp"

namespace mbcr::fuzz {

namespace {
bool g_armed = true;
bool g_vm_armed = true;
}  // namespace

bool fault_enabled() { return fault_compiled_in() && g_armed; }

void set_fault_enabled(bool enabled) { g_armed = enabled; }

bool vm_fault_enabled() { return vm_fault_compiled_in() && g_vm_armed; }

void set_vm_fault_enabled(bool enabled) { g_vm_armed = enabled; }

}  // namespace mbcr::fuzz
