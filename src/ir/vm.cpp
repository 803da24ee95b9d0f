#include "ir/vm.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace mbcr::ir::vm {

namespace {

/// Shadow snapshot taken at a ghost boundary; restored (and the ghost's
/// mutations discarded) at the matching exit — exactly `Env shadow = env`
/// in the tree-walker.
struct GhostFrame {
  std::vector<Value> scalars;
  std::vector<Value> heap;
};

/// One counter per opcode, "vm.op.kHalt" style, registered on first use.
/// The machine counts dispatches in a local array and flushes them here
/// once per run, so the dispatch loop never touches a shard.
const obs::Counter* op_counters() {
  static const std::vector<obs::Counter>* table = [] {
    auto* t = new std::vector<obs::Counter>;
    t->reserve(kOpCodeCount);
    for (std::size_t i = 0; i < kOpCodeCount; ++i) {
      t->push_back(obs::counter(std::string("vm.op.") +
                                to_string(static_cast<OpCode>(i))));
    }
    return t;
  }();
  return table->data();
}

class Machine {
public:
  Machine(const BytecodeProgram& bc, const ExecOptions& options)
      : bc_(bc), opt_(options) {}

  ExecResult run(const InputVector& input) {
    scalars_.assign(bc_.scalar_names.size(), 0);
    heap_ = bc_.heap_init;
    for (const auto& [name, value] : input.scalars) {
      const auto it = bc_.scalar_index.find(name);
      if (it == bc_.scalar_index.end()) {
        throw ExecError(bc_.name + ": input sets undeclared scalar '" + name +
                        "'");
      }
      scalars_[it->second] = value;
    }
    for (const auto& [name, contents] : input.arrays) {
      const auto it = bc_.array_index.find(name);
      if (it == bc_.array_index.end()) {
        throw ExecError(bc_.name + ": input sets undeclared array '" + name +
                        "'");
      }
      const ArraySlot& slot = bc_.arrays[it->second];
      if (contents.size() > slot.size) {
        throw ExecError(bc_.name + ": input overflows array '" + name + "'");
      }
      std::copy(contents.begin(), contents.end(),
                heap_.begin() + slot.offset);
    }
    stack_.resize(static_cast<std::size_t>(bc_.max_stack) + 1);
    trips_.assign(bc_.loops.size(), 0);

    exec_loop();

    if (tally_on_) {
      const obs::Counter* ops = op_counters();
      for (std::size_t i = 0; i < kOpCodeCount; ++i) {
        if (tally_[i] != 0) ops[i].add(tally_[i]);
      }
    }

    ExecResult result;
    result.trace = std::move(trace_);
    result.tokens = std::move(tokens_);
    for (std::size_t i = 0; i < bc_.scalar_names.size(); ++i) {
      result.env.scalars[bc_.scalar_names[i]] = scalars_[i];
    }
    for (const ArraySlot& slot : bc_.arrays) {
      result.env.arrays[slot.name] =
          std::vector<Value>(heap_.begin() + slot.offset,
                             heap_.begin() + slot.offset + slot.size);
    }
    result.leaf_steps = steps_;
    result.path = std::move(path_);
    return result;
  }

private:
  void exec_loop();

  void step() {
    if (++steps_ > opt_.max_leaf_steps) throw ExecError(bc_.err_step);
  }

  void do_fetch(const FetchSite& site) {
    for (std::uint32_t k = 0; k < site.n_instr; ++k) {
      trace_.emit(site.base + static_cast<Addr>(k) * kInstrBytes,
                  AccessKind::kIFetch);
    }
    tokens_.push_back(site.token);
  }

  void emit_data(const ArraySlot& arr, Value idx, AccessKind kind) {
    const Addr addr = arr.base + static_cast<Addr>(idx) * 4;
    trace_.emit(addr, kind);
    tokens_.push_back(data_token(addr));
  }

  /// Ghost accesses wrap into the array instead of faulting (padding is
  /// functionally innocuous); real accesses bounds-check strictly.
  static Value wrap_index(Value idx, std::uint32_t size) {
    if (size == 0) return idx;
    const auto s = static_cast<Value>(size);
    return ((idx % s) + s) % s;
  }

  [[noreturn]] void raise_oob(const ArraySlot& arr, Value idx) const {
    throw ExecError(bc_.name + ": index " + std::to_string(idx) +
                    " out of bounds for array '" + arr.name + "' (size " +
                    std::to_string(arr.size) + ")");
  }

  void ghost_enter() {
    frames_.push_back({scalars_, heap_});
    ++ghost_depth_;
  }

  void ghost_exit() {
    GhostFrame& frame = frames_.back();
    scalars_ = std::move(frame.scalars);
    heap_ = std::move(frame.heap);
    frames_.pop_back();
    --ghost_depth_;
  }

  const BytecodeProgram& bc_;
  ExecOptions opt_;
  std::vector<Value> scalars_;
  std::vector<Value> heap_;
  std::vector<Value> stack_;
  std::vector<std::uint64_t> trips_;
  std::vector<GhostFrame> frames_;
  std::uint32_t ghost_depth_ = 0;
  MemTrace trace_;
  std::vector<std::uint64_t> tokens_;
  PathSignature path_;
  std::uint64_t steps_ = 0;
  // Per-opcode dispatch counts, flushed to vm.op.* only when collection
  // was on as the run started.
  std::array<std::uint64_t, kOpCodeCount> tally_{};
  bool tally_on_ = obs::enabled();
  // Deliberate `vm` fault (see util/fault.hpp): when compiled in and
  // armed, the first element load of a run yields value+1.
  bool vm_fault_pending_ =
      fault::compiled_in() && fault::armed().kind == fault::Kind::kVm;
};

void Machine::exec_loop() {
  const Op* const base = bc_.ops.data();
  const Op* ip = base;
  Value* sp = stack_.data();

  for (;;) {
    ++tally_[static_cast<std::size_t>(ip->code)];
    switch (ip->code) {
      case OpCode::kHalt:
        return;

      case OpCode::kPushConst: {
        *sp++ = bc_.consts[ip->a];
        ++ip;
        continue;
      }
      case OpCode::kLoadScalar: {
        *sp++ = scalars_[ip->a];
        ++ip;
        continue;
      }
      case OpCode::kStoreScalar: {
        scalars_[ip->a] = *--sp;
        ++ip;
        continue;
      }
      case OpCode::kAddScalarImm: {
        scalars_[ip->a] = wrap_add(scalars_[ip->a], bc_.consts[ip->b]);
        ++ip;
        continue;
      }
      case OpCode::kLoadElem: {
        const ArraySlot& arr = bc_.arrays[ip->a];
        Value idx = sp[-1];
        if (ghost_depth_ > 0) {
          idx = wrap_index(idx, arr.size);
        } else if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size) {
          raise_oob(arr, idx);
        }
        emit_data(arr, idx, AccessKind::kLoad);
        Value v = heap_[arr.offset + static_cast<std::size_t>(idx)];
        if constexpr (fault::compiled_in()) {
          if (vm_fault_pending_) {
            vm_fault_pending_ = false;
            v += 1;
          }
        }
        sp[-1] = v;
        ++ip;
        continue;
      }
      case OpCode::kStoreElem: {
        const ArraySlot& arr = bc_.arrays[ip->a];
        const Value value = *--sp;
        Value idx = *--sp;
        if (ghost_depth_ > 0) {
          idx = wrap_index(idx, arr.size);
        } else if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size) {
          raise_oob(arr, idx);
        }
        // Ghost stores are demoted to loads: same line touched, no
        // architectural effect outside the shadow frame.
        emit_data(arr, idx,
                  ghost_depth_ > 0 ? AccessKind::kLoad : AccessKind::kStore);
        heap_[arr.offset + static_cast<std::size_t>(idx)] = value;
        ++ip;
        continue;
      }

      case OpCode::kAdd: {
        const Value r = *--sp;
        sp[-1] = wrap_add(sp[-1], r);
        ++ip;
        continue;
      }
      case OpCode::kSub: {
        const Value r = *--sp;
        sp[-1] = wrap_sub(sp[-1], r);
        ++ip;
        continue;
      }
      case OpCode::kMul: {
        const Value r = *--sp;
        sp[-1] = wrap_mul(sp[-1], r);
        ++ip;
        continue;
      }
      case OpCode::kDiv: {
        const Value r = *--sp;
        if (r == 0) throw ExecError(bc_.err_div0);
        sp[-1] = wrap_div(sp[-1], r);
        ++ip;
        continue;
      }
      case OpCode::kMod: {
        const Value r = *--sp;
        if (r == 0) throw ExecError(bc_.err_mod0);
        sp[-1] = wrap_mod(sp[-1], r);
        ++ip;
        continue;
      }
      case OpCode::kShl: {
        const Value r = *--sp;
        sp[-1] = wrap_shl(sp[-1], r);
        ++ip;
        continue;
      }
      case OpCode::kShr: {
        const Value r = *--sp;
        sp[-1] = sp[-1] >> (r & 63);
        ++ip;
        continue;
      }
      case OpCode::kBitAnd: {
        const Value r = *--sp;
        sp[-1] = sp[-1] & r;
        ++ip;
        continue;
      }
      case OpCode::kBitOr: {
        const Value r = *--sp;
        sp[-1] = sp[-1] | r;
        ++ip;
        continue;
      }
      case OpCode::kBitXor: {
        const Value r = *--sp;
        sp[-1] = sp[-1] ^ r;
        ++ip;
        continue;
      }
      case OpCode::kLt: {
        const Value r = *--sp;
        sp[-1] = sp[-1] < r ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kLe: {
        const Value r = *--sp;
        sp[-1] = sp[-1] <= r ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kGt: {
        const Value r = *--sp;
        sp[-1] = sp[-1] > r ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kGe: {
        const Value r = *--sp;
        sp[-1] = sp[-1] >= r ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kEq: {
        const Value r = *--sp;
        sp[-1] = sp[-1] == r ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kNe: {
        const Value r = *--sp;
        sp[-1] = sp[-1] != r ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kLAnd: {
        const Value r = *--sp;
        sp[-1] = (sp[-1] != 0 && r != 0) ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kLOr: {
        const Value r = *--sp;
        sp[-1] = (sp[-1] != 0 || r != 0) ? 1 : 0;
        ++ip;
        continue;
      }

      case OpCode::kNeg: {
        sp[-1] = wrap_neg(sp[-1]);
        ++ip;
        continue;
      }
      case OpCode::kLNot: {
        sp[-1] = sp[-1] == 0 ? 1 : 0;
        ++ip;
        continue;
      }
      case OpCode::kBitNot: {
        sp[-1] = ~sp[-1];
        ++ip;
        continue;
      }
      case OpCode::kSelect: {
        const Value else_v = *--sp;
        const Value then_v = *--sp;
        sp[-1] = sp[-1] != 0 ? then_v : else_v;
        ++ip;
        continue;
      }
      case OpCode::kPop: {
        --sp;
        ++ip;
        continue;
      }

      case OpCode::kStepFetch: {
        step();
        do_fetch(bc_.sites[ip->a]);
        ++ip;
        continue;
      }
      case OpCode::kFetch: {
        do_fetch(bc_.sites[ip->a]);
        ++ip;
        continue;
      }

      case OpCode::kJump: {
        ip = base + ip->a;
        continue;
      }
      case OpCode::kBranch: {
        const Value cond = *--sp;
        const bool taken = cond != 0;
        if (ghost_depth_ == 0) {
          path_.events.emplace_back(bc_.branch_ids[ip->b], taken ? 1 : 0);
        }
        if (taken) {
          ++ip;
        } else {
          ip = base + ip->a;
        }
        continue;
      }

      case OpCode::kResetTrips: {
        trips_[ip->a] = 0;
        ++ip;
        continue;
      }
      case OpCode::kLoopNext: {
        const Value cond = *--sp;
        if (cond == 0) {
          ip = base + ip->b;
          continue;
        }
        const LoopSlot& loop = bc_.loops[ip->a];
        if (trips_[ip->a] == loop.max_trips) throw ExecError(loop.bound_error);
        ++trips_[ip->a];
        ++ip;
        continue;
      }
      case OpCode::kPathLoop: {
        if (ghost_depth_ == 0) {
          path_.events.emplace_back(bc_.loops[ip->a].stmt_id, trips_[ip->a]);
        }
        ++ip;
        continue;
      }
      case OpCode::kPadEnter: {
        if (trips_[ip->a] >= bc_.loops[ip->a].max_trips) {
          ip = base + ip->b;
          continue;
        }
        ghost_enter();
        ++ip;
        continue;
      }
      case OpCode::kPadNext: {
        ++trips_[ip->a];
        if (trips_[ip->a] < bc_.loops[ip->a].max_trips) {
          ip = base + ip->b;
          continue;
        }
        ++ip;  // falls through to the pad section's kGhostExit
        continue;
      }

      case OpCode::kGhostEnter: {
        ghost_enter();
        ++ip;
        continue;
      }
      case OpCode::kGhostExit: {
        ghost_exit();
        ++ip;
        continue;
      }
    }
  }
}

}  // namespace

ExecResult run(const BytecodeProgram& bytecode, const InputVector& input,
               const ExecOptions& options) {
  Machine machine(bytecode, options);
  return machine.run(input);
}

}  // namespace mbcr::ir::vm
