#include "vm/interpreter.h"

#include <atomic>
#include <vector>

#include "common/status.h"

namespace aqe {
namespace {

// Register accessors: `regs` is the register file; a1..a3 are 8-byte *slot
// indices* (the compact encoding keeps them in 16 bits), so the byte address
// is regs + (slot << 3). Narrow values occupy the low bytes of their slot.
#define RSLOT(slot) (regs + (static_cast<size_t>(slot) << 3))
#define R_I8(slot) (*reinterpret_cast<int8_t*>(RSLOT(slot)))
#define R_U8(slot) (*reinterpret_cast<uint8_t*>(RSLOT(slot)))
#define R_I16(slot) (*reinterpret_cast<int16_t*>(RSLOT(slot)))
#define R_U16(slot) (*reinterpret_cast<uint16_t*>(RSLOT(slot)))
#define R_I32(slot) (*reinterpret_cast<int32_t*>(RSLOT(slot)))
#define R_U32(slot) (*reinterpret_cast<uint32_t*>(RSLOT(slot)))
#define R_I64(slot) (*reinterpret_cast<int64_t*>(RSLOT(slot)))
#define R_U64(slot) (*reinterpret_cast<uint64_t*>(RSLOT(slot)))
#define R_F64(slot) (*reinterpret_cast<double*>(RSLOT(slot)))
#define R_PTR(slot) (*reinterpret_cast<uint8_t**>(RSLOT(slot)))

// Call-target casts. All runtime functions use i64-compatible args/returns
// (see RuntimeRegistry).
using F0 = uint64_t (*)();
using F1 = uint64_t (*)(uint64_t);
using F2 = uint64_t (*)(uint64_t, uint64_t);
using F3 = uint64_t (*)(uint64_t, uint64_t, uint64_t);
using F4 = uint64_t (*)(uint64_t, uint64_t, uint64_t, uint64_t);
using F5 = uint64_t (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t);
using F6 = uint64_t (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                        uint64_t);
using F7 = uint64_t (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                        uint64_t, uint64_t);
using F8 = uint64_t (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                        uint64_t, uint64_t, uint64_t);

uint64_t DispatchN(uint64_t target, const uint64_t* a, uint32_t n) {
  switch (n) {
    case 0: return reinterpret_cast<F0>(target)();
    case 1: return reinterpret_cast<F1>(target)(a[0]);
    case 2: return reinterpret_cast<F2>(target)(a[0], a[1]);
    case 3: return reinterpret_cast<F3>(target)(a[0], a[1], a[2]);
    case 4: return reinterpret_cast<F4>(target)(a[0], a[1], a[2], a[3]);
    case 5: return reinterpret_cast<F5>(target)(a[0], a[1], a[2], a[3], a[4]);
    case 6:
      return reinterpret_cast<F6>(target)(a[0], a[1], a[2], a[3], a[4], a[5]);
    case 7:
      return reinterpret_cast<F7>(target)(a[0], a[1], a[2], a[3], a[4], a[5],
                                          a[6]);
    case 8:
      return reinterpret_cast<F8>(target)(a[0], a[1], a[2], a[3], a[4], a[5],
                                          a[6], a[7]);
  }
  AQE_UNREACHABLE("bad call arity");
}

/// Address computation of the fused GEP+memory macro ops (§IV-F):
/// base + index * scale + offset, all from one instruction.
#define IDX_ADDR(inst) \
  (R_PTR((inst)->a2) + R_I64((inst)->a3) * UnpackScale((inst)->lit) + \
   UnpackOffset((inst)->lit))
#define MEM_ADDR(inst) \
  (R_PTR((inst)->a2) + \
   static_cast<int32_t>(static_cast<uint32_t>((inst)->lit)))
/// Compare-and-branch superinstructions: jump to the packed then/else target.
#define VM_CMP_BR(expr) \
  ip = code + ((expr) ? UnpackThenTarget(I->lit) : UnpackElseTarget(I->lit))

/// Element loads of the load-compare-and-branch superinstructions
/// (br_load_*): the scale is implied by the element type and the byte offset
/// is zero — the peephole only fuses that GEP shape, because `lit` carries
/// the branch targets and has no room for a scale/offset immediate.
#define LCB_I32(inst) \
  (*reinterpret_cast<const int32_t*>(R_PTR((inst)->a2) + R_I64((inst)->a3) * 4))
#define LCB_U32(inst)                                                        \
  (*reinterpret_cast<const uint32_t*>(R_PTR((inst)->a2) +                    \
                                      R_I64((inst)->a3) * 4))
#define LCB_I64(inst) \
  (*reinterpret_cast<const int64_t*>(R_PTR((inst)->a2) + R_I64((inst)->a3) * 8))
#define LCB_U64(inst)                                                        \
  (*reinterpret_cast<const uint64_t*>(R_PTR((inst)->a2) +                    \
                                      R_I64((inst)->a3) * 8))
/// The element of type T (int8_t, int16_t or int32_t) sign-extended to i64
/// (br_load_sext_iN_*), and its unsigned view for the unsigned predicates.
#define LCB_SX(inst, T)                                                      \
  static_cast<int64_t>(*reinterpret_cast<const T*>(                          \
      R_PTR((inst)->a2) +                                                    \
      R_I64((inst)->a3) * static_cast<int64_t>(sizeof(T))))
#define LCB_SXU(inst, T) static_cast<uint64_t>(LCB_SX(inst, T))

/// Per-opcode dispatch counts, collected while VmSetProfileCounting is on;
/// the engine's metrics snapshot reads them as vm.op.*.
std::atomic<uint64_t>
    g_dispatch_counts[static_cast<size_t>(Opcode::kNumOpcodes)];
std::atomic<bool> g_profile_counting{false};

/// The classic interpreter loop (Fig 8): one switch, one shared indirect
/// branch that every opcode funnels through. The kProfile instantiation
/// counts every dispatch; the regular one stays count-free.
template <bool kProfile>
uint64_t RunSwitch(const BcProgram& program, uint8_t* regs) {
  const BcInstruction* code = program.code.data();
  const uint64_t* lp = program.literal_pool.data();
  uint64_t argbuf[8];
  uint32_t argn = 0;
  const BcInstruction* ip = code;
  const BcInstruction* I;
  for (;;) {
    I = ip++;
    if constexpr (kProfile) {
      g_dispatch_counts[I->op].fetch_add(1, std::memory_order_relaxed);
    }
    switch (static_cast<Opcode>(I->op)) {
#define VM_CASE(name) case Opcode::k_##name: {
#define VM_NEXT \
  }             \
  break
#include "vm/interpreter_ops.inc"
#undef VM_CASE
#undef VM_NEXT
      case Opcode::kNumOpcodes:
        AQE_UNREACHABLE("bad opcode");
    }
  }
}

#if AQE_VM_HAS_COMPUTED_GOTO
/// Direct-threaded dispatch: a label per opcode and a computed goto at the
/// end of every handler, so each opcode owns its own indirect branch and the
/// branch predictor can learn per-opcode successor patterns (the classic
/// threaded-code win over the shared switch dispatch site).
uint64_t RunThreaded(const BcProgram& program, uint8_t* regs) {
  static const void* kTargets[] = {
#define AQE_LABEL_ADDR(name) &&T_##name,
      AQE_OPCODE_LIST(AQE_LABEL_ADDR)
#undef AQE_LABEL_ADDR
  };
  const BcInstruction* code = program.code.data();
  const uint64_t* lp = program.literal_pool.data();
  uint64_t argbuf[8];
  uint32_t argn = 0;
  const BcInstruction* ip = code;
  const BcInstruction* I;
  I = ip++;
  goto* kTargets[I->op];
#define VM_CASE(name) T_##name : {
#define VM_NEXT \
  }             \
  I = ip++;     \
  goto* kTargets[I->op]
#include "vm/interpreter_ops.inc"
#undef VM_CASE
#undef VM_NEXT
}
#endif  // AQE_VM_HAS_COMPUTED_GOTO

void InitRegisters(const BcProgram& program, const uint64_t* args,
                   int num_args, uint8_t* regs) {
  // §IV-A: slots 0 and 1 always hold the constants 0 and 1.
  R_U64(0) = 0;
  R_U64(1) = 1;
  for (const BcProgram::PoolEntry& entry : program.constant_pool) {
    R_U64(entry.slot) = entry.value;
  }
  AQE_CHECK(static_cast<size_t>(num_args) == program.arg_offsets.size());
  for (int i = 0; i < num_args; ++i) {
    R_U64(program.arg_offsets[static_cast<size_t>(i)]) = args[i];
  }
}

#undef RSLOT
#undef R_I8
#undef R_U8
#undef R_I16
#undef R_U16
#undef R_I32
#undef R_U32
#undef R_I64
#undef R_U64
#undef R_F64
#undef R_PTR
#undef IDX_ADDR
#undef MEM_ADDR
#undef VM_CMP_BR
#undef LCB_I32
#undef LCB_U32
#undef LCB_I64
#undef LCB_U64
#undef LCB_SX
#undef LCB_SXU

constexpr uint32_t kStackRegisterBytes = 16384;

uint64_t Run(const BcProgram& program, uint8_t* regs, VmDispatch dispatch) {
  // Opcode frequencies are engine-independent, so counting always runs the
  // switch engine's counting instantiation and the hot loops stay
  // count-free.
  if (g_profile_counting.load(std::memory_order_relaxed)) {
    return RunSwitch<true>(program, regs);
  }
#if AQE_VM_HAS_COMPUTED_GOTO
  if (dispatch == VmDispatch::kThreaded) return RunThreaded(program, regs);
#endif
  (void)dispatch;
  return RunSwitch<false>(program, regs);
}

}  // namespace

void VmSetProfileCounting(bool enabled) {
  g_profile_counting.store(enabled, std::memory_order_relaxed);
}

std::vector<VmOpcodeCount> VmProfileCounts() {
  std::vector<VmOpcodeCount> counts;
  for (uint16_t op = 0; op < static_cast<uint16_t>(Opcode::kNumOpcodes);
       ++op) {
    uint64_t n = g_dispatch_counts[op].load(std::memory_order_relaxed);
    if (n != 0) counts.push_back({OpcodeName(static_cast<Opcode>(op)), n});
  }
  return counts;
}

void VmResetProfileCounts() {
  for (auto& count : g_dispatch_counts) {
    count.store(0, std::memory_order_relaxed);
  }
}

bool VmThreadedDispatchAvailable() { return AQE_VM_HAS_COMPUTED_GOTO != 0; }

uint64_t VmExecute(const BcProgram& program, const uint64_t* args,
                   int num_args, VmDispatch dispatch) {
  AQE_CHECK(!program.code.empty());
  if (program.register_file_size <= kStackRegisterBytes) {
    alignas(16) uint8_t regs[kStackRegisterBytes];
    InitRegisters(program, args, num_args, regs);
    return Run(program, regs, dispatch);
  }
  std::vector<uint8_t> heap_regs(program.register_file_size);
  InitRegisters(program, args, num_args, heap_regs.data());
  return Run(program, heap_regs.data(), dispatch);
}

void VmExecuteWorker(void* state, uint64_t begin, uint64_t end,
                     const void* program) {
  const auto& bc = *static_cast<const BcProgram*>(program);
  // The worker ABI has exactly four parameters; a program expecting more
  // would read past `args` — fail loudly instead.
  AQE_CHECK(bc.arg_offsets.size() <= 4);
  uint64_t args[4] = {reinterpret_cast<uint64_t>(state), begin, end,
                      reinterpret_cast<uint64_t>(program)};
  VmExecute(bc, args, static_cast<int>(bc.arg_offsets.size()));
}

}  // namespace aqe
