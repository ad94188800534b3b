#ifndef AQE_VM_BYTECODE_H_
#define AQE_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace aqe {

/// Opcodes of the bytecode virtual machine (§IV). The instruction set is
/// fixed-length and statically typed: the operand type is baked into the
/// opcode (add_i32 vs add_i64), unlike LLVM IR's single polymorphic add,
/// which is what makes interpretation cheap. Macro opcodes (…_ovf_br,
/// load/store with fused address arithmetic, compare-and-branch) collapse
/// frequently occurring LLVM instruction sequences into one VM instruction
/// (§IV-F).
///
/// Macro list format: V(name) — the semantics are implemented in one line
/// each in the shared handler list (vm/interpreter_ops.inc), which both
/// dispatch engines include (see vm/DESIGN.md).
#define AQE_OPCODE_LIST(V)                                                   \
  /* moves and constants */                                                  \
  V(mov64)          /* r[a1] = r[a2] (full slot; used for phi copies) */     \
  /* integer arithmetic */                                                   \
  V(add_i32) V(add_i64) V(sub_i32) V(sub_i64) V(mul_i32) V(mul_i64)          \
  V(sdiv_i32) V(sdiv_i64) V(udiv_i32) V(udiv_i64)                            \
  V(srem_i32) V(srem_i64) V(urem_i32) V(urem_i64)                            \
  /* overflow-checked macro ops: result + branch-on-overflow in one */       \
  V(sadd_ovf_br_i32) V(sadd_ovf_br_i64) V(ssub_ovf_br_i32)                   \
  V(ssub_ovf_br_i64) V(smul_ovf_br_i32) V(smul_ovf_br_i64)                   \
  /* unfused overflow intrinsics (value + flag), for the fusion ablation */  \
  V(sadd_ovf_i32) V(sadd_ovf_i64) V(ssub_ovf_i32) V(ssub_ovf_i64)            \
  V(smul_ovf_i32) V(smul_ovf_i64)                                            \
  /* bitwise */                                                              \
  V(and_i1) V(and_i32) V(and_i64) V(or_i1) V(or_i32) V(or_i64)               \
  V(xor_i1) V(xor_i32) V(xor_i64)                                            \
  V(shl_i32) V(shl_i64) V(lshr_i32) V(lshr_i64) V(ashr_i32) V(ashr_i64)      \
  /* integer comparisons -> i1 */                                            \
  V(icmp_eq_i32) V(icmp_eq_i64) V(icmp_ne_i32) V(icmp_ne_i64)                \
  V(icmp_slt_i32) V(icmp_slt_i64) V(icmp_sle_i32) V(icmp_sle_i64)            \
  V(icmp_sgt_i32) V(icmp_sgt_i64) V(icmp_sge_i32) V(icmp_sge_i64)            \
  V(icmp_ult_i32) V(icmp_ult_i64) V(icmp_ule_i32) V(icmp_ule_i64)            \
  V(icmp_ugt_i32) V(icmp_ugt_i64) V(icmp_uge_i32) V(icmp_uge_i64)            \
  /* compare-and-branch superinstructions (§IV-F extended): fuse a          \
     single-use icmp/fcmp with the condbr that consumes it. a2/a3 are the    \
     operands; lit packs (then << 32 | else) instruction indices. */         \
  V(br_eq_i32) V(br_eq_i64) V(br_ne_i32) V(br_ne_i64)                        \
  V(br_slt_i32) V(br_slt_i64) V(br_sle_i32) V(br_sle_i64)                    \
  V(br_sgt_i32) V(br_sgt_i64) V(br_sge_i32) V(br_sge_i64)                    \
  V(br_ult_i32) V(br_ult_i64) V(br_ule_i32) V(br_ule_i64)                    \
  V(br_ugt_i32) V(br_ugt_i64) V(br_uge_i32) V(br_uge_i64)                    \
  V(br_folt_f64) V(br_fogt_f64)                                              \
  /* load-compare-and-branch: the scan-filter kernel in one dispatch.        \
     tmp = *(ty*)(r[a2] + r[a3]*sizeof(ty)); branch on tmp <pred> r[a1].     \
     The element scale is implied by the type and the byte offset is zero    \
     (the peephole only fires for that GEP shape); lit packs the branch      \
     targets, so no field is left for a scale/offset immediate. */           \
  V(br_load_eq_i32) V(br_load_eq_i64) V(br_load_ne_i32) V(br_load_ne_i64)    \
  V(br_load_slt_i32) V(br_load_slt_i64) V(br_load_sle_i32)                   \
  V(br_load_sle_i64) V(br_load_sgt_i32) V(br_load_sgt_i64)                   \
  V(br_load_sge_i32) V(br_load_sge_i64) V(br_load_ult_i32)                   \
  V(br_load_ult_i64) V(br_load_ule_i32) V(br_load_ule_i64)                   \
  V(br_load_ugt_i32) V(br_load_ugt_i64) V(br_load_uge_i32)                   \
  V(br_load_uge_i64)                                                         \
  /* sign-extending load-compare-and-branch: the compare reads sext(iN load) \
     — an 8-, 16- or 32-bit column value widened by the scan. tmp =          \
     (i64)*(iN*)(r[a2] + r[a3]*N/8); branch on tmp <pred> r[a1] as i64. */   \
  V(br_load_sext_i8_eq_i64) V(br_load_sext_i8_ne_i64)                        \
  V(br_load_sext_i8_slt_i64) V(br_load_sext_i8_sle_i64)                      \
  V(br_load_sext_i8_sgt_i64) V(br_load_sext_i8_sge_i64)                      \
  V(br_load_sext_i8_ult_i64) V(br_load_sext_i8_ule_i64)                      \
  V(br_load_sext_i8_ugt_i64) V(br_load_sext_i8_uge_i64)                      \
  V(br_load_sext_i16_eq_i64) V(br_load_sext_i16_ne_i64)                      \
  V(br_load_sext_i16_slt_i64) V(br_load_sext_i16_sle_i64)                    \
  V(br_load_sext_i16_sgt_i64) V(br_load_sext_i16_sge_i64)                    \
  V(br_load_sext_i16_ult_i64) V(br_load_sext_i16_ule_i64)                    \
  V(br_load_sext_i16_ugt_i64) V(br_load_sext_i16_uge_i64)                    \
  V(br_load_sext_i32_eq_i64) V(br_load_sext_i32_ne_i64)                      \
  V(br_load_sext_i32_slt_i64) V(br_load_sext_i32_sle_i64)                    \
  V(br_load_sext_i32_sgt_i64) V(br_load_sext_i32_sge_i64)                    \
  V(br_load_sext_i32_ult_i64) V(br_load_sext_i32_ule_i64)                    \
  V(br_load_sext_i32_ugt_i64) V(br_load_sext_i32_uge_i64)                    \
  /* floating point */                                                       \
  V(fadd_f64) V(fsub_f64) V(fmul_f64) V(fdiv_f64) V(fneg_f64)                \
  V(fcmp_oeq_f64) V(fcmp_one_f64) V(fcmp_olt_f64) V(fcmp_ole_f64)            \
  V(fcmp_ogt_f64) V(fcmp_oge_f64) V(fcmp_une_f64)                            \
  /* casts */                                                                \
  V(sext_i1_i64) V(sext_i8_i64) V(sext_i32_i64) V(sext_i8_i32)               \
  V(sext_i16_i64) V(sext_i16_i32)                                            \
  V(zext_i1_i32) V(zext_i1_i64) V(zext_i8_i32) V(zext_i8_i64)                \
  V(zext_i16_i32) V(zext_i16_i64) V(zext_i32_i64) V(zext_i1_i8)              \
  V(trunc_i64_i32) V(trunc_i64_i16) V(trunc_i64_i8) V(trunc_i32_i8)          \
  V(trunc_i64_i1) V(trunc_i32_i1) V(trunc_i32_i16)                           \
  V(sitofp_i32_f64) V(sitofp_i64_f64) V(fptosi_f64_i64) V(fptosi_f64_i32)    \
  V(uitofp_i64_f64) V(bitcast_i64_f64) V(bitcast_f64_i64)                    \
  /* select: r[a1] = r[a2] ? r[a3] : r[lit] */                               \
  V(select_i32) V(select_i64) V(select_f64)                                  \
  /* memory: plain (address in register, constant byte offset in lit) */     \
  V(load_i8) V(load_i16) V(load_i32) V(load_i64) V(load_f64)                 \
  V(store_i8) V(store_i16) V(store_i32) V(store_i64) V(store_f64)            \
  /* memory: fused GEP + access — lit packs scale (hi32) and offset (lo32),  \
     address = r[a2] + r[a3]*scale + offset (§IV-F macro op) */              \
  V(load_idx_i8) V(load_idx_i16) V(load_idx_i32) V(load_idx_i64)             \
  V(load_idx_f64)                                                            \
  /* widening loads: an i8/i16/i32 load whose only user is a sext to i64,   \
     in one dispatch — r[a1] = (i64)*(iN*)address */                         \
  V(load_idx_sext_i8_i64) V(load_idx_sext_i16_i64) V(load_idx_sext_i32_i64) \
  V(store_idx_i8) V(store_idx_i16) V(store_idx_i32) V(store_idx_i64)         \
  V(store_idx_f64)                                                           \
  /* standalone pointer arithmetic: r[a1] = r[a2] + r[a3]*scale + offset */  \
  V(gep) V(gep_const) /* gep_const: r[a1] = r[a2] + offset */                \
  /* control flow: targets are instruction indices */                        \
  V(br)        /* lit = target */                                            \
  V(condbr)    /* a1 = cond reg, lit packs (then << 32 | else) */            \
  V(ret_void) V(ret) /* ret: returns full 8-byte slot r[a1] */               \
  V(trap)      /* llvm unreachable */                                        \
  /* calls to registered C++ runtime functions; lit = literal-pool index of \
     the callee address. All runtime functions take/return i64-compatible    \
     values (DESIGN.md). */                                                  \
  V(call_i64_0) V(call_i64_1) V(call_i64_2)                                  \
  V(call_void_0) V(call_void_1) V(call_void_2)                               \
  V(push_arg)  /* append r[a1] to the pending argument buffer */             \
  V(call_i64_n) V(call_void_n) /* a2 = nargs, consumes pending args */

enum class Opcode : uint16_t {
#define AQE_DECLARE_OPCODE(name) k_##name,
  AQE_OPCODE_LIST(AQE_DECLARE_OPCODE)
#undef AQE_DECLARE_OPCODE
      kNumOpcodes
};

/// Opcode mnemonic for disassembly.
const char* OpcodeName(Opcode op);

/// One fixed-length, compact (16-byte) VM instruction: four 16-bit fields
/// and a 64-bit immediate, so four instructions fill one cache line instead
/// of the previous 24-byte encoding's 2.67.
///
/// a1..a3 index 8-byte register-file *slots* (not byte offsets — slot
/// indices keep them inside 16 bits; the interpreter shifts by 3) or, for
/// control flow, carry small immediates. `lit` is the wide immediate:
/// branch target(s), packed scale/offset, flag slot, or the literal-pool
/// index of a callee address.
struct BcInstruction {
  uint16_t op;
  uint16_t a1;
  uint16_t a2;
  uint16_t a3;
  uint64_t lit;
};
static_assert(sizeof(BcInstruction) == 16, "compact fixed-length encoding");

/// Packs the (scale, offset) immediate of fused memory ops.
inline uint64_t PackScaleOffset(uint32_t scale, int32_t offset) {
  return (static_cast<uint64_t>(scale) << 32) |
         static_cast<uint32_t>(offset);
}
inline uint32_t UnpackScale(uint64_t lit) {
  return static_cast<uint32_t>(lit >> 32);
}
inline int32_t UnpackOffset(uint64_t lit) {
  return static_cast<int32_t>(static_cast<uint32_t>(lit));
}

/// Packs the (then, else) instruction indices of condbr and the
/// compare-and-branch superinstructions.
inline uint64_t PackBranchTargets(uint32_t then_target, uint32_t else_target) {
  return (static_cast<uint64_t>(then_target) << 32) | else_target;
}
inline uint32_t UnpackThenTarget(uint64_t lit) {
  return static_cast<uint32_t>(lit >> 32);
}
inline uint32_t UnpackElseTarget(uint64_t lit) {
  return static_cast<uint32_t>(lit);
}

/// Which interpreter loop executes a program. kSwitch is the classic
/// for(;;)-switch with one shared indirect branch; kThreaded is
/// direct-threaded dispatch (computed goto), one indirect branch per
/// handler. The build picks the one the engine runs (see kVmBuildDispatch).
enum class VmDispatch { kSwitch, kThreaded };

const char* VmDispatchName(VmDispatch dispatch);

/// A translated function: the unit the FunctionHandle stores alongside (or
/// instead of) compiled machine code.
struct BcProgram {
  std::vector<BcInstruction> code;

  /// Size of the register file in bytes (8-byte slots). Slots 0 and 1 hold
  /// the constants 0 and 1 (§IV-A).
  uint32_t register_file_size = 16;

  /// Constants materialized into the register file on entry.
  struct PoolEntry {
    uint32_t slot;
    uint64_t value;
  };
  std::vector<PoolEntry> constant_pool;

  /// Wide immediates that do not fit the instruction (callee addresses);
  /// call instructions store an index into this pool in `lit`. Keeping
  /// addresses out of the instruction stream makes programs relocatable.
  std::vector<uint64_t> literal_pool;

  /// Register slots that receive the function arguments, in order.
  std::vector<uint32_t> arg_offsets;

  /// Stats for the cost model and the ablation benches.
  uint64_t source_instructions = 0;  ///< LLVM instructions translated
  uint64_t fused_instructions = 0;   ///< LLVM instructions folded away
  uint64_t fused_cmp_branches = 0;   ///< compare-and-branch superinstructions
  /// Subset of fused_cmp_branches that additionally swallowed the compare's
  /// indexed load (br_load_*): load + compare + branch in one dispatch.
  uint64_t fused_load_cmp_branches = 0;

  /// Interns `value` into literal_pool and returns its index.
  uint64_t AddLiteral(uint64_t value);

  /// Human-readable disassembly; round-trips every instruction field (see
  /// ParseDisassembly in tests/vm_dispatch_test.cc).
  std::string Disassemble() const;
};

}  // namespace aqe

#endif  // AQE_VM_BYTECODE_H_
