#include "vm/translator.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include <llvm/ADT/SmallVector.h>
#include <llvm/IR/Constants.h>
#include <llvm/IR/InstrTypes.h>
#include <llvm/IR/Instructions.h>
#include <llvm/IR/IntrinsicInst.h>
#include <llvm/IR/Intrinsics.h>

#include "analysis/cfg_analysis.h"
#include "analysis/liveness.h"
#include "common/status.h"

namespace aqe {
namespace {

/// VM value classes; chosen by the LLVM type of an operand/result.
enum class TypeClass { kI1, kI8, kI16, kI32, kI64, kF64 };

TypeClass ClassifyType(const llvm::Type* type) {
  if (type->isPointerTy()) return TypeClass::kI64;
  if (type->isDoubleTy()) return TypeClass::kF64;
  if (const auto* it = llvm::dyn_cast<llvm::IntegerType>(type)) {
    switch (it->getBitWidth()) {
      case 1: return TypeClass::kI1;
      case 8: return TypeClass::kI8;
      case 16: return TypeClass::kI16;
      case 32: return TypeClass::kI32;
      case 64: return TypeClass::kI64;
    }
  }
  AQE_UNREACHABLE("unsupported LLVM type in bytecode translation");
}

struct FusedOverflow {
  const llvm::ExtractValueInst* value_extract = nullptr;  // may be null
  const llvm::BasicBlock* overflow_block = nullptr;
  const llvm::BasicBlock* continue_block = nullptr;
};

/// The indexed load a fused compare swallows (br_load_*), and the sign
/// extension between them when the compare reads an 8-, 16- or 32-bit load
/// widened to i64 (br_load_sext_iN_*).
struct FusedCmpLoad {
  const llvm::LoadInst* load = nullptr;
  const llvm::Instruction* sext = nullptr;  // may be null
  /// The compare operand the pair replaces.
  const llvm::Value* operand() const {
    return sext != nullptr ? static_cast<const llvm::Value*>(sext) : load;
  }
  /// The width the sext widens from (8, 16 or 32), or 0 without one.
  unsigned sext_bits() const {
    return sext != nullptr ? load->getType()->getIntegerBitWidth() : 0;
  }
};

/// The Fig 9 translator. One instance per function; linear passes only.
class Translator {
 public:
  Translator(const llvm::Function& fn, const RuntimeRegistry& registry,
             const TranslatorOptions& options)
      : fn_(fn),
        registry_(registry),
        options_(options),
        cfg_(fn),
        live_(ComputeLiveness(fn, cfg_)),
        alloc_(options.strategy, options.window_size) {}

  BcProgram Run();

 private:
  // --- planning -----------------------------------------------------------
  void PlanFusion();
  void PlanCmpBranchFusion();
  void PlanBranchChainFusion();
  void PlanLoadCmpBranchFusion();
  void PlanWideningLoads();
  void CountBlockLocalUses();
  void BuildRangeLists();

  // --- register handling ----------------------------------------------------
  bool IsSingleBlock(const llvm::Value* v) const {
    const LiveRange& r = live_.range(v);
    return r.start == r.end;
  }
  uint32_t AllocFor(const llvm::Value* v) {
    const LiveRange& r = live_.range(v);
    uint32_t reg = alloc_.Alloc(r.start, r.end);
    value_reg_[v] = reg;
    return reg;
  }
  /// Register for a value already defined/allocated, or a constant slot.
  uint32_t GetReg(const llvm::Value* v);
  /// GetReg + block-local use accounting (releases dead block-local regs).
  uint32_t UseReg(const llvm::Value* v);
  uint32_t ConstSlot(uint64_t bits);
  uint32_t ConstOperandSlot(const llvm::Constant* c);
  void ReleaseValue(const llvm::Value* v);

  // --- emission --------------------------------------------------------------
  uint32_t Emit(Opcode op, uint32_t a1 = 0, uint32_t a2 = 0, uint32_t a3 = 0,
                uint64_t lit = 0) {
    AQE_CHECK_MSG((a1 | a2 | a3) <= 0xFFFF,
                  "operand exceeds compact 16-bit instruction field");
    program_.code.push_back({static_cast<uint16_t>(op),
                             static_cast<uint16_t>(a1),
                             static_cast<uint16_t>(a2),
                             static_cast<uint16_t>(a3), lit});
    return static_cast<uint32_t>(program_.code.size() - 1);
  }
  /// Patches one half of a packed (then, else) branch-target immediate.
  void SetThenTarget(uint32_t index, uint32_t target) {
    BcInstruction& inst = program_.code[index];
    inst.lit = PackBranchTargets(target, UnpackElseTarget(inst.lit));
  }
  void SetElseTarget(uint32_t index, uint32_t target) {
    BcInstruction& inst = program_.code[index];
    inst.lit = PackBranchTargets(UnpackThenTarget(inst.lit), target);
  }
  void TranslateBlock(int label);
  void TranslateInstruction(const llvm::Instruction& inst);
  void TranslateBinary(const llvm::BinaryOperator& bin);
  void TranslateICmp(const llvm::ICmpInst& cmp);
  void TranslateFCmp(const llvm::FCmpInst& cmp);
  void TranslateCast(const llvm::CastInst& cast);
  void TranslateLoad(const llvm::LoadInst& load);
  void TranslateWideningLoad(const llvm::CastInst& sext,
                             const llvm::LoadInst& load);
  void TranslateStore(const llvm::StoreInst& store);
  void TranslateGep(const llvm::GetElementPtrInst& gep);
  void TranslateCall(const llvm::CallInst& call);
  void TranslateOverflowIntrinsic(const llvm::CallInst& call);
  void TranslateExtractValue(const llvm::ExtractValueInst& ev);
  void TranslateSelect(const llvm::SelectInst& sel);
  void TranslateTerminator(const llvm::Instruction& term);

  /// Emits one fused compare-and-branch superinstruction for a compare
  /// planned in fused_cmp_ (picking the load-fused / immediate / register
  /// form) and returns its instruction index. Branch targets are left for
  /// the caller to patch.
  uint32_t EmitFusedCmpBranch(const llvm::CmpInst* cmp, Opcode op);
  /// Emits one element of a short-circuit branch chain: the fused form when
  /// the leaf was planned for compare fusion, otherwise a plain condbr on
  /// the leaf's register.
  uint32_t EmitChainElement(const llvm::Value* leaf);

  /// Decomposes a GEP into (base, index value or null, scale, const offset).
  struct GepParts {
    const llvm::Value* base;
    const llvm::Value* index;  // nullptr if fully constant
    uint32_t scale;
    int32_t offset;
  };
  GepParts DecomposeGep(const llvm::GetElementPtrInst& gep);

  /// Emits the phi copies for edge (from -> to) as a parallel copy.
  void EmitPhiCopies(const llvm::BasicBlock* from, const llvm::BasicBlock* to);

  /// Emits a branch whose target is patched to `target`'s block start.
  void EmitBranchTo(const llvm::BasicBlock* target);

  /// Registers that instruction index `index`'s field needs patching to the
  /// start of `block` (field: 0 -> whole lit, 1 -> then half of the packed
  /// lit, 2 -> else half).
  void AddFixup(uint32_t index, int field, const llvm::BasicBlock* block) {
    fixups_.push_back({index, field, cfg_.LabelOf(block)});
  }

  const llvm::Function& fn_;
  const RuntimeRegistry& registry_;
  TranslatorOptions options_;
  CfgAnalysis cfg_;
  LivenessInfo live_;
  RegisterAllocator alloc_;
  BcProgram program_;

  llvm::DenseMap<const llvm::Value*, uint32_t> value_reg_;
  llvm::DenseMap<const llvm::Value*, uint32_t> pair_flag_reg_;
  std::unordered_map<uint64_t, uint32_t> const_slots_;  // keys may be ~0, unsafe for DenseMap
  llvm::DenseSet<const llvm::Instruction*> subsumed_;
  llvm::DenseMap<const llvm::Instruction*, FusedOverflow> fused_overflow_;
  /// Single-use compares fused into their block's condbr (compare-and-branch
  /// superinstructions); value = the fused opcode.
  llvm::DenseMap<const llvm::Instruction*, Opcode> fused_cmp_;
  /// Fused compares whose indexed-load operand (possibly sign-extended)
  /// additionally folds into the superinstruction (br_load_*,
  /// br_load_sext_iN_*); value = the subsumed load and sext.
  llvm::DenseMap<const llvm::Instruction*, FusedCmpLoad> fused_cmp_load_;
  /// Sign extensions that emit one widening load (load_idx_sext_iN_i64);
  /// value = their subsumed i8, i16 or i32 load.
  llvm::DenseMap<const llvm::Instruction*, const llvm::LoadInst*>
      widening_loads_;
  /// Conditional branches whose condition is a single-use same-block and-tree
  /// of i1 predicates: the terminator emits a short-circuit chain of
  /// branches (one per leaf, in source order) instead of materializing the
  /// conjunction.
  llvm::DenseMap<const llvm::Instruction*, std::vector<const llvm::Value*>>
      branch_chains_;
  /// The subsumed `and` nodes of planned branch chains. Non-fused chain
  /// leaves are read (as plain condbr conditions) when the chain is emitted
  /// at the terminator, so these count as register-reading users in the
  /// block-local use accounting.
  llvm::DenseSet<const llvm::Instruction*> chain_ands_;
  /// Value extracts of fused overflow pairs: subsumed (they emit no code)
  /// yet they own the fused op's destination register.
  llvm::DenseSet<const llvm::Instruction*> fused_value_extracts_;
  llvm::DenseMap<const llvm::Instruction*, int> local_uses_;
  llvm::DenseSet<const llvm::Instruction*> released_;
  std::vector<std::vector<const llvm::Value*>> alloc_at_entry_;   // per label
  std::vector<std::vector<const llvm::Value*>> release_at_end_;   // per label
  std::vector<uint32_t> block_start_;

  struct Fixup {
    uint32_t index;
    int field;
    int target_label;
  };
  std::vector<Fixup> fixups_;
  uint32_t scratch_reg_ = 0;
  bool scratch_allocated_ = false;
  int current_label_ = 0;
};

bool IsOverflowIntrinsic(const llvm::CallInst& call,
                         llvm::Intrinsic::ID* id_out) {
  const llvm::Function* callee = call.getCalledFunction();
  if (callee == nullptr) return false;
  llvm::Intrinsic::ID id = callee->getIntrinsicID();
  if (id == llvm::Intrinsic::sadd_with_overflow ||
      id == llvm::Intrinsic::ssub_with_overflow ||
      id == llvm::Intrinsic::smul_with_overflow) {
    *id_out = id;
    return true;
  }
  return false;
}

/// Maps a fusable compare to its compare-and-branch superinstruction;
/// returns false when the predicate/width has no fused form.
bool FusedCmpBranchOpcode(const llvm::CmpInst& cmp, Opcode* out) {
  if (const auto* icmp = llvm::dyn_cast<llvm::ICmpInst>(&cmp)) {
    const llvm::Type* t = icmp->getOperand(0)->getType();
    bool is32;
    if (t->isIntegerTy(32)) {
      is32 = true;
    } else if (t->isIntegerTy(64) || t->isPointerTy()) {
      is32 = false;
    } else {
      return false;
    }
    switch (icmp->getPredicate()) {
      case llvm::CmpInst::ICMP_EQ:
        *out = is32 ? Opcode::k_br_eq_i32 : Opcode::k_br_eq_i64; return true;
      case llvm::CmpInst::ICMP_NE:
        *out = is32 ? Opcode::k_br_ne_i32 : Opcode::k_br_ne_i64; return true;
      case llvm::CmpInst::ICMP_SLT:
        *out = is32 ? Opcode::k_br_slt_i32 : Opcode::k_br_slt_i64; return true;
      case llvm::CmpInst::ICMP_SLE:
        *out = is32 ? Opcode::k_br_sle_i32 : Opcode::k_br_sle_i64; return true;
      case llvm::CmpInst::ICMP_SGT:
        *out = is32 ? Opcode::k_br_sgt_i32 : Opcode::k_br_sgt_i64; return true;
      case llvm::CmpInst::ICMP_SGE:
        *out = is32 ? Opcode::k_br_sge_i32 : Opcode::k_br_sge_i64; return true;
      case llvm::CmpInst::ICMP_ULT:
        *out = is32 ? Opcode::k_br_ult_i32 : Opcode::k_br_ult_i64; return true;
      case llvm::CmpInst::ICMP_ULE:
        *out = is32 ? Opcode::k_br_ule_i32 : Opcode::k_br_ule_i64; return true;
      case llvm::CmpInst::ICMP_UGT:
        *out = is32 ? Opcode::k_br_ugt_i32 : Opcode::k_br_ugt_i64; return true;
      case llvm::CmpInst::ICMP_UGE:
        *out = is32 ? Opcode::k_br_uge_i32 : Opcode::k_br_uge_i64; return true;
      default:
        return false;
    }
  }
  if (const auto* fcmp = llvm::dyn_cast<llvm::FCmpInst>(&cmp)) {
    if (!fcmp->getOperand(0)->getType()->isDoubleTy()) return false;
    switch (fcmp->getPredicate()) {
      case llvm::CmpInst::FCMP_OLT: *out = Opcode::k_br_folt_f64; return true;
      case llvm::CmpInst::FCMP_OGT: *out = Opcode::k_br_fogt_f64; return true;
      default:
        return false;
    }
  }
  return false;
}

/// Maps a fused compare-and-branch opcode to its mirrored form (operands
/// swapped: c < x  ==  x > c), so a constant LHS can still use the
/// immediate encoding.
bool MirrorCmpBranchOpcode(Opcode op, Opcode* out) {
  switch (op) {
    case Opcode::k_br_eq_i32: case Opcode::k_br_eq_i64:
    case Opcode::k_br_ne_i32: case Opcode::k_br_ne_i64:
      *out = op; return true;
    case Opcode::k_br_slt_i32: *out = Opcode::k_br_sgt_i32; return true;
    case Opcode::k_br_slt_i64: *out = Opcode::k_br_sgt_i64; return true;
    case Opcode::k_br_sle_i32: *out = Opcode::k_br_sge_i32; return true;
    case Opcode::k_br_sle_i64: *out = Opcode::k_br_sge_i64; return true;
    case Opcode::k_br_sgt_i32: *out = Opcode::k_br_slt_i32; return true;
    case Opcode::k_br_sgt_i64: *out = Opcode::k_br_slt_i64; return true;
    case Opcode::k_br_sge_i32: *out = Opcode::k_br_sle_i32; return true;
    case Opcode::k_br_sge_i64: *out = Opcode::k_br_sle_i64; return true;
    case Opcode::k_br_ult_i32: *out = Opcode::k_br_ugt_i32; return true;
    case Opcode::k_br_ult_i64: *out = Opcode::k_br_ugt_i64; return true;
    case Opcode::k_br_ule_i32: *out = Opcode::k_br_uge_i32; return true;
    case Opcode::k_br_ule_i64: *out = Opcode::k_br_uge_i64; return true;
    case Opcode::k_br_ugt_i32: *out = Opcode::k_br_ult_i32; return true;
    case Opcode::k_br_ugt_i64: *out = Opcode::k_br_ult_i64; return true;
    case Opcode::k_br_uge_i32: *out = Opcode::k_br_ule_i32; return true;
    case Opcode::k_br_uge_i64: *out = Opcode::k_br_ule_i64; return true;
    case Opcode::k_br_folt_f64: *out = Opcode::k_br_fogt_f64; return true;
    case Opcode::k_br_fogt_f64: *out = Opcode::k_br_folt_f64; return true;
    default: return false;
  }
}

/// Maps a register-register fused compare-and-branch to its immediate form.
bool ImmCmpBranchOpcode(Opcode op, Opcode* out) {
  switch (op) {
#define AQE_IMM_CASE(name) \
  case Opcode::k_##name: *out = Opcode::k_##name##_imm; return true;
    AQE_IMM_CASE(br_eq_i32) AQE_IMM_CASE(br_eq_i64)
    AQE_IMM_CASE(br_ne_i32) AQE_IMM_CASE(br_ne_i64)
    AQE_IMM_CASE(br_slt_i32) AQE_IMM_CASE(br_slt_i64)
    AQE_IMM_CASE(br_sle_i32) AQE_IMM_CASE(br_sle_i64)
    AQE_IMM_CASE(br_sgt_i32) AQE_IMM_CASE(br_sgt_i64)
    AQE_IMM_CASE(br_sge_i32) AQE_IMM_CASE(br_sge_i64)
    AQE_IMM_CASE(br_ult_i32) AQE_IMM_CASE(br_ult_i64)
    AQE_IMM_CASE(br_ule_i32) AQE_IMM_CASE(br_ule_i64)
    AQE_IMM_CASE(br_ugt_i32) AQE_IMM_CASE(br_ugt_i64)
    AQE_IMM_CASE(br_uge_i32) AQE_IMM_CASE(br_uge_i64)
    AQE_IMM_CASE(br_folt_f64) AQE_IMM_CASE(br_fogt_f64)
#undef AQE_IMM_CASE
    default: return false;
  }
}

/// Maps a fused compare-and-branch opcode to the form that also swallows the
/// compare's indexed load (br_load_*, reg or imm RHS) or, with `sext_bits`
/// 8, 16 or 32, the load of that width and its sign extension to i64
/// (br_load_sext_iN_*, i64 compares only; 0 = no sext). Only the integer
/// forms exist: the load supplies the LHS, and f64 loads keep the two-op
/// path (no br_load_*_f64 — scan filters compare integer columns).
bool LoadCmpBranchOpcode(Opcode op, bool imm, unsigned sext_bits,
                         Opcode* out) {
  switch (op) {
#define AQE_LCB_SEXT(pred, bits)                                            \
  case bits:                                                                \
    *out = imm ? Opcode::k_br_load_sext_i##bits##_##pred##_i64_imm          \
               : Opcode::k_br_load_sext_i##bits##_##pred##_i64;             \
    return true;
#define AQE_LCB_CASE(pred)                                                  \
  case Opcode::k_br_##pred##_i32:                                           \
    if (sext_bits != 0) return false;                                       \
    *out = imm ? Opcode::k_br_load_##pred##_i32_imm                         \
               : Opcode::k_br_load_##pred##_i32;                            \
    return true;                                                            \
  case Opcode::k_br_##pred##_i64:                                           \
    switch (sext_bits) {                                                    \
      case 0:                                                               \
        *out = imm ? Opcode::k_br_load_##pred##_i64_imm                     \
                   : Opcode::k_br_load_##pred##_i64;                        \
        return true;                                                        \
      AQE_LCB_SEXT(pred, 8) AQE_LCB_SEXT(pred, 16) AQE_LCB_SEXT(pred, 32)   \
      default: return false;                                                \
    }
    AQE_LCB_CASE(eq) AQE_LCB_CASE(ne)
    AQE_LCB_CASE(slt) AQE_LCB_CASE(sle) AQE_LCB_CASE(sgt) AQE_LCB_CASE(sge)
    AQE_LCB_CASE(ult) AQE_LCB_CASE(ule) AQE_LCB_CASE(ugt) AQE_LCB_CASE(uge)
#undef AQE_LCB_CASE
#undef AQE_LCB_SEXT
    default: return false;
  }
}

/// Whether a sign extension to i64 of a `load` of this type can fold into
/// the load (load_idx_sext_iN_i64, br_load_sext_iN_*): the narrow integer
/// widths a scan column is stored at.
bool IsWidenableLoadType(const llvm::Type* type) {
  return type->isIntegerTy(8) || type->isIntegerTy(16) ||
         type->isIntegerTy(32);
}

/// A plain integer/double constant whose raw bits can live in a literal-pool
/// immediate. Returns true and sets `bits`; false for every other constant
/// kind (pointers, constant expressions — those keep the register path).
bool FusableImmediateBits(const llvm::Value* v, uint64_t* bits) {
  if (const auto* ci = llvm::dyn_cast<llvm::ConstantInt>(v)) {
    *bits = ci->getZExtValue();
    return true;
  }
  if (const auto* cf = llvm::dyn_cast<llvm::ConstantFP>(v)) {
    *bits = cf->getValueAPF().bitcastToAPInt().getZExtValue();
    return true;
  }
  return false;
}

void Translator::PlanCmpBranchFusion() {
  if (!options_.fuse_cmp_branches) return;
  for (const llvm::BasicBlock& bb : fn_) {
    if (cfg_.LabelOf(&bb) < 0) continue;
    const auto* br = llvm::dyn_cast<llvm::BranchInst>(bb.getTerminator());
    // The overflow-pair fusion may already own this terminator.
    if (br == nullptr || !br->isConditional() || subsumed_.contains(br)) {
      continue;
    }
    const auto* cmp = llvm::dyn_cast<llvm::CmpInst>(br->getCondition());
    if (cmp == nullptr || cmp->getParent() != &bb || !cmp->hasOneUse()) {
      continue;
    }
    Opcode op;
    if (!FusedCmpBranchOpcode(*cmp, &op)) continue;
    fused_cmp_[cmp] = op;
    subsumed_.insert(cmp);  // the terminator emits the fused branch
  }
}

void Translator::PlanBranchChainFusion() {
  // A filter like `a >= x && a < y && b < z` reaches the translator as an
  // and-tree feeding one condbr: the compares all execute, the `and`s fold
  // them into one bit, and only the loop-bound compare fuses. Splitting the
  // conjunction into a chain of branches — each leaf tests and jumps, a
  // failing term exits the row immediately — lets every fusable leaf become
  // its own br_*/br_load_* superinstruction and short-circuits the
  // evaluation. Done here rather than in codegen so the JIT keeps the
  // branch-free and-tree IR, which LLVM can vectorize.
  if (!options_.fuse_cmp_branches || !options_.fuse_branch_chains) return;
  for (const llvm::BasicBlock& bb : fn_) {
    if (cfg_.LabelOf(&bb) < 0) continue;
    const auto* br = llvm::dyn_cast<llvm::BranchInst>(bb.getTerminator());
    if (br == nullptr || !br->isConditional() || subsumed_.contains(br)) {
      continue;
    }
    // An interior node must be consumed only by its parent (or the branch)
    // and live in this block, so folding it away is invisible elsewhere.
    auto is_chain_and = [&](const llvm::Value* v) -> const llvm::BinaryOperator* {
      const auto* bin = llvm::dyn_cast<llvm::BinaryOperator>(v);
      if (bin != nullptr && bin->getOpcode() == llvm::Instruction::And &&
          bin->getType()->isIntegerTy(1) && bin->getParent() == &bb &&
          bin->hasOneUse() && !subsumed_.contains(bin)) {
        return bin;
      }
      return nullptr;
    };
    if (is_chain_and(br->getCondition()) == nullptr) continue;
    // Flatten the tree left-to-right. Leaves are arbitrary i1 values: a
    // fusable single-use compare becomes a fused chain element; anything
    // else still computes in the block body and chains via a plain condbr.
    std::vector<const llvm::BinaryOperator*> nodes;
    std::vector<const llvm::Value*> leaves;
    llvm::SmallVector<const llvm::Value*, 8> work;
    work.push_back(br->getCondition());
    while (!work.empty()) {
      const llvm::Value* v = work.pop_back_val();
      if (const llvm::BinaryOperator* bin = is_chain_and(v)) {
        nodes.push_back(bin);
        work.push_back(bin->getOperand(1));
        work.push_back(bin->getOperand(0));
        continue;
      }
      leaves.push_back(v);
    }
    for (const llvm::BinaryOperator* node : nodes) {
      subsumed_.insert(node);
      chain_ands_.insert(node);
    }
    for (const llvm::Value* leaf : leaves) {
      const auto* cmp = llvm::dyn_cast<llvm::CmpInst>(leaf);
      Opcode op;
      if (cmp == nullptr || cmp->getParent() != &bb || !cmp->hasOneUse() ||
          subsumed_.contains(cmp) || !FusedCmpBranchOpcode(*cmp, &op)) {
        continue;
      }
      fused_cmp_[cmp] = op;  // load/imm planning now applies to it too
      subsumed_.insert(cmp);
    }
    branch_chains_[br] = std::move(leaves);
    // The conjunction nodes fold away entirely; fused leaves are counted
    // when their chain element is emitted.
    program_.fused_instructions += static_cast<uint32_t>(nodes.size());
  }
}

void Translator::PlanLoadCmpBranchFusion() {
  // Third superinstruction tier: a compare already planned for
  // compare-and-branch fusion whose LHS (or, mirrored, RHS) is a single-use
  // indexed load of the matching width folds the load in too — the exact
  // `buf[i] <pred> x` shape of every scan-filter loop. A narrow column
  // reaches the compare through the scan's widening `sext iN -> i64`; a
  // single-use sext of an 8-, 16- or 32-bit load folds in as well
  // (br_load_sext_iN_*), so a narrow column filters in one dispatch too.
  // The br_load_* encoding has no scale/offset field (lit carries the
  // branch targets), so only the implied-scale, zero-offset GEP shape
  // qualifies.
  if (!options_.fuse_macro_ops || !options_.fuse_cmp_branches ||
      !options_.fuse_load_cmp_branches) {
    return;
  }
  for (const auto& [cmp_inst, op] : fused_cmp_) {
    const auto* cmp = llvm::cast<llvm::CmpInst>(cmp_inst);
    const llvm::BasicBlock* bb = cmp->getParent();
    auto fusable_load = [&](const llvm::Value* v) -> FusedCmpLoad {
      FusedCmpLoad fused;
      if (const auto* sext = llvm::dyn_cast<llvm::SExtInst>(v)) {
        if (sext->getParent() != bb || !sext->hasOneUse() ||
            !sext->getType()->isIntegerTy(64) ||
            !IsWidenableLoadType(sext->getOperand(0)->getType())) {
          return {};
        }
        fused.sext = sext;
        v = sext->getOperand(0);
      }
      const auto* load = llvm::dyn_cast<llvm::LoadInst>(v);
      if (load == nullptr || load->getParent() != bb || !load->hasOneUse() ||
          subsumed_.contains(load)) {
        return {};
      }
      const llvm::Type* ty = load->getType();
      if (fused.sext == nullptr && !ty->isIntegerTy(32) &&
          !ty->isIntegerTy(64)) {
        return {};
      }
      const auto* gep =
          llvm::dyn_cast<llvm::GetElementPtrInst>(load->getPointerOperand());
      // Only an already-fused single-index GEP whose element type equals the
      // loaded type (scale == width, offset == 0) fits the encoding; a
      // constant index would fold into an offset instead.
      if (gep == nullptr || !subsumed_.contains(gep) ||
          gep->getNumIndices() != 1 || gep->getSourceElementType() != ty ||
          llvm::isa<llvm::ConstantInt>(gep->getOperand(1))) {
        return {};
      }
      // Fusing moves the load's read to the terminator; nothing in between
      // may write memory.
      for (const llvm::Instruction* cur = load->getNextNode();
           cur != bb->getTerminator(); cur = cur->getNextNode()) {
        if (cur->mayWriteToMemory()) return {};
      }
      fused.load = load;
      return fused;
    };
    Opcode effective = op;
    FusedCmpLoad fused = fusable_load(cmp->getOperand(0));
    if (fused.load == nullptr) {
      // A load on the RHS works through the mirrored predicate
      // (x < buf[i]  ==  buf[i] > x).
      Opcode mirrored;
      if (MirrorCmpBranchOpcode(op, &mirrored)) {
        effective = mirrored;
        fused = fusable_load(cmp->getOperand(1));
      }
    }
    Opcode unused;
    if (fused.load == nullptr ||
        !LoadCmpBranchOpcode(effective, false, fused.sext_bits(), &unused)) {
      continue;
    }
    fused_cmp_load_[cmp] = fused;
    // The terminator performs the load (and the widening).
    subsumed_.insert(fused.load);
    if (fused.sext != nullptr) subsumed_.insert(fused.sext);
  }
}

void Translator::PlanWideningLoads() {
  // A scan widens every 8-, 16- and 32-bit column value right after
  // loading it (operator_codegen: `sext (load iN (gep base, i))`), which
  // would cost a load_idx_iN and a sext_iN_i64 dispatch per value. When the
  // sext is the fused-GEP load's only user, the sext emits one widening
  // load instead and the load vanishes. The read moves to the sext, so
  // nothing in between may write memory. Sexts already folded into a
  // br_load_sext_iN_* have their load subsumed and are skipped.
  if (!options_.fuse_macro_ops) return;
  for (const llvm::BasicBlock& bb : fn_) {
    if (cfg_.LabelOf(&bb) < 0) continue;
    for (const llvm::Instruction& inst : bb) {
      const auto* sext = llvm::dyn_cast<llvm::SExtInst>(&inst);
      if (sext == nullptr || !sext->getType()->isIntegerTy(64)) continue;
      const auto* load = llvm::dyn_cast<llvm::LoadInst>(sext->getOperand(0));
      if (load == nullptr || load->getParent() != &bb ||
          !IsWidenableLoadType(load->getType()) || !load->hasOneUse() ||
          subsumed_.contains(load)) {
        continue;
      }
      const auto* gep =
          llvm::dyn_cast<llvm::GetElementPtrInst>(load->getPointerOperand());
      if (gep == nullptr || !subsumed_.contains(gep)) continue;
      bool clean = true;
      for (const llvm::Instruction* cur = load->getNextNode(); cur != sext;
           cur = cur->getNextNode()) {
        clean &= !cur->mayWriteToMemory();
      }
      if (!clean) continue;
      widening_loads_[sext] = load;
      subsumed_.insert(load);
    }
  }
}

void Translator::PlanFusion() {
  if (!options_.fuse_macro_ops) return;
  for (const llvm::BasicBlock& bb : fn_) {
    if (cfg_.LabelOf(&bb) < 0) continue;
    for (const llvm::Instruction& inst : bb) {
      // GEP + single load/store user in the same block fuses into the
      // memory access.
      if (const auto* gep = llvm::dyn_cast<llvm::GetElementPtrInst>(&inst)) {
        if (!gep->hasOneUse()) continue;
        const auto* user = llvm::dyn_cast<llvm::Instruction>(*gep->user_begin());
        if (user == nullptr || user->getParent() != &bb) continue;
        bool is_load = llvm::isa<llvm::LoadInst>(user);
        bool is_store = llvm::isa<llvm::StoreInst>(user) &&
                        llvm::cast<llvm::StoreInst>(user)->getPointerOperand()
                            == gep;
        if (is_load || is_store) subsumed_.insert(gep);
        continue;
      }
      // Overflow-check sequence: pair call + extracts + condbr on the flag.
      const auto* call = llvm::dyn_cast<llvm::CallInst>(&inst);
      llvm::Intrinsic::ID id;
      if (call == nullptr || !IsOverflowIntrinsic(*call, &id)) continue;
      const llvm::ExtractValueInst* value_extract = nullptr;
      const llvm::ExtractValueInst* flag_extract = nullptr;
      bool fusable = true;
      for (const llvm::User* user : call->users()) {
        const auto* ev = llvm::dyn_cast<llvm::ExtractValueInst>(user);
        if (ev == nullptr || ev->getParent() != &bb ||
            ev->getNumIndices() != 1) {
          fusable = false;
          break;
        }
        if (ev->getIndices()[0] == 0) {
          if (value_extract != nullptr) fusable = false;
          value_extract = ev;
        } else {
          if (flag_extract != nullptr) fusable = false;
          flag_extract = ev;
        }
      }
      if (!fusable || flag_extract == nullptr) continue;
      // The flag's only user must be this block's terminating condbr.
      if (!flag_extract->hasOneUse()) continue;
      const auto* br =
          llvm::dyn_cast<llvm::BranchInst>(*flag_extract->user_begin());
      if (br == nullptr || br != bb.getTerminator() || !br->isConditional() ||
          br->getCondition() != flag_extract) {
        continue;
      }
      // Between the call and the terminator only this call's extracts may
      // appear: the fused op branches early, so nothing with side effects
      // may be skipped.
      bool clean = true;
      for (const llvm::Instruction* cursor = call->getNextNode();
           cursor != br; cursor = cursor->getNextNode()) {
        const auto* ev = llvm::dyn_cast<llvm::ExtractValueInst>(cursor);
        if (ev == nullptr || ev->getAggregateOperand() != call) {
          clean = false;
          break;
        }
      }
      if (!clean) continue;
      // The overflow side must not need phi copies (our codegen's overflow
      // blocks are plain error-raising blocks).
      const llvm::BasicBlock* ovf_block = br->getSuccessor(0);
      const llvm::BasicBlock* cont_block = br->getSuccessor(1);
      if (llvm::isa<llvm::PHINode>(ovf_block->front())) continue;
      FusedOverflow plan;
      plan.value_extract = value_extract;
      plan.overflow_block = ovf_block;
      plan.continue_block = cont_block;
      fused_overflow_[call] = plan;
      subsumed_.insert(call);  // the call site emits the fused op
      if (value_extract != nullptr) {
        subsumed_.insert(value_extract);
        fused_value_extracts_.insert(value_extract);
      }
      subsumed_.insert(flag_extract);
      subsumed_.insert(br);
      program_.fused_instructions += 3;  // extracts + condbr folded
    }
  }
}

void Translator::CountBlockLocalUses() {
  // For values confined to one block we release their register after the
  // last in-block use ("release them when the last user of that value is
  // gone", §IV-B) instead of waiting for the block end. Count the uses a
  // translated program will actually perform.
  for (const llvm::BasicBlock& bb : fn_) {
    if (cfg_.LabelOf(&bb) < 0) continue;
    for (const llvm::Instruction& inst : bb) {
      if (inst.getType()->isVoidTy()) continue;
      if (!live_.tracked(&inst) || !IsSingleBlock(&inst)) continue;
      // Only values that actually own a register participate; fused GEPs,
      // flag extracts and fused pair calls never materialize one.
      if (subsumed_.contains(&inst) && !fused_value_extracts_.contains(&inst)) {
        continue;
      }
      int count = 0;
      for (const llvm::Use& use : inst.uses()) {
        const auto* user = llvm::cast<llvm::Instruction>(use.getUser());
        if (subsumed_.contains(user)) {
          // Subsumed instructions mostly vanish, but four kinds still read
          // their operands when their fused replacement is emitted: fused
          // GEPs (re-read at the fusing memory op), fused overflow calls
          // (the macro op reads both addends), fused compares (the
          // compare-and-branch superinstruction reads both operands at the
          // terminator), and branch-chain `and` nodes (a non-fused chain
          // leaf's register is read by its condbr element). Fused extracts
          // and condbrs never read the pair register.
          if (llvm::isa<llvm::GetElementPtrInst>(user) ||
              fused_overflow_.count(user) != 0 ||
              fused_cmp_.count(user) != 0 ||
              chain_ands_.contains(user)) {
            ++count;
          }
          continue;
        }
        ++count;
      }
      local_uses_[&inst] = count;
    }
  }
}

void Translator::BuildRangeLists() {
  int n = cfg_.num_blocks();
  alloc_at_entry_.assign(static_cast<size_t>(n), {});
  release_at_end_.assign(static_cast<size_t>(n), {});
  for (const llvm::Value* v : live_.values()) {
    bool is_arg = llvm::isa<llvm::Argument>(v);
    if (const auto* inst = llvm::dyn_cast<llvm::Instruction>(v)) {
      // Subsumed instructions own no register — except the value extract of
      // a fused pair, which owns the fused op's destination.
      if (subsumed_.contains(inst) && !fused_value_extracts_.contains(inst)) {
        continue;
      }
    }
    const LiveRange& r = live_.range(v);
    if (!is_arg && IsSingleBlock(v)) continue;  // allocated at definition
    alloc_at_entry_[static_cast<size_t>(r.start)].push_back(v);
    release_at_end_[static_cast<size_t>(r.end)].push_back(v);
  }
}

uint32_t Translator::ConstSlot(uint64_t bits) {
  if (bits == 0) return 0;
  if (bits == 1) return 1;
  auto it = const_slots_.find(bits);
  if (it != const_slots_.end()) return it->second;
  uint32_t offset = alloc_.AllocPermanent();
  const_slots_[bits] = offset;
  program_.constant_pool.push_back({offset, bits});
  return offset;
}

uint32_t Translator::ConstOperandSlot(const llvm::Constant* c) {
  if (const auto* ci = llvm::dyn_cast<llvm::ConstantInt>(c)) {
    return ConstSlot(ci->getZExtValue());
  }
  if (const auto* cf = llvm::dyn_cast<llvm::ConstantFP>(c)) {
    return ConstSlot(cf->getValueAPF().bitcastToAPInt().getZExtValue());
  }
  if (llvm::isa<llvm::ConstantPointerNull>(c) ||
      llvm::isa<llvm::UndefValue>(c)) {
    return 0;
  }
  // Embedded runtime pointers: inttoptr/bitcast constant expressions.
  if (const auto* ce = llvm::dyn_cast<llvm::ConstantExpr>(c)) {
    if (ce->getOpcode() == llvm::Instruction::IntToPtr ||
        ce->getOpcode() == llvm::Instruction::PtrToInt ||
        ce->getOpcode() == llvm::Instruction::BitCast) {
      return ConstOperandSlot(llvm::cast<llvm::Constant>(ce->getOperand(0)));
    }
  }
  AQE_UNREACHABLE("unsupported constant kind in bytecode translation");
}

uint32_t Translator::GetReg(const llvm::Value* v) {
  if (const auto* c = llvm::dyn_cast<llvm::Constant>(v)) {
    return ConstOperandSlot(c);
  }
  auto it = value_reg_.find(v);
  AQE_CHECK_MSG(it != value_reg_.end(), "operand without register");
  return it->second;
}

uint32_t Translator::UseReg(const llvm::Value* v) {
  uint32_t reg = GetReg(v);
  const auto* inst = llvm::dyn_cast<llvm::Instruction>(v);
  if (inst != nullptr) {
    auto it = local_uses_.find(inst);
    if (it != local_uses_.end()) {
      AQE_CHECK_MSG(it->second > 0, "block-local use count underflow");
      if (--it->second == 0) ReleaseValue(v);
    }
  }
  return reg;
}

void Translator::ReleaseValue(const llvm::Value* v) {
  const auto* inst = llvm::dyn_cast<llvm::Instruction>(v);
  if (inst != nullptr) {
    if (released_.contains(inst)) return;
    released_.insert(inst);
  }
  const LiveRange& r = live_.range(v);
  auto it = value_reg_.find(v);
  if (it == value_reg_.end()) return;
  alloc_.Release(it->second, r.start, r.end);
  auto flag_it = pair_flag_reg_.find(v);
  if (flag_it != pair_flag_reg_.end()) {
    alloc_.Release(flag_it->second, r.start, r.end);
  }
}

// --- per-instruction translation ---------------------------------------------

void Translator::TranslateBinary(const llvm::BinaryOperator& bin) {
  TypeClass tc = ClassifyType(bin.getType());
  uint32_t a2 = UseReg(bin.getOperand(0));
  uint32_t a3 = UseReg(bin.getOperand(1));
  uint32_t a1 = value_reg_.lookup(&bin);
  Opcode op;
  const bool is32 = tc == TypeClass::kI32;
  switch (bin.getOpcode()) {
    case llvm::Instruction::Add:
      op = is32 ? Opcode::k_add_i32 : Opcode::k_add_i64; break;
    case llvm::Instruction::Sub:
      op = is32 ? Opcode::k_sub_i32 : Opcode::k_sub_i64; break;
    case llvm::Instruction::Mul:
      op = is32 ? Opcode::k_mul_i32 : Opcode::k_mul_i64; break;
    case llvm::Instruction::SDiv:
      op = is32 ? Opcode::k_sdiv_i32 : Opcode::k_sdiv_i64; break;
    case llvm::Instruction::UDiv:
      op = is32 ? Opcode::k_udiv_i32 : Opcode::k_udiv_i64; break;
    case llvm::Instruction::SRem:
      op = is32 ? Opcode::k_srem_i32 : Opcode::k_srem_i64; break;
    case llvm::Instruction::URem:
      op = is32 ? Opcode::k_urem_i32 : Opcode::k_urem_i64; break;
    case llvm::Instruction::And:
      op = tc == TypeClass::kI1 ? Opcode::k_and_i1
           : is32 ? Opcode::k_and_i32 : Opcode::k_and_i64;
      break;
    case llvm::Instruction::Or:
      op = tc == TypeClass::kI1 ? Opcode::k_or_i1
           : is32 ? Opcode::k_or_i32 : Opcode::k_or_i64;
      break;
    case llvm::Instruction::Xor:
      op = tc == TypeClass::kI1 ? Opcode::k_xor_i1
           : is32 ? Opcode::k_xor_i32 : Opcode::k_xor_i64;
      break;
    case llvm::Instruction::Shl:
      op = is32 ? Opcode::k_shl_i32 : Opcode::k_shl_i64; break;
    case llvm::Instruction::LShr:
      op = is32 ? Opcode::k_lshr_i32 : Opcode::k_lshr_i64; break;
    case llvm::Instruction::AShr:
      op = is32 ? Opcode::k_ashr_i32 : Opcode::k_ashr_i64; break;
    case llvm::Instruction::FAdd: op = Opcode::k_fadd_f64; break;
    case llvm::Instruction::FSub: op = Opcode::k_fsub_f64; break;
    case llvm::Instruction::FMul: op = Opcode::k_fmul_f64; break;
    case llvm::Instruction::FDiv: op = Opcode::k_fdiv_f64; break;
    default:
      AQE_UNREACHABLE("unsupported binary operator");
  }
  Emit(op, a1, a2, a3);
}

void Translator::TranslateICmp(const llvm::ICmpInst& cmp) {
  TypeClass tc = ClassifyType(cmp.getOperand(0)->getType());
  AQE_CHECK_MSG(tc == TypeClass::kI32 || tc == TypeClass::kI64,
                "icmp on unsupported width");
  const bool is32 = tc == TypeClass::kI32;
  uint32_t a2 = UseReg(cmp.getOperand(0));
  uint32_t a3 = UseReg(cmp.getOperand(1));
  uint32_t a1 = value_reg_.lookup(&cmp);
  Opcode op;
  switch (cmp.getPredicate()) {
    case llvm::CmpInst::ICMP_EQ:
      op = is32 ? Opcode::k_icmp_eq_i32 : Opcode::k_icmp_eq_i64; break;
    case llvm::CmpInst::ICMP_NE:
      op = is32 ? Opcode::k_icmp_ne_i32 : Opcode::k_icmp_ne_i64; break;
    case llvm::CmpInst::ICMP_SLT:
      op = is32 ? Opcode::k_icmp_slt_i32 : Opcode::k_icmp_slt_i64; break;
    case llvm::CmpInst::ICMP_SLE:
      op = is32 ? Opcode::k_icmp_sle_i32 : Opcode::k_icmp_sle_i64; break;
    case llvm::CmpInst::ICMP_SGT:
      op = is32 ? Opcode::k_icmp_sgt_i32 : Opcode::k_icmp_sgt_i64; break;
    case llvm::CmpInst::ICMP_SGE:
      op = is32 ? Opcode::k_icmp_sge_i32 : Opcode::k_icmp_sge_i64; break;
    case llvm::CmpInst::ICMP_ULT:
      op = is32 ? Opcode::k_icmp_ult_i32 : Opcode::k_icmp_ult_i64; break;
    case llvm::CmpInst::ICMP_ULE:
      op = is32 ? Opcode::k_icmp_ule_i32 : Opcode::k_icmp_ule_i64; break;
    case llvm::CmpInst::ICMP_UGT:
      op = is32 ? Opcode::k_icmp_ugt_i32 : Opcode::k_icmp_ugt_i64; break;
    case llvm::CmpInst::ICMP_UGE:
      op = is32 ? Opcode::k_icmp_uge_i32 : Opcode::k_icmp_uge_i64; break;
    default:
      AQE_UNREACHABLE("unsupported icmp predicate");
  }
  Emit(op, a1, a2, a3);
}

void Translator::TranslateFCmp(const llvm::FCmpInst& cmp) {
  uint32_t a2 = UseReg(cmp.getOperand(0));
  uint32_t a3 = UseReg(cmp.getOperand(1));
  uint32_t a1 = value_reg_.lookup(&cmp);
  Opcode op;
  switch (cmp.getPredicate()) {
    case llvm::CmpInst::FCMP_OEQ: op = Opcode::k_fcmp_oeq_f64; break;
    case llvm::CmpInst::FCMP_ONE: op = Opcode::k_fcmp_one_f64; break;
    case llvm::CmpInst::FCMP_OLT: op = Opcode::k_fcmp_olt_f64; break;
    case llvm::CmpInst::FCMP_OLE: op = Opcode::k_fcmp_ole_f64; break;
    case llvm::CmpInst::FCMP_OGT: op = Opcode::k_fcmp_ogt_f64; break;
    case llvm::CmpInst::FCMP_OGE: op = Opcode::k_fcmp_oge_f64; break;
    case llvm::CmpInst::FCMP_UNE: op = Opcode::k_fcmp_une_f64; break;
    default:
      AQE_UNREACHABLE("unsupported fcmp predicate");
  }
  Emit(op, a1, a2, a3);
}

void Translator::TranslateCast(const llvm::CastInst& cast) {
  if (const llvm::LoadInst* load = widening_loads_.lookup(&cast)) {
    TranslateWideningLoad(cast, *load);
    return;
  }
  TypeClass from = ClassifyType(cast.getSrcTy());
  TypeClass to = ClassifyType(cast.getDestTy());
  uint32_t a2 = UseReg(cast.getOperand(0));
  uint32_t a1 = value_reg_.lookup(&cast);
  auto pick = [&](Opcode op) { Emit(op, a1, a2); };
  switch (cast.getOpcode()) {
    case llvm::Instruction::SExt:
      if (from == TypeClass::kI1 && to == TypeClass::kI64) return pick(Opcode::k_sext_i1_i64);
      if (from == TypeClass::kI8 && to == TypeClass::kI64) return pick(Opcode::k_sext_i8_i64);
      if (from == TypeClass::kI8 && to == TypeClass::kI32) return pick(Opcode::k_sext_i8_i32);
      if (from == TypeClass::kI16 && to == TypeClass::kI64) return pick(Opcode::k_sext_i16_i64);
      if (from == TypeClass::kI16 && to == TypeClass::kI32) return pick(Opcode::k_sext_i16_i32);
      if (from == TypeClass::kI32 && to == TypeClass::kI64) return pick(Opcode::k_sext_i32_i64);
      break;
    case llvm::Instruction::ZExt:
      if (from == TypeClass::kI1 && to == TypeClass::kI8) return pick(Opcode::k_zext_i1_i8);
      if (from == TypeClass::kI1 && to == TypeClass::kI32) return pick(Opcode::k_zext_i1_i32);
      if (from == TypeClass::kI1 && to == TypeClass::kI64) return pick(Opcode::k_zext_i1_i64);
      if (from == TypeClass::kI8 && to == TypeClass::kI32) return pick(Opcode::k_zext_i8_i32);
      if (from == TypeClass::kI8 && to == TypeClass::kI64) return pick(Opcode::k_zext_i8_i64);
      if (from == TypeClass::kI16 && to == TypeClass::kI32) return pick(Opcode::k_zext_i16_i32);
      if (from == TypeClass::kI16 && to == TypeClass::kI64) return pick(Opcode::k_zext_i16_i64);
      if (from == TypeClass::kI32 && to == TypeClass::kI64) return pick(Opcode::k_zext_i32_i64);
      break;
    case llvm::Instruction::Trunc:
      if (from == TypeClass::kI64 && to == TypeClass::kI32) return pick(Opcode::k_trunc_i64_i32);
      if (from == TypeClass::kI64 && to == TypeClass::kI16) return pick(Opcode::k_trunc_i64_i16);
      if (from == TypeClass::kI64 && to == TypeClass::kI8) return pick(Opcode::k_trunc_i64_i8);
      if (from == TypeClass::kI64 && to == TypeClass::kI1) return pick(Opcode::k_trunc_i64_i1);
      if (from == TypeClass::kI32 && to == TypeClass::kI16) return pick(Opcode::k_trunc_i32_i16);
      if (from == TypeClass::kI32 && to == TypeClass::kI8) return pick(Opcode::k_trunc_i32_i8);
      if (from == TypeClass::kI32 && to == TypeClass::kI1) return pick(Opcode::k_trunc_i32_i1);
      break;
    case llvm::Instruction::SIToFP:
      if (from == TypeClass::kI32) return pick(Opcode::k_sitofp_i32_f64);
      if (from == TypeClass::kI64) return pick(Opcode::k_sitofp_i64_f64);
      break;
    case llvm::Instruction::UIToFP:
      if (from == TypeClass::kI64) return pick(Opcode::k_uitofp_i64_f64);
      break;
    case llvm::Instruction::FPToSI:
      if (to == TypeClass::kI64) return pick(Opcode::k_fptosi_f64_i64);
      if (to == TypeClass::kI32) return pick(Opcode::k_fptosi_f64_i32);
      break;
    case llvm::Instruction::BitCast:
      if (from == TypeClass::kI64 && to == TypeClass::kF64) return pick(Opcode::k_bitcast_i64_f64);
      if (from == TypeClass::kF64 && to == TypeClass::kI64) return pick(Opcode::k_bitcast_f64_i64);
      if (cast.getSrcTy()->isPointerTy() && cast.getDestTy()->isPointerTy()) {
        return pick(Opcode::k_mov64);
      }
      break;
    case llvm::Instruction::PtrToInt:
    case llvm::Instruction::IntToPtr:
      if (from == TypeClass::kI64 && to == TypeClass::kI64) {
        return pick(Opcode::k_mov64);
      }
      break;
    default:
      break;
  }
  AQE_UNREACHABLE("unsupported cast in bytecode translation");
}

Translator::GepParts Translator::DecomposeGep(
    const llvm::GetElementPtrInst& gep) {
  AQE_CHECK_MSG(gep.getNumIndices() == 1,
                "bytecode translation supports single-index GEPs only");
  const llvm::Type* elem = gep.getSourceElementType();
  AQE_CHECK_MSG(elem->isIntegerTy() || elem->isDoubleTy() ||
                    elem->isPointerTy(),
                "GEP element type must be scalar");
  uint32_t scale = elem->isIntegerTy()
                       ? elem->getIntegerBitWidth() / 8
                       : 8;
  if (scale == 0) scale = 1;  // i1 arrays: byte-addressed
  GepParts parts{gep.getPointerOperand(), nullptr, scale, 0};
  const llvm::Value* index = gep.getOperand(1);
  if (const auto* ci = llvm::dyn_cast<llvm::ConstantInt>(index)) {
    parts.offset = static_cast<int32_t>(ci->getSExtValue() *
                                        static_cast<int64_t>(scale));
    parts.scale = 0;
  } else {
    parts.index = index;
  }
  return parts;
}

void Translator::TranslateLoad(const llvm::LoadInst& load) {
  TypeClass tc = ClassifyType(load.getType());
  uint32_t a1 = value_reg_.lookup(&load);
  const llvm::Value* ptr = load.getPointerOperand();
  const auto* gep = llvm::dyn_cast<llvm::GetElementPtrInst>(ptr);
  if (gep != nullptr && subsumed_.contains(gep)) {
    GepParts parts = DecomposeGep(*gep);
    ++program_.fused_instructions;
    uint32_t base = UseReg(parts.base);
    if (parts.index == nullptr) {
      Opcode op;
      switch (tc) {
        case TypeClass::kI1:
        case TypeClass::kI8: op = Opcode::k_load_i8; break;
        case TypeClass::kI16: op = Opcode::k_load_i16; break;
        case TypeClass::kI32: op = Opcode::k_load_i32; break;
        case TypeClass::kI64: op = Opcode::k_load_i64; break;
        case TypeClass::kF64: op = Opcode::k_load_f64; break;
      }
      Emit(op, a1, base, 0, static_cast<uint64_t>(
                                static_cast<uint32_t>(parts.offset)));
      return;
    }
    uint32_t idx = UseReg(parts.index);
    Opcode op;
    switch (tc) {
      case TypeClass::kI1:
      case TypeClass::kI8: op = Opcode::k_load_idx_i8; break;
      case TypeClass::kI16: op = Opcode::k_load_idx_i16; break;
      case TypeClass::kI32: op = Opcode::k_load_idx_i32; break;
      case TypeClass::kI64: op = Opcode::k_load_idx_i64; break;
      case TypeClass::kF64: op = Opcode::k_load_idx_f64; break;
    }
    Emit(op, a1, base, idx, PackScaleOffset(parts.scale, parts.offset));
    return;
  }
  uint32_t addr = UseReg(ptr);
  Opcode op;
  switch (tc) {
    case TypeClass::kI1:
    case TypeClass::kI8: op = Opcode::k_load_i8; break;
    case TypeClass::kI16: op = Opcode::k_load_i16; break;
    case TypeClass::kI32: op = Opcode::k_load_i32; break;
    case TypeClass::kI64: op = Opcode::k_load_i64; break;
    case TypeClass::kF64: op = Opcode::k_load_f64; break;
  }
  Emit(op, a1, addr, 0, 0);
}

void Translator::TranslateWideningLoad(const llvm::CastInst& sext,
                                       const llvm::LoadInst& load) {
  GepParts parts = DecomposeGep(
      *llvm::cast<llvm::GetElementPtrInst>(load.getPointerOperand()));
  uint32_t base = UseReg(parts.base);
  // A constant index is already folded into the offset (scale 0); slot 0
  // holds the index 0.
  uint32_t idx = parts.index != nullptr ? UseReg(parts.index) : 0;
  Opcode op;
  switch (load.getType()->getIntegerBitWidth()) {
    case 8: op = Opcode::k_load_idx_sext_i8_i64; break;
    case 16: op = Opcode::k_load_idx_sext_i16_i64; break;
    case 32: op = Opcode::k_load_idx_sext_i32_i64; break;
    default: AQE_UNREACHABLE("widening load of an unplanned width");
  }
  Emit(op, value_reg_.lookup(&sext), base, idx,
       PackScaleOffset(parts.scale, parts.offset));
  program_.fused_instructions += 2;  // gep + load folded into the sext
}

void Translator::TranslateStore(const llvm::StoreInst& store) {
  TypeClass tc = ClassifyType(store.getValueOperand()->getType());
  uint32_t value = UseReg(store.getValueOperand());
  const llvm::Value* ptr = store.getPointerOperand();
  const auto* gep = llvm::dyn_cast<llvm::GetElementPtrInst>(ptr);
  if (gep != nullptr && subsumed_.contains(gep)) {
    GepParts parts = DecomposeGep(*gep);
    ++program_.fused_instructions;
    uint32_t base = UseReg(parts.base);
    if (parts.index == nullptr) {
      Opcode op;
      switch (tc) {
        case TypeClass::kI1:
        case TypeClass::kI8: op = Opcode::k_store_i8; break;
        case TypeClass::kI16: op = Opcode::k_store_i16; break;
        case TypeClass::kI32: op = Opcode::k_store_i32; break;
        case TypeClass::kI64: op = Opcode::k_store_i64; break;
        case TypeClass::kF64: op = Opcode::k_store_f64; break;
      }
      Emit(op, value, base, 0, static_cast<uint64_t>(
                                   static_cast<uint32_t>(parts.offset)));
      return;
    }
    uint32_t idx = UseReg(parts.index);
    Opcode op;
    switch (tc) {
      case TypeClass::kI1:
      case TypeClass::kI8: op = Opcode::k_store_idx_i8; break;
      case TypeClass::kI16: op = Opcode::k_store_idx_i16; break;
      case TypeClass::kI32: op = Opcode::k_store_idx_i32; break;
      case TypeClass::kI64: op = Opcode::k_store_idx_i64; break;
      case TypeClass::kF64: op = Opcode::k_store_idx_f64; break;
    }
    Emit(op, value, base, idx, PackScaleOffset(parts.scale, parts.offset));
    return;
  }
  uint32_t addr = UseReg(ptr);
  Opcode op;
  switch (tc) {
    case TypeClass::kI1:
    case TypeClass::kI8: op = Opcode::k_store_i8; break;
    case TypeClass::kI16: op = Opcode::k_store_i16; break;
    case TypeClass::kI32: op = Opcode::k_store_i32; break;
    case TypeClass::kI64: op = Opcode::k_store_i64; break;
    case TypeClass::kF64: op = Opcode::k_store_f64; break;
  }
  Emit(op, value, addr, 0, 0);
}

void Translator::TranslateGep(const llvm::GetElementPtrInst& gep) {
  GepParts parts = DecomposeGep(gep);
  uint32_t a1 = value_reg_.lookup(&gep);
  uint32_t base = UseReg(parts.base);
  if (parts.index == nullptr) {
    Emit(Opcode::k_gep_const, a1, base, 0,
         static_cast<uint64_t>(static_cast<uint32_t>(parts.offset)));
  } else {
    uint32_t idx = UseReg(parts.index);
    Emit(Opcode::k_gep, a1, base, idx,
         PackScaleOffset(parts.scale, parts.offset));
  }
}

void Translator::TranslateOverflowIntrinsic(const llvm::CallInst& call) {
  llvm::Intrinsic::ID id;
  AQE_CHECK(IsOverflowIntrinsic(call, &id));
  TypeClass tc = ClassifyType(call.getArgOperand(0)->getType());
  AQE_CHECK(tc == TypeClass::kI32 || tc == TypeClass::kI64);
  const bool is32 = tc == TypeClass::kI32;

  auto fused_it = fused_overflow_.find(&call);
  if (fused_it != fused_overflow_.end()) {
    // Fused §IV-F macro op: compute + branch-to-overflow in one VM
    // instruction. The destination register belongs to the value extract
    // (if any; an unused result still needs a scratch destination).
    const FusedOverflow& plan = fused_it->second;
    uint32_t a2 = UseReg(call.getArgOperand(0));
    uint32_t a3 = UseReg(call.getArgOperand(1));
    uint32_t a1 = scratch_reg_;
    if (plan.value_extract != nullptr) {
      // The extract owns the destination; block-local extracts are
      // allocated here, at the fused op (their definition point).
      if (value_reg_.count(plan.value_extract) == 0) {
        AllocFor(plan.value_extract);
      }
      a1 = value_reg_.lookup(plan.value_extract);
    }
    Opcode op;
    switch (id) {
      case llvm::Intrinsic::sadd_with_overflow:
        op = is32 ? Opcode::k_sadd_ovf_br_i32 : Opcode::k_sadd_ovf_br_i64;
        break;
      case llvm::Intrinsic::ssub_with_overflow:
        op = is32 ? Opcode::k_ssub_ovf_br_i32 : Opcode::k_ssub_ovf_br_i64;
        break;
      default:
        op = is32 ? Opcode::k_smul_ovf_br_i32 : Opcode::k_smul_ovf_br_i64;
        break;
    }
    uint32_t index = Emit(op, a1, a2, a3);
    AddFixup(index, /*field=*/0, plan.overflow_block);
    return;
  }

  // Unfused: the pair gets two registers (value, flag); extractvalue copies
  // out of them.
  uint32_t a2 = UseReg(call.getArgOperand(0));
  uint32_t a3 = UseReg(call.getArgOperand(1));
  const LiveRange& r = live_.range(&call);
  // Multi-block pairs were given their value slot at block entry; the flag
  // slot is always allocated here.
  uint32_t val_reg = value_reg_.count(&call) != 0 ? value_reg_.lookup(&call)
                                                  : alloc_.Alloc(r.start, r.end);
  uint32_t flag_reg = alloc_.Alloc(r.start, r.end);
  value_reg_[&call] = val_reg;
  pair_flag_reg_[&call] = flag_reg;
  Opcode op;
  switch (id) {
    case llvm::Intrinsic::sadd_with_overflow:
      op = is32 ? Opcode::k_sadd_ovf_i32 : Opcode::k_sadd_ovf_i64;
      break;
    case llvm::Intrinsic::ssub_with_overflow:
      op = is32 ? Opcode::k_ssub_ovf_i32 : Opcode::k_ssub_ovf_i64;
      break;
    default:
      op = is32 ? Opcode::k_smul_ovf_i32 : Opcode::k_smul_ovf_i64;
      break;
  }
  Emit(op, val_reg, a2, a3, flag_reg);
}

void Translator::TranslateExtractValue(const llvm::ExtractValueInst& ev) {
  // Only {iN, i1} overflow pairs reach here (unfused path).
  const llvm::Value* agg = ev.getAggregateOperand();
  AQE_CHECK_MSG(pair_flag_reg_.count(agg) != 0,
                "extractvalue of unsupported aggregate");
  AQE_CHECK(ev.getNumIndices() == 1);
  uint32_t src = ev.getIndices()[0] == 0 ? value_reg_.lookup(agg)
                                         : pair_flag_reg_.lookup(agg);
  // Account for the use of the pair value.
  UseReg(agg);
  uint32_t a1 = value_reg_.lookup(&ev);
  Emit(Opcode::k_mov64, a1, src);
}

void Translator::TranslateCall(const llvm::CallInst& call) {
  llvm::Intrinsic::ID id;
  if (IsOverflowIntrinsic(call, &id)) {
    TranslateOverflowIntrinsic(call);
    return;
  }
  const llvm::Function* callee = call.getCalledFunction();
  AQE_CHECK_MSG(callee != nullptr, "indirect calls unsupported in bytecode");
  if (callee->isIntrinsic()) {
    switch (callee->getIntrinsicID()) {
      case llvm::Intrinsic::lifetime_start:
      case llvm::Intrinsic::lifetime_end:
      case llvm::Intrinsic::donothing:
      case llvm::Intrinsic::assume:
      case llvm::Intrinsic::dbg_declare:
      case llvm::Intrinsic::dbg_value:
        return;  // no code
      default:
        AQE_UNREACHABLE("unsupported intrinsic in bytecode translation");
    }
  }
  const RuntimeRegistry::Entry* entry =
      registry_.Find(callee->getName().str());
  AQE_CHECK_MSG(entry != nullptr, "call to unregistered runtime function");
  const int nargs = static_cast<int>(call.arg_size());
  AQE_CHECK_MSG(nargs == entry->num_args, "runtime call arity mismatch");
  const bool returns_value = !call.getType()->isVoidTy();
  AQE_CHECK(returns_value == entry->returns_value);
  // Callee addresses live in the literal pool (the compact instruction's
  // lit carries the pool index), keeping raw pointers out of the stream.
  uint64_t target = program_.AddLiteral(
      reinterpret_cast<uint64_t>(entry->address));

  if (nargs <= 2) {
    uint32_t a2 = nargs >= 1 ? UseReg(call.getArgOperand(0)) : 0;
    uint32_t a3 = nargs >= 2 ? UseReg(call.getArgOperand(1)) : 0;
    if (returns_value) {
      uint32_t a1 = value_reg_.lookup(&call);
      static constexpr Opcode kRet[3] = {Opcode::k_call_i64_0,
                                         Opcode::k_call_i64_1,
                                         Opcode::k_call_i64_2};
      Emit(kRet[nargs], a1, a2, a3, target);
    } else {
      static constexpr Opcode kVoid[3] = {Opcode::k_call_void_0,
                                          Opcode::k_call_void_1,
                                          Opcode::k_call_void_2};
      // Shift args down: a1/a2 carry the argument registers.
      Emit(kVoid[nargs], a2, a3, 0, target);
    }
    return;
  }
  for (int i = 0; i < nargs; ++i) {
    Emit(Opcode::k_push_arg, UseReg(call.getArgOperand(i)));
  }
  if (returns_value) {
    Emit(Opcode::k_call_i64_n, value_reg_.lookup(&call),
         static_cast<uint32_t>(nargs), 0, target);
  } else {
    Emit(Opcode::k_call_void_n, 0, static_cast<uint32_t>(nargs), 0, target);
  }
}

void Translator::TranslateSelect(const llvm::SelectInst& sel) {
  TypeClass tc = ClassifyType(sel.getType());
  uint32_t cond = UseReg(sel.getCondition());
  uint32_t tval = UseReg(sel.getTrueValue());
  uint32_t fval = UseReg(sel.getFalseValue());
  uint32_t a1 = value_reg_.lookup(&sel);
  Opcode op;
  switch (tc) {
    case TypeClass::kI32: op = Opcode::k_select_i32; break;
    case TypeClass::kF64: op = Opcode::k_select_f64; break;
    default: op = Opcode::k_select_i64; break;  // i64 + pointers
  }
  // Encoding: a1 = dst, a2 = cond, a3 = true value, lit = false-value reg.
  Emit(op, a1, cond, tval, fval);
}

void Translator::EmitPhiCopies(const llvm::BasicBlock* from,
                               const llvm::BasicBlock* to) {
  // Gather the parallel copy set (dst <- src).
  struct Copy {
    uint32_t dst;
    uint32_t src;
  };
  std::vector<Copy> copies;
  for (const llvm::PHINode& phi : to->phis()) {
    const llvm::Value* incoming = phi.getIncomingValueForBlock(from);
    uint32_t src = UseReg(incoming);
    uint32_t dst = value_reg_.lookup(&phi);
    if (src != dst) copies.push_back({dst, src});
  }
  // Sequentialize: repeatedly emit copies whose destination is not a
  // pending source; break cycles through the scratch register.
  while (!copies.empty()) {
    bool progress = false;
    for (size_t i = 0; i < copies.size(); ++i) {
      uint32_t dst = copies[i].dst;
      bool is_pending_src = false;
      for (size_t j = 0; j < copies.size(); ++j) {
        if (j != i && copies[j].src == dst) {
          is_pending_src = true;
          break;
        }
      }
      if (!is_pending_src) {
        Emit(Opcode::k_mov64, copies[i].dst, copies[i].src);
        copies.erase(copies.begin() + static_cast<ptrdiff_t>(i));
        progress = true;
        break;
      }
    }
    if (!progress) {
      // Cycle: move one source aside into scratch.
      Emit(Opcode::k_mov64, scratch_reg_, copies[0].src);
      for (Copy& c : copies) {
        if (c.src == copies[0].src) c.src = scratch_reg_;
      }
    }
  }
}

void Translator::EmitBranchTo(const llvm::BasicBlock* target) {
  uint32_t index = Emit(Opcode::k_br);
  AddFixup(index, /*field=*/0, target);
}

uint32_t Translator::EmitFusedCmpBranch(const llvm::CmpInst* cmp, Opcode op) {
  const llvm::Value* lhs = cmp->getOperand(0);
  const llvm::Value* rhs = cmp->getOperand(1);
  uint32_t index;
  const auto fused_it = fused_cmp_load_.find(cmp);
  if (fused_it != fused_cmp_load_.end()) {
    // Load-compare-and-branch tier: the load (or its sign extension)
    // supplies the LHS (mirrored into place if it was the RHS); a2/a3 carry
    // the subsumed GEP's base/index, a1 the RHS register or literal-pool
    // index.
    const FusedCmpLoad& fused = fused_it->second;
    const unsigned sext_bits = fused.sext_bits();
    if (lhs != fused.operand()) {
      Opcode mirrored;
      AQE_CHECK(MirrorCmpBranchOpcode(op, &mirrored));
      op = mirrored;
      std::swap(lhs, rhs);
    }
    uint64_t imm_bits = 0;
    const bool has_imm = options_.fuse_imm_cmp_branches &&
                         FusableImmediateBits(rhs, &imm_bits) &&
                         imm_bits != 0 && imm_bits != 1;
    const auto* gep = llvm::cast<llvm::GetElementPtrInst>(
        fused.load->getPointerOperand());
    GepParts parts = DecomposeGep(*gep);
    uint32_t base = UseReg(parts.base);
    uint32_t idx = UseReg(parts.index);
    Opcode load_op;
    if (has_imm &&
        LoadCmpBranchOpcode(op, /*imm=*/true, sext_bits, &load_op) &&
        program_.literal_pool.size() < 0xFFFF) {
      uint64_t pool_index = program_.AddPrivateLiteral(imm_bits);
      index = Emit(load_op, static_cast<uint32_t>(pool_index), base, idx);
      ++program_.fused_cmp_branch_imms;
    } else {
      AQE_CHECK(LoadCmpBranchOpcode(op, /*imm=*/false, sext_bits, &load_op));
      index = Emit(load_op, UseReg(rhs), base, idx);
    }
    // gep + load (+ sext) + compare folded
    program_.fused_instructions += sext_bits != 0 ? 4 : 3;
    ++program_.fused_cmp_branches;
    ++program_.fused_load_cmp_branches;
  } else {
    // Constant-operand form: the literal moves into a private
    // literal-pool slot read directly by the handler, so it neither
    // occupies a permanent register nor pays the entry load. A constant
    // LHS is mirrored (c < x == x > c) onto the same encoding. Bits 0/1
    // keep the register path — the reserved slots already hold them for
    // free.
    uint64_t imm_bits = 0;
    bool has_imm = false;
    if (options_.fuse_cmp_branches && options_.fuse_imm_cmp_branches) {
      if (FusableImmediateBits(rhs, &imm_bits)) {
        has_imm = true;
      } else if (FusableImmediateBits(lhs, &imm_bits)) {
        Opcode mirrored;
        if (MirrorCmpBranchOpcode(op, &mirrored)) {
          op = mirrored;
          std::swap(lhs, rhs);
          has_imm = true;
        }
      }
      if (has_imm && (imm_bits == 0 || imm_bits == 1)) has_imm = false;
    }
    Opcode imm_op;
    if (has_imm && ImmCmpBranchOpcode(op, &imm_op) &&
        program_.literal_pool.size() < 0xFFFF) {
      uint64_t pool_index = program_.AddPrivateLiteral(imm_bits);
      index = Emit(imm_op, static_cast<uint32_t>(pool_index),
                   UseReg(lhs));
      ++program_.fused_cmp_branch_imms;
    } else {
      uint32_t a2 = UseReg(lhs);
      uint32_t a3 = UseReg(rhs);
      index = Emit(op, 0, a2, a3);
    }
    ++program_.fused_instructions;  // the compare folded away
    ++program_.fused_cmp_branches;
  }
  return index;
}

uint32_t Translator::EmitChainElement(const llvm::Value* leaf) {
  const auto* inst = llvm::dyn_cast<llvm::Instruction>(leaf);
  auto it = inst != nullptr ? fused_cmp_.find(inst) : fused_cmp_.end();
  if (it != fused_cmp_.end()) {
    return EmitFusedCmpBranch(llvm::cast<llvm::CmpInst>(inst), it->second);
  }
  return Emit(Opcode::k_condbr, UseReg(leaf));
}

void Translator::TranslateTerminator(const llvm::Instruction& term) {
  const llvm::BasicBlock* bb = term.getParent();
  if (subsumed_.contains(&term)) {
    // Fused overflow branch: only the continue edge remains.
    const auto* br = llvm::cast<llvm::BranchInst>(&term);
    const llvm::BasicBlock* cont = br->getSuccessor(1);
    EmitPhiCopies(bb, cont);
    EmitBranchTo(cont);
    return;
  }
  if (const auto* br = llvm::dyn_cast<llvm::BranchInst>(&term)) {
    if (br->isUnconditional()) {
      EmitPhiCopies(bb, br->getSuccessor(0));
      EmitBranchTo(br->getSuccessor(0));
      return;
    }
    // Short-circuit chain: the condition was a conjunction, so one branch
    // is emitted per leaf. Passing a test falls through to the next chain
    // element; the last element's pass-edge is the real then-successor, and
    // every element's fail-edge is the shared else-successor. Phi copies
    // are valid before any element because all elements target the same
    // two successors.
    if (auto chain_it = branch_chains_.find(br);
        chain_it != branch_chains_.end()) {
      llvm::SmallVector<uint32_t, 8> indices;
      for (const llvm::Value* leaf : chain_it->second) {
        uint32_t idx = EmitChainElement(leaf);
        if (!indices.empty()) SetThenTarget(indices.back(), idx);
        indices.push_back(idx);
      }
      const llvm::BasicBlock* chain_then = br->getSuccessor(0);
      const llvm::BasicBlock* chain_else = br->getSuccessor(1);
      if (llvm::isa<llvm::PHINode>(chain_then->front())) {
        SetThenTarget(indices.back(),
                      static_cast<uint32_t>(program_.code.size()));
        EmitPhiCopies(bb, chain_then);
        EmitBranchTo(chain_then);
      } else {
        AddFixup(indices.back(), /*field=*/1, chain_then);
      }
      if (llvm::isa<llvm::PHINode>(chain_else->front())) {
        const uint32_t stub = static_cast<uint32_t>(program_.code.size());
        EmitPhiCopies(bb, chain_else);
        EmitBranchTo(chain_else);
        for (uint32_t idx : indices) SetElseTarget(idx, stub);
      } else {
        for (uint32_t idx : indices) AddFixup(idx, /*field=*/2, chain_else);
      }
      return;
    }
    // Either a plain condbr on an i1 register, or — when the condition is a
    // single-use compare planned for fusion — one compare-and-branch
    // superinstruction reading the compare's operands directly.
    uint32_t index;
    const auto* cond_inst = llvm::dyn_cast<llvm::Instruction>(
        br->getCondition());
    auto fused_it = cond_inst != nullptr ? fused_cmp_.find(cond_inst)
                                         : fused_cmp_.end();
    if (fused_it != fused_cmp_.end()) {
      index = EmitFusedCmpBranch(llvm::cast<llvm::CmpInst>(cond_inst),
                                 fused_it->second);
    } else {
      uint32_t cond = UseReg(br->getCondition());
      index = Emit(Opcode::k_condbr, cond);
    }
    const llvm::BasicBlock* then_bb = br->getSuccessor(0);
    const llvm::BasicBlock* else_bb = br->getSuccessor(1);
    const bool then_phis = llvm::isa<llvm::PHINode>(then_bb->front());
    const bool else_phis = llvm::isa<llvm::PHINode>(else_bb->front());
    if (then_phis) {
      SetThenTarget(index, static_cast<uint32_t>(program_.code.size()));
      EmitPhiCopies(bb, then_bb);
      EmitBranchTo(then_bb);
    } else {
      AddFixup(index, /*field=*/1, then_bb);
    }
    if (else_phis) {
      SetElseTarget(index, static_cast<uint32_t>(program_.code.size()));
      EmitPhiCopies(bb, else_bb);
      EmitBranchTo(else_bb);
    } else {
      AddFixup(index, /*field=*/2, else_bb);
    }
    return;
  }
  if (const auto* ret = llvm::dyn_cast<llvm::ReturnInst>(&term)) {
    if (ret->getNumOperands() == 0) {
      Emit(Opcode::k_ret_void);
    } else {
      Emit(Opcode::k_ret, UseReg(ret->getOperand(0)));
    }
    return;
  }
  if (llvm::isa<llvm::UnreachableInst>(&term)) {
    Emit(Opcode::k_trap);
    return;
  }
  AQE_UNREACHABLE("unsupported terminator in bytecode translation");
}

void Translator::TranslateInstruction(const llvm::Instruction& inst) {
  if (llvm::isa<llvm::PHINode>(inst)) return;  // handled at edges
  if (inst.isTerminator()) {
    TranslateTerminator(inst);
    return;
  }
  if (subsumed_.contains(&inst)) {
    // Fused overflow calls still emit their macro op; fused GEPs and
    // extracts vanish entirely.
    if (const auto* call = llvm::dyn_cast<llvm::CallInst>(&inst)) {
      if (fused_overflow_.count(call) != 0) TranslateOverflowIntrinsic(*call);
    }
    return;
  }
  // Allocate the destination register for block-local values at their
  // definition (multi-block values were allocated at block entry).
  if (!inst.getType()->isVoidTy() && live_.tracked(&inst) &&
      IsSingleBlock(&inst) && value_reg_.count(&inst) == 0 &&
      !llvm::isa<llvm::CallInst>(inst)) {
    AllocFor(&inst);
  } else if (const auto* call = llvm::dyn_cast<llvm::CallInst>(&inst);
             call != nullptr && !inst.getType()->isVoidTy() &&
             IsSingleBlock(&inst) && value_reg_.count(&inst) == 0) {
    llvm::Intrinsic::ID id;
    if (!IsOverflowIntrinsic(*call, &id)) AllocFor(&inst);
    // overflow pairs allocate their two registers inside
    // TranslateOverflowIntrinsic
  }

  switch (inst.getOpcode()) {
    case llvm::Instruction::Add: case llvm::Instruction::Sub:
    case llvm::Instruction::Mul: case llvm::Instruction::SDiv:
    case llvm::Instruction::UDiv: case llvm::Instruction::SRem:
    case llvm::Instruction::URem: case llvm::Instruction::And:
    case llvm::Instruction::Or: case llvm::Instruction::Xor:
    case llvm::Instruction::Shl: case llvm::Instruction::LShr:
    case llvm::Instruction::AShr: case llvm::Instruction::FAdd:
    case llvm::Instruction::FSub: case llvm::Instruction::FMul:
    case llvm::Instruction::FDiv:
      TranslateBinary(llvm::cast<llvm::BinaryOperator>(inst));
      break;
    case llvm::Instruction::FNeg: {
      uint32_t a2 = UseReg(inst.getOperand(0));
      Emit(Opcode::k_fneg_f64, value_reg_.lookup(&inst), a2);
      break;
    }
    case llvm::Instruction::ICmp:
      TranslateICmp(llvm::cast<llvm::ICmpInst>(inst));
      break;
    case llvm::Instruction::FCmp:
      TranslateFCmp(llvm::cast<llvm::FCmpInst>(inst));
      break;
    case llvm::Instruction::SExt: case llvm::Instruction::ZExt:
    case llvm::Instruction::Trunc: case llvm::Instruction::SIToFP:
    case llvm::Instruction::UIToFP: case llvm::Instruction::FPToSI:
    case llvm::Instruction::BitCast: case llvm::Instruction::PtrToInt:
    case llvm::Instruction::IntToPtr:
      TranslateCast(llvm::cast<llvm::CastInst>(inst));
      break;
    case llvm::Instruction::Load:
      TranslateLoad(llvm::cast<llvm::LoadInst>(inst));
      break;
    case llvm::Instruction::Store:
      TranslateStore(llvm::cast<llvm::StoreInst>(inst));
      break;
    case llvm::Instruction::GetElementPtr:
      TranslateGep(llvm::cast<llvm::GetElementPtrInst>(inst));
      break;
    case llvm::Instruction::Call:
      TranslateCall(llvm::cast<llvm::CallInst>(inst));
      break;
    case llvm::Instruction::ExtractValue:
      TranslateExtractValue(llvm::cast<llvm::ExtractValueInst>(inst));
      break;
    case llvm::Instruction::Select:
      TranslateSelect(llvm::cast<llvm::SelectInst>(inst));
      break;
    default:
      AQE_UNREACHABLE("unsupported instruction in bytecode translation");
  }
}

void Translator::TranslateBlock(int label) {
  current_label_ = label;
  block_start_[static_cast<size_t>(label)] =
      static_cast<uint32_t>(program_.code.size());
  // Allocate registers for values that become live in this block (Fig 9).
  for (const llvm::Value* v :
       alloc_at_entry_[static_cast<size_t>(label)]) {
    if (value_reg_.count(v) == 0) AllocFor(v);
  }
  const llvm::BasicBlock* bb = cfg_.BlockAt(label);
  for (const llvm::Instruction& inst : *bb) {
    TranslateInstruction(inst);
    ++program_.source_instructions;
  }
  // Release registers for values whose lifetime ends here (Fig 9).
  for (const llvm::Value* v : release_at_end_[static_cast<size_t>(label)]) {
    ReleaseValue(v);
  }
}

BcProgram Translator::Run() {
  PlanFusion();
  PlanCmpBranchFusion();
  PlanBranchChainFusion();  // may add to fused_cmp_, so before load planning
  PlanLoadCmpBranchFusion();
  PlanWideningLoads();  // after load planning, which may take the same sext
  CountBlockLocalUses();
  BuildRangeLists();
  block_start_.assign(static_cast<size_t>(cfg_.num_blocks()), 0);
  scratch_reg_ = alloc_.AllocPermanent();
  scratch_allocated_ = true;

  // Arguments materialize in entry order; the VM copies the incoming values
  // into these registers before executing instruction 0.
  for (const llvm::Argument& arg : fn_.args()) {
    uint32_t reg = value_reg_.count(&arg) != 0 ? value_reg_.lookup(&arg)
                                               : AllocFor(&arg);
    program_.arg_offsets.push_back(reg);
  }

  for (int label = 0; label < cfg_.num_blocks(); ++label) {
    TranslateBlock(label);
  }

  for (const Fixup& fixup : fixups_) {
    uint32_t target = block_start_[static_cast<size_t>(fixup.target_label)];
    switch (fixup.field) {
      case 0: program_.code[fixup.index].lit = target; break;
      case 1: SetThenTarget(fixup.index, target); break;
      case 2: SetElseTarget(fixup.index, target); break;
      default: AQE_UNREACHABLE("bad fixup field");
    }
  }
  program_.register_file_size = alloc_.file_size();
  return std::move(program_);
}

// Cumulative translation counters (TranslatorCountersSnapshot). Relaxed
// atomics: translation happens on worker threads concurrently.
std::atomic<uint64_t> g_programs{0};
std::atomic<uint64_t> g_bytecode_ops{0};
std::atomic<uint64_t> g_fused_instructions{0};
std::atomic<uint64_t> g_fused_cmp_branches{0};
std::atomic<uint64_t> g_fused_cmp_branch_imms{0};
std::atomic<uint64_t> g_fused_load_cmp_branches{0};

}  // namespace

TranslatorCounters TranslatorCountersSnapshot() {
  TranslatorCounters c;
  c.programs = g_programs.load(std::memory_order_relaxed);
  c.bytecode_ops = g_bytecode_ops.load(std::memory_order_relaxed);
  c.fused_instructions = g_fused_instructions.load(std::memory_order_relaxed);
  c.fused_cmp_branches = g_fused_cmp_branches.load(std::memory_order_relaxed);
  c.fused_cmp_branch_imms =
      g_fused_cmp_branch_imms.load(std::memory_order_relaxed);
  c.fused_load_cmp_branches =
      g_fused_load_cmp_branches.load(std::memory_order_relaxed);
  return c;
}

void ResetTranslatorCounters() {
  g_programs.store(0, std::memory_order_relaxed);
  g_bytecode_ops.store(0, std::memory_order_relaxed);
  g_fused_instructions.store(0, std::memory_order_relaxed);
  g_fused_cmp_branches.store(0, std::memory_order_relaxed);
  g_fused_cmp_branch_imms.store(0, std::memory_order_relaxed);
  g_fused_load_cmp_branches.store(0, std::memory_order_relaxed);
}

BcProgram TranslateToBytecode(const llvm::Function& fn,
                              const RuntimeRegistry& registry,
                              const TranslatorOptions& options) {
  Translator translator(fn, registry, options);
  BcProgram program = translator.Run();
  g_programs.fetch_add(1, std::memory_order_relaxed);
  g_bytecode_ops.fetch_add(program.code.size(), std::memory_order_relaxed);
  g_fused_instructions.fetch_add(program.fused_instructions,
                                 std::memory_order_relaxed);
  g_fused_cmp_branches.fetch_add(program.fused_cmp_branches,
                                 std::memory_order_relaxed);
  g_fused_cmp_branch_imms.fetch_add(program.fused_cmp_branch_imms,
                                    std::memory_order_relaxed);
  g_fused_load_cmp_branches.fetch_add(program.fused_load_cmp_branches,
                                      std::memory_order_relaxed);
  return program;
}

}  // namespace aqe
