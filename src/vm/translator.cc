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

/// The opcode `k` places after `first` in AQE_OPCODE_LIST, whose families
/// list their forms in a fixed order (i32 before i64, i8 to f64, the ten
/// integer predicates).
Opcode OpAt(Opcode first, int k) {
  return static_cast<Opcode>(static_cast<int>(first) + k);
}

/// A load or store of `tc` in the family whose i8 form is `first`.
Opcode MemoryOp(Opcode first, TypeClass tc) {
  return OpAt(first, tc == TypeClass::kI1 ? 0 : static_cast<int>(tc) - 1);
}

/// 0, 1 or 2 for the 8-, 16- and 32-bit widths a sign-extending load reads.
int WidthIndex(unsigned bits) { return bits == 8 ? 0 : bits == 16 ? 1 : 2; }

/// Whether a sign extension to i64 of a load of this type can fold into the
/// load (load_idx_sext_iN_i64, br_load_sext_iN_*): the narrow integer widths
/// a scan column is stored at.
bool IsWidenableLoadType(const llvm::Type* type) {
  return type->isIntegerTy(8) || type->isIntegerTy(16) ||
         type->isIntegerTy(32);
}

/// Position of an integer predicate in each of the VM's predicate groups
/// (eq, ne, slt, sle, sgt, sge, ult, ule, ugt, uge), or -1.
int PredicateIndex(llvm::CmpInst::Predicate pred) {
  static constexpr llvm::CmpInst::Predicate kOrder[] = {
      llvm::CmpInst::ICMP_EQ,  llvm::CmpInst::ICMP_NE,
      llvm::CmpInst::ICMP_SLT, llvm::CmpInst::ICMP_SLE,
      llvm::CmpInst::ICMP_SGT, llvm::CmpInst::ICMP_SGE,
      llvm::CmpInst::ICMP_ULT, llvm::CmpInst::ICMP_ULE,
      llvm::CmpInst::ICMP_UGT, llvm::CmpInst::ICMP_UGE};
  for (int i = 0; i < 10; ++i) {
    if (kOrder[i] == pred) return i;
  }
  return -1;
}

/// The compare-and-branch superinstruction of `cmp`, with its operands
/// swapped when `mirror` (x < buf[i] is buf[i] > x), reading its LHS from
/// `load` when given: an indexed load of the compare's width (br_load_*) or
/// one of 8, 16 or 32 bits widened to an i64 compare (br_load_sext_iN_*).
/// kNumOpcodes when there is none: i32, i64 and pointer compares and the
/// f64 olt/ogt have fused forms, and only integer compares read a load.
Opcode CmpBranchOpcode(const llvm::CmpInst& cmp, bool mirror,
                       const llvm::LoadInst* load) {
  const llvm::Type* type = cmp.getOperand(0)->getType();
  const llvm::CmpInst::Predicate pred =
      mirror ? cmp.getSwappedPredicate() : cmp.getPredicate();
  if (llvm::isa<llvm::FCmpInst>(cmp)) {
    if (!type->isDoubleTy() || load != nullptr) return Opcode::kNumOpcodes;
    if (pred == llvm::CmpInst::FCMP_OLT) return Opcode::k_br_folt_f64;
    if (pred == llvm::CmpInst::FCMP_OGT) return Opcode::k_br_fogt_f64;
    return Opcode::kNumOpcodes;
  }
  const bool is64 = type->isIntegerTy(64) || type->isPointerTy();
  const int index = PredicateIndex(pred);
  if ((!is64 && !type->isIntegerTy(32)) || index < 0) {
    return Opcode::kNumOpcodes;
  }
  const int form = 2 * index + (is64 ? 1 : 0);
  if (load == nullptr) return OpAt(Opcode::k_br_eq_i32, form);
  const unsigned bits = load->getType()->getIntegerBitWidth();
  if (bits == (is64 ? 64u : 32u)) return OpAt(Opcode::k_br_load_eq_i32, form);
  if (!is64) return Opcode::kNumOpcodes;
  return OpAt(Opcode::k_br_load_sext_i8_eq_i64, 10 * WidthIndex(bits) + index);
}

/// The overflow-checked intrinsic `call` invokes, or not_intrinsic.
llvm::Intrinsic::ID OverflowIntrinsic(const llvm::CallInst& call) {
  const llvm::Function* callee = call.getCalledFunction();
  const llvm::Intrinsic::ID id = callee != nullptr
                                      ? callee->getIntrinsicID()
                                      : llvm::Intrinsic::not_intrinsic;
  return id == llvm::Intrinsic::sadd_with_overflow ||
                 id == llvm::Intrinsic::ssub_with_overflow ||
                 id == llvm::Intrinsic::smul_with_overflow
             ? id
             : llvm::Intrinsic::not_intrinsic;
}

/// What an LLVM instruction emits, as selection decided it. The forms up to
/// kPairValue own a register; the rest do not.
enum class Form : uint8_t {
  kOwn,           ///< its own opcode form, in place
  kWideningLoad,  ///< a sext: load_idx_sext_iN_i64 of its folded load
  kOverflowPair,  ///< an unfused overflow intrinsic: value and flag slots
  kPairValue,     ///< a fused pair's value extract: the macro op's result
  kOverflowOp,    ///< a fused pair's call: the *_ovf_br_* macro op
  kContinue,      ///< the branch a fused pair owns: its continue edge
  kBranchChain,   ///< a branch on a conjunction: one branch per leaf
  kFusedCompare,  ///< nothing in place; the branch `by` emits it as a br_*
  kSwallowed,     ///< nothing; `by` emits its work
};

constexpr uint32_t kNoReg = ~0u;

/// The one record selection keeps per LLVM instruction (an argument's is
/// always kOwn), and its register state while emission runs. Every
/// instruction reads its operands at emission, in place or through the user
/// that swallowed it, so a block-local register's use count is its LLVM use
/// count.
struct Record {
  Form form = Form::kOwn;
  bool mirror = false;  ///< kFusedCompare: the folded load is the RHS
  Opcode op = Opcode::kNumOpcodes;  ///< kFusedCompare: the br_* it emits
  /// The user that swallowed it (kFusedCompare, kPairValue, kSwallowed).
  const llvm::Instruction* by = nullptr;
  /// The operand it folds in: a load or store's GEP, a fused compare's or a
  /// widening sext's load; for kOverflowOp, its value extract (may be null).
  const llvm::Instruction* folded = nullptr;
  uint32_t writes = 0;  ///< memory writes before it in its block
  uint32_t reg = kNoReg;
  uint32_t flag_reg = kNoReg;  ///< kOverflowPair
  int uses = -1;  ///< a block-local value's uses left; -1 for the rest
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
  /// Whether every operand fit its 16-bit instruction field.
  bool fits() const { return fits_; }

 private:
  // --- selection ------------------------------------------------------------
  void Select();
  bool SelectOverflowPair(const llvm::BranchInst& br);
  void SelectCompare(const llvm::Value* v, const llvm::BranchInst& br);
  const llvm::LoadInst* FoldableCompareLoad(const llvm::Value* v,
                                            const llvm::BranchInst& br);
  const llvm::GetElementPtrInst* FoldedGep(const llvm::Instruction& access,
                                           const llvm::Value* ptr) const;
  bool NoWriteBetween(const llvm::Instruction* a, const llvm::Instruction* b) {
    return Rec(b).writes == Rec(a).writes + (a->mayWriteToMemory() ? 1 : 0);
  }
  void Swallow(const llvm::Instruction* inst, const llvm::Instruction* by) {
    Record& rec = Rec(inst);
    rec.form = Form::kSwallowed;
    rec.by = by;
    ++program_.fused_instructions;
  }
  void BuildRangeLists();

  // --- register handling ----------------------------------------------------
  Record& Rec(const llvm::Value* v) {
    auto it = records_.find(v);
    AQE_CHECK_MSG(it != records_.end(), "value outside the selected blocks");
    return it->second;
  }
  bool IsSingleBlock(const llvm::Value* v) const {
    const LiveRange& r = live_.range(v);
    return r.start == r.end;
  }
  uint32_t AllocFor(const llvm::Value* v);
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
    fits_ &= (a1 | a2 | a3) <= 0xFFFF;
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
  void TranslateInstruction(const llvm::Instruction& inst, uint32_t dst);
  void TranslateBinary(const llvm::BinaryOperator& bin, uint32_t dst);
  void TranslateICmp(const llvm::ICmpInst& cmp, uint32_t dst);
  void TranslateFCmp(const llvm::FCmpInst& cmp, uint32_t dst);
  void TranslateCast(const llvm::CastInst& cast, uint32_t dst);
  void TranslateCall(const llvm::CallInst& call, uint32_t dst);
  void TranslateOverflow(const llvm::CallInst& call, Record& rec);
  void TranslateExtractValue(const llvm::ExtractValueInst& ev, uint32_t dst);
  void TranslateSelect(const llvm::SelectInst& sel, uint32_t dst);
  void TranslateTerminator(const llvm::Instruction& term);

  /// The address operands of a memory access, read in order (base, then
  /// index): a folded GEP's base, variable index and packed scale/offset (a
  /// constant index folds into the offset, with scale 0 and slot 0), or
  /// else the pointer's register at offset 0.
  struct Address {
    uint32_t base = 0;
    uint32_t index = 0;
    bool indexed = false;
    uint64_t lit = 0;
  };
  Address UseAddress(const llvm::Value* ptr,
                     const llvm::GetElementPtrInst* gep);

  /// Emits a conditional branch as a chain of one branch per leaf of its
  /// condition (one leaf unless `chain`) and patches its two edges.
  void EmitCondBranch(const llvm::BranchInst& br, bool chain);
  /// Emits one chain element: the fused compare-and-branch of a
  /// kFusedCompare leaf, or a condbr on the leaf's register. Branch targets
  /// are left for the caller to patch.
  uint32_t EmitLeaf(const llvm::Value* leaf);

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

  llvm::DenseMap<const llvm::Value*, Record> records_;
  std::unordered_map<uint64_t, uint32_t> const_slots_;  // keys may be ~0, unsafe for DenseMap
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
  bool fits_ = true;
};

// --- selection ---------------------------------------------------------------

/// Selects every instruction once, block by block and bottom-up, so each
/// consumer claims its operands before they are visited: the terminator
/// claims an overflow pair, else a conjunction's leaves as a branch chain,
/// else its single-use compare; a fused compare claims its load (and the
/// sext between them), before a sext can claim that load as a widening
/// load; a load or store claims its GEP. A load's read moves to its
/// consumer, so no memory write may lie between them.
void Translator::Select() {
  records_.reserve(fn_.arg_size() + fn_.getInstructionCount());
  for (const llvm::Argument& arg : fn_.args()) records_[&arg];
  for (int label = 0; label < cfg_.num_blocks(); ++label) {
    const llvm::BasicBlock& bb = *cfg_.BlockAt(label);
    uint32_t writes = 0;
    for (const llvm::Instruction& inst : bb) {
      records_[&inst].writes = writes;
      writes += inst.mayWriteToMemory() ? 1 : 0;
    }
    const auto* br = llvm::dyn_cast<llvm::BranchInst>(bb.getTerminator());
    if (br != nullptr && br->isConditional() &&
        !(options_.fuse_macro_ops && SelectOverflowPair(*br)) &&
        options_.fuse_cmp_branches) {
      // A filter like `a >= x && a < y && b < z` reaches the translator as
      // an and-tree feeding one condbr. Splitting it into a chain of
      // branches lets every fusable leaf become its own br_*/br_load_* and
      // the first failing term exit the row. Done here rather than in
      // codegen so the JIT keeps the branch-free and-tree, which LLVM can
      // vectorize. An interior node must be consumed only by its parent
      // (or the branch) and live in this block.
      const auto chain_node = [&bb](const llvm::Value* v) {
        const auto* bin = llvm::dyn_cast<llvm::BinaryOperator>(v);
        return bin != nullptr && bin->getOpcode() == llvm::Instruction::And &&
                       bin->getType()->isIntegerTy(1) &&
                       bin->getParent() == &bb && bin->hasOneUse()
                   ? bin
                   : nullptr;
      };
      if (options_.fuse_branch_chains && chain_node(br->getCondition())) {
        Rec(br).form = Form::kBranchChain;
        llvm::SmallVector<const llvm::Value*, 8> work{br->getCondition()};
        while (!work.empty()) {
          const llvm::Value* v = work.pop_back_val();
          if (const llvm::BinaryOperator* node = chain_node(v)) {
            Swallow(node, br);
            work.push_back(node->getOperand(1));
            work.push_back(node->getOperand(0));
          } else {
            SelectCompare(v, *br);
          }
        }
      } else {
        SelectCompare(br->getCondition(), *br);
      }
    }
    for (auto it = ++bb.rbegin(); it != bb.rend(); ++it) {
      const llvm::Instruction& inst = *it;
      if (const llvm::Value* ptr = llvm::getLoadStorePointerOperand(&inst)) {
        if (const auto* gep = FoldedGep(inst, ptr)) {
          Rec(&inst).folded = gep;
          Swallow(gep, &inst);
        }
      } else if (const auto* call = llvm::dyn_cast<llvm::CallInst>(&inst)) {
        Record& rec = Rec(&inst);
        if (rec.form == Form::kOwn &&
            OverflowIntrinsic(*call) != llvm::Intrinsic::not_intrinsic) {
          rec.form = Form::kOverflowPair;
        }
      } else if (llvm::isa<llvm::SExtInst>(inst) &&
                 inst.getType()->isIntegerTy(64) && options_.fuse_macro_ops) {
        // A scan widens every narrow column value right after loading it
        // (`sext (load iN (gep base, i))`): when the sext is the load's only
        // user, it emits one widening load and the load vanishes.
        const auto* load = llvm::dyn_cast<llvm::LoadInst>(inst.getOperand(0));
        Record& rec = Rec(&inst);
        if (rec.form == Form::kOwn && load != nullptr &&
            load->getParent() == &bb && IsWidenableLoadType(load->getType()) &&
            load->hasOneUse() && FoldedGep(*load, load->getPointerOperand()) &&
            NoWriteBetween(load, &inst)) {
          rec.form = Form::kWideningLoad;
          rec.folded = load;
          Swallow(load, &inst);
        }
      }
    }
  }
}

/// An overflow-checked intrinsic whose flag only feeds this block's
/// conditional branch becomes one *_ovf_br_* macro op: the call emits it,
/// its value extract owns the result, and the branch keeps only its
/// continue edge. Only the call's extracts may lie between the call and
/// the branch (the macro op branches early, so nothing may be skipped), and
/// the overflow side must need no phi copies.
bool Translator::SelectOverflowPair(const llvm::BranchInst& br) {
  const auto* flag = llvm::dyn_cast<llvm::ExtractValueInst>(br.getCondition());
  const auto* call = flag != nullptr ? llvm::dyn_cast<llvm::CallInst>(
                                           flag->getAggregateOperand())
                                     : nullptr;
  if (call == nullptr || call->getParent() != br.getParent() ||
      OverflowIntrinsic(*call) == llvm::Intrinsic::not_intrinsic ||
      !flag->hasOneUse()) {
    return false;
  }
  // The value extract (index 0) and the flag extract, at most one each.
  const llvm::ExtractValueInst* extracts[2] = {nullptr, nullptr};
  for (const llvm::User* user : call->users()) {
    const auto* ev = llvm::dyn_cast<llvm::ExtractValueInst>(user);
    if (ev == nullptr || ev->getParent() != br.getParent() ||
        ev->getNumIndices() != 1) {
      return false;
    }
    const llvm::ExtractValueInst*& slot =
        extracts[ev->getIndices()[0] == 0 ? 0 : 1];
    if (slot != nullptr) return false;
    slot = ev;
  }
  if (extracts[1] != flag) return false;
  for (const llvm::Instruction* cur = call->getNextNode(); cur != &br;
       cur = cur->getNextNode()) {
    const auto* ev = llvm::dyn_cast<llvm::ExtractValueInst>(cur);
    if (ev == nullptr || ev->getAggregateOperand() != call) return false;
  }
  if (llvm::isa<llvm::PHINode>(br.getSuccessor(0)->front())) return false;
  Record& rec = Rec(call);
  rec.form = Form::kOverflowOp;
  rec.folded = extracts[0];
  if (extracts[0] != nullptr) {
    Rec(extracts[0]).form = Form::kPairValue;
    Rec(extracts[0]).by = call;
  }
  Rec(flag).form = Form::kSwallowed;
  Rec(flag).by = call;
  Rec(&br).form = Form::kContinue;
  program_.fused_instructions += 3;  // extracts + condbr folded
  return true;
}

/// A single-use compare in the branch's block fuses into the branch (or its
/// chain element) as one compare-and-branch; with the third tier on, it
/// also folds a load on its LHS or, mirrored, its RHS.
void Translator::SelectCompare(const llvm::Value* v,
                               const llvm::BranchInst& br) {
  const auto* cmp = llvm::dyn_cast<llvm::CmpInst>(v);
  if (cmp == nullptr || cmp->getParent() != br.getParent() ||
      !cmp->hasOneUse()) {
    return;
  }
  const Opcode op = CmpBranchOpcode(*cmp, /*mirror=*/false, nullptr);
  if (op == Opcode::kNumOpcodes) return;
  Record& rec = Rec(cmp);
  rec.form = Form::kFusedCompare;
  rec.by = &br;
  rec.op = op;
  ++program_.fused_instructions;
  ++program_.fused_cmp_branches;
  if (!options_.fuse_macro_ops || !options_.fuse_load_cmp_branches) return;
  const llvm::LoadInst* load = FoldableCompareLoad(cmp->getOperand(0), br);
  const bool mirror = load == nullptr;
  if (mirror) load = FoldableCompareLoad(cmp->getOperand(1), br);
  if (load == nullptr) return;
  const Opcode load_op = CmpBranchOpcode(*cmp, mirror, load);
  if (load_op == Opcode::kNumOpcodes) return;
  rec.op = load_op;
  rec.mirror = mirror;
  rec.folded = load;
  Swallow(load, cmp);
  const llvm::Value* operand = cmp->getOperand(mirror ? 1 : 0);
  if (operand != load) Swallow(llvm::cast<llvm::Instruction>(operand), cmp);
  ++program_.fused_load_cmp_branches;
}

/// The load a fused compare can fold through `v`: a single-use indexed load
/// of i32 or i64, or of 8, 16 or 32 bits behind a single-use sext to i64,
/// in the branch's block, with no memory write before the branch. The
/// br_load_* encoding has no scale/offset field (lit carries the branch
/// targets), so its GEP must have a variable index and the loaded type.
const llvm::LoadInst* Translator::FoldableCompareLoad(
    const llvm::Value* v, const llvm::BranchInst& br) {
  const llvm::BasicBlock* bb = br.getParent();
  const auto* sext = llvm::dyn_cast<llvm::SExtInst>(v);
  if (sext != nullptr) {
    if (sext->getParent() != bb || !sext->hasOneUse() ||
        !sext->getType()->isIntegerTy(64) ||
        !IsWidenableLoadType(sext->getOperand(0)->getType())) {
      return nullptr;
    }
    v = sext->getOperand(0);
  }
  const auto* load = llvm::dyn_cast<llvm::LoadInst>(v);
  if (load == nullptr || load->getParent() != bb || !load->hasOneUse()) {
    return nullptr;
  }
  const llvm::Type* ty = load->getType();
  if (sext == nullptr && !ty->isIntegerTy(32) && !ty->isIntegerTy(64)) {
    return nullptr;
  }
  const llvm::GetElementPtrInst* gep =
      FoldedGep(*load, load->getPointerOperand());
  if (gep == nullptr || gep->getNumIndices() != 1 ||
      gep->getSourceElementType() != ty ||
      llvm::isa<llvm::ConstantInt>(gep->getOperand(1)) ||
      !NoWriteBetween(load, &br)) {
    return nullptr;
  }
  return load;
}

/// The GEP a load or store folds into its address: `ptr`'s GEP when the
/// access is its only use, in the same block.
const llvm::GetElementPtrInst* Translator::FoldedGep(
    const llvm::Instruction& access, const llvm::Value* ptr) const {
  const auto* gep = llvm::dyn_cast<llvm::GetElementPtrInst>(ptr);
  if (!options_.fuse_macro_ops || gep == nullptr || !gep->hasOneUse() ||
      gep->getParent() != access.getParent()) {
    return nullptr;
  }
  return gep;
}

void Translator::BuildRangeLists() {
  int n = cfg_.num_blocks();
  alloc_at_entry_.assign(static_cast<size_t>(n), {});
  release_at_end_.assign(static_cast<size_t>(n), {});
  for (const llvm::Value* v : live_.values()) {
    if (Rec(v).form > Form::kPairValue) continue;  // owns no register
    const LiveRange& r = live_.range(v);
    if (r.start == r.end && !llvm::isa<llvm::Argument>(v)) {
      continue;  // allocated at definition
    }
    alloc_at_entry_[static_cast<size_t>(r.start)].push_back(v);
    release_at_end_[static_cast<size_t>(r.end)].push_back(v);
  }
}

// --- registers ---------------------------------------------------------------

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

uint32_t Translator::AllocFor(const llvm::Value* v) {
  const LiveRange& r = live_.range(v);
  Record& rec = Rec(v);
  rec.reg = alloc_.Alloc(r.start, r.end);
  // A value confined to one block releases its register after its last use
  // ("release them when the last user of that value is gone", §IV-B)
  // instead of waiting for the block end.
  if (r.start == r.end && llvm::isa<llvm::Instruction>(v)) {
    rec.uses = static_cast<int>(v->getNumUses());
  }
  return rec.reg;
}

uint32_t Translator::GetReg(const llvm::Value* v) {
  if (const auto* c = llvm::dyn_cast<llvm::Constant>(v)) {
    return ConstOperandSlot(c);
  }
  const uint32_t reg = Rec(v).reg;
  AQE_CHECK_MSG(reg != kNoReg, "operand without register");
  return reg;
}

uint32_t Translator::UseReg(const llvm::Value* v) {
  if (const auto* c = llvm::dyn_cast<llvm::Constant>(v)) {
    return ConstOperandSlot(c);
  }
  Record& rec = Rec(v);
  AQE_CHECK_MSG(rec.reg != kNoReg, "operand without register");
  const uint32_t reg = rec.reg;
  if (rec.uses >= 0) {
    AQE_CHECK_MSG(rec.uses > 0, "block-local use count underflow");
    if (--rec.uses == 0) ReleaseValue(v);
  }
  return reg;
}

void Translator::ReleaseValue(const llvm::Value* v) {
  const LiveRange& r = live_.range(v);
  const Record& rec = Rec(v);
  if (rec.reg == kNoReg) return;
  alloc_.Release(rec.reg, r.start, r.end);
  if (rec.flag_reg != kNoReg) alloc_.Release(rec.flag_reg, r.start, r.end);
}

// --- per-instruction translation ---------------------------------------------

void Translator::TranslateBinary(const llvm::BinaryOperator& bin,
                                 uint32_t dst) {
  TypeClass tc = ClassifyType(bin.getType());
  uint32_t a2 = UseReg(bin.getOperand(0));
  uint32_t a3 = UseReg(bin.getOperand(1));
  const int wide = tc == TypeClass::kI32 ? 0 : 1;  // the i32 or i64 form
  const int bitwise = tc == TypeClass::kI1 ? 0 : 1 + wide;  // i1, i32, i64
  Opcode op;
  switch (bin.getOpcode()) {
    case llvm::Instruction::Add: op = OpAt(Opcode::k_add_i32, wide); break;
    case llvm::Instruction::Sub: op = OpAt(Opcode::k_sub_i32, wide); break;
    case llvm::Instruction::Mul: op = OpAt(Opcode::k_mul_i32, wide); break;
    case llvm::Instruction::SDiv: op = OpAt(Opcode::k_sdiv_i32, wide); break;
    case llvm::Instruction::UDiv: op = OpAt(Opcode::k_udiv_i32, wide); break;
    case llvm::Instruction::SRem: op = OpAt(Opcode::k_srem_i32, wide); break;
    case llvm::Instruction::URem: op = OpAt(Opcode::k_urem_i32, wide); break;
    case llvm::Instruction::And: op = OpAt(Opcode::k_and_i1, bitwise); break;
    case llvm::Instruction::Or: op = OpAt(Opcode::k_or_i1, bitwise); break;
    case llvm::Instruction::Xor: op = OpAt(Opcode::k_xor_i1, bitwise); break;
    case llvm::Instruction::Shl: op = OpAt(Opcode::k_shl_i32, wide); break;
    case llvm::Instruction::LShr: op = OpAt(Opcode::k_lshr_i32, wide); break;
    case llvm::Instruction::AShr: op = OpAt(Opcode::k_ashr_i32, wide); break;
    case llvm::Instruction::FAdd: op = Opcode::k_fadd_f64; break;
    case llvm::Instruction::FSub: op = Opcode::k_fsub_f64; break;
    case llvm::Instruction::FMul: op = Opcode::k_fmul_f64; break;
    case llvm::Instruction::FDiv: op = Opcode::k_fdiv_f64; break;
    default:
      AQE_UNREACHABLE("unsupported binary operator");
  }
  Emit(op, dst, a2, a3);
}

void Translator::TranslateICmp(const llvm::ICmpInst& cmp, uint32_t dst) {
  TypeClass tc = ClassifyType(cmp.getOperand(0)->getType());
  AQE_CHECK_MSG(tc == TypeClass::kI32 || tc == TypeClass::kI64,
                "icmp on unsupported width");
  uint32_t a2 = UseReg(cmp.getOperand(0));
  uint32_t a3 = UseReg(cmp.getOperand(1));
  const int index = PredicateIndex(cmp.getPredicate());
  AQE_CHECK_MSG(index >= 0, "unsupported icmp predicate");
  Emit(OpAt(Opcode::k_icmp_eq_i32, 2 * index + (tc == TypeClass::kI64 ? 1 : 0)),
       dst, a2, a3);
}

void Translator::TranslateFCmp(const llvm::FCmpInst& cmp, uint32_t dst) {
  uint32_t a2 = UseReg(cmp.getOperand(0));
  uint32_t a3 = UseReg(cmp.getOperand(1));
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
  Emit(op, dst, a2, a3);
}

void Translator::TranslateCast(const llvm::CastInst& cast, uint32_t dst) {
  using I = llvm::Instruction;
  using T = TypeClass;
  struct CastForm {
    unsigned cast;
    TypeClass from, to;
    Opcode op;
  };
  // Pointers classify as i64, so a pointer bitcast or an int/pointer cast
  // is a move.
  static constexpr CastForm kForms[] = {
      {I::SExt, T::kI32, T::kI64, Opcode::k_sext_i32_i64},
      {I::SExt, T::kI1, T::kI64, Opcode::k_sext_i1_i64},
      {I::SExt, T::kI8, T::kI64, Opcode::k_sext_i8_i64},
      {I::SExt, T::kI8, T::kI32, Opcode::k_sext_i8_i32},
      {I::SExt, T::kI16, T::kI64, Opcode::k_sext_i16_i64},
      {I::SExt, T::kI16, T::kI32, Opcode::k_sext_i16_i32},
      {I::ZExt, T::kI1, T::kI8, Opcode::k_zext_i1_i8},
      {I::ZExt, T::kI1, T::kI32, Opcode::k_zext_i1_i32},
      {I::ZExt, T::kI1, T::kI64, Opcode::k_zext_i1_i64},
      {I::ZExt, T::kI8, T::kI32, Opcode::k_zext_i8_i32},
      {I::ZExt, T::kI8, T::kI64, Opcode::k_zext_i8_i64},
      {I::ZExt, T::kI16, T::kI32, Opcode::k_zext_i16_i32},
      {I::ZExt, T::kI16, T::kI64, Opcode::k_zext_i16_i64},
      {I::ZExt, T::kI32, T::kI64, Opcode::k_zext_i32_i64},
      {I::Trunc, T::kI64, T::kI32, Opcode::k_trunc_i64_i32},
      {I::Trunc, T::kI64, T::kI16, Opcode::k_trunc_i64_i16},
      {I::Trunc, T::kI64, T::kI8, Opcode::k_trunc_i64_i8},
      {I::Trunc, T::kI64, T::kI1, Opcode::k_trunc_i64_i1},
      {I::Trunc, T::kI32, T::kI16, Opcode::k_trunc_i32_i16},
      {I::Trunc, T::kI32, T::kI8, Opcode::k_trunc_i32_i8},
      {I::Trunc, T::kI32, T::kI1, Opcode::k_trunc_i32_i1},
      {I::SIToFP, T::kI32, T::kF64, Opcode::k_sitofp_i32_f64},
      {I::SIToFP, T::kI64, T::kF64, Opcode::k_sitofp_i64_f64},
      {I::UIToFP, T::kI64, T::kF64, Opcode::k_uitofp_i64_f64},
      {I::FPToSI, T::kF64, T::kI64, Opcode::k_fptosi_f64_i64},
      {I::FPToSI, T::kF64, T::kI32, Opcode::k_fptosi_f64_i32},
      {I::BitCast, T::kI64, T::kF64, Opcode::k_bitcast_i64_f64},
      {I::BitCast, T::kF64, T::kI64, Opcode::k_bitcast_f64_i64},
      {I::BitCast, T::kI64, T::kI64, Opcode::k_mov64},
      {I::PtrToInt, T::kI64, T::kI64, Opcode::k_mov64},
      {I::IntToPtr, T::kI64, T::kI64, Opcode::k_mov64},
  };
  const TypeClass from = ClassifyType(cast.getSrcTy());
  const TypeClass to = ClassifyType(cast.getDestTy());
  uint32_t a2 = UseReg(cast.getOperand(0));
  for (const CastForm& form : kForms) {
    if (form.cast == cast.getOpcode() && form.from == from && form.to == to) {
      Emit(form.op, dst, a2);
      return;
    }
  }
  AQE_UNREACHABLE("unsupported cast in bytecode translation");
}

Translator::Address Translator::UseAddress(
    const llvm::Value* ptr, const llvm::GetElementPtrInst* gep) {
  Address address;
  if (gep == nullptr) {
    address.base = UseReg(ptr);
    return address;
  }
  AQE_CHECK_MSG(gep->getNumIndices() == 1,
                "bytecode translation supports single-index GEPs only");
  const llvm::Type* elem = gep->getSourceElementType();
  AQE_CHECK_MSG(elem->isIntegerTy() || elem->isDoubleTy() ||
                    elem->isPointerTy(),
                "GEP element type must be scalar");
  // i1 arrays are byte-addressed.
  const uint32_t scale =
      elem->isIntegerTy() ? std::max(elem->getIntegerBitWidth() / 8, 1u) : 8;
  address.base = UseReg(gep->getPointerOperand());
  const llvm::Value* index = gep->getOperand(1);
  if (const auto* ci = llvm::dyn_cast<llvm::ConstantInt>(index)) {
    address.lit = PackScaleOffset(
        0, static_cast<int32_t>(ci->getSExtValue() *
                                static_cast<int64_t>(scale)));
  } else {
    address.indexed = true;
    address.index = UseReg(index);
    address.lit = PackScaleOffset(scale, 0);
  }
  return address;
}

void Translator::TranslateOverflow(const llvm::CallInst& call, Record& rec) {
  const llvm::Intrinsic::ID id = OverflowIntrinsic(call);
  TypeClass tc = ClassifyType(call.getArgOperand(0)->getType());
  AQE_CHECK(tc == TypeClass::kI32 || tc == TypeClass::kI64);
  const int form =
      (id == llvm::Intrinsic::sadd_with_overflow   ? 0
       : id == llvm::Intrinsic::ssub_with_overflow ? 2
                                                   : 4) +
      (tc == TypeClass::kI64 ? 1 : 0);
  uint32_t a2 = UseReg(call.getArgOperand(0));
  uint32_t a3 = UseReg(call.getArgOperand(1));
  if (rec.form == Form::kOverflowOp) {
    // §IV-F macro op: compute + branch-to-overflow in one VM instruction.
    // The value extract owns the destination (allocated here, at the macro
    // op, when block-local); an unused result writes the scratch register.
    uint32_t a1 = scratch_reg_;
    if (rec.folded != nullptr) {
      a1 = Rec(rec.folded).reg != kNoReg ? Rec(rec.folded).reg
                                         : AllocFor(rec.folded);
    }
    AddFixup(Emit(OpAt(Opcode::k_sadd_ovf_br_i32, form), a1, a2, a3),
             /*field=*/0, call.getParent()->getTerminator()->getSuccessor(0));
    return;
  }
  // Unfused: the pair gets two registers (value, flag); extractvalue copies
  // out of them. A multi-block pair got its value slot at block entry.
  const uint32_t value = rec.reg != kNoReg ? rec.reg : AllocFor(&call);
  const LiveRange& r = live_.range(&call);
  rec.flag_reg = alloc_.Alloc(r.start, r.end);
  Emit(OpAt(Opcode::k_sadd_ovf_i32, form), value, a2, a3, rec.flag_reg);
}

void Translator::TranslateExtractValue(const llvm::ExtractValueInst& ev,
                                       uint32_t dst) {
  // Only {iN, i1} overflow pairs reach here (unfused path).
  const llvm::Value* agg = ev.getAggregateOperand();
  const Record& pair = Rec(agg);
  AQE_CHECK_MSG(pair.flag_reg != kNoReg,
                "extractvalue of unsupported aggregate");
  AQE_CHECK(ev.getNumIndices() == 1);
  uint32_t src = ev.getIndices()[0] == 0 ? pair.reg : pair.flag_reg;
  UseReg(agg);  // account for the use of the pair value
  Emit(Opcode::k_mov64, dst, src);
}

void Translator::TranslateCall(const llvm::CallInst& call, uint32_t dst) {
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
      Emit(OpAt(Opcode::k_call_i64_0, nargs), dst, a2, a3, target);
    } else {
      // Shift args down: a1/a2 carry the argument registers.
      Emit(OpAt(Opcode::k_call_void_0, nargs), a2, a3, 0, target);
    }
    return;
  }
  for (int i = 0; i < nargs; ++i) {
    Emit(Opcode::k_push_arg, UseReg(call.getArgOperand(i)));
  }
  if (returns_value) {
    Emit(Opcode::k_call_i64_n, dst, static_cast<uint32_t>(nargs), 0, target);
  } else {
    Emit(Opcode::k_call_void_n, 0, static_cast<uint32_t>(nargs), 0, target);
  }
}

void Translator::TranslateSelect(const llvm::SelectInst& sel, uint32_t dst) {
  TypeClass tc = ClassifyType(sel.getType());
  uint32_t cond = UseReg(sel.getCondition());
  uint32_t tval = UseReg(sel.getTrueValue());
  uint32_t fval = UseReg(sel.getFalseValue());
  // Encoding: a1 = dst, a2 = cond, a3 = true value, lit = false-value reg.
  Emit(tc == TypeClass::kI32   ? Opcode::k_select_i32
       : tc == TypeClass::kF64 ? Opcode::k_select_f64
                               : Opcode::k_select_i64,  // i64 + pointers
       dst, cond, tval, fval);
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
    uint32_t dst = GetReg(&phi);
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

uint32_t Translator::EmitLeaf(const llvm::Value* leaf) {
  const auto* cmp = llvm::dyn_cast<llvm::CmpInst>(leaf);
  const Record* rec = cmp != nullptr ? &Rec(cmp) : nullptr;
  if (rec == nullptr || rec->form != Form::kFusedCompare) {
    return Emit(Opcode::k_condbr, UseReg(leaf));
  }
  if (rec->folded == nullptr) {
    uint32_t a2 = UseReg(cmp->getOperand(0));
    uint32_t a3 = UseReg(cmp->getOperand(1));
    return Emit(rec->op, 0, a2, a3);
  }
  // Load-compare-and-branch tier: the load (or its sign extension) supplies
  // the LHS, mirrored into place if it was the RHS; a2/a3 carry the folded
  // GEP's base/index, a1 the other operand's register.
  const llvm::Value* ptr =
      llvm::cast<llvm::LoadInst>(rec->folded)->getPointerOperand();
  const Address address =
      UseAddress(ptr, llvm::cast<llvm::GetElementPtrInst>(ptr));
  return Emit(rec->op, UseReg(cmp->getOperand(rec->mirror ? 0 : 1)),
              address.base, address.index);
}

void Translator::EmitCondBranch(const llvm::BranchInst& br, bool chain) {
  // Passing a test falls through to the next chain element; the last
  // element's pass-edge is the real then-successor, and every element's
  // fail-edge is the shared else-successor. Phi copies are valid before any
  // element because all elements target the same two successors.
  const llvm::BasicBlock* bb = br.getParent();
  llvm::SmallVector<uint32_t, 8> indices;
  llvm::SmallVector<const llvm::Value*, 8> work{br.getCondition()};
  while (!work.empty()) {
    const llvm::Value* v = work.pop_back_val();
    const auto* node = chain ? llvm::dyn_cast<llvm::Instruction>(v) : nullptr;
    if (node != nullptr && Rec(node).by == &br &&
        Rec(node).form == Form::kSwallowed) {  // an `and` of the chain
      work.push_back(node->getOperand(1));
      work.push_back(node->getOperand(0));
      continue;
    }
    uint32_t index = EmitLeaf(v);
    if (!indices.empty()) SetThenTarget(indices.back(), index);
    indices.push_back(index);
  }
  const llvm::BasicBlock* then_bb = br.getSuccessor(0);
  const llvm::BasicBlock* else_bb = br.getSuccessor(1);
  if (llvm::isa<llvm::PHINode>(then_bb->front())) {
    SetThenTarget(indices.back(), static_cast<uint32_t>(program_.code.size()));
    EmitPhiCopies(bb, then_bb);
    EmitBranchTo(then_bb);
  } else {
    AddFixup(indices.back(), /*field=*/1, then_bb);
  }
  if (llvm::isa<llvm::PHINode>(else_bb->front())) {
    const uint32_t stub = static_cast<uint32_t>(program_.code.size());
    EmitPhiCopies(bb, else_bb);
    EmitBranchTo(else_bb);
    for (uint32_t index : indices) SetElseTarget(index, stub);
  } else {
    for (uint32_t index : indices) AddFixup(index, /*field=*/2, else_bb);
  }
}

void Translator::TranslateTerminator(const llvm::Instruction& term) {
  if (const auto* br = llvm::dyn_cast<llvm::BranchInst>(&term)) {
    if (br->isConditional()) return EmitCondBranch(*br, /*chain=*/false);
    EmitPhiCopies(term.getParent(), br->getSuccessor(0));
    EmitBranchTo(br->getSuccessor(0));
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

void Translator::TranslateInstruction(const llvm::Instruction& inst,
                                      uint32_t dst) {
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
      TranslateBinary(llvm::cast<llvm::BinaryOperator>(inst), dst);
      break;
    case llvm::Instruction::FNeg: {
      uint32_t a2 = UseReg(inst.getOperand(0));
      Emit(Opcode::k_fneg_f64, dst, a2);
      break;
    }
    case llvm::Instruction::ICmp:
      TranslateICmp(llvm::cast<llvm::ICmpInst>(inst), dst);
      break;
    case llvm::Instruction::FCmp:
      TranslateFCmp(llvm::cast<llvm::FCmpInst>(inst), dst);
      break;
    case llvm::Instruction::SExt: case llvm::Instruction::ZExt:
    case llvm::Instruction::Trunc: case llvm::Instruction::SIToFP:
    case llvm::Instruction::UIToFP: case llvm::Instruction::FPToSI:
    case llvm::Instruction::BitCast: case llvm::Instruction::PtrToInt:
    case llvm::Instruction::IntToPtr:
      TranslateCast(llvm::cast<llvm::CastInst>(inst), dst);
      break;
    case llvm::Instruction::Load: {
      const auto& load = llvm::cast<llvm::LoadInst>(inst);
      const Address address = UseAddress(
          load.getPointerOperand(),
          llvm::cast_or_null<llvm::GetElementPtrInst>(Rec(&inst).folded));
      Emit(MemoryOp(address.indexed ? Opcode::k_load_idx_i8 : Opcode::k_load_i8,
                    ClassifyType(load.getType())),
           dst, address.base, address.index, address.lit);
      break;
    }
    case llvm::Instruction::Store: {
      const auto& store = llvm::cast<llvm::StoreInst>(inst);
      const uint32_t value = UseReg(store.getValueOperand());
      const Address address = UseAddress(
          store.getPointerOperand(),
          llvm::cast_or_null<llvm::GetElementPtrInst>(Rec(&inst).folded));
      Emit(MemoryOp(
               address.indexed ? Opcode::k_store_idx_i8 : Opcode::k_store_i8,
               ClassifyType(store.getValueOperand()->getType())),
           value, address.base, address.index, address.lit);
      break;
    }
    case llvm::Instruction::GetElementPtr: {
      const auto* gep = llvm::cast<llvm::GetElementPtrInst>(&inst);
      const Address address = UseAddress(gep, gep);
      Emit(address.indexed ? Opcode::k_gep : Opcode::k_gep_const, dst,
           address.base, address.index, address.lit);
      break;
    }
    case llvm::Instruction::Call:
      TranslateCall(llvm::cast<llvm::CallInst>(inst), dst);
      break;
    case llvm::Instruction::ExtractValue:
      TranslateExtractValue(llvm::cast<llvm::ExtractValueInst>(inst), dst);
      break;
    case llvm::Instruction::Select:
      TranslateSelect(llvm::cast<llvm::SelectInst>(inst), dst);
      break;
    default:
      AQE_UNREACHABLE("unsupported instruction in bytecode translation");
  }
}

void Translator::TranslateBlock(int label) {
  block_start_[static_cast<size_t>(label)] =
      static_cast<uint32_t>(program_.code.size());
  // Allocate registers for values that become live in this block (Fig 9).
  for (const llvm::Value* v :
       alloc_at_entry_[static_cast<size_t>(label)]) {
    if (Rec(v).reg == kNoReg) AllocFor(v);
  }
  const llvm::BasicBlock* bb = cfg_.BlockAt(label);
  for (const llvm::Instruction& inst : *bb) {
    ++program_.source_instructions;
    if (llvm::isa<llvm::PHINode>(inst)) continue;  // copied at edges
    Record& rec = Rec(&inst);
    switch (rec.form) {
      case Form::kFusedCompare:
      case Form::kPairValue:
      case Form::kSwallowed:
        break;
      case Form::kOverflowOp:
      case Form::kOverflowPair:
        TranslateOverflow(llvm::cast<llvm::CallInst>(inst), rec);
        break;
      case Form::kContinue: {
        const llvm::BasicBlock* cont = inst.getSuccessor(1);
        EmitPhiCopies(bb, cont);
        EmitBranchTo(cont);
        break;
      }
      case Form::kBranchChain:
        EmitCondBranch(llvm::cast<llvm::BranchInst>(inst), /*chain=*/true);
        break;
      case Form::kWideningLoad:
      case Form::kOwn: {
        if (inst.isTerminator()) {
          TranslateTerminator(inst);
          break;
        }
        // Block-local values get their register at their definition;
        // multi-block values got theirs at block entry.
        const uint32_t dst = inst.getType()->isVoidTy() || rec.reg != kNoReg ||
                                     !IsSingleBlock(&inst)
                                 ? rec.reg
                                 : AllocFor(&inst);
        if (rec.form == Form::kOwn) {
          TranslateInstruction(inst, dst);
          break;
        }
        const llvm::Value* ptr =
            llvm::cast<llvm::LoadInst>(rec.folded)->getPointerOperand();
        const Address address =
            UseAddress(ptr, llvm::cast<llvm::GetElementPtrInst>(ptr));
        Emit(OpAt(Opcode::k_load_idx_sext_i8_i64,
                  WidthIndex(rec.folded->getType()->getIntegerBitWidth())),
             dst, address.base, address.index, address.lit);
        break;
      }
    }
  }
  // Release registers for values whose lifetime ends here (Fig 9).
  for (const llvm::Value* v : release_at_end_[static_cast<size_t>(label)]) {
    ReleaseValue(v);
  }
}

BcProgram Translator::Run() {
  Select();
  BuildRangeLists();
  block_start_.assign(static_cast<size_t>(cfg_.num_blocks()), 0);
  scratch_reg_ = alloc_.AllocPermanent();

  // Arguments materialize in entry order; the VM copies the incoming values
  // into these registers before executing instruction 0.
  for (const llvm::Argument& arg : fn_.args()) {
    program_.arg_offsets.push_back(AllocFor(&arg));
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
std::atomic<uint64_t> g_fused_load_cmp_branches{0};

}  // namespace

TranslatorCounters TranslatorCountersSnapshot() {
  TranslatorCounters c;
  c.programs = g_programs.load(std::memory_order_relaxed);
  c.bytecode_ops = g_bytecode_ops.load(std::memory_order_relaxed);
  c.fused_instructions = g_fused_instructions.load(std::memory_order_relaxed);
  c.fused_cmp_branches = g_fused_cmp_branches.load(std::memory_order_relaxed);
  c.fused_load_cmp_branches =
      g_fused_load_cmp_branches.load(std::memory_order_relaxed);
  return c;
}

void ResetTranslatorCounters() {
  g_programs.store(0, std::memory_order_relaxed);
  g_bytecode_ops.store(0, std::memory_order_relaxed);
  g_fused_instructions.store(0, std::memory_order_relaxed);
  g_fused_cmp_branches.store(0, std::memory_order_relaxed);
  g_fused_load_cmp_branches.store(0, std::memory_order_relaxed);
}

BcProgram TranslateToBytecode(const llvm::Function& fn,
                              const RuntimeRegistry& registry,
                              const TranslatorOptions& options,
                              Status* status) {
  Translator translator(fn, registry, options);
  BcProgram program = translator.Run();
  if (!translator.fits()) {
    const std::string message =
        "bytecode program needs " +
        std::to_string(program.register_file_size / 8) +
        " register slots; instruction fields address 65536";
    AQE_CHECK_MSG(status != nullptr, message.c_str());
    *status = Status::Error(message);
    return {};
  }
  if (status != nullptr) *status = Status::OK();
  g_programs.fetch_add(1, std::memory_order_relaxed);
  g_bytecode_ops.fetch_add(program.code.size(), std::memory_order_relaxed);
  g_fused_instructions.fetch_add(program.fused_instructions,
                                 std::memory_order_relaxed);
  g_fused_cmp_branches.fetch_add(program.fused_cmp_branches,
                                 std::memory_order_relaxed);
  g_fused_load_cmp_branches.fetch_add(program.fused_load_cmp_branches,
                                      std::memory_order_relaxed);
  return program;
}

}  // namespace aqe
