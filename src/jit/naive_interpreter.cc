#include "jit/naive_interpreter.h"

#include <cstring>

#include <llvm/ADT/DenseMap.h>
#include <llvm/IR/Constants.h>
#include <llvm/IR/Instructions.h>
#include <llvm/IR/IntrinsicInst.h>
#include <llvm/IR/Intrinsics.h>

#include "common/status.h"

namespace aqe {
namespace {

uint64_t MaskTo(uint64_t v, unsigned bits) {
  return bits >= 64 ? v : (v & ((uint64_t{1} << bits) - 1));
}

int64_t SignExt(uint64_t v, unsigned bits) {
  if (bits >= 64) return static_cast<int64_t>(v);
  uint64_t sign = uint64_t{1} << (bits - 1);
  return static_cast<int64_t>((v ^ sign) - sign);
}

double AsDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t FromDouble(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

unsigned BitWidthOf(const llvm::Type* type) {
  if (type->isPointerTy()) return 64;
  if (type->isDoubleTy()) return 64;
  return type->getIntegerBitWidth();
}

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

/// One interpreter activation.
class Frame {
 public:
  Frame(const llvm::Function& fn, const uint64_t* args, int num_args,
        const RuntimeRegistry& registry)
      : fn_(fn), registry_(registry) {
    AQE_CHECK(static_cast<size_t>(num_args) == fn.arg_size());
    for (int i = 0; i < num_args; ++i) {
      values_[fn.getArg(static_cast<unsigned>(i))] = args[i];
    }
  }

  uint64_t Run();

 private:
  uint64_t Eval(const llvm::Value* v) const;
  uint64_t EvalConstant(const llvm::Constant* c) const;
  void Exec(const llvm::Instruction& inst);
  void ExecBinary(const llvm::BinaryOperator& bin);
  void ExecCall(const llvm::CallInst& call);
  uint8_t* EvalGep(const llvm::GetElementPtrInst& gep) const;

  const llvm::Function& fn_;
  const RuntimeRegistry& registry_;
  llvm::DenseMap<const llvm::Value*, uint64_t> values_;
  // Overflow-intrinsic pairs: second (flag) component.
  llvm::DenseMap<const llvm::Value*, uint64_t> pair_flags_;
  const llvm::BasicBlock* block_ = nullptr;
  const llvm::BasicBlock* prev_block_ = nullptr;
  uint64_t result_ = 0;
  bool done_ = false;
};

uint64_t Frame::EvalConstant(const llvm::Constant* c) const {
  if (const auto* ci = llvm::dyn_cast<llvm::ConstantInt>(c)) {
    return ci->getZExtValue();
  }
  if (const auto* cf = llvm::dyn_cast<llvm::ConstantFP>(c)) {
    return cf->getValueAPF().bitcastToAPInt().getZExtValue();
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
      return EvalConstant(llvm::cast<llvm::Constant>(ce->getOperand(0)));
    }
  }
  AQE_UNREACHABLE("unsupported constant in naive interpretation");
}

uint64_t Frame::Eval(const llvm::Value* v) const {
  if (const auto* c = llvm::dyn_cast<llvm::Constant>(v)) {
    return EvalConstant(c);
  }
  auto it = values_.find(v);
  AQE_CHECK_MSG(it != values_.end(), "use of undefined value");
  return it->second;
}

void Frame::ExecBinary(const llvm::BinaryOperator& bin) {
  const llvm::Type* type = bin.getType();
  uint64_t a = Eval(bin.getOperand(0));
  uint64_t b = Eval(bin.getOperand(1));
  if (type->isDoubleTy()) {
    double x = AsDouble(a), y = AsDouble(b), r = 0;
    switch (bin.getOpcode()) {
      case llvm::Instruction::FAdd: r = x + y; break;
      case llvm::Instruction::FSub: r = x - y; break;
      case llvm::Instruction::FMul: r = x * y; break;
      case llvm::Instruction::FDiv: r = x / y; break;
      default: AQE_UNREACHABLE("unsupported fp binop");
    }
    values_[&bin] = FromDouble(r);
    return;
  }
  unsigned bits = BitWidthOf(type);
  uint64_t r = 0;
  switch (bin.getOpcode()) {
    case llvm::Instruction::Add: r = a + b; break;
    case llvm::Instruction::Sub: r = a - b; break;
    case llvm::Instruction::Mul: r = a * b; break;
    case llvm::Instruction::SDiv:
      r = static_cast<uint64_t>(SignExt(a, bits) / SignExt(b, bits));
      break;
    case llvm::Instruction::UDiv: r = MaskTo(a, bits) / MaskTo(b, bits); break;
    case llvm::Instruction::SRem:
      r = static_cast<uint64_t>(SignExt(a, bits) % SignExt(b, bits));
      break;
    case llvm::Instruction::URem: r = MaskTo(a, bits) % MaskTo(b, bits); break;
    case llvm::Instruction::And: r = a & b; break;
    case llvm::Instruction::Or: r = a | b; break;
    case llvm::Instruction::Xor: r = a ^ b; break;
    case llvm::Instruction::Shl: r = a << (b & (bits - 1)); break;
    case llvm::Instruction::LShr: r = MaskTo(a, bits) >> (b & (bits - 1)); break;
    case llvm::Instruction::AShr:
      r = static_cast<uint64_t>(SignExt(a, bits) >> (b & (bits - 1)));
      break;
    default: AQE_UNREACHABLE("unsupported binop");
  }
  values_[&bin] = MaskTo(r, bits);
}

uint8_t* Frame::EvalGep(const llvm::GetElementPtrInst& gep) const {
  uint8_t* addr = reinterpret_cast<uint8_t*>(Eval(gep.getPointerOperand()));
  AQE_CHECK_MSG(gep.getNumIndices() == 1, "naive interp: single-index GEPs");
  const llvm::Type* elem = gep.getSourceElementType();
  uint64_t scale =
      elem->isDoubleTy() || elem->isPointerTy()
          ? 8
          : std::max<uint64_t>(1, elem->getIntegerBitWidth() / 8);
  int64_t index = SignExt(Eval(gep.getOperand(1)),
                          BitWidthOf(gep.getOperand(1)->getType()));
  return addr + index * static_cast<int64_t>(scale);
}

void Frame::ExecCall(const llvm::CallInst& call) {
  const llvm::Function* callee = call.getCalledFunction();
  AQE_CHECK_MSG(callee != nullptr, "indirect call in naive interpretation");
  llvm::Intrinsic::ID id = callee->getIntrinsicID();
  if (id == llvm::Intrinsic::sadd_with_overflow ||
      id == llvm::Intrinsic::ssub_with_overflow ||
      id == llvm::Intrinsic::smul_with_overflow) {
    unsigned bits = BitWidthOf(call.getArgOperand(0)->getType());
    int64_t a = SignExt(Eval(call.getArgOperand(0)), bits);
    int64_t b = SignExt(Eval(call.getArgOperand(1)), bits);
    int64_t wide = 0;
    bool overflow = false;
    switch (id) {
      case llvm::Intrinsic::sadd_with_overflow:
        overflow = __builtin_add_overflow(a, b, &wide);
        break;
      case llvm::Intrinsic::ssub_with_overflow:
        overflow = __builtin_sub_overflow(a, b, &wide);
        break;
      default:
        overflow = __builtin_mul_overflow(a, b, &wide);
        break;
    }
    if (bits < 64 && !overflow) {
      overflow = wide != SignExt(MaskTo(static_cast<uint64_t>(wide), bits),
                                 bits);
    }
    values_[&call] = MaskTo(static_cast<uint64_t>(wide), bits);
    pair_flags_[&call] = overflow ? 1 : 0;
    return;
  }
  if (callee->isIntrinsic()) {
    switch (id) {
      case llvm::Intrinsic::lifetime_start:
      case llvm::Intrinsic::lifetime_end:
      case llvm::Intrinsic::donothing:
      case llvm::Intrinsic::assume:
        return;
      default:
        AQE_UNREACHABLE("unsupported intrinsic in naive interpretation");
    }
  }
  const RuntimeRegistry::Entry* entry =
      registry_.Find(callee->getName().str());
  AQE_CHECK_MSG(entry != nullptr, "call to unregistered runtime function");
  uint64_t args[8];
  unsigned n = call.arg_size();
  AQE_CHECK(n <= 8 && static_cast<int>(n) == entry->num_args);
  for (unsigned i = 0; i < n; ++i) args[i] = Eval(call.getArgOperand(i));
  uint64_t target = reinterpret_cast<uint64_t>(entry->address);
  uint64_t r = 0;
  switch (n) {
    case 0: r = reinterpret_cast<F0>(target)(); break;
    case 1: r = reinterpret_cast<F1>(target)(args[0]); break;
    case 2: r = reinterpret_cast<F2>(target)(args[0], args[1]); break;
    case 3: r = reinterpret_cast<F3>(target)(args[0], args[1], args[2]); break;
    case 4: r = reinterpret_cast<F4>(target)(args[0], args[1], args[2], args[3]); break;
    case 5: r = reinterpret_cast<F5>(target)(args[0], args[1], args[2], args[3], args[4]); break;
    case 6: r = reinterpret_cast<F6>(target)(args[0], args[1], args[2], args[3], args[4], args[5]); break;
    case 7: r = reinterpret_cast<F7>(target)(args[0], args[1], args[2], args[3], args[4], args[5], args[6]); break;
    case 8: r = reinterpret_cast<F8>(target)(args[0], args[1], args[2], args[3], args[4], args[5], args[6], args[7]); break;
  }
  if (entry->returns_value) values_[&call] = r;
}

void Frame::Exec(const llvm::Instruction& inst) {
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
      ExecBinary(llvm::cast<llvm::BinaryOperator>(inst));
      break;
    case llvm::Instruction::FNeg:
      values_[&inst] = FromDouble(-AsDouble(Eval(inst.getOperand(0))));
      break;
    case llvm::Instruction::ICmp: {
      const auto& cmp = llvm::cast<llvm::ICmpInst>(inst);
      unsigned bits = BitWidthOf(cmp.getOperand(0)->getType());
      uint64_t ua = MaskTo(Eval(cmp.getOperand(0)), bits);
      uint64_t ub = MaskTo(Eval(cmp.getOperand(1)), bits);
      int64_t sa = SignExt(ua, bits), sb = SignExt(ub, bits);
      bool r = false;
      switch (cmp.getPredicate()) {
        case llvm::CmpInst::ICMP_EQ: r = ua == ub; break;
        case llvm::CmpInst::ICMP_NE: r = ua != ub; break;
        case llvm::CmpInst::ICMP_SLT: r = sa < sb; break;
        case llvm::CmpInst::ICMP_SLE: r = sa <= sb; break;
        case llvm::CmpInst::ICMP_SGT: r = sa > sb; break;
        case llvm::CmpInst::ICMP_SGE: r = sa >= sb; break;
        case llvm::CmpInst::ICMP_ULT: r = ua < ub; break;
        case llvm::CmpInst::ICMP_ULE: r = ua <= ub; break;
        case llvm::CmpInst::ICMP_UGT: r = ua > ub; break;
        case llvm::CmpInst::ICMP_UGE: r = ua >= ub; break;
        default: AQE_UNREACHABLE("bad icmp predicate");
      }
      values_[&inst] = r ? 1 : 0;
      break;
    }
    case llvm::Instruction::FCmp: {
      const auto& cmp = llvm::cast<llvm::FCmpInst>(inst);
      double x = AsDouble(Eval(cmp.getOperand(0)));
      double y = AsDouble(Eval(cmp.getOperand(1)));
      bool r = false;
      switch (cmp.getPredicate()) {
        case llvm::CmpInst::FCMP_OEQ: r = x == y; break;
        case llvm::CmpInst::FCMP_ONE: r = x < y || x > y; break;
        case llvm::CmpInst::FCMP_OLT: r = x < y; break;
        case llvm::CmpInst::FCMP_OLE: r = x <= y; break;
        case llvm::CmpInst::FCMP_OGT: r = x > y; break;
        case llvm::CmpInst::FCMP_OGE: r = x >= y; break;
        case llvm::CmpInst::FCMP_UNE: r = !(x == y); break;
        default: AQE_UNREACHABLE("bad fcmp predicate");
      }
      values_[&inst] = r ? 1 : 0;
      break;
    }
    case llvm::Instruction::SExt: {
      unsigned from = BitWidthOf(inst.getOperand(0)->getType());
      unsigned to = BitWidthOf(inst.getType());
      values_[&inst] = MaskTo(
          static_cast<uint64_t>(SignExt(Eval(inst.getOperand(0)), from)), to);
      break;
    }
    case llvm::Instruction::ZExt: {
      unsigned from = BitWidthOf(inst.getOperand(0)->getType());
      values_[&inst] = MaskTo(Eval(inst.getOperand(0)), from);
      break;
    }
    case llvm::Instruction::Trunc: {
      unsigned to = BitWidthOf(inst.getType());
      values_[&inst] = MaskTo(Eval(inst.getOperand(0)), to);
      break;
    }
    case llvm::Instruction::SIToFP: {
      unsigned from = BitWidthOf(inst.getOperand(0)->getType());
      values_[&inst] = FromDouble(
          static_cast<double>(SignExt(Eval(inst.getOperand(0)), from)));
      break;
    }
    case llvm::Instruction::UIToFP: {
      unsigned from = BitWidthOf(inst.getOperand(0)->getType());
      values_[&inst] = FromDouble(
          static_cast<double>(MaskTo(Eval(inst.getOperand(0)), from)));
      break;
    }
    case llvm::Instruction::FPToSI: {
      unsigned to = BitWidthOf(inst.getType());
      values_[&inst] = MaskTo(
          static_cast<uint64_t>(
              static_cast<int64_t>(AsDouble(Eval(inst.getOperand(0))))),
          to);
      break;
    }
    case llvm::Instruction::BitCast:
    case llvm::Instruction::PtrToInt:
    case llvm::Instruction::IntToPtr:
      values_[&inst] = Eval(inst.getOperand(0));
      break;
    case llvm::Instruction::Load: {
      const auto& load = llvm::cast<llvm::LoadInst>(inst);
      const llvm::Value* ptr = load.getPointerOperand();
      const uint8_t* addr = reinterpret_cast<const uint8_t*>(Eval(ptr));
      const llvm::Type* type = load.getType();
      uint64_t v = 0;
      if (type->isDoubleTy()) {
        std::memcpy(&v, addr, 8);
      } else {
        unsigned bytes = std::max(1u, BitWidthOf(type) / 8);
        std::memcpy(&v, addr, bytes);
        v = MaskTo(v, BitWidthOf(type));
      }
      values_[&load] = v;
      break;
    }
    case llvm::Instruction::Store: {
      const auto& store = llvm::cast<llvm::StoreInst>(inst);
      uint8_t* addr =
          reinterpret_cast<uint8_t*>(Eval(store.getPointerOperand()));
      uint64_t v = Eval(store.getValueOperand());
      const llvm::Type* type = store.getValueOperand()->getType();
      unsigned bytes =
          type->isDoubleTy() ? 8 : std::max(1u, BitWidthOf(type) / 8);
      std::memcpy(addr, &v, bytes);
      break;
    }
    case llvm::Instruction::GetElementPtr:
      values_[&inst] = reinterpret_cast<uint64_t>(
          EvalGep(llvm::cast<llvm::GetElementPtrInst>(inst)));
      break;
    case llvm::Instruction::Call:
      ExecCall(llvm::cast<llvm::CallInst>(inst));
      break;
    case llvm::Instruction::ExtractValue: {
      const auto& ev = llvm::cast<llvm::ExtractValueInst>(inst);
      const llvm::Value* agg = ev.getAggregateOperand();
      AQE_CHECK(ev.getNumIndices() == 1);
      values_[&ev] = ev.getIndices()[0] == 0 ? values_.lookup(agg)
                                             : pair_flags_.lookup(agg);
      break;
    }
    case llvm::Instruction::Select: {
      const auto& sel = llvm::cast<llvm::SelectInst>(inst);
      values_[&sel] = Eval(sel.getCondition()) != 0
                          ? Eval(sel.getTrueValue())
                          : Eval(sel.getFalseValue());
      break;
    }
    case llvm::Instruction::Br: {
      const auto& br = llvm::cast<llvm::BranchInst>(inst);
      prev_block_ = block_;
      block_ = br.isUnconditional()
                   ? br.getSuccessor(0)
                   : (Eval(br.getCondition()) != 0 ? br.getSuccessor(0)
                                                   : br.getSuccessor(1));
      break;
    }
    case llvm::Instruction::Ret: {
      const auto& ret = llvm::cast<llvm::ReturnInst>(inst);
      result_ = ret.getNumOperands() == 0 ? 0 : Eval(ret.getOperand(0));
      done_ = true;
      break;
    }
    case llvm::Instruction::Unreachable:
      AQE_UNREACHABLE("naive interp reached llvm unreachable");
    default:
      AQE_UNREACHABLE("unsupported instruction in naive interpretation");
  }
}

uint64_t Frame::Run() {
  block_ = &fn_.getEntryBlock();
  prev_block_ = nullptr;
  while (!done_) {
    // Phi nodes first, with parallel-copy semantics.
    llvm::SmallVector<std::pair<const llvm::PHINode*, uint64_t>, 4> phi_vals;
    for (const llvm::PHINode& phi : block_->phis()) {
      const llvm::Value* incoming =
          phi.getIncomingValueForBlock(prev_block_);
      phi_vals.emplace_back(&phi, Eval(incoming));
    }
    for (const auto& [phi, value] : phi_vals) values_[phi] = value;

    const llvm::BasicBlock* current = block_;
    for (const llvm::Instruction& inst : *current) {
      if (llvm::isa<llvm::PHINode>(inst)) continue;
      Exec(inst);
      // Terminators end the block (covers self-loops where block_ ==
      // current after the branch).
      if (done_ || inst.isTerminator()) break;
    }
  }
  return result_;
}

}  // namespace

uint64_t NaiveIrInterpret(const llvm::Function& fn, const uint64_t* args,
                          int num_args, const RuntimeRegistry& registry) {
  Frame frame(fn, args, num_args, registry);
  return frame.Run();
}

void NaiveIrWorker(void* state, uint64_t begin, uint64_t end,
                   const void* function) {
  const uint64_t args[4] = {reinterpret_cast<uint64_t>(state), begin, end,
                            reinterpret_cast<uint64_t>(function)};
  NaiveIrInterpret(*static_cast<const llvm::Function*>(function), args, 4,
                   RuntimeRegistry::Global());
}

}  // namespace aqe
