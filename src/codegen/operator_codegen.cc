#include "codegen/operator_codegen.h"

#include <map>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Intrinsics.h>

#include "codegen/expr_compiler.h"
#include "common/status.h"

namespace aqe {
namespace {

bool PipelineUsesBitmap(const PipelineSpec& spec, const uint8_t* bitmap) {
  return AnyPipelineExpr(spec, [bitmap](const Expr& e) {
    return e.kind == ExprKind::kBitmapTest && e.bitmap == bitmap;
  });
}

bool PipelineUsesLikePred(const PipelineSpec& spec,
                          const LikePredicate* pred) {
  return AnyPipelineExpr(spec, [pred](const Expr& e) {
    return e.kind == ExprKind::kLike && e.like_pred == pred;
  });
}

/// Per-function emission state.
struct WorkerEmitter {
  WorkerEmitter(const PipelineSpec& spec, const PipelineBindings& bindings,
                LiteralForm literal_form, IrModule* mod,
                const std::string& fn_name)
      : spec(spec),
        bindings(bindings),
        literal_form(literal_form),
        mod(mod),
        b(mod->context()) {
    auto* i64 = llvm::Type::getInt64Ty(mod->context());
    auto* fty = llvm::FunctionType::get(
        llvm::Type::getVoidTy(mod->context()), {i64, i64, i64, i64}, false);
    fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage, fn_name,
                                &mod->module());
    fn->getArg(0)->setName("state");
    fn->getArg(1)->setName("begin");
    fn->getArg(2)->setName("end");
    fn->getArg(3)->setName("extra");
  }

  llvm::FunctionCallee RuntimeFn(const char* name, int args) {
    auto* i64 = b.getInt64Ty();
    std::vector<llvm::Type*> params(static_cast<size_t>(args), i64);
    return mod->module().getOrInsertFunction(
        name, llvm::FunctionType::get(i64, params, false));
  }
  llvm::FunctionCallee RuntimeFnVoid(const char* name, int args) {
    auto* i64 = b.getInt64Ty();
    std::vector<llvm::Type*> params(static_cast<size_t>(args), i64);
    return mod->module().getOrInsertFunction(
        name, llvm::FunctionType::get(b.getVoidTy(), params, false));
  }

  /// Loads binding slot `index` of the packed binding array (`state`, arg 0)
  /// as i64. Emitted in the entry block so every binding is read once per
  /// worker invocation and stays loop-invariant.
  llvm::Value* BindingValue(size_t index) {
    return LoadSlotAt(fn->getArg(0), static_cast<int>(8 * index));
  }

  /// Loads an 8-byte value at byte offset `offset` from an address held in
  /// an i64 value, as i64* arithmetic so the VM fuses it (§IV-F). `offset`
  /// must be a multiple of 8.
  llvm::Value* LoadSlotAt(llvm::Value* addr_i64, int offset) {
    AQE_CHECK(offset % 8 == 0);
    llvm::Value* ptr =
        b.CreateIntToPtr(addr_i64, b.getInt64Ty()->getPointerTo());
    llvm::Value* slot =
        b.CreateGEP(b.getInt64Ty(), ptr, b.getInt64(offset / 8));
    return b.CreateLoad(b.getInt64Ty(), slot);
  }
  void StoreSlotAt(llvm::Value* addr_i64, int offset, llvm::Value* value) {
    AQE_CHECK(offset % 8 == 0);
    llvm::Value* ptr =
        b.CreateIntToPtr(addr_i64, b.getInt64Ty()->getPointerTo());
    llvm::Value* slot =
        b.CreateGEP(b.getInt64Ty(), ptr, b.getInt64(offset / 8));
    b.CreateStore(ToRawI64(value), slot);
  }

  /// Normalizes expression results to raw i64 for storage in payloads,
  /// aggregates and output rows: doubles are bit-cast, booleans widen to
  /// 0/1.
  llvm::Value* ToRawI64(llvm::Value* v) {
    if (v->getType()->isDoubleTy()) {
      return b.CreateBitCast(v, b.getInt64Ty());
    }
    if (v->getType()->isIntegerTy(1)) {
      return b.CreateZExt(v, b.getInt64Ty());
    }
    return v;
  }

  /// Emits the worker; returns the number of literal-load instructions.
  uint64_t Emit();

  const PipelineSpec& spec;
  const PipelineBindings& bindings;
  const LiteralForm literal_form;
  IrModule* mod;
  llvm::IRBuilder<> b;
  llvm::Function* fn = nullptr;
  llvm::BasicBlock* overflow_block = nullptr;
  llvm::BasicBlock* latch = nullptr;
};

uint64_t WorkerEmitter::Emit() {
  auto& ctx = mod->context();
  auto* entry = llvm::BasicBlock::Create(ctx, "entry", fn);
  auto* head = llvm::BasicBlock::Create(ctx, "loop.head", fn);
  auto* body = llvm::BasicBlock::Create(ctx, "loop.body", fn);
  latch = llvm::BasicBlock::Create(ctx, "loop.latch", fn);
  auto* exit = llvm::BasicBlock::Create(ctx, "exit", fn);
  overflow_block = llvm::BasicBlock::Create(ctx, "overflow", fn);

  // Overflow path: report and trap (noreturn).
  b.SetInsertPoint(overflow_block);
  b.CreateCall(RuntimeFnVoid("aqe_raise_overflow", 0));
  b.CreateUnreachable();

  // Entry: load every runtime handle this pipeline touches from the packed
  // binding array (`state`) and hoist the loop-invariant values. Nothing
  // run-specific is embedded in the generated code.
  b.SetInsertPoint(entry);
  std::vector<llvm::Value*> column_bases;
  for (size_t c = 0; c < spec.scan_columns.size(); ++c) {
    column_bases.push_back(BindingValue(bindings.ColumnSlot(c)));
  }
  std::vector<llvm::Value*> join_table_values(bindings.join_tables.size(),
                                              nullptr);
  for (const PipelineOp& op : spec.ops) {
    if (const auto* probe = std::get_if<OpProbe>(&op)) {
      auto ht = static_cast<size_t>(probe->ht);
      if (join_table_values[ht] == nullptr) {
        join_table_values[ht] = BindingValue(bindings.JoinTableSlot(ht));
      }
    }
  }
  std::map<const uint8_t*, llvm::Value*> bitmap_values;
  for (size_t id = 0; id < bindings.bitmaps.size(); ++id) {
    if (PipelineUsesBitmap(spec, bindings.bitmaps[id])) {
      bitmap_values[bindings.bitmaps[id]] =
          BindingValue(bindings.BitmapSlot(id));
    }
  }
  std::map<const LikePredicate*, llvm::Value*> like_values;
  for (size_t id = 0; id < bindings.like_preds.size(); ++id) {
    if (PipelineUsesLikePred(spec, bindings.like_preds[id])) {
      like_values[bindings.like_preds[id]] =
          BindingValue(bindings.LikePredSlot(id));
    }
  }
  // Bytecode reads the plan's literals from the binding array too, so its
  // program does not depend on them; machine code gets them as immediates.
  std::map<const Expr*, llvm::Value*> literal_values;
  uint64_t literal_instructions = 0;
  if (literal_form == LiteralForm::kBound) {
    const std::vector<const Expr*> literals = PipelineLiterals(spec);
    AQE_CHECK(literals.size() == bindings.literals.size());
    const size_t before = entry->size();
    for (size_t k = 0; k < literals.size(); ++k) {
      llvm::Value* bits = BindingValue(bindings.LiteralSlot(k));
      literal_values[literals[k]] =
          literals[k]->kind == ExprKind::kConstF64
              ? b.CreateBitCast(bits, b.getDoubleTy())
              : bits;
    }
    literal_instructions = entry->size() - before;
  }
  llvm::Value* agg_local = nullptr;
  llvm::Value* build_table = nullptr;
  llvm::Value* output_buffer = nullptr;
  if (const auto* agg_sink = std::get_if<SinkAgg>(&spec.sink)) {
    llvm::Value* set =
        BindingValue(bindings.AggSetSlot(static_cast<size_t>(agg_sink->agg)));
    agg_local = b.CreateCall(RuntimeFn("aqe_agg_local", 1), {set});
  } else if (const auto* build_sink = std::get_if<SinkBuild>(&spec.sink)) {
    build_table = BindingValue(
        bindings.JoinTableSlot(static_cast<size_t>(build_sink->ht)));
  } else if (const auto* out_sink = std::get_if<SinkOutput>(&spec.sink)) {
    output_buffer = BindingValue(
        bindings.OutputSlot(static_cast<size_t>(out_sink->output)));
  }
  b.CreateBr(head);

  // Loop head: i in [begin, end). Generated as `condbr cond, body, exit`
  // (continue-first), the layout the CFG analysis expects.
  b.SetInsertPoint(head);
  auto* i = b.CreatePHI(b.getInt64Ty(), 2, "i");
  auto* in_range = b.CreateICmpULT(i, fn->getArg(2));
  b.CreateCondBr(in_range, body, exit);

  b.SetInsertPoint(body);
  ExprCompiler exprs(
      &b, overflow_block, bitmap_values, like_values,
      literal_form == LiteralForm::kBound ? &literal_values : nullptr);

  // Scan: materialize the requested columns into slots, sign-extending
  // every narrow integer column to i64 inside its load. These are the
  // fusable gep+load(+sext) sequences of §IV-F.
  std::vector<llvm::Value*> slots;
  for (size_t c = 0; c < spec.scan_columns.size(); ++c) {
    const DataType type = bindings.column_types[c];
    llvm::Type* elem = type == DataType::kF64
                           ? b.getDoubleTy()
                           : b.getIntNTy(8 * DataTypeSize(type));
    llvm::Value* base =
        b.CreateIntToPtr(column_bases[c], elem->getPointerTo());
    llvm::Value* value = b.CreateLoad(elem, b.CreateGEP(elem, base, i));
    if (elem->isIntegerTy() && !elem->isIntegerTy(64)) {
      value = b.CreateSExt(value, b.getInt64Ty());
    }
    slots.push_back(value);
  }

  // Operator chain.
  for (const PipelineOp& op : spec.ops) {
    if (const auto* filter = std::get_if<OpFilter>(&op)) {
      llvm::Value* keep = exprs.Compile(*filter->predicate, slots);
      auto* cont = llvm::BasicBlock::Create(ctx, "filter.pass", fn);
      b.CreateCondBr(keep, cont, latch);
      b.SetInsertPoint(cont);
    } else if (const auto* compute = std::get_if<OpCompute>(&op)) {
      slots.push_back(exprs.Compile(*compute->expr, slots));
    } else {
      const auto& probe = std::get<OpProbe>(op);
      llvm::Value* ht = join_table_values[static_cast<size_t>(probe.ht)];
      llvm::Value* key = exprs.Compile(*probe.key, slots);
      llvm::Value* node =
          b.CreateCall(RuntimeFn("aqe_jht_lookup", 2), {ht, key});
      llvm::Value* found = b.CreateICmpNE(node, b.getInt64(0));
      switch (probe.kind) {
        case JoinKind::kInner: {
          auto* cont = llvm::BasicBlock::Create(ctx, "probe.hit", fn);
          b.CreateCondBr(found, cont, latch);
          b.SetInsertPoint(cont);
          for (int k = 0; k < probe.payload_slots; ++k) {
            slots.push_back(LoadSlotAt(node, 16 + 8 * k));
          }
          break;
        }
        case JoinKind::kSemi: {
          auto* cont = llvm::BasicBlock::Create(ctx, "semi.hit", fn);
          b.CreateCondBr(found, cont, latch);
          b.SetInsertPoint(cont);
          break;
        }
        case JoinKind::kAnti: {
          auto* cont = llvm::BasicBlock::Create(ctx, "anti.miss", fn);
          b.CreateCondBr(found, latch, cont);
          b.SetInsertPoint(cont);
          break;
        }
      }
    }
  }

  // Sink.
  if (const auto* build = std::get_if<SinkBuild>(&spec.sink)) {
    llvm::Value* key = exprs.Compile(*build->key, slots);
    llvm::Value* payload =
        b.CreateCall(RuntimeFn("aqe_jht_insert", 2), {build_table, key});
    for (size_t k = 0; k < build->payload.size(); ++k) {
      StoreSlotAt(payload, static_cast<int>(8 * k),
                  exprs.Compile(*build->payload[k], slots));
    }
  } else if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
    llvm::Value* key = exprs.Compile(*agg->key, slots);
    llvm::Value* payload =
        b.CreateCall(RuntimeFn("aqe_agg_find_or_insert", 2),
                     {agg_local, key});
    for (size_t k = 0; k < agg->items.size(); ++k) {
      const AggItem& item = agg->items[k];
      int offset = static_cast<int>(8 * k);
      llvm::Value* current = LoadSlotAt(payload, offset);
      llvm::Value* updated = nullptr;
      switch (item.kind) {
        case AggKind::kCount:
          updated = item.checked
                        ? exprs.CheckedOp(llvm::Intrinsic::sadd_with_overflow,
                                          current, b.getInt64(1))
                        : b.CreateAdd(current, b.getInt64(1));
          break;
        case AggKind::kSum: {
          llvm::Value* value = ToRawI64(exprs.Compile(*item.value, slots));
          updated = item.checked
                        ? exprs.CheckedOp(llvm::Intrinsic::sadd_with_overflow,
                                          current, value)
                        : b.CreateAdd(current, value);
          break;
        }
        case AggKind::kMin: {
          llvm::Value* value = exprs.Compile(*item.value, slots);
          updated = b.CreateSelect(b.CreateICmpSLT(value, current), value,
                                   current);
          break;
        }
        case AggKind::kMax: {
          llvm::Value* value = exprs.Compile(*item.value, slots);
          updated = b.CreateSelect(b.CreateICmpSGT(value, current), value,
                                   current);
          break;
        }
      }
      StoreSlotAt(payload, offset, updated);
    }
  } else {
    const auto& out = std::get<SinkOutput>(spec.sink);
    llvm::Value* row =
        b.CreateCall(RuntimeFn("aqe_out_alloc_row", 1), {output_buffer});
    for (size_t k = 0; k < out.values.size(); ++k) {
      StoreSlotAt(row, static_cast<int>(8 * k),
                  exprs.Compile(*out.values[k], slots));
    }
  }
  b.CreateBr(latch);

  // Latch and exit.
  b.SetInsertPoint(latch);
  auto* next = b.CreateAdd(i, b.getInt64(1));
  b.CreateBr(head);
  b.SetInsertPoint(exit);
  b.CreateRetVoid();

  i->addIncoming(fn->getArg(1), entry);
  i->addIncoming(next, latch);
  return literal_instructions;
}

}  // namespace

std::vector<uint64_t> PipelineBindings::Pack() const {
  std::vector<uint64_t> values;
  values.reserve(NumSlots());
  for (const void* p : column_data) {
    values.push_back(reinterpret_cast<uint64_t>(p));
  }
  for (void* p : join_tables) values.push_back(reinterpret_cast<uint64_t>(p));
  for (void* p : agg_sets) values.push_back(reinterpret_cast<uint64_t>(p));
  for (void* p : outputs) values.push_back(reinterpret_cast<uint64_t>(p));
  for (const uint8_t* p : bitmaps) {
    values.push_back(reinterpret_cast<uint64_t>(p));
  }
  for (const LikePredicate* p : like_preds) {
    values.push_back(reinterpret_cast<uint64_t>(p));
  }
  values.insert(values.end(), literals.begin(), literals.end());
  return values;
}

uint64_t EmitWorkerFunction(const PipelineSpec& spec,
                            const PipelineBindings& bindings,
                            LiteralForm literal_form, IrModule* mod,
                            const std::string& fn_name) {
  return WorkerEmitter(spec, bindings, literal_form, mod, fn_name).Emit();
}

}  // namespace aqe
