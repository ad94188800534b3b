#include "jit/jit_compiler.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <llvm/ExecutionEngine/Orc/CompileUtils.h>
#include <llvm/ExecutionEngine/Orc/Core.h>
#include <llvm/ExecutionEngine/Orc/ExecutorProcessControl.h>
#include <llvm/ExecutionEngine/Orc/JITTargetMachineBuilder.h>
#include <llvm/ExecutionEngine/Orc/Mangling.h>
#include <llvm/ExecutionEngine/Orc/RTDyldObjectLinkingLayer.h>
#include <llvm/ExecutionEngine/Orc/TaskDispatch.h>
#include <llvm/ExecutionEngine/SectionMemoryManager.h>
#include <llvm/IR/LegacyPassManager.h>
#include <llvm/IR/Module.h>
#include <llvm/Support/Memory.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Target/TargetMachine.h>
#include <llvm/Transforms/InstCombine/InstCombine.h>
#include <llvm/Transforms/Scalar.h>
#include <llvm/Transforms/Scalar/GVN.h>
#include <llvm/Transforms/Utils.h>

#include "common/timer.h"

namespace aqe {
namespace {

/// Runs the paper's §V optimization pass list over the module.
void RunOptimizationPasses(llvm::Module* module) {
  llvm::legacy::FunctionPassManager fpm(module);
  fpm.add(llvm::createInstructionCombiningPass());  // peephole
  fpm.add(llvm::createReassociatePass());
  fpm.add(llvm::createGVNPass());  // common subexpression elimination
  fpm.add(llvm::createCFGSimplificationPass());
  fpm.add(llvm::createAggressiveDCEPass());
  fpm.doInitialization();
  for (llvm::Function& fn : *module) {
    if (!fn.isDeclaration()) fpm.run(fn);
  }
  fpm.doFinalization();
}

Status ErrorStatus(llvm::Error error) {
  return Status::Error(llvm::toString(std::move(error)));
}

/// What the link running on this thread reports back to its JitCompile.
/// The session dispatches materialization in place, so a module links on
/// the thread that looks its symbols up; the page mapper and the
/// session's error reporter, which the layer calls without any context of
/// ours, find the link through this thread-local.
struct LinkReport {
  uint64_t code_bytes = 0;
  std::string errors;
};
thread_local LinkReport* t_link = nullptr;

/// Maps pages for the SectionMemoryManagers exactly as LLVM's default
/// mapper does, and charges every block to the link in progress. A module
/// costs the pages it maps, not its section sizes: a TPC-H worker's
/// sections total a few hundred bytes, but its code, read-only data and
/// writable data each map pages of their own.
class CountingMapper : public llvm::SectionMemoryManager::MemoryMapper {
 public:
  llvm::sys::MemoryBlock allocateMappedMemory(
      llvm::SectionMemoryManager::AllocationPurpose /*purpose*/, size_t bytes,
      const llvm::sys::MemoryBlock* const near, unsigned flags,
      std::error_code& error) override {
    llvm::sys::MemoryBlock block =
        llvm::sys::Memory::allocateMappedMemory(bytes, near, flags, error);
    if (t_link != nullptr) t_link->code_bytes += block.allocatedSize();
    return block;
  }
  std::error_code protectMappedMemory(const llvm::sys::MemoryBlock& block,
                                      unsigned flags) override {
    return llvm::sys::Memory::protectMappedMemory(block, flags);
  }
  std::error_code releaseMappedMemory(llvm::sys::MemoryBlock& block) override {
    return llvm::sys::Memory::releaseMappedMemory(block);
  }
};

/// Machine code linked into one JITDylib of the session.
struct LinkedCode {
  llvm::orc::JITDylib* dylib = nullptr;
  std::unordered_map<std::string, void*> symbols;
  uint64_t code_bytes = 0;
};

/// The process-wide JIT: one ExecutionSession and one RTDyld linking layer,
/// a pool of target machines per JitMode, and one runtime JITDylib per
/// RuntimeRegistry. Created on the first compile and never destroyed.
class JitSession {
 public:
  /// The session, or nullptr with the reason in `*status` if this host
  /// cannot JIT.
  static JitSession* Get(Status* status) {
    static Status setup;
    static JitSession* session = Create(&setup);
    if (session == nullptr) *status = setup;
    return session;
  }

  /// Generates an object file for `module` on a pooled target machine. A
  /// target machine runs one codegen at a time, so the pool grows to the
  /// number of threads compiling at once.
  llvm::Expected<std::unique_ptr<llvm::MemoryBuffer>> Codegen(
      llvm::Module& module, JitMode mode) {
    auto& pool = tm_pool_[static_cast<int>(mode)];
    std::unique_ptr<llvm::TargetMachine> tm;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!pool.empty()) {
        tm = std::move(pool.back());
        pool.pop_back();
      } else {
        auto created = builders_[static_cast<int>(mode)].createTargetMachine();
        if (!created) return created.takeError();
        tm = std::move(*created);
      }
    }
    // Only codegen sees the target's layout. The IR passes ran on the
    // default one; setting it earlier would change what they produce.
    module.setDataLayout(data_layout_);
    auto object = llvm::orc::SimpleCompiler(*tm)(module);
    std::lock_guard<std::mutex> lock(mutex_);
    pool.push_back(std::move(tm));
    return object;
  }

  /// Links `object` into a fresh JITDylib and resolves `names` in it. The
  /// code stays mapped until Remove.
  llvm::Expected<LinkedCode> Link(std::unique_ptr<llvm::MemoryBuffer> object,
                                  const RuntimeRegistry& registry,
                                  const std::vector<std::string>& names) {
    auto runtime = RuntimeDylib(registry);
    if (!runtime) return runtime.takeError();
    llvm::orc::JITDylib& jd = es_.createBareJITDylib(
        "aqe.module." + std::to_string(next_module_id_.fetch_add(1)));
    jd.addToLinkOrder(**runtime);

    LinkReport report;
    t_link = &report;
    auto addresses = AddAndLookup(jd, std::move(object), names);
    t_link = nullptr;
    if (!addresses) {
      std::string message =
          report.errors + llvm::toString(addresses.takeError());
      Remove(jd);
      return llvm::make_error<llvm::StringError>(
          message, llvm::inconvertibleErrorCode());
    }
    LinkedCode code;
    code.dylib = &jd;
    for (const std::string& name : names) {
      code.symbols[name] = reinterpret_cast<void*>(
          (*addresses)[mangle_(name)].getAddress());
    }
    code.code_bytes = report.code_bytes;
    return code;
  }

  /// Closes `jd` and unmaps its code.
  void Remove(llvm::orc::JITDylib& jd) {
    // RTDyld frees its memory managers infallibly; a failure here would
    // mean the session's bookkeeping is broken.
    llvm::Error error = es_.removeJITDylib(jd);
    AQE_CHECK_MSG(!error, llvm::toString(std::move(error)).c_str());
  }

 private:
  JitSession(const llvm::orc::JITTargetMachineBuilder& host,
             llvm::DataLayout data_layout,
             std::unique_ptr<llvm::orc::ExecutorProcessControl> epc)
      : builders_{host, host},
        data_layout_(std::move(data_layout)),
        es_(std::move(epc)),
        layer_(es_,
               [this] {
                 // One manager per object: removing a module frees its pages.
                 return std::make_unique<llvm::SectionMemoryManager>(&mapper_);
               }),
        mangle_(es_, data_layout_) {
    builders_[0].setCodeGenOptLevel(llvm::CodeGenOpt::None);
    builders_[0].getOptions().EnableFastISel = true;
    builders_[1].setCodeGenOptLevel(llvm::CodeGenOpt::Default);
    es_.setErrorReporter([](llvm::Error error) {
      if (t_link != nullptr) {
        t_link->errors += llvm::toString(std::move(error)) + "; ";
      } else {
        llvm::logAllUnhandledErrors(std::move(error), llvm::errs(),
                                    "JIT session error: ");
      }
    });
  }

  static JitSession* Create(Status* status) {
    llvm::InitializeNativeTarget();
    llvm::InitializeNativeTargetAsmPrinter();
    auto host = llvm::orc::JITTargetMachineBuilder::detectHost();
    if (!host) {
      *status = ErrorStatus(host.takeError());
      return nullptr;
    }
    auto data_layout = host->getDefaultDataLayoutForTarget();
    if (!data_layout) {
      *status = ErrorStatus(data_layout.takeError());
      return nullptr;
    }
    // In-place dispatch: a module links on the thread that compiles it.
    auto epc = llvm::orc::SelfExecutorProcessControl::Create(
        nullptr, std::make_unique<llvm::orc::InPlaceTaskDispatcher>());
    if (!epc) {
      *status = ErrorStatus(epc.takeError());
      return nullptr;
    }
    return new JitSession(*host, std::move(*data_layout), std::move(*epc));
  }

  llvm::Expected<llvm::orc::SymbolMap> AddAndLookup(
      llvm::orc::JITDylib& jd, std::unique_ptr<llvm::MemoryBuffer> object,
      const std::vector<std::string>& names) {
    if (llvm::Error error = layer_.add(jd, std::move(object))) {
      return error;
    }
    llvm::orc::SymbolLookupSet lookup;
    for (const std::string& name : names) lookup.add(mangle_(name));
    return es_.lookup(llvm::orc::makeJITDylibSearchOrder(&jd), lookup);
  }

  /// The JITDylib holding `registry`'s functions as absolute symbols,
  /// defined on the registry's first compile.
  llvm::Expected<llvm::orc::JITDylib*> RuntimeDylib(
      const RuntimeRegistry& registry) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = runtime_dylibs_.find(&registry);
    if (it != runtime_dylibs_.end()) return it->second;
    llvm::orc::JITDylib& jd = es_.createBareJITDylib(
        "aqe.runtime." + std::to_string(runtime_dylibs_.size()));
    llvm::orc::SymbolMap symbols;
    llvm::orc::SymbolLookupSet lookup;
    for (const auto& [name, entry] : registry.entries()) {
      symbols[mangle_(name)] = llvm::JITEvaluatedSymbol(
          reinterpret_cast<llvm::JITTargetAddress>(entry.address),
          llvm::JITSymbolFlags::Exported | llvm::JITSymbolFlags::Callable);
      lookup.add(mangle_(name));
    }
    // Materialize the symbols now: a module's link then resolves against
    // ready symbols and finishes on its own thread, never inside another
    // thread's first lookup of them.
    llvm::Error error =
        jd.define(llvm::orc::absoluteSymbols(std::move(symbols)));
    if (!error) {
      error = es_.lookup(llvm::orc::makeJITDylibSearchOrder(&jd), lookup)
                  .takeError();
    }
    if (error) {
      Remove(jd);
      return error;
    }
    runtime_dylibs_.emplace(&registry, &jd);
    return &jd;
  }

  // Indexed by static_cast<int>(JitMode), like tm_pool_.
  llvm::orc::JITTargetMachineBuilder builders_[2];
  const llvm::DataLayout data_layout_;
  llvm::orc::ExecutionSession es_;
  CountingMapper mapper_;
  llvm::orc::RTDyldObjectLinkingLayer layer_;
  llvm::orc::MangleAndInterner mangle_;
  std::atomic<uint64_t> next_module_id_{0};

  std::mutex mutex_;  // guards builders_, tm_pool_ and runtime_dylibs_
  std::vector<std::unique_ptr<llvm::TargetMachine>> tm_pool_[2];
  std::unordered_map<const RuntimeRegistry*, llvm::orc::JITDylib*>
      runtime_dylibs_;
};

class OrcCompiledModule : public CompiledModule {
 public:
  OrcCompiledModule(JitSession* session, LinkedCode code,
                    double ir_pass_millis, double codegen_millis)
      : session_(session),
        code_(std::move(code)),
        ir_pass_millis_(ir_pass_millis),
        codegen_millis_(codegen_millis) {}

  ~OrcCompiledModule() override { session_->Remove(*code_.dylib); }

  void* Lookup(const std::string& name) const override {
    auto it = code_.symbols.find(name);
    return it == code_.symbols.end() ? nullptr : it->second;
  }

  double ir_pass_millis() const override { return ir_pass_millis_; }
  double codegen_millis() const override { return codegen_millis_; }
  uint64_t code_bytes() const override { return code_.code_bytes; }

 private:
  JitSession* session_;
  LinkedCode code_;
  double ir_pass_millis_;
  double codegen_millis_;
};

}  // namespace

const char* JitModeName(JitMode mode) {
  switch (mode) {
    case JitMode::kUnoptimized: return "unoptimized";
    case JitMode::kOptimized: return "optimized";
  }
  AQE_UNREACHABLE("bad JitMode");
}

std::unique_ptr<CompiledModule> JitCompile(IrModule mod, JitMode mode,
                                           const RuntimeRegistry& registry,
                                           Status* status) {
  JitSession* session = JitSession::Get(status);
  if (session == nullptr) return nullptr;

  // IR optimization passes (timed separately; Fig 1 reports this stage on
  // its own).
  double ir_pass_millis = 0;
  if (mode == JitMode::kOptimized) {
    Timer timer;
    RunOptimizationPasses(&mod.module());
    ir_pass_millis = timer.ElapsedMillis();
  }

  // Every defined function is resolved eagerly after linking.
  std::vector<std::string> function_names;
  for (const llvm::Function& fn : mod.module()) {
    if (!fn.isDeclaration()) function_names.push_back(fn.getName().str());
  }

  Timer codegen_timer;
  auto object = session->Codegen(mod.module(), mode);
  if (!object) {
    *status = ErrorStatus(object.takeError());
    return nullptr;
  }
  auto code = session->Link(std::move(*object), registry, function_names);
  if (!code) {
    *status = ErrorStatus(code.takeError());
    return nullptr;
  }
  const double codegen_millis = codegen_timer.ElapsedMillis();

  *status = Status::OK();
  return std::make_unique<OrcCompiledModule>(session, std::move(*code),
                                             ir_pass_millis, codegen_millis);
}

}  // namespace aqe
