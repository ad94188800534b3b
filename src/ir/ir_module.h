#ifndef AQE_IR_IR_MODULE_H_
#define AQE_IR_IR_MODULE_H_

#include <memory>
#include <string>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>

namespace aqe {

/// Owns one llvm::Module plus its LLVMContext. Each query compilation (and
/// each background recompilation) builds its own IrModule so contexts are
/// never shared across threads — LLVMContext is not thread-safe.
class IrModule {
 public:
  explicit IrModule(const std::string& name);
  ~IrModule();

  IrModule(const IrModule&) = delete;
  IrModule& operator=(const IrModule&) = delete;
  IrModule(IrModule&&) = default;
  IrModule& operator=(IrModule&&) = default;

  llvm::LLVMContext& context() { return *context_; }
  llvm::Module& module() { return *module_; }

  /// Verifies the module; returns an error description or "" if valid.
  std::string Verify() const;

  /// Textual IR (for debugging / tests).
  std::string Print() const;

 private:
  std::unique_ptr<llvm::LLVMContext> context_;
  std::unique_ptr<llvm::Module> module_;
};

}  // namespace aqe

#endif  // AQE_IR_IR_MODULE_H_
