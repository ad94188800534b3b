#include "ir/ir_module.h"

#include <llvm/IR/Verifier.h>
#include <llvm/Support/raw_ostream.h>

namespace aqe {

IrModule::IrModule(const std::string& name)
    : context_(std::make_unique<llvm::LLVMContext>()),
      module_(std::make_unique<llvm::Module>(name, *context_)) {}

IrModule::~IrModule() = default;

std::string IrModule::Verify() const {
  std::string out;
  llvm::raw_string_ostream os(out);
  if (llvm::verifyModule(*module_, &os)) {
    os.flush();
    return out;
  }
  return "";
}

std::string IrModule::Print() const {
  std::string out;
  llvm::raw_string_ostream os(out);
  module_->print(os, nullptr);
  os.flush();
  return out;
}

}  // namespace aqe
