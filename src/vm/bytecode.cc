#include "vm/bytecode.h"

#include <cstdio>

namespace aqe {

const char* OpcodeName(Opcode op) {
  static const char* kNames[] = {
#define AQE_OPCODE_NAME(name) #name,
      AQE_OPCODE_LIST(AQE_OPCODE_NAME)
#undef AQE_OPCODE_NAME
  };
  auto index = static_cast<uint16_t>(op);
  if (index >= static_cast<uint16_t>(Opcode::kNumOpcodes)) return "<bad>";
  return kNames[index];
}

const char* VmDispatchName(VmDispatch dispatch) {
  switch (dispatch) {
    case VmDispatch::kDefault: return "default";
    case VmDispatch::kSwitch: return "switch";
    case VmDispatch::kThreaded: return "threaded";
  }
  return "<bad>";
}

uint64_t BcProgram::AddLiteral(uint64_t value) {
  for (size_t i = 0; i < literal_pool.size(); ++i) {
    if (literal_pool[i] == value) return i;
  }
  literal_pool.push_back(value);
  return literal_pool.size() - 1;
}

std::string BcProgram::Disassemble() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "; register file: %u bytes, %zu constants, %zu literals, "
                "%zu args\n",
                register_file_size, constant_pool.size(), literal_pool.size(),
                arg_offsets.size());
  out += line;
  for (size_t i = 0; i < code.size(); ++i) {
    const BcInstruction& inst = code[i];
    std::snprintf(line, sizeof(line), "%04zx %-18s %6u %6u %6u  0x%llx\n", i,
                  OpcodeName(static_cast<Opcode>(inst.op)), inst.a1, inst.a2,
                  inst.a3, static_cast<unsigned long long>(inst.lit));
    out += line;
  }
  return out;
}

}  // namespace aqe
