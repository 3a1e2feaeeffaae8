#include "sim/decoded_image.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/hash.h"

namespace ulpsync::sim {

bool is_straight_line(const isa::Instruction& instr) {
  using isa::Opcode;
  switch (instr.op) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kAnd: case Opcode::kOr:
    case Opcode::kXor: case Opcode::kSll: case Opcode::kSrl: case Opcode::kSra:
    case Opcode::kMul: case Opcode::kMulh:
    case Opcode::kAddi: case Opcode::kAndi: case Opcode::kOri:
    case Opcode::kXori: case Opcode::kSlli: case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kCmp: case Opcode::kCmpi:
    case Opcode::kMovi:
      return true;
    case Opcode::kCsrr:
      // Reads of a valid CSR never trap.
      return instr.imm >= 0 &&
             instr.imm < static_cast<std::int32_t>(isa::kNumCsrs);
    case Opcode::kCsrw:
      // Only Rsync is writable; anything else traps.
      return instr.imm == static_cast<std::int32_t>(isa::Csr::kRsync);
    default:
      // Memory, sync, control flow, sleep, halt: full machinery required.
      return false;
  }
}

DecodedImage::DecodedImage(unsigned slots, unsigned banks, unsigned bank_slots,
                           unsigned line_slots)
    : slots_(slots), banks_(banks), bank_slots_(bank_slots),
      line_slots_(line_slots) {
  assert(banks >= 1 && bank_slots >= 1);
}

void DecodedImage::refresh_fingerprint() const {
  // FNV-1a over every field that affects fetch/execute behavior, in the
  // exact order of the historical eager implementation (which hashed
  // capacity-sized tables): capacity, bounds, program instructions, then
  // the bank of every slot — recomputed from the geometry here, with
  // identical values. The HALT filler outside [begin_, end_) is included
  // via the bounds themselves (out-of-program fetches trap before reading
  // the slot).
  std::uint64_t hash = util::kFnvOffsetBasis;
  auto mix = [&hash](std::uint64_t value) {
    std::uint8_t bytes[8];
    for (unsigned byte = 0; byte < 8; ++byte) {
      bytes[byte] = static_cast<std::uint8_t>(value >> (byte * 8));
    }
    hash = util::fnv1a64(bytes, hash);
  };
  mix(slots_);
  mix(begin_);
  mix(end_);
  for (std::uint32_t pc = begin_; pc < end_; ++pc) {
    const isa::Instruction& instr = code_[pc - begin_];
    mix(static_cast<std::uint64_t>(instr.op) |
        (static_cast<std::uint64_t>(instr.rd) << 8) |
        (static_cast<std::uint64_t>(instr.ra) << 16) |
        (static_cast<std::uint64_t>(instr.rb) << 24) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(instr.imm))
         << 32));
  }
  for (std::uint32_t pc = 0; pc < slots_; ++pc)
    mix(static_cast<std::uint16_t>(bank_value(pc)));
  fingerprint_ = hash;
  fingerprint_dirty_ = false;
}

void DecodedImage::refresh_tables() {
  const auto size = static_cast<std::uint32_t>(code_.size());
  bank_table_.resize(size);
  run_table_.resize(size);
  safe_table_.resize(size);
  // Backward pass: a straight-line instruction extends the run that starts
  // at the next slot; everything else starts no run. The tables do not
  // feed the fingerprint — they are derived state of the fingerprinted
  // code.
  std::uint32_t run = 0;
  for (std::uint32_t offset = size; offset-- > 0;) {
    bank_table_[offset] =
        static_cast<std::uint16_t>(bank_value(begin_ + offset));
    const isa::Opcode op = code_[offset].op;
    const bool straight = is_straight_line(code_[offset]);
    run = straight ? std::min<std::uint32_t>(run + 1, 0xFFFF) : 0;
    run_table_[offset] = static_cast<std::uint16_t>(run);
    const bool mem = op == isa::Opcode::kLd || op == isa::Opcode::kSt ||
                     op == isa::Opcode::kLdx || op == isa::Opcode::kStx;
    safe_table_[offset] = straight || mem || isa::is_control_flow(op);
  }
}

void DecodedImage::load(std::uint32_t origin,
                        std::span<const isa::Instruction> code) {
  assert(origin + code.size() <= slots_);
  code_.assign(code.begin(), code.end());
  begin_ = origin;
  end_ = origin + static_cast<std::uint32_t>(code.size());
  fingerprint_dirty_ = true;
  refresh_tables();
}

std::string DecodedImage::load_encoded(std::uint32_t origin,
                                       std::span<const std::uint32_t> image) {
  if (origin + image.size() > slots_) {
    return "image does not fit: origin " + std::to_string(origin) + " + " +
           std::to_string(image.size()) + " words > " +
           std::to_string(slots_) + " slots";
  }
  std::vector<isa::Instruction> decoded;
  decoded.reserve(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) {
    const auto instr = isa::decode(image[i]);
    if (!instr) {
      std::ostringstream error;
      error << "undecodable instruction word 0x" << std::hex << image[i]
            << std::dec << " at slot " << (origin + i);
      return error.str();
    }
    decoded.push_back(*instr);
  }
  load(origin, decoded);
  return {};
}

}  // namespace ulpsync::sim
