#include <string>

#include "common/bytes.h"
#include "common/hash.h"
#include "ir/ir.h"

/// Plan wire codec. Same discipline as the store codec (store/codec.cc):
/// encode is a straight dump, decode is *total* — every read is
/// bounds-checked, every count capped before allocation, a trailing FNV-1a
/// checksum rejects torn bytes, and whatever survives still has to pass
/// VerifyPlan before a caller can execute it.
namespace uctr::ir {

namespace {

constexpr uint32_t kMagic = 0x55504C4Eu;  // "UPLN"
constexpr uint32_t kVersion = 1;

// Caps chosen far above anything the lowerings emit but small enough that
// a hostile length field cannot drive a large allocation.
constexpr uint32_t kMaxPoolEntries = 1u << 16;
constexpr uint32_t kMaxAuxEntries = 1u << 20;
constexpr uint32_t kMaxCodeEntries = 1u << 20;
constexpr uint32_t kMaxTextBytes = 1u << 20;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("plan decode: " + what);
}

}  // namespace

std::string EncodePlan(const Plan& plan) {
  std::string out;
  ByteWriter w(&out);
  w.U32(kMagic);
  w.U32(kVersion);
  w.U8(static_cast<uint8_t>(plan.family));
  w.U16(plan.num_regs);
  w.U32(plan.num_columns);
  w.U64(plan.schema_fp);

  w.U32(static_cast<uint32_t>(plan.pool.size()));
  for (const Value& v : plan.pool) {
    w.U8(static_cast<uint8_t>(v.type()));
    w.F64(v.is_number() ? v.number()
                        : (v.is_bool() ? (v.boolean() ? 1 : 0) : 0));
    w.Str(v.text());
  }

  w.U32(static_cast<uint32_t>(plan.aux.size()));
  for (uint32_t a : plan.aux) w.U32(a);

  w.U32(static_cast<uint32_t>(plan.code.size()));
  for (const Insn& insn : plan.code) {
    w.U16(insn.op);
    w.U16(insn.dst);
    w.U16(insn.a);
    w.U16(insn.b);
    w.U32(insn.imm);
    w.U32(insn.imm2);
  }

  w.U64(Fnv1a64(out, kContentHashSeed));
  return out;
}

Result<Plan> DecodePlan(std::string_view bytes) {
  if (bytes.size() < 8 + 8) return Corrupt("truncated header");
  // Checksum first: everything after it assumes intact bytes.
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  uint64_t want = 0;
  ByteReader(bytes.substr(body.size())).U64(&want);
  if (Fnv1a64(body, kContentHashSeed) != want) {
    return Corrupt("checksum mismatch");
  }

  ByteReader r(body);
  uint32_t magic = 0, version = 0;
  if (!r.U32(&magic) || magic != kMagic) return Corrupt("bad magic");
  if (!r.U32(&version) || version != kVersion) {
    return Corrupt("unsupported version");
  }

  Plan plan;
  uint8_t family = 0;
  if (!r.U8(&family) || family > 2) return Corrupt("bad family");
  plan.family = static_cast<Family>(family);
  if (!r.U16(&plan.num_regs)) return Corrupt("truncated register count");
  if (!r.U32(&plan.num_columns)) return Corrupt("truncated column count");
  if (!r.U64(&plan.schema_fp)) return Corrupt("truncated fingerprint");

  uint32_t pool_count = 0;
  if (!r.U32(&pool_count) || pool_count > kMaxPoolEntries) {
    return Corrupt("bad pool count");
  }
  plan.pool.reserve(pool_count);
  for (uint32_t i = 0; i < pool_count; ++i) {
    uint8_t type = 0;
    double num = 0;
    uint32_t len = 0;
    if (!r.U8(&type) || !r.F64(&num) || !r.U32(&len)) {
      return Corrupt("truncated pool entry");
    }
    if (len > kMaxTextBytes) return Corrupt("pool text too large");
    std::string_view text_bytes;
    if (!r.Take(len, &text_bytes)) return Corrupt("truncated pool text");
    std::string text(text_bytes);
    switch (static_cast<ValueType>(type)) {
      case ValueType::kNull:
        plan.pool.push_back(Value::Null());
        break;
      case ValueType::kString:
        plan.pool.push_back(Value::String(std::move(text)));
        break;
      case ValueType::kNumber:
        plan.pool.push_back(text.empty()
                                ? Value::Number(num)
                                : Value::NumberWithText(num, std::move(text)));
        break;
      case ValueType::kBool:
        plan.pool.push_back(Value::Bool(num != 0));
        break;
      default:
        return Corrupt("bad pool value type");
    }
  }

  uint32_t aux_count = 0;
  if (!r.U32(&aux_count) || aux_count > kMaxAuxEntries) {
    return Corrupt("bad aux count");
  }
  plan.aux.reserve(aux_count);
  for (uint32_t i = 0; i < aux_count; ++i) {
    uint32_t a = 0;
    if (!r.U32(&a)) return Corrupt("truncated aux entry");
    plan.aux.push_back(a);
  }

  uint32_t code_count = 0;
  if (!r.U32(&code_count) || code_count > kMaxCodeEntries) {
    return Corrupt("bad code count");
  }
  plan.code.reserve(code_count);
  for (uint32_t i = 0; i < code_count; ++i) {
    Insn insn;
    if (!r.U16(&insn.op) || !r.U16(&insn.dst) || !r.U16(&insn.a) ||
        !r.U16(&insn.b) || !r.U32(&insn.imm) || !r.U32(&insn.imm2)) {
      return Corrupt("truncated instruction");
    }
    plan.code.push_back(insn);
  }

  if (!r.done()) return Corrupt("trailing bytes");
  UCTR_RETURN_NOT_OK(VerifyPlan(plan));
  // Derived field, not part of the wire format: rebuild after the plan is
  // proven well-formed so decoded plans execute as fast as compiled ones.
  plan.RebuildPoolKeys();
  return plan;
}

}  // namespace uctr::ir
