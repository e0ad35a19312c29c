#include "binfmt/structure.h"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace dcprof::binfmt {

namespace {

constexpr std::uint32_t kMagic = 0x64637374;  // "dcst"

/// Cap on a string length read from disk, the same as the `.dcpf`
/// reader's (core/profile.cpp): a corrupt length must fail with a clear
/// error before it costs a zero-filled allocation of up to 4 GiB.
constexpr std::uint32_t kMaxStringBytes = 1u << 24;

void put_u32(std::ostream& o, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) o.put(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::ostream& o, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) o.put(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_str(std::ostream& o, const std::string& s) {
  put_u32(o, static_cast<std::uint32_t>(s.size()));
  o.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::uint32_t get_u32(std::istream& in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in.get()))
         << (8 * i);
  }
  return v;
}
std::uint64_t get_u64(std::istream& in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in.get()))
         << (8 * i);
  }
  return v;
}
void require(std::istream& in, const char* what) {
  if (!in) {
    throw std::runtime_error(std::string("truncated structure file: ") +
                             what);
  }
}
std::string get_str(std::istream& in) {
  const std::uint32_t len = get_u32(in);
  require(in, "string length");
  if (len > kMaxStringBytes) {
    throw std::runtime_error(
        "corrupt structure file: implausible string length");
  }
  std::string s(len, '\0');
  in.read(s.data(), static_cast<std::streamsize>(len));
  require(in, "string data");
  return s;
}

}  // namespace

StructureData StructureData::capture(
    const ModuleRegistry& modules,
    const std::map<Addr, std::string>& alloc_names) {
  StructureData data;
  for (const LoadModule* m : modules.modules()) {
    for (const auto& [ip, info] : m->instr_map()) {
      data.instrs_.emplace(ip, info);
    }
    for (const auto& sym : m->static_vars()) {
      data.vars_.emplace(sym.lo, Var{sym, m->name()});
    }
  }
  data.alloc_names_ = alloc_names;
  return data;
}

void StructureData::write(std::ostream& out) const {
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(instrs_.size()));
  for (const auto& [ip, info] : instrs_) {
    put_u64(out, ip);
    put_str(out, info.func_name);
    put_str(out, info.file);
    put_u32(out, static_cast<std::uint32_t>(info.line));
    put_str(out, info.module);
  }
  put_u32(out, static_cast<std::uint32_t>(vars_.size()));
  for (const auto& [base, var] : vars_) {
    put_u64(out, base);
    put_u64(out, var.sym.size);
    put_str(out, var.sym.name);
    put_str(out, var.module);
  }
  put_u32(out, static_cast<std::uint32_t>(alloc_names_.size()));
  for (const auto& [ip, name] : alloc_names_) {
    put_u64(out, ip);
    put_str(out, name);
  }
}

StructureData StructureData::read(std::istream& in) {
  if (get_u32(in) != kMagic) {
    throw std::runtime_error("bad structure-file magic");
  }
  StructureData data;
  const std::uint32_t ninstrs = get_u32(in);
  require(in, "instr count");
  for (std::uint32_t i = 0; i < ninstrs; ++i) {
    InstrInfo info;
    info.ip = get_u64(in);
    info.func_name = get_str(in);
    info.file = get_str(in);
    info.line = static_cast<int>(get_u32(in));
    info.module = get_str(in);
    data.instrs_.emplace(info.ip, std::move(info));
  }
  const std::uint32_t nvars = get_u32(in);
  require(in, "var count");
  for (std::uint32_t i = 0; i < nvars; ++i) {
    Var var;
    var.sym.lo = get_u64(in);
    var.sym.size = get_u64(in);
    var.sym.name = get_str(in);
    var.module = get_str(in);
    data.vars_.emplace(var.sym.lo, std::move(var));
  }
  const std::uint32_t nnames = get_u32(in);
  require(in, "annotation count");
  for (std::uint32_t i = 0; i < nnames; ++i) {
    const Addr ip = get_u64(in);
    data.alloc_names_.emplace(ip, get_str(in));
  }
  require(in, "structure body");
  return data;
}

const InstrInfo* StructureData::resolve_ip(Addr ip) const {
  auto it = instrs_.find(ip);
  return it == instrs_.end() ? nullptr : &it->second;
}

std::optional<SymbolResolver::StaticHit> StructureData::resolve_static(
    Addr addr) const {
  auto it = vars_.upper_bound(addr);
  if (it == vars_.begin()) return std::nullopt;
  --it;
  const Var& var = it->second;
  if (addr >= var.sym.lo && addr < var.sym.hi()) {
    return StaticHit{&var.sym, &var.module};
  }
  return std::nullopt;
}

}  // namespace dcprof::binfmt
