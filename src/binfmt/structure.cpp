#include "binfmt/structure.h"

#include <stdexcept>

#include "binfmt/bytes.h"

namespace dcprof::binfmt {

namespace {

constexpr std::uint32_t kMagic = 0x64637374;  // "dcst"

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

std::string StructureData::serialize() const {
  std::string out;
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
  return out;
}

// Every loop iteration ends in a string read, which `require`s: a count
// that claims more entries than the bytes hold throws at the first
// missing one instead of looping on zeros.
StructureData StructureData::read(std::string_view bytes) {
  ByteReader r(bytes, "structure file");
  if (r.u32() != kMagic) {
    throw std::runtime_error("bad structure-file magic");
  }
  StructureData data;
  const std::uint32_t ninstrs = r.u32();
  r.require("instr count");
  for (std::uint32_t i = 0; i < ninstrs; ++i) {
    InstrInfo info;
    info.ip = r.u64();
    r.str(info.func_name);
    r.str(info.file);
    info.line = static_cast<int>(r.u32());
    r.str(info.module);
    data.instrs_.emplace(info.ip, std::move(info));
  }
  const std::uint32_t nvars = r.u32();
  r.require("var count");
  for (std::uint32_t i = 0; i < nvars; ++i) {
    Var var;
    var.sym.lo = r.u64();
    var.sym.size = r.u64();
    r.str(var.sym.name);
    r.str(var.module);
    data.vars_.emplace(var.sym.lo, std::move(var));
  }
  const std::uint32_t nnames = r.u32();
  r.require("annotation count");
  for (std::uint32_t i = 0; i < nnames; ++i) {
    const Addr ip = r.u64();
    std::string name;
    r.str(name);
    data.alloc_names_.emplace(ip, std::move(name));
  }
  r.require_end();
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
