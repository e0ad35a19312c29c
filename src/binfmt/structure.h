// Serializable program structure: the symbol information the post-mortem
// analyzer needs (instruction line maps, static-variable ranges, and
// allocation-site variable annotations), captured from the live module
// registry at the end of measurement — the hpcstruct-file analog.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "binfmt/load_module.h"

namespace dcprof::binfmt {

class StructureData : public SymbolResolver {
 public:
  /// Snapshots every loaded module's tables plus the allocation-site
  /// annotations.
  static StructureData capture(
      const ModuleRegistry& modules,
      const std::map<Addr, std::string>& alloc_names = {});

  /// The `.dcst` bytes: magic, then the instruction, static-variable
  /// and annotation tables, each a u32 count and its entries.
  std::string serialize() const;
  /// Parses bytes serialize() wrote, to the last byte; throws
  /// std::runtime_error on a bad magic, a truncated table, an
  /// implausible string length or trailing bytes.
  static StructureData read(std::string_view bytes);

  // SymbolResolver:
  const InstrInfo* resolve_ip(Addr ip) const override;
  std::optional<StaticHit> resolve_static(Addr addr) const override;

  const std::map<Addr, std::string>& alloc_names() const {
    return alloc_names_;
  }

  std::size_t num_instrs() const { return instrs_.size(); }
  std::size_t num_static_vars() const { return vars_.size(); }

 private:
  struct Var {
    StaticVarSym sym;
    std::string module;
  };

  std::map<Addr, InstrInfo> instrs_;   // keyed by ip
  std::map<Addr, Var> vars_;           // keyed by base address
  std::map<Addr, std::string> alloc_names_;
};

}  // namespace dcprof::binfmt
