#include "binfmt/structure.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/measurement.h"
#include "sim/address_space.h"

namespace dcprof::binfmt {
namespace {

struct Fixture {
  Fixture() : exe("exe", as), lib("lib.so", as) {
    const auto f = exe.add_function("main", "main.c");
    ip_main = exe.add_instr(f, 10);
    const auto g = lib.add_function("helper", "helper.c");
    ip_helper = lib.add_instr(g, 20);
    var_exe = exe.add_static_var("g_exe", 128);
    var_lib = lib.add_static_var("g_lib", 64);
    registry.load(&exe);
    registry.load(&lib);
    names[ip_main] = "the_array";
  }

  sim::AddressSpace as;
  LoadModule exe;
  LoadModule lib;
  ModuleRegistry registry;
  std::map<Addr, std::string> names;
  Addr ip_main{}, ip_helper{}, var_exe{}, var_lib{};
};

TEST(StructureData, CaptureSnapshotsAllModules) {
  Fixture f;
  const StructureData data = StructureData::capture(f.registry, f.names);
  EXPECT_EQ(data.num_instrs(), 2u);
  EXPECT_EQ(data.num_static_vars(), 2u);
  EXPECT_EQ(data.alloc_names().at(f.ip_main), "the_array");
}

TEST(StructureData, ResolvesLikeTheLiveRegistry) {
  Fixture f;
  const StructureData data = StructureData::capture(f.registry, f.names);
  const InstrInfo* info = data.resolve_ip(f.ip_helper);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->func_name, "helper");
  EXPECT_EQ(info->file, "helper.c");
  EXPECT_EQ(info->line, 20);
  EXPECT_EQ(info->module, "lib.so");

  const auto hit = data.resolve_static(f.var_exe + 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sym->name, "g_exe");
  EXPECT_EQ(*hit->module, "exe");
  // One byte past g_exe lands in the adjacent g_lib, never back in g_exe.
  const auto next = data.resolve_static(f.var_exe + 128);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->sym->name, "g_lib");
  EXPECT_EQ(data.resolve_ip(0xdead), nullptr);
}

TEST(StructureData, RoundTripsThroughSerialization) {
  Fixture f;
  const StructureData original = StructureData::capture(f.registry, f.names);
  const std::string bytes = original.serialize();
  const StructureData copy = StructureData::read(bytes);
  EXPECT_EQ(copy.serialize(), bytes);

  EXPECT_EQ(copy.num_instrs(), original.num_instrs());
  EXPECT_EQ(copy.num_static_vars(), original.num_static_vars());
  EXPECT_EQ(copy.alloc_names(), original.alloc_names());
  const InstrInfo* info = copy.resolve_ip(f.ip_main);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->func_name, "main");
  const auto hit = copy.resolve_static(f.var_lib);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sym->name, "g_lib");
  EXPECT_EQ(*hit->module, "lib.so");
}

TEST(StructureData, BadMagicRejected) {
  EXPECT_THROW(StructureData::read("garbage"), std::runtime_error);
}

// Every proper prefix of a structure file is rejected: the reader
// returns zeros past the end, so each table entry must end in a checked
// read.
TEST(StructureData, TruncatedStreamRejected) {
  Fixture f;
  const std::string bytes =
      StructureData::capture(f.registry, f.names).serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(StructureData::read(std::string_view(bytes).substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut << " of " << bytes.size();
  }
  EXPECT_NO_THROW(StructureData::read(bytes));
}

// A table count of 2^32-1 with nothing after it throws at the first
// missing entry instead of looping over four billion zero entries.
TEST(StructureData, HugeCountThatEndsThrowsPromptly) {
  const auto u32 = [](std::uint32_t v) {
    std::string b;
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
    return b;
  };
  const std::string magic = u32(0x64637374);  // "dcst"
  const std::string huge = u32(0xffffffffu);
  const std::string none = u32(0);
  for (const std::string& bytes :
       {magic + huge, magic + none + huge, magic + none + none + huge}) {
    try {
      StructureData::read(bytes);
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "truncated structure file: string length");
    }
  }
}

// A string length past the `.dcpf` reader's 16 MiB cap is corruption:
// rejected before anything is allocated for it, not zero-filled and
// then reported as truncated.
TEST(StructureData, ImplausibleStringLengthRejected) {
  ModuleRegistry empty;
  // The magic, then one instruction whose name is implausibly long.
  std::string bytes = StructureData::capture(empty).serialize().substr(0, 4);
  const auto put = [&bytes](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put(1, 4);                    // one instruction
  put(0x1000, 8);               // its ip
  put((1u << 24) + 1, 4);       // function name: 16 MiB + 1 bytes claimed,
  bytes.append("main");         // 4 present
  try {
    StructureData::read(bytes);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "corrupt structure file: implausible string length");
  }

  // Read from a measurement directory, the error names the file.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("dcprof-structure-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  core::write_file_atomic(dir / "structure.dcst", bytes);
  try {
    core::read_structure_file(dir);
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("structure.dcst"), std::string::npos) << what;
    EXPECT_NE(what.find("implausible string length"), std::string::npos)
        << what;
  }
  fs::remove_all(dir);
}

// The parse must end exactly where the annotation table does: bytes
// after it are a writer bug or tampering, not padding.
TEST(StructureData, TrailingBytesRejected) {
  Fixture f;
  const std::string bytes =
      StructureData::capture(f.registry, f.names).serialize();
  for (const std::string& junk : {std::string(1, '\0'), std::string(8, 'x')}) {
    try {
      StructureData::read(bytes + junk);
      ADD_FAILURE() << "accepted " << junk.size() << " trailing bytes";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trailing bytes after structure file");
    }
  }
}

TEST(StructureData, EmptyRegistryRoundTrips) {
  ModuleRegistry empty;
  const StructureData data = StructureData::capture(empty);
  const StructureData copy = StructureData::read(data.serialize());
  EXPECT_EQ(copy.num_instrs(), 0u);
  EXPECT_EQ(copy.num_static_vars(), 0u);
}

}  // namespace
}  // namespace dcprof::binfmt
