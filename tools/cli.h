// Shared option parsing for the dcprof command-line tools. One flag
// registry per tool replaces the hand-rolled argv loops: positionals
// declared in order, typed options (`--name value` or `--name=value`),
// boolean flags, and optional-value options (`--oracle [name]`). The
// parser auto-generates the usage line and a `--help` listing.
//
//   cli::Parser p("dcprof_measure", "runs a workload under the profiler");
//   p.positional("workload", &workload, "amg|lulesh|...");
//   p.option("--period", &period, "sampling period", "N");
//   p.flag("--advice", &advice, "print optimization guidance");
//   if (auto rc = p.parse(argc, argv)) return *rc;   // --help or error
//
// parse() returns 0 after printing --help, 2 after printing a usage
// error (matching the tools' historical exit codes), and std::nullopt
// on success. A numeric option takes only a decimal number that fits
// its type (no sign for an unsigned one); anything else is a usage
// error. Other validation stays in the tools: enumerated values (e.g.
// --event ibs|rmem) are checked after parsing, where the tool can map
// them to its own types.
//
// export_file() is the one writer of the tools' output files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcprof::cli {

/// Writes a tool's output file atomically and fsynced
/// (core::write_file_atomic), then prints "wrote <what> to <path>".
/// Returns false after printing "error: ..." when the path is
/// unwritable, so the tool exits nonzero instead of reporting success
/// next to a missing or truncated file.
bool export_file(const std::string& path, std::string_view bytes,
                 const char* what);

class Parser {
 public:
  /// `prog` is the program name for the usage line (argv[0] overrides it
  /// at parse time); `summary` is the one-line description for --help.
  Parser(std::string prog, std::string summary);

  /// Declares the next required positional argument.
  void positional(const char* name, std::string* out, const char* help);

  /// Boolean flag: present sets *out = true.
  void flag(const char* name, bool* out, const char* help);

  /// Typed options taking a required value.
  void option(const char* name, std::string* out, const char* help,
              const char* metavar = "VALUE");
  void option(const char* name, std::uint64_t* out, const char* help,
              const char* metavar = "N");
  void option(const char* name, int* out, const char* help,
              const char* metavar = "N");

  /// Option whose value is optional: `--name` alone sets *present;
  /// `--name v` (when v does not start with '-') or `--name=v` also
  /// stores the value.
  void optional_value(const char* name, bool* present, std::string* out,
                      const char* help, const char* metavar = "VALUE");

  /// True when `name` appeared on the parsed command line.
  bool seen(const std::string& name) const;

  /// Parses argv. Returns the process exit code when parsing should end
  /// the program (0 for --help, 2 for a usage error, both already
  /// printed), or std::nullopt on success.
  std::optional<int> parse(int argc, char** argv);

  /// The generated one-line usage string.
  std::string usage_line() const;

  /// Prints a usage error exactly like a parse failure and returns 2 —
  /// for tools rejecting enumerated values after parse().
  int error(const std::string& why) const { return fail(why); }

 private:
  enum class Kind { kFlag, kString, kUint, kInt, kOptionalValue };

  struct Opt {
    std::string name;
    Kind kind = Kind::kFlag;
    bool* b = nullptr;
    std::string* s = nullptr;
    std::uint64_t* u = nullptr;
    int* i = nullptr;
    std::string help;
    std::string metavar;
  };

  struct Pos {
    std::string name;
    std::string* out;
    std::string help;
  };

  Opt* find(const std::string& name);
  int fail(const std::string& why) const;
  int print_help() const;
  bool store(Opt& opt, const std::string& value) const;

  std::string prog_;
  std::string summary_;
  std::vector<Pos> positionals_;
  std::vector<Opt> options_;
  std::vector<std::string> seen_;
};

}  // namespace dcprof::cli
