#include "cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <system_error>

#include "core/measurement.h"

namespace dcprof::cli {

namespace {

/// Stores `s` into *out when it is a whole decimal number inside T's
/// range. std::from_chars takes no leading blanks or '+', and a '-' only
/// for a signed T, so "-1" cannot wrap to 2^64-1 and 2^32+1 cannot
/// truncate to an int.
template <typename T>
bool parse_number(const std::string& s, T* out) {
  T v{};
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || end != last) return false;
  *out = v;
  return true;
}

}  // namespace

bool export_file(const std::string& path, std::string_view bytes,
                 const char* what) {
  try {
    core::write_file_atomic(path, bytes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  std::printf("wrote %s to %s\n", what, path.c_str());
  return true;
}

Parser::Parser(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary)) {}

void Parser::positional(const char* name, std::string* out,
                        const char* help) {
  positionals_.push_back(Pos{name, out, help});
}

void Parser::flag(const char* name, bool* out, const char* help) {
  Opt o;
  o.name = name;
  o.kind = Kind::kFlag;
  o.b = out;
  o.help = help;
  options_.push_back(std::move(o));
}

void Parser::option(const char* name, std::string* out, const char* help,
                    const char* metavar) {
  Opt o;
  o.name = name;
  o.kind = Kind::kString;
  o.s = out;
  o.help = help;
  o.metavar = metavar;
  options_.push_back(std::move(o));
}

void Parser::option(const char* name, std::uint64_t* out, const char* help,
                    const char* metavar) {
  Opt o;
  o.name = name;
  o.kind = Kind::kUint;
  o.u = out;
  o.help = help;
  o.metavar = metavar;
  options_.push_back(std::move(o));
}

void Parser::option(const char* name, int* out, const char* help,
                    const char* metavar) {
  Opt o;
  o.name = name;
  o.kind = Kind::kInt;
  o.i = out;
  o.help = help;
  o.metavar = metavar;
  options_.push_back(std::move(o));
}

void Parser::optional_value(const char* name, bool* present,
                            std::string* out, const char* help,
                            const char* metavar) {
  Opt o;
  o.name = name;
  o.kind = Kind::kOptionalValue;
  o.b = present;
  o.s = out;
  o.help = help;
  o.metavar = metavar;
  options_.push_back(std::move(o));
}

bool Parser::seen(const std::string& name) const {
  return std::find(seen_.begin(), seen_.end(), name) != seen_.end();
}

Parser::Opt* Parser::find(const std::string& name) {
  for (Opt& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

std::string Parser::usage_line() const {
  std::string line = "usage: " + prog_;
  for (const Pos& p : positionals_) line += " <" + p.name + ">";
  for (const Opt& o : options_) {
    line += " [" + o.name;
    if (o.kind == Kind::kOptionalValue) {
      line += " [" + o.metavar + "]";
    } else if (o.kind != Kind::kFlag) {
      line += " " + o.metavar;
    }
    line += "]";
  }
  return line;
}

int Parser::fail(const std::string& why) const {
  if (!why.empty()) std::fprintf(stderr, "%s: %s\n", prog_.c_str(),
                                 why.c_str());
  std::fprintf(stderr, "%s\n", usage_line().c_str());
  return 2;
}

int Parser::print_help() const {
  std::printf("%s — %s\n%s\n", prog_.c_str(), summary_.c_str(),
              usage_line().c_str());
  if (!positionals_.empty()) {
    std::printf("\narguments:\n");
    for (const Pos& p : positionals_) {
      std::printf("  %-24s %s\n", p.name.c_str(), p.help.c_str());
    }
  }
  if (!options_.empty()) {
    std::printf("\noptions:\n");
    for (const Opt& o : options_) {
      std::string head = o.name;
      if (o.kind == Kind::kOptionalValue) {
        head += " [" + o.metavar + "]";
      } else if (o.kind != Kind::kFlag) {
        head += " " + o.metavar;
      }
      std::printf("  %-24s %s\n", head.c_str(), o.help.c_str());
    }
  }
  std::printf("  %-24s %s\n", "--help", "show this help");
  return 0;
}

bool Parser::store(Opt& opt, const std::string& value) const {
  switch (opt.kind) {
    case Kind::kString:
    case Kind::kOptionalValue:
      *opt.s = value;
      return true;
    case Kind::kUint:
      return parse_number(value, opt.u);
    case Kind::kInt:
      return parse_number(value, opt.i);
    case Kind::kFlag:
      return false;  // flags never take values
  }
  return false;
}

std::optional<int> Parser::parse(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '\0') {
    prog_ = argv[0];
  }
  std::size_t next_pos = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return print_help();
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::string name = arg;
      std::string inline_value;
      bool has_inline = false;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        name = arg.substr(0, eq);
        inline_value = arg.substr(eq + 1);
        has_inline = true;
      }
      Opt* opt = find(name);
      if (opt == nullptr) return fail("unknown option " + name);
      seen_.push_back(name);
      switch (opt->kind) {
        case Kind::kFlag:
          if (has_inline) return fail(name + " takes no value");
          *opt->b = true;
          break;
        case Kind::kOptionalValue:
          *opt->b = true;
          if (has_inline) {
            *opt->s = inline_value;
          } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            *opt->s = argv[++i];
          }
          break;
        default: {
          std::string value;
          if (has_inline) {
            value = inline_value;
          } else if (i + 1 < argc) {
            value = argv[++i];
          } else {
            return fail(name + " requires a value");
          }
          if (!store(*opt, value)) {
            return fail("bad value for " + name + ": " + value);
          }
          break;
        }
      }
    } else {
      if (next_pos >= positionals_.size()) {
        return fail("unexpected argument " + arg);
      }
      *positionals_[next_pos++].out = arg;
    }
  }
  if (next_pos < positionals_.size()) {
    return fail("missing <" + positionals_[next_pos].name + ">");
  }
  return std::nullopt;
}

}  // namespace dcprof::cli
