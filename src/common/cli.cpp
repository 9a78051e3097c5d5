#include "common/cli.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace rahtm {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& known) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!startsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) throw ParseError("bare '--' is not a valid flag");
    const std::size_t eq = body.find('=');
    const std::string name = body.substr(0, eq);
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw ParseError("unknown flag --" + name);
    }
    if (eq != std::string::npos) {
      flags_[name] = body.substr(eq + 1);
    } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "true";  // boolean switch
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::getString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::getInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parseInt(it->second);
}

double CliArgs::getDouble(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parseDouble(it->second);
}

bool CliArgs::getBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ParseError("malformed boolean flag --" + name + "=" + v);
}

}  // namespace rahtm
