#pragma once
/// \file cli.hpp
/// A tiny flag parser for the example and benchmark executables.
/// Flags take the forms `--name value` or `--name=value`; bare `--name`
/// is a boolean switch. Each caller names the flags it accepts, so a
/// misspelled flag is an error instead of a silently ignored setting.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rahtm {

class CliArgs {
 public:
  /// Parses argv, accepting the flags named in \p known (without the
  /// leading "--"); throws ParseError on a malformed flag or one not in
  /// \p known.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& known);

  bool has(const std::string& name) const;

  std::string getString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t getInt(const std::string& name, std::int64_t fallback) const;
  double getDouble(const std::string& name, double fallback) const;
  bool getBool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Name of the program (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace rahtm
