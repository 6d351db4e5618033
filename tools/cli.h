// Shared plumbing of the `tableau` command-line tool: the one strict flag
// parser every subcommand declares its flags with, the file writer, and the
// subcommand entry points main() dispatches to.
#ifndef TOOLS_CLI_H_
#define TOOLS_CLI_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/parse.h"
#include "src/common/time.h"

namespace tableau::cli {

// Reads a decimal count of `unit`s (e.g. "2.5" milliseconds) into ns. Fails
// unless the text parses in full to a finite, non-negative value whose ns
// count fits in TimeNs.
inline bool ParseDuration(std::string_view text, TimeNs unit, TimeNs* out) {
  double value = 0;
  if (!ParseValue(text, &value)) {
    return false;
  }
  const double ns = value * unit;
  // 0x1p63 is 2^63, just past INT64_MAX, so the cast below is in range;
  // NaN fails both comparisons.
  if (!(ns >= 0 && ns < 0x1p63)) {
    return false;
  }
  *out = static_cast<TimeNs>(ns);
  return true;
}

// Each flag is bound to its destination up front. Parse() prints usage and
// exits 2 on an unknown flag, a missing value, a value that does not parse
// in full, or a wrong number of positional arguments.
class FlagSet {
 public:
  // `synopsis` follows "usage: tableau " in the usage message.
  explicit FlagSet(std::string synopsis) : synopsis_(std::move(synopsis)) {}

  // A flag without a value; `set` runs when it appears.
  void Switch(const char* name, std::function<void()> set) {
    flags_.push_back({name, nullptr, [set](std::string_view) {
                        set();
                        return true;
                      }});
  }
  // A flag whose value `parse` consumes; returning false rejects the value.
  void Custom(const char* name, const char* metavar,
              std::function<bool(std::string_view)> parse) {
    flags_.push_back({name, metavar, std::move(parse)});
  }
  // A number parsed in full into *out.
  template <typename T>
  void Value(const char* name, T* out) {
    Custom(name, std::is_integral_v<T> ? "N" : "X",
           [out](std::string_view text) { return ParseValue(text, out); });
  }
  void Value(const char* name, std::string* out) {
    Custom(name, "PATH", [out](std::string_view text) {
      *out = text;
      return true;
    });
  }
  // A decimal count of `unit`s (e.g. --latency-goal-ms) stored in ns; see
  // ParseDuration for what is rejected.
  void Duration(const char* name, TimeNs* out, TimeNs unit) {
    Custom(name, "X", [out, unit](std::string_view text) {
      return ParseDuration(text, unit, out);
    });
  }

  // Applies the flags in argv[0, argc) and returns the positional arguments,
  // of which there must be between `min_args` and `max_args`.
  std::vector<std::string> Parse(int argc, char** argv, std::size_t min_args,
                                 std::size_t max_args);
  std::vector<std::string> Parse(int argc, char** argv, std::size_t num_args) {
    return Parse(argc, argv, num_args, num_args);
  }
  [[noreturn]] void Usage() const;

 private:
  struct Flag {
    std::string name;
    const char* metavar;  // Null for a switch.
    std::function<bool(std::string_view)> apply;
  };
  std::string synopsis_;
  std::vector<Flag> flags_;
};

// Writes `content` to `path`; reports "cannot write PATH" on failure.
bool WriteFile(const std::string& path, const std::string& content);

// Subcommand entry points; argv[0] is the first argument after the
// subcommand name.
int PlanMain(int argc, char** argv);
int ShowMain(int argc, char** argv);
int FleetMain(int argc, char** argv, bool adapt);
int CheckMain(int argc, char** argv);
int TraceMain(int argc, char** argv);
int ObsMain(int argc, char** argv);
int GoldenMain(int argc, char** argv);

}  // namespace tableau::cli

#endif  // TOOLS_CLI_H_
