// The options of `phillyctl`, each declared once in one table: its flag, the
// kind of value it takes, the commands that read it with their defaults, how
// a run's manifest records it, and its help line. ParseArgs checks a whole
// command line against the table before any command runs, so a malformed,
// out-of-range, repeated or ineffective option fails before any work; the
// commands then read typed values from Args. The usage text and the manifest
// knobs come from the same rows. The output flags are SimulateOutputs' and
// kDashboardFlag (src/core/run_outputs.h).

#ifndef SRC_CORE_CLI_OPTIONS_H_
#define SRC_CORE_CLI_OPTIONS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/manifest.h"

namespace philly {

struct SimulationConfig;

// A subcommand, or one mode of it named by the flag that selects it:
// "analyze --telemetry" is `analyze` given `--telemetry`. A subcommand's
// first mode runs when no other mode's flag is given.
struct Command {
  std::string_view name;
  std::string_view purpose;
};

// kSwitch takes no value. kInt is an integer in [min, max], kPositive a
// finite number > 0, kName one of `names`; kIntList and kNameList are comma
// lists of those. kText is a path, or spec text that `check` accepts.
enum class OptionKind { kSwitch, kInt, kPositive, kName, kIntList, kNameList, kText };

// Whether a run's manifest records an option, as a knob named by its flag
// without the dashes: kSet when it has a value ("on" for a given switch),
// kAlways also as "off" for a switch not given.
enum class Record { kNever, kSet, kAlways };

// A command that reads an option, and the option's value when not given.
struct OptionUse {
  std::string_view command;  // a Command's name
  const char* fallback = nullptr;
  bool required = false;
};

struct Option {
  std::string flag;
  OptionKind kind = OptionKind::kSwitch;
  std::string help;
  std::vector<OptionUse> uses;
  int64_t min = 0;
  int64_t max = 0;
  std::vector<std::string_view> names = {};
  // kText: whether `text` is valid, saying why not in *why. Null: any
  // non-empty text.
  bool (*check)(std::string_view text, std::string* why) = nullptr;
  Record record = Record::kNever;
  // The knob's text for a value, when it is not the value itself.
  std::string (*knob_text)(std::string_view value) = nullptr;
  // The option acts only while one of the options `needs` is given, or has
  // the value `needs_value` (one option, declared before this one), or, with
  // `needs_absent`, while none of them is given. Otherwise it has no value,
  // and giving it is an error.
  std::vector<std::string_view> needs = {};
  std::string_view needs_value = {};
  bool needs_absent = false;
};

const std::vector<Command>& Commands();
const std::vector<Option>& Options();

// A command line checked against the table: its command (a Command's name)
// and the value of each option the command reads. Asking for an option the
// command does not read throws std::logic_error.
class Args {
 public:
  const std::string& command() const { return command_; }
  // Whether the option has a value: given (a switch: on), or defaulted.
  bool Has(std::string_view flag) const { return Find(flag).set; }
  // The value's text; empty when it has none.
  const std::string& Text(std::string_view flag) const { return Find(flag).text; }
  int64_t Int(std::string_view flag) const { return Find(flag).ints.at(0); }
  double Number(std::string_view flag) const { return Find(flag).number; }  // kPositive
  // kName: the value's index in `names`.
  size_t Choice(std::string_view flag) const { return static_cast<size_t>(Int(flag)); }
  // kIntList: the entries. Items: the entries' texts.
  const std::vector<int64_t>& Ints(std::string_view flag) const { return Find(flag).ints; }
  std::vector<std::string_view> Items(std::string_view flag) const;
  // The command, the seed, the days and the knobs of the options as their
  // Record says: what a run's manifest needs to regenerate the run.
  RunManifest Manifest() const;

 private:
  friend bool ParseArgs(std::span<const char* const> argv, Args* args, std::string* error);
  struct Value {
    const Option* option = nullptr;
    bool given = false;
    bool set = false;
    std::string text;
    std::vector<int64_t> ints;  // integers, or indices in `names`
    double number = 0.0;
  };
  const Value& Find(std::string_view flag) const;

  std::string command_;
  std::map<std::string, Value, std::less<>> values_;
};

// Checks `argv`, the subcommand and then its options, against the table and
// fills *args. On failure sets *error to why, naming the command, the flag,
// the value and what was expected (the usage text, for a missing or unknown
// subcommand) and returns false.
bool ParseArgs(std::span<const char* const> argv, Args* args, std::string* error);

// Every command's purpose and options.
std::string UsageText();

// Applies the scheduler options of `args` to `sim`: the scheduler preset and
// the retry policy named `scheduler` and `retry` (the values of --scheduler
// and --retry, or entries of sweep's lists), the §5 switches, --faults and
// the checkpoint knobs.
void ApplySchedulerOptions(const Args& args, std::string_view scheduler,
                           std::string_view retry, SimulationConfig* sim);

}  // namespace philly

#endif  // SRC_CORE_CLI_OPTIONS_H_
