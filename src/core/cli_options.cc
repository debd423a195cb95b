#include "src/core/cli_options.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "src/common/strings.h"
#include "src/core/run_outputs.h"
#include "src/fault/fault_process.h"
#include "src/fleet/fleet.h"
#include "src/sched/simulation.h"

namespace philly {
namespace {

using enum OptionKind;

const std::vector<std::string_view> kSchedulerNames = {"philly", "fifo", "optimus", "tiresias",
                                                       "gandiva"};
// The presets of kSchedulerNames, in order.
SchedulerConfig (*const kPresets[])() = {SchedulerConfig::Philly, SchedulerConfig::Fifo,
                                          SchedulerConfig::Optimus, SchedulerConfig::Tiresias,
                                          SchedulerConfig::Gandiva};
// In the order of SchedulerConfig::RetryPolicyKind and of CheckpointPolicy.
const std::vector<std::string_view> kRetryNames = {"fixed", "adaptive", "predictive"};
const std::vector<std::string_view> kCkptPolicyNames = {"fixed", "daly", "stagger"};

size_t IndexOf(const std::vector<std::string_view>& names, std::string_view name) {
  return static_cast<size_t>(std::find(names.begin(), names.end(), name) - names.begin());
}

SchedulerConfig Preset(std::string_view name) { return kPresets[IndexOf(kSchedulerNames, name)](); }

const OptionUse* UseOf(const Option& option, std::string_view command) {
  const auto it = std::find_if(option.uses.begin(), option.uses.end(),
                               [command](const OptionUse& use) { return use.command == command; });
  return it == option.uses.end() ? nullptr : &*it;
}

// What a value of the option must be, for messages and the usage text.
std::string Expected(const Option& option) {
  if (option.kind == kPositive || option.kind == kText) {
    return option.kind == kPositive ? "a finite number > 0" : "a non-empty path";
  }
  const bool list = option.kind == kIntList || option.kind == kNameList;
  std::string what = list ? "a comma list of " : option.names.empty() ? "an " : "one of ";
  if (option.names.empty()) {
    return what + (list ? "integers" : "integer") + " in [" + std::to_string(option.min) + ", " +
           std::to_string(option.max) + "]";
  }
  for (size_t i = 0; i < option.names.size(); ++i) {
    what.append(i > 0 ? ", " : "").append(option.names[i]);
  }
  return what;
}

// Reads `text` as a value of the option: a kPositive into *number, the
// integers or name indices of the others into *ints. False if it is not one;
// a kText check says why in *why.
bool ParseValue(const Option& option, std::string_view text, std::string* why, double* number,
                std::vector<int64_t>* ints) {
  if (option.kind == kPositive) {
    return ParseNumber(text, number) && *number > 0.0;
  }
  if (option.kind == kText) {
    return option.check != nullptr ? option.check(text, why) : !text.empty();
  }
  const bool list = option.kind == kIntList || option.kind == kNameList;
  for (const std::string_view item : list ? Split(text, ',') : std::vector{text}) {
    const size_t name = IndexOf(option.names, item);
    int64_t n = static_cast<int64_t>(name);
    if (option.names.empty() ? !ParseNumber(item, &n) || n < option.min || n > option.max
                             : name == option.names.size()) {
      return false;
    }
    ints->push_back(n);
  }
  return true;
}

bool CheckClusters(std::string_view text, std::string* why) {
  std::vector<ClusterConfig> clusters;
  return ParseClustersSpec(text, &clusters, why);
}

}  // namespace

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"simulate", "run a simulation, print its analysis, write its trace and manifest.json"},
      {"report", "run a simulation and print its analysis, without a trace"},
      {"analyze --trace", "read a native trace (or a public cluster_job_log) back, print tables"},
      {"analyze --from-events", "rebuild Table 6, Figs 2-3 and Table 2 from an event log, and "
                                "cross-check a native trace and a span stream"},
      {"analyze --telemetry", "verify a telemetry stream's digest, print Table 3's aggregates"},
      {"sweep", "run schedulers x retry policies x seeds on the experiment pool, a row each"},
      {"fleet", "run clusters behind the front-door job router (docs/fleet.md)"},
      {"explain", "print one job's causal timeline from a span stream"},
  };
  return commands;
}

const std::vector<Option>& Options() {
  static const std::vector<Option> options = [] {
    const std::vector<OptionUse> scheduled = {{"simulate"}, {"report"}, {"sweep"}};
    const auto text = [](std::string flag, std::string help, std::vector<OptionUse> uses) {
      return Option{.flag = flag, .kind = kText, .help = help, .uses = uses};
    };
    std::vector<Option> table = {
        {.flag = "--days", .kind = kInt, .help = "days of submitted workload",
         .uses = {{"simulate", "10"}, {"report", "10"}, {"sweep", "10"}, {"fleet", "3"}},
         .min = 1, .max = INT_MAX},
        {.flag = "--seed", .kind = kInt, .help = "workload seed",
         .uses = {{"simulate", "42"}, {"report", "42"}, {"fleet", "42"}}, .min = 0, .max = INT_MAX},
        {.flag = "--threads", .kind = kInt,
         .help = "worker threads, 0 for PHILLY_BENCH_THREADS or every core",
         .uses = {{"sweep", "0"}, {"fleet", "0"}}, .min = 0, .max = INT_MAX},
        {.flag = "--scheduler", .kind = kName, .help = "scheduler preset",
         .uses = {{"simulate", "philly"}, {"report", "philly"}}, .names = kSchedulerNames,
         .record = Record::kSet,
         .knob_text = [](std::string_view name) { return Preset(name).name; }},
        {.flag = "--retry", .kind = kName, .help = "retry policy",
         .uses = {{"simulate", "fixed"}, {"report", "fixed"}, {"sweep", "fixed"}},
         .names = kRetryNames, .record = Record::kSet, .needs = {"--retries"},
         .needs_absent = true},
        {.flag = "--prerun", .help = "enable the 1-GPU pre-run pool (§5)", .uses = scheduled,
         .record = Record::kSet},
        {.flag = "--migration", .help = "enable checkpoint-migration defragmentation (§5)",
         .uses = scheduled, .record = Record::kSet},
        {.flag = "--dedicated", .help = "place small jobs on dedicated servers (§5)",
         .uses = scheduled, .record = Record::kSet},
        {.flag = "--strict-locality", .help = "never relax locality constraints (§5)",
         .uses = scheduled, .record = Record::kSet},
        {.flag = "--faults", .help = "enable the calibrated machine-fault process",
         .uses = scheduled, .record = Record::kAlways},
        {.flag = "--checkpoint-mins", .kind = kInt,
         .help = "minutes between checkpoints for fault recovery; unset, jobs restart",
         .uses = scheduled, .min = 0, .max = INT_MAX, .record = Record::kSet},
        {.flag = "--ckpt-policy", .kind = kName, .help = "checkpoint policy; unset, fixed",
         .uses = scheduled, .names = kCkptPolicyNames, .record = Record::kSet,
         .needs = {"--ckpt-bw"}},
        {.flag = "--ckpt-bw", .kind = kPositive, .help = "per-rack checkpoint GB/s; unset, free",
         .uses = scheduled, .record = Record::kSet},
        {.flag = "--ckpt-size-gb-per-gpu", .kind = kPositive,
         .help = "checkpoint GB per GPU under --ckpt-bw; unset, 2", .uses = scheduled,
         .record = Record::kSet, .needs = {"--ckpt-bw"}},
        // --seed's range, so any swept run can be rerun alone with `simulate --seed`.
        {.flag = "--seeds", .kind = kIntList, .help = "seeds to sweep", .uses = {{"sweep", "42"}},
         .min = 0, .max = INT_MAX},
        {.flag = "--schedulers", .kind = kNameList, .help = "scheduler presets to sweep",
         .uses = {{"sweep", "philly"}}, .names = kSchedulerNames},
        {.flag = "--retries", .kind = kNameList, .help = "retry policies to sweep; unset, --retry",
         .uses = {{"sweep"}}, .names = kRetryNames},
        text("--out", "directory of the outputs and manifest.json",
             {{"simulate", "out/trace"}, {"fleet"}}),
        {.flag = "--format", .kind = kName, .help = "trace layout",
         .uses = {{"simulate", "native"}}, .names = {"native", "philly-traces", "both"},
         .record = Record::kSet},
        text("--figures", "directory of the figure series",
             {{"simulate"}, {"report"}, {"analyze --trace"}}),
        text("--trace", "a native trace directory",
             {{"analyze --trace", nullptr, true},
              {"analyze --from-events"},
              {"analyze --telemetry"}}),
        {.flag = "--philly-traces", .help = "read --trace as the public release layout",
         .uses = {{"analyze --trace"}}},
        text("--from-events", "an NDJSON event log", {{"analyze --from-events", nullptr, true}}),
        text("--telemetry", "an NDJSON telemetry stream", {{"analyze --telemetry", nullptr, true}}),
        text("--spans", "an NDJSON span stream",
             {{"analyze --from-events"}, {"explain", nullptr, true}}),
        {.flag = "--clusters", .kind = kText,
         .help = "a count of paper-scale clusters, or a comma list of RxS or RxSxG topologies",
         .uses = {{"fleet", "3"}}, .check = CheckClusters, .record = Record::kSet},
        {.flag = "--router", .kind = kName, .help = "routing policy", .uses = {{"fleet", "pinned"}},
         .names = {ToString(RouterPolicy::kPinnedHome), ToString(RouterPolicy::kLeastLoaded),
                   ToString(RouterPolicy::kSpillover)},
         .record = Record::kSet},
        {.flag = "--spill-threshold", .kind = kInt, .help = "home queue depth before spilling",
         .uses = {{"fleet", "4"}}, .min = 0, .max = INT64_MAX, .record = Record::kSet,
         .needs = {"--router"}, .needs_value = "spillover"},
        {.flag = "--collect-spans", .help = "collect each cluster's span stream",
         .uses = {{"fleet"}}, .record = Record::kSet, .needs = {"--out", kDashboardFlag}},
        {.flag = "--job", .kind = kInt, .help = "the job", .uses = {{"explain", nullptr, true}},
         .min = 1, .max = INT64_MAX},
    };
    for (const RunOutput& output : SimulateOutputs(nullptr)) {
      table.push_back(text(output.flag, "write the " + output.what, {{"simulate"}, {"report"}}));
      if (output.flag == kDashboardFlag) {
        table.back().uses.push_back({"fleet"});
      }
    }
    return table;
  }();
  return options;
}

std::vector<std::string_view> Args::Items(std::string_view flag) const {
  return Split(Text(flag), ',');
}

const Args::Value& Args::Find(std::string_view flag) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) {
    throw std::logic_error("phillyctl " + command_ + " reads no option " + std::string(flag));
  }
  return it->second;
}

RunManifest Args::Manifest() const {
  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = command_;
  manifest.seed = static_cast<uint64_t>(Int("--seed"));
  manifest.days = static_cast<double>(Int("--days"));
  for (const auto& [flag, value] : values_) {
    const Option& option = *value.option;
    if (option.record == Record::kAlways || (option.record == Record::kSet && value.set)) {
      manifest.knobs[flag.substr(2)] =
          option.kind == kSwitch       ? (value.set ? "on" : "off")
          : option.knob_text != nullptr ? option.knob_text(value.text)
                                        : value.text;
    }
  }
  return manifest;
}

bool ParseArgs(std::span<const char* const> argv, Args* args, std::string* error) {
  std::vector<std::string_view> modes;
  for (const Command& command : Commands()) {
    if (!argv.empty() && command.name.substr(0, command.name.find(' ')) == argv[0]) {
      modes.push_back(command.name);
    }
  }
  if (modes.empty()) {
    *error = UsageText();
    return false;
  }
  Args parsed;
  parsed.command_ = modes[0];
  for (const std::string_view mode : std::span(modes).subspan(1)) {
    if (std::find(argv.begin(), argv.end(), mode.substr(mode.find(' ') + 1)) != argv.end()) {
      parsed.command_ = mode;
      break;
    }
  }
  const auto fail = [&](const std::string& why) {
    *error = "phillyctl " + parsed.command_ + ": " + why;
    return false;
  };
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string flag = argv[i];
    const auto option = std::find_if(Options().begin(), Options().end(), [&](const Option& o) {
      return o.flag == flag && UseOf(o, parsed.command_) != nullptr;
    });
    if (option == Options().end()) {
      return fail("'" + flag + "' " + (flag.starts_with("-") ? "is not an option of this command"
                                                             : "is an unexpected argument"));
    }
    Args::Value& value = parsed.values_[flag];
    if (value.given) {
      return fail("'" + flag + "' is given twice");
    }
    if (option->kind != kSwitch && i + 1 == argv.size()) {
      return fail("'" + flag + "' needs a value");
    }
    value.given = true;
    value.text = option->kind == kSwitch ? "" : argv[++i];
  }
  for (const Option& option : Options()) {
    const OptionUse* use = UseOf(option, parsed.command_);
    if (use == nullptr) {
      continue;
    }
    Args::Value& value = parsed.values_[option.flag];
    value.option = &option;
    std::string needs;
    bool any_given = false;
    for (const std::string_view flag : option.needs) {
      needs.append(needs.empty() ? "" : " or ").append(flag);
      const auto it = parsed.values_.find(flag);
      any_given = any_given || (it != parsed.values_.end() && it->second.given);
    }
    if (!option.needs.empty() && (!option.needs_value.empty()
                                      ? parsed.Text(option.needs.front()) != option.needs_value
                                      : any_given == option.needs_absent)) {
      if (value.given) {
        return fail(option.flag + " has no effect " +
                    (!option.needs_value.empty()
                         ? "unless " + needs + " is " + std::string(option.needs_value)
                     : option.needs_absent ? "with " + needs
                                           : "without " + needs));
      }
      continue;
    }
    if (!value.given && use->required) {
      return fail(option.flag + " is required");
    }
    value.set = value.given || (option.kind != kSwitch && use->fallback != nullptr);
    if (!value.set || option.kind == kSwitch) {
      continue;
    }
    if (!value.given) {
      value.text = use->fallback;
    }
    std::string why;
    if (!ParseValue(option, value.text, &why, &value.number, &value.ints)) {
      return fail(!why.empty() ? why
                               : option.flag + " '" + value.text + "' is invalid: expected " +
                                     Expected(option));
    }
  }
  *args = std::move(parsed);
  return true;
}

std::string UsageText() {
  // The value of each kind, in OptionKind order.
  constexpr const char* kValue[] = {"", " N", " X", " NAME", " N,...", " NAME,...", " PATH"};
  std::string out = "usage: phillyctl COMMAND [options]\n";
  for (const Command& command : Commands()) {
    out.append("\nphillyctl ").append(command.name).append(": ").append(command.purpose) += '\n';
    for (const Option& option : Options()) {
      if (const OptionUse* use = UseOf(option, command.name)) {
        std::string line = "  " + option.flag;
        line += option.check != nullptr ? " SPEC" : kValue[static_cast<int>(option.kind)];
        line.resize(std::max<size_t>(line.size() + 1, 30), ' ');
        std::string notes = option.kind == kSwitch || option.kind == kText ? "" : Expected(option);
        if (use->required || use->fallback != nullptr) {
          notes += notes.empty() ? "" : "; ";
          notes += use->required ? "required" : "default " + std::string(use->fallback);
        }
        out += line + option.help + (notes.empty() ? "" : " (" + notes + ")") + "\n";
      }
    }
  }
  return out;
}

void ApplySchedulerOptions(const Args& args, std::string_view scheduler,
                           std::string_view retry, SimulationConfig* sim) {
  SchedulerConfig& sched = sim->scheduler;
  sched = Preset(scheduler);
  sched.retry_policy = static_cast<SchedulerConfig::RetryPolicyKind>(IndexOf(kRetryNames, retry));
  sched.enable_prerun_pool = args.Has("--prerun");
  sched.enable_migration = args.Has("--migration");
  if (args.Has("--dedicated")) {
    sched.placer.pack_small_jobs = false;
  }
  if (args.Has("--strict-locality")) {
    sched.max_relax_level = 0;
  }
  if (args.Has("--faults")) {
    sim->fault = FaultProcessConfig::Calibrated();
  }
  if (args.Has("--checkpoint-mins")) {
    sched.checkpoint_period = Minutes(args.Int("--checkpoint-mins"));
  }
  if (args.Has("--ckpt-policy")) {
    sched.checkpoint_policy = static_cast<CheckpointPolicy>(args.Choice("--ckpt-policy"));
  }
  if (args.Has("--ckpt-bw")) {
    sim->ckpt_io.rack_bandwidth_gbps = args.Number("--ckpt-bw");
  }
  if (args.Has("--ckpt-size-gb-per-gpu")) {
    sim->ckpt_io.size_gb_per_gpu = args.Number("--ckpt-size-gb-per-gpu");
  }
}

}  // namespace philly
