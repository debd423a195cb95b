// Fuzz-style tests for the `phillyctl` command line, in the
// trace_fuzz_test.cc mold: adversarial inputs assembled from an atom
// alphabet, plus the known malformed cases the CLI must reject.
//
// Every option goes through one table (src/core/cli_options.h): ParseArgs
// checks the whole command line, numbers through the one strict parser
// (ParseNumber, src/common/strings.h), `--clusters` through ParseClustersSpec
// and `--router` through the table's names, before any command runs; the
// fleet's range checks in the FleetSimulation constructor back it up for
// library callers. The contract under test: a malformed, out-of-range,
// repeated, misplaced or ineffective option is rejected with a message
// naming it (the CLI then exits 2), nothing crashes, and an accepted command
// line's typed values are exactly what its tokens spell. The CI smoke steps
// drive the newly rejected cases through the real binary to pin the exit code
// itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/cli_options.h"
#include "src/fleet/fleet.h"
#include "src/fleet/router.h"

namespace philly {
namespace {

// ------------------------------------------------------------ --clusters

TEST(FleetFlagsFuzzTest, KnownMalformedClusterSpecsAreRejected) {
  const std::vector<std::string> kMalformed = {
      "",        "0",         "65",        "-3",       "+3",
      " 3",      "3 ",        "3.5",       "1e2",      "bogus",
      "x",       "1x",        "x8",        "2x8x",     "2x8x8x2",
      "2x8x17",  "2x0x8",     "0x8",       "2x-8",     "1025x8",
      "2x1025",  "2x8x8,",    ",2x8x8",    "2x8x8,,2x8x8",
      "2x8x8, 2x8x8",         "2x8x8,bogus",
      "99999999999999999999", "2x99999999999999999999",
  };
  for (const std::string& spec : kMalformed) {
    SCOPED_TRACE("spec '" + spec + "'");
    std::vector<ClusterConfig> clusters = {ClusterConfig::PaperScale()};
    const std::vector<ClusterConfig> before = clusters;
    std::string error;
    EXPECT_FALSE(ParseClustersSpec(spec, &clusters, &error));
    EXPECT_FALSE(error.empty()) << "rejection must carry a message";
    // No partial output: the caller's vector is untouched on failure.
    ASSERT_EQ(clusters.size(), before.size());
    EXPECT_EQ(clusters[0].TotalGpus(), before[0].TotalGpus());
  }
  // "2x8,2x8" truncated at the last entry is still well-formed ("2x8"), so it
  // must parse — the trailing-comma case above is the malformed sibling.
  std::vector<ClusterConfig> clusters;
  std::string error;
  EXPECT_TRUE(ParseClustersSpec("2x8,2x8", &clusters, &error)) << error;
  ASSERT_EQ(clusters.size(), 2u);
}

TEST(FleetFlagsFuzzTest, ValidClusterSpecsParseToTheSpelledTopology) {
  Rng rng(91);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.Between(1, 5));
    std::string spec;
    std::vector<int> expected_gpus;
    for (int i = 0; i < n; ++i) {
      const int racks = static_cast<int>(rng.Between(1, 12));
      const int servers = static_cast<int>(rng.Between(1, 40));
      const bool explicit_g = rng.Bernoulli(0.5);
      const int gpus = explicit_g ? static_cast<int>(rng.Between(1, 16)) : 8;
      if (i > 0) {
        spec += ',';
      }
      spec += std::to_string(racks) + "x" + std::to_string(servers);
      if (explicit_g) {
        spec += "x" + std::to_string(gpus);
      }
      expected_gpus.push_back(racks * servers * gpus);
    }
    SCOPED_TRACE("spec '" + spec + "'");
    std::vector<ClusterConfig> clusters;
    std::string error;
    ASSERT_TRUE(ParseClustersSpec(spec, &clusters, &error)) << error;
    ASSERT_EQ(clusters.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(clusters[static_cast<size_t>(i)].TotalGpus(), expected_gpus[static_cast<size_t>(i)]);
    }
  }
  // Count form: "N" paper-scale clusters.
  std::vector<ClusterConfig> clusters;
  std::string error;
  ASSERT_TRUE(ParseClustersSpec("4", &clusters, &error)) << error;
  ASSERT_EQ(clusters.size(), 4u);
  EXPECT_EQ(clusters[0].TotalGpus(), ClusterConfig::PaperScale().TotalGpus());
}

// Random mutations of valid specs: the parser must either reject with a
// message and no partial output, or accept and yield only in-range topologies
// — and it must never crash on any byte soup.
TEST(FleetFlagsFuzzTest, RandomSpecSoupNeverCrashesOrHalfParses) {
  static const std::vector<std::string> kAtoms = {
      "2x8x8", "1x16", "3",   ",", "x",  "0",  "-", "+",  " ",
      "8",     "1024", "17",  "", "x8", "2x", "9999999999999999999",
  };
  Rng rng(1337);
  for (int round = 0; round < 500; ++round) {
    std::string spec;
    const int atoms = static_cast<int>(rng.Between(1, 6));
    for (int i = 0; i < atoms; ++i) {
      spec += kAtoms[rng.Below(kAtoms.size())];
    }
    SCOPED_TRACE("round " + std::to_string(round) + " spec '" + spec + "'");
    std::vector<ClusterConfig> clusters;
    std::string error;
    const bool ok = ParseClustersSpec(spec, &clusters, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty());
      EXPECT_TRUE(clusters.empty()) << "partial output on failure";
      continue;
    }
    ASSERT_FALSE(clusters.empty());
    ASSERT_LE(clusters.size(), 64u);
    for (const ClusterConfig& cluster : clusters) {
      // Count-form specs yield paper-scale clusters (two SKUs); list-form
      // entries yield one SKU each. Either way every dimension is in range.
      ASSERT_FALSE(cluster.skus.empty());
      for (const auto& sku : cluster.skus) {
        EXPECT_GE(sku.racks, 1);
        EXPECT_LE(sku.racks, 1024);
        EXPECT_GE(sku.servers_per_rack, 1);
        EXPECT_LE(sku.servers_per_rack, 1024);
        EXPECT_GE(sku.gpus_per_server, 1);
        EXPECT_LE(sku.gpus_per_server, 16);
      }
    }
  }
}

// -------------------------------------------------------------- --router

TEST(FleetFlagsFuzzTest, RouterPolicyNamesRoundTripAndRejectEverythingElse) {
  for (const RouterPolicy policy :
       {RouterPolicy::kPinnedHome, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSpillover}) {
    RouterPolicy parsed = RouterPolicy::kPinnedHome;
    ASSERT_TRUE(RouterPolicyFromString(ToString(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  const std::vector<std::string> kBad = {
      "",          "Pinned",     "pinned ",   " pinned", "pinned-home",
      "least",     "leastloaded", "least_loaded", "spill", "spillover ",
      "SPILLOVER", "teleport",   "0",         "pinned\n",
  };
  for (const std::string& name : kBad) {
    SCOPED_TRACE("name '" + name + "'");
    // Pre-set to a sentinel: a rejecting parse must not write through.
    RouterPolicy parsed = RouterPolicy::kSpillover;
    EXPECT_FALSE(RouterPolicyFromString(name, &parsed));
    EXPECT_EQ(parsed, RouterPolicy::kSpillover) << "silent default on reject";
  }
}

// ------------------------------------------------------ --spill-threshold

// The option table rejects junk and negative values before construction;
// the FleetSimulation constructor rejects negative values from library
// callers. Both layers together mean no malformed threshold ever reaches
// routing.
TEST(FleetFlagsFuzzTest, NegativeSpillThresholdsAreRejectedAtConstruction) {
  std::vector<ClusterConfig> topologies;
  std::string error;
  ASSERT_TRUE(ParseClustersSpec("1x4x4,1x4x4", &topologies, &error)) << error;
  for (const int64_t threshold : {-1, -7, -1000000}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    FleetConfig config;
    for (size_t i = 0; i < topologies.size(); ++i) {
      config.clusters.push_back(
          {"c" + std::to_string(i),
           FleetClusterExperiment(topologies[i], /*days=*/1, /*base_seed=*/1,
                                  static_cast<int>(i))});
    }
    config.router.policy = RouterPolicy::kSpillover;
    config.router.spill_threshold = threshold;
    EXPECT_THROW(FleetSimulation(std::move(config)), std::invalid_argument);
  }
}

// ------------------------------------------------- the whole command line

bool Parse(const std::vector<std::string>& words, Args* args, std::string* error) {
  std::vector<const char*> argv;
  for (const std::string& word : words) {
    argv.push_back(word.c_str());
  }
  return ParseArgs(argv, args, error);
}

const Option& OptionNamed(std::string_view flag) {
  for (const Option& option : Options()) {
    if (option.flag == flag) {
      return option;
    }
  }
  throw std::logic_error("no option " + std::string(flag));
}

bool Reads(const Option& option, std::string_view command) {
  for (const OptionUse& use : option.uses) {
    if (use.command == command) {
      return true;
    }
  }
  return false;
}

// A value the option accepts.
std::string ValidValue(const Option& option) {
  switch (option.kind) {
    case OptionKind::kInt:
    case OptionKind::kIntList:
      return std::to_string(option.min);
    case OptionKind::kPositive:
      return "1.5";
    case OptionKind::kName:
    case OptionKind::kNameList:
      return std::string(option.names.front());
    default:
      return option.check != nullptr ? "2" : "x";
  }
}

// The subcommand of `command`, with what it requires: its mode's flag, or
// explain's --job and --spans.
std::vector<std::string> Base(const Command& command) {
  std::vector<std::string> words = {std::string(command.name.substr(0, command.name.find(' ')))};
  for (const Option& option : Options()) {
    for (const OptionUse& use : option.uses) {
      if (use.command == command.name && use.required) {
        words.push_back(option.flag);
        words.push_back(ValidValue(option));
      }
    }
  }
  return words;
}

TEST(CliOptionsTest, EveryCommandParsesWithItsDefaultsAndNamesItsOptions) {
  const std::string usage = UsageText();
  for (const Command& command : Commands()) {
    SCOPED_TRACE(std::string(command.name));
    Args args;
    std::string error;
    ASSERT_TRUE(Parse(Base(command), &args, &error)) << error;
    EXPECT_EQ(args.command(), command.name);
    EXPECT_NE(usage.find("phillyctl " + std::string(command.name) + ":"), std::string::npos);
  }
  for (const Option& option : Options()) {
    EXPECT_NE(usage.find("  " + option.flag + " "), std::string::npos) << option.flag;
  }
  // The table's default threshold is the router's.
  Args args;
  std::string error;
  ASSERT_TRUE(Parse({"fleet", "--router", "spillover"}, &args, &error)) << error;
  EXPECT_EQ(args.Int("--spill-threshold"), RouterConfig{}.spill_threshold);
}

// One known-malformed value per kind, for every command that reads the
// option: each is rejected with a message that names the option.
TEST(CliOptionsTest, KnownMalformedValuesAreRejectedNamingTheirFlag) {
  const std::vector<std::string> kBadInts = {" 1", "+1", "0x10", "1e3", "1 ", "", "-",
                                             "99999999999999999999"};
  int cases = 0;
  for (const Command& command : Commands()) {
    for (const Option& option : Options()) {
      if (!Reads(option, command.name) || option.kind == OptionKind::kSwitch) {
        continue;
      }
      std::vector<std::string> bad;
      switch (option.kind) {
        case OptionKind::kInt:
          bad = kBadInts;
          break;
        case OptionKind::kIntList:
          bad = {"1,,2", ",1", "1,", "", " 1", "1,+2", "0x10"};
          break;
        case OptionKind::kPositive:
          bad = {"0x1p1", "inf", "nan", "0", "-1", " 1", "1e400", ""};
          break;
        case OptionKind::kName:
          bad = {"bogus", "", std::string(option.names.front()) + " "};
          break;
        case OptionKind::kNameList:
          bad = {"bogus", "", std::string(option.names.front()) + ",",
                 "," + std::string(option.names.front())};
          break;
        default:
          bad = {""};
      }
      if (option.flag == "--checkpoint-mins") {
        bad.push_back("4294967297");  // would wrap to 1 through an int
      }
      for (const std::string& value : bad) {
        std::vector<std::string> words = Base(command);
        // What the option needs to act (--router spillover, --ckpt-bw), so
        // that its value is what gets checked.
        if (!option.needs.empty() && !option.needs_absent) {
          const Option& needed = OptionNamed(option.needs.front());
          words.insert(words.end(), {needed.flag, option.needs_value.empty()
                                                      ? ValidValue(needed)
                                                      : std::string(option.needs_value)});
        }
        // A required option is in the base already: replace its value.
        const auto given = std::find(words.begin(), words.end(), option.flag);
        if (given != words.end()) {
          given[1] = value;
        } else {
          words.insert(words.end(), {option.flag, value});
        }
        SCOPED_TRACE(std::string(command.name) + " " + option.flag + " '" + value + "'");
        Args args;
        std::string error;
        EXPECT_FALSE(Parse(words, &args, &error));
        EXPECT_NE(error.find(option.flag), std::string::npos) << error;
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 100);
}

// A flag of another command or mode, and a flag given twice, for every
// command: each is rejected naming the flag. (A flag that selects a sibling
// mode selects that mode instead; the explicit cases below cover those.)
TEST(CliOptionsTest, MisplacedRepeatedAndIneffectiveFlagsAreRejected) {
  for (const Command& command : Commands()) {
    const std::string_view subcommand = command.name.substr(0, command.name.find(' '));
    for (const Option& option : Options()) {
      const bool read = Reads(option, command.name);
      const bool selects_sibling = std::any_of(
          Commands().begin(), Commands().end(), [&](const Command& other) {
            return other.name.substr(0, other.name.find(' ')) == subcommand &&
                   other.name.substr(other.name.find(' ') + 1) == option.flag;
          });
      if (!read && selects_sibling) {
        continue;
      }
      std::vector<std::string> once = {option.flag};
      if (option.kind != OptionKind::kSwitch) {
        once.push_back(ValidValue(option));
      }
      std::vector<std::string> words = Base(command);
      words.insert(words.end(), once.begin(), once.end());
      if (read && std::count(words.begin(), words.end(), option.flag) == 1) {
        words.insert(words.end(), once.begin(), once.end());
      }
      SCOPED_TRACE(std::string(command.name) + " " + option.flag);
      Args args;
      std::string error;
      EXPECT_FALSE(Parse(words, &args, &error));
      EXPECT_NE(error.find(option.flag), std::string::npos) << error;
    }
  }
  const std::vector<std::vector<std::string>> kIneffective = {
      {"sweep", "--retry", "adaptive", "--retries", "fixed"},
      {"fleet", "--spill-threshold", "2"},
      {"fleet", "--router", "least-loaded", "--spill-threshold", "2"},
      {"analyze", "--from-events", "e", "--telemetry", "t"},
      {"analyze", "--telemetry", "t", "--figures", "f", "--philly-traces"},
      {"analyze", "--trace", "d", "--spans", "s"},
      {"analyze"},
      {"explain", "--job", "1"},
      {"simulate", "positional"},
      {"simulate", "--days"},
  };
  for (const std::vector<std::string>& words : kIneffective) {
    SCOPED_TRACE(words.back());
    Args args;
    std::string error;
    EXPECT_FALSE(Parse(words, &args, &error));
    EXPECT_EQ(error.rfind("phillyctl " + words[0], 0), 0u) << error;
  }
  // Options that act only with another: the message names both, and the
  // same line with the other option parses.
  const std::vector<std::pair<std::vector<std::string>, std::string>> kNeeds = {
      {{"report", "--ckpt-policy", "stagger"}, "--ckpt-policy has no effect without --ckpt-bw"},
      {{"sweep", "--ckpt-size-gb-per-gpu", "4"},
       "--ckpt-size-gb-per-gpu has no effect without --ckpt-bw"},
      {{"fleet", "--collect-spans"}, "--collect-spans has no effect without --out or --html"},
  };
  for (const auto& [words, why] : kNeeds) {
    SCOPED_TRACE(words[1]);
    Args args;
    std::string error;
    EXPECT_FALSE(Parse(words, &args, &error));
    EXPECT_EQ(error, "phillyctl " + words[0] + ": " + why);
  }
  const std::vector<std::pair<std::vector<std::string>, std::string>> kActs = {
      {{"report", "--ckpt-policy", "stagger", "--ckpt-bw", "1"}, "--ckpt-policy"},
      {{"sweep", "--ckpt-bw", "1", "--ckpt-size-gb-per-gpu", "4"}, "--ckpt-size-gb-per-gpu"},
      {{"fleet", "--collect-spans", "--out", "o"}, "--collect-spans"},
      {{"fleet", "--html", "d.html", "--collect-spans"}, "--collect-spans"},
  };
  for (const auto& [words, flag] : kActs) {
    Args args;
    std::string error;
    EXPECT_TRUE(Parse(words, &args, &error)) << error;
    EXPECT_TRUE(args.Has(flag)) << flag;
  }
  for (const std::vector<std::string>& words : {std::vector<std::string>{},
                                                std::vector<std::string>{"simulat"}}) {
    Args args;
    std::string error;
    EXPECT_FALSE(Parse(words, &args, &error));
    EXPECT_EQ(error, UsageText());
  }
}

// The benchmark's command lines (phillybench/run.py `commands()`, seed 42),
// and the knobs the manifest records for them.
TEST(CliOptionsTest, BenchmarkCommandLinesParse) {
  const std::vector<std::vector<std::string>> kLines = {
      {"simulate", "--days", "75", "--seed", "42", "--out", "out"},
      {"simulate", "--days", "75", "--seed", "42", "--out", "out", "--events-out",
       "out/events.ndjson", "--telemetry-out", "out/telemetry.ndjson", "--spans-out",
       "out/spans.ndjson", "--metrics-out", "out/metrics.json"},
      {"analyze", "--from-events", "out/events.ndjson", "--spans", "out/spans.ndjson", "--trace",
       "out"},
      {"analyze", "--telemetry", "out/telemetry.ndjson", "--trace", "out"},
      {"simulate", "--days", "365", "--seed", "42", "--faults", "--checkpoint-mins", "60",
       "--ckpt-bw", "2", "--ckpt-policy", "stagger", "--out", "out"},
      {"fleet", "--clusters", "12x16x8,8x12x8,6x8x8,4x8x4", "--router", "spillover", "--days",
       "40", "--seed", "42", "--threads", "1", "--out", "out", "--html", "out/dashboard.html"},
      {"analyze", "--telemetry", "out/cluster0.telemetry.ndjson"},
  };
  for (const std::vector<std::string>& words : kLines) {
    Args args;
    std::string error;
    EXPECT_TRUE(Parse(words, &args, &error)) << error;
  }
  Args year;
  std::string error;
  ASSERT_TRUE(Parse(kLines[4], &year, &error)) << error;
  const RunManifest manifest = year.Manifest();
  EXPECT_EQ(manifest.knobs, (std::map<std::string, std::string>{{"checkpoint-mins", "60"},
                                                                {"ckpt-bw", "2"},
                                                                {"ckpt-policy", "stagger"},
                                                                {"faults", "on"},
                                                                {"format", "native"},
                                                                {"retry", "fixed"},
                                                                {"scheduler", "philly"}}));
  Args fleet;
  ASSERT_TRUE(Parse(kLines[5], &fleet, &error)) << error;
  EXPECT_EQ(fleet.Manifest().knobs,
            (std::map<std::string, std::string>{{"clusters", "12x16x8,8x12x8,6x8x8,4x8x4"},
                                                {"router", "spillover"},
                                                {"spill-threshold", "4"}}));
}

// Random argv from an atom soup: parsing never throws, and an accepted
// command line's typed values are exactly what its tokens spell.
TEST(CliOptionsTest, AtomSoupNeverCrashesAndAcceptedValuesMatchTheirTokens) {
  std::vector<std::string> atoms = {
      "1",     "0",     "-1",     " 1",     "+1",     "0x10",   "1e3",    "4294967297",
      "2147483647",     "2147483648",     "9223372036854775807", "0x1p1", "inf",    "nan",
      "1.5",   ".5",    "5.",     "007",    "1,2",    "1,,2",   ",",      "",       "x",
      "2x8x8", "out/x", "-",      "--",     "bogus",  "analyze", "both",  "spillover",
      "philly,fifo",    "fixed,adaptive", "--telemetry", "--from-events",
  };
  for (const Option& option : Options()) {
    atoms.push_back(option.flag);
    for (const std::string_view name : option.names) {
      atoms.emplace_back(name);
    }
  }
  std::vector<std::string> subcommands = {"bogus"};
  for (const Command& command : Commands()) {
    subcommands.emplace_back(command.name.substr(0, command.name.find(' ')));
  }
  Rng rng(20261019);
  int accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::string> words = {subcommands[rng.Below(subcommands.size())]};
    const int n = static_cast<int>(rng.Between(0, 8));
    for (int i = 0; i < n; ++i) {
      words.push_back(atoms[rng.Below(atoms.size())]);
    }
    std::string trace;
    for (const std::string& word : words) {
      trace += "'" + word + "' ";
    }
    SCOPED_TRACE(trace);
    Args args;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = Parse(words, &args, &error));
    if (!ok) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++accepted;
    for (size_t i = 1; i < words.size(); ++i) {
      const Option& option = OptionNamed(words[i]);
      if (option.kind == OptionKind::kSwitch) {
        EXPECT_TRUE(args.Has(option.flag));
        continue;
      }
      const std::string& token = words[++i];
      EXPECT_EQ(args.Text(option.flag), token);
      const std::vector<std::string_view> items = Split(token, ',');
      switch (option.kind) {
        case OptionKind::kInt:
          EXPECT_EQ(args.Int(option.flag), std::stoll(token));
          break;
        case OptionKind::kPositive:
          EXPECT_EQ(args.Number(option.flag), std::stod(token));
          break;
        case OptionKind::kName:
          EXPECT_EQ(option.names.at(args.Choice(option.flag)), token);
          break;
        case OptionKind::kIntList:
          ASSERT_EQ(args.Ints(option.flag).size(), items.size());
          for (size_t k = 0; k < items.size(); ++k) {
            EXPECT_EQ(args.Ints(option.flag)[k], std::stoll(std::string(items[k])));
          }
          break;
        case OptionKind::kNameList:
          EXPECT_EQ(args.Items(option.flag), items);
          break;
        default:
          break;
      }
    }
  }
  EXPECT_GT(accepted, 50);
}

// The one number parser, on the env knobs' cases among others.
TEST(ParseNumberTest, AcceptsOnlyWholeBaseTenNumbersInRange) {
  for (const char* bad : {" 2", "+2", "2 ", "", "0x10", "1e3", "2.0", "-"}) {
    int value = 7;
    EXPECT_FALSE(ParseNumber(bad, &value)) << bad;
    EXPECT_EQ(value, 7) << "written through on a rejection";
  }
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u64));
  EXPECT_EQ(u64, UINT64_MAX);
  EXPECT_FALSE(ParseNumber("18446744073709551616", &u64));
  EXPECT_FALSE(ParseNumber("-1", &u64));
  int32_t i32 = 0;
  EXPECT_TRUE(ParseNumber("-2147483648", &i32));
  EXPECT_FALSE(ParseNumber("2147483648", &i32));
  for (const char* bad : {"0x1p1", "inf", "-inf", "nan", "1e400", " 1", "+1", "1 ", ""}) {
    double value = 7.0;
    EXPECT_FALSE(ParseNumber(bad, &value)) << bad;
  }
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_TRUE(ParseNumber("0.1", &d));
  EXPECT_EQ(d, 0.1);
}

}  // namespace
}  // namespace philly
