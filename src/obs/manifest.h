// Run manifest: the reproducibility sidecar written next to every trace or
// observability output directory. Records what produced the artifacts —
// command, seed, workload scale, scheduler knobs, thread count — so a trace
// directory found on disk months later can be regenerated bit-for-bit.

#ifndef SRC_OBS_MANIFEST_H_
#define SRC_OBS_MANIFEST_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace philly {

struct RunManifest {
  std::string tool;         // producing binary, e.g. "phillyctl"
  std::string command;      // subcommand, e.g. "simulate"
  uint64_t seed = 0;
  double days = 0.0;        // simulated trace-window length
  int threads = 1;          // pool worker threads (1 = serial)
  // Free-form configuration knobs, e.g. "scheduler" -> "locality_aware",
  // "retry" -> "on". String values keep the schema stable as knobs evolve.
  std::map<std::string, std::string> knobs;
  // Logical artifact name -> path as written, e.g. "events" -> "events.ndjson".
  std::map<std::string, std::string> outputs;
  // Logical artifact name -> SHA-256 hex digest of the bytes written, so a
  // stream found on disk can be checked for truncation or tampering before
  // anyone joins or cross-checks it.
  std::map<std::string, std::string> digests;

  void WriteJson(std::ostream& out) const;
  // Writes the manifest to `path` through an OutputFile; returns false if
  // the file cannot be written.
  bool WriteFile(const std::string& path) const;
};

}  // namespace philly

#endif  // SRC_OBS_MANIFEST_H_
