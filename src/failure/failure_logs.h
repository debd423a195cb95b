// Failure log synthesis and signature-based classification (§4.2.1).
//
// The paper's pipeline captures failure root causes from the stdout/stderr of
// failed jobs using a classifier with >230 signature rules — explicit
// signatures (e.g. "CUDA out of memory") plus implicit ones (a Python
// traceback with no recognizable root cause). We reproduce that path: the
// synthesizer renders realistic log tails for a failing attempt (several
// templates per reason, some wrapped in tracebacks, plus innocuous progress
// noise), and the classifier re-derives the reason from the raw text alone.
// The analysis pipeline (src/core) only ever sees the text — tests compare
// classifier output against the injected ground truth.

#ifndef SRC_FAILURE_FAILURE_LOGS_H_
#define SRC_FAILURE_FAILURE_LOGS_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/failure_catalog.h"

namespace philly {

class FailureLogSynthesizer {
 public:
  FailureLogSynthesizer() = default;

  // Log tail (stdout+stderr interleaved) for an attempt failing with `reason`.
  // Includes a few lines of normal progress noise before the failure.
  std::vector<std::string> LinesFor(FailureReason reason, Rng& rng) const;

  // A framework progress line announcing per-epoch loss, parseable by
  // ParseEpochLossLine below (drives the Figure 8 analysis).
  static std::string EpochLossLine(int epoch, int total_epochs, double loss);
};

// Parses a line produced by EpochLossLine. Returns false if the line is not a
// loss line.
struct EpochLoss {
  int epoch = 0;
  int total_epochs = 0;
  double loss = 0.0;
};
bool ParseEpochLossLine(std::string_view line, EpochLoss* out);

// One signature rule: substring pattern -> reason, with a priority (lower
// fires first) so specific root-cause signatures win over the generic
// traceback rule.
struct SignatureRule {
  std::string pattern;
  FailureReason reason = FailureReason::kNoSignature;
  int priority = 100;
};

class FailureClassifier {
 public:
  FailureClassifier();

  // Classifies a failed attempt's log tail; kNoSignature when nothing
  // matches (4.2% of trials in the paper).
  FailureReason Classify(std::span<const std::string> lines) const;

  size_t NumRules() const { return rules_.size(); }

 private:
  std::vector<SignatureRule> rules_;  // sorted by priority
};

}  // namespace philly

#endif  // SRC_FAILURE_FAILURE_LOGS_H_
