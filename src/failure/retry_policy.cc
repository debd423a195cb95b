#include "src/failure/retry_policy.h"

namespace philly {
namespace {

bool RetriesCanFix(FailureReason reason) {
  switch (reason) {
    // Deterministic user/programming errors: retrying re-runs the same bug.
    case FailureReason::kSyntaxError:
    case FailureReason::kImportError:
    case FailureReason::kSemanticError:
    case FailureReason::kIncorrectInputs:
    case FailureReason::kPermissionError:
    case FailureReason::kCudaVersionMismatch:
    case FailureReason::kCannotLoadLibs:
    case FailureReason::kOutputNodeError:
    case FailureReason::kModelDiverged:
    case FailureReason::kCpuOutOfMemory:
    case FailureReason::kGpuOutOfMemory:
      return false;
    // Transient infrastructure / runtime conditions: retry.
    case FailureReason::kModelCkptError:
    case FailureReason::kMpiError:
    case FailureReason::kMpiRuntimeFailure:
    case FailureReason::kJobPreempted:
    case FailureReason::kCudaInitFailed:
    case FailureReason::kGpuEccError:
    case FailureReason::kCudaFailure:
    case FailureReason::kCoreDump:
    case FailureReason::kInvalidMemAccess:
    case FailureReason::kTracebackFromCrash:
    // Machine faults are the canonical transient class: the job itself is
    // healthy, the hardware under it died.
    case FailureReason::kNodeCrash:
    case FailureReason::kNodeEccDegraded:
    case FailureReason::kRackSwitchOutage:
    case FailureReason::kNoSignature:
      return true;
  }
  return true;
}

}  // namespace

bool RetryPolicy::ShouldRetry(UserId user, FailureReason reason, int attempt_index) const {
  if (attempt_index >= kMaxRetries) {
    return false;
  }
  switch (kind_) {
    case RetryPolicyKind::kFixed:
      return true;
    case RetryPolicyKind::kAdaptive:
      return RetriesCanFix(reason);
    case RetryPolicyKind::kPredictive: {
      const auto it = pair_failures_.find({user, reason});
      return it == pair_failures_.end() || it->second < kPredictiveRepeatThreshold;
    }
  }
  return true;
}

void RetryPolicy::ObserveFailure(UserId user, FailureReason reason) {
  if (kind_ == RetryPolicyKind::kPredictive) {
    ++pair_failures_[{user, reason}];
  }
}

}  // namespace philly
