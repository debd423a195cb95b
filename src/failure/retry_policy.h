// Retry policies (§2.3 and the §5 "improving failure handling" implication).
//
// Philly retried every failed job a fixed number of times before marking it
// unsuccessful. The paper argues for an adaptive policy that classifies the
// failure in real time and stops retrying error categories that retries
// cannot fix (user/programming errors), while still retrying transient ones
// (network timeouts, preemption), and for a predictive one that correlates
// failures across a user's jobs. All three are implemented here; the ablation
// bench quantifies the GPU-time the §5 policies save.

#ifndef SRC_FAILURE_RETRY_POLICY_H_
#define SRC_FAILURE_RETRY_POLICY_H_

#include <map>
#include <utility>

#include "src/failure/failure_catalog.h"
#include "src/workload/job.h"

namespace philly {

// Failure retries (§2.3 fixed budget): a failed job is resubmitted at most
// this many times, whichever retry policy decides.
inline constexpr int kMaxRetries = 4;

// The predictive policy stops retrying a (user, reason) pair once it has
// failed this many times across that user's jobs.
inline constexpr int kPredictiveRepeatThreshold = 3;

enum class RetryPolicyKind {
  // The production baseline: always retry, up to kMaxRetries.
  kFixed,
  // Stop immediately on failure reasons that are deterministic
  // user/programming errors; keep the budget for everything else.
  kAdaptive,
  // §5's predictive mitigation system: watches failures online and, once a
  // (user, reason) pair has repeated kPredictiveRepeatThreshold times across
  // that user's jobs, stops retrying it entirely. It is the generalized form
  // of "input data blacklisting" and the per-user error correlation the paper
  // motivates with the engineer whose jobs all died of the same CPU OOM
  // (§4.2.2).
  kPredictive,
};

class RetryPolicy {
 public:
  explicit RetryPolicy(RetryPolicyKind kind) : kind_(kind) {}

  // Whether to re-execute `user`'s job whose attempt `attempt_index`
  // (0-based) just failed with `reason` (as classified from its logs).
  bool ShouldRetry(UserId user, FailureReason reason, int attempt_index) const;

  // Online observation, called once per failure trial (§5: "classify error
  // messages in real time ... adapting scheduling parameters per job as well
  // as across jobs"). Only the predictive policy keeps what it observes.
  void ObserveFailure(UserId user, FailureReason reason);

 private:
  RetryPolicyKind kind_;
  std::map<std::pair<UserId, FailureReason>, int> pair_failures_;
};

}  // namespace philly

#endif  // SRC_FAILURE_RETRY_POLICY_H_
