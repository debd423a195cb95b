#include "src/telemetry/host_model.h"

#include <algorithm>

#include "src/common/distributions.h"
#include "src/common/hash.h"

namespace philly {
namespace {

double HashedNormal(uint64_t seed, uint64_t salt) {
  const uint64_t h = Mix64(seed ^ (salt * 0xD6E8FEB86659FD93ull));
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  return Probit(u);
}

}  // namespace

HostActivity HostActivityFor(const JobSpec& job, uint64_t seed) {
  const uint64_t base = Mix64(static_cast<uint64_t>(job.id) ^ (seed << 9));
  double cpu_mean = 0.28;
  double mem_mean = 0.78;
  switch (job.model) {
    case ModelFamily::kEmbedding:
      cpu_mean = 0.45;  // heavy input pipeline / sparse lookups on host
      mem_mean = 0.90;
      break;
    case ModelFamily::kVggLike:
      mem_mean = 0.88;  // large activations cached on host
      break;
    case ModelFamily::kLstm:
    case ModelFamily::kRnnLanguage:
      cpu_mean = 0.32;  // tokenization on host
      break;
    case ModelFamily::kResNet:
      break;
  }
  HostActivity activity;
  activity.cpu_fraction =
      std::clamp(cpu_mean + 0.15 * HashedNormal(base, 1), 0.02, 1.0);
  activity.memory_fraction =
      std::clamp(mem_mean + 0.15 * HashedNormal(base, 2), 0.05, 1.0);
  return activity;
}

}  // namespace philly
