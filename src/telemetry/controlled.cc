#include "src/telemetry/controlled.h"

#include <algorithm>
#include <cassert>

#include "src/workload/model_zoo.h"

namespace philly {

ControlledExperiment::ControlledExperiment(const ClusterConfig& testbed)
    : cluster_(testbed) {}

bool ControlledExperiment::Place(const JobSpec& job, const Placement& placement,
                                 bool study) {
  if (!cluster_.Allocate(job.id, placement)) {
    return false;
  }
  jobs_.push_back({job, placement});
  if (study || study_ == kNoJob) {
    study_ = job.id;
  }
  return true;
}

void ControlledExperiment::Remove(JobId id) {
  cluster_.Release(id);
  jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                             [id](const PlacedJob& j) { return j.spec.id == id; }),
              jobs_.end());
  if (study_ == id) {
    study_ = jobs_.empty() ? kNoJob : jobs_.front().spec.id;
  }
}

const ControlledExperiment::PlacedJob* ControlledExperiment::Find(JobId id) const {
  for (const auto& job : jobs_) {
    if (job.spec.id == id) {
      return &job;
    }
  }
  return nullptr;
}

JobActivity ControlledExperiment::ActivityOf(JobId id) const {
  const PlacedJob* job = Find(id);
  if (job == nullptr) {
    return JobActivity{};
  }
  return JobActivity{job->spec.base_utilization,
                     ProfileOf(job->spec.model).comm_intensity, job->spec.num_gpus,
                     job->placement.NumServers()};
}

double ControlledExperiment::UtilizationOf(JobId id) const {
  const PlacedJob* job = Find(id);
  if (job == nullptr) {
    return 0.0;
  }
  return model_.ExpectedUtilization(
      job->spec, job->placement, cluster_,
      [this](JobId other) { return ActivityOf(other); });
}

double ControlledExperiment::StudyUtilization() const {
  return study_ == kNoJob ? 0.0 : UtilizationOf(study_);
}

double ControlledExperiment::StudyImagesPerSecond() const {
  const PlacedJob* job = Find(study_);
  if (job == nullptr) {
    return 0.0;
  }
  return model_.ImagesPerSecond(job->spec, StudyUtilization());
}

}  // namespace philly
