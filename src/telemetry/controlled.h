// Controlled placement experiments (§3.2.1's methodology as an API).
//
// The paper validates its utilization findings with an offline experiment:
// place a job-under-study in specific locality/colocation configurations and
// measure its utilization and throughput. ControlledExperiment reproduces
// that workflow against the utilization model: declare a testbed, place a
// study job and background jobs explicitly, and read off the metrics. The
// Table 4 bench and downstream what-if studies are built on this.

#ifndef SRC_TELEMETRY_CONTROLLED_H_
#define SRC_TELEMETRY_CONTROLLED_H_

#include <vector>

#include "src/cluster/cluster.h"
#include "src/telemetry/util_model.h"
#include "src/workload/job.h"

namespace philly {

class ControlledExperiment {
 public:
  // `testbed` describes the servers (e.g. two 4-GPU machines for the paper's
  // ResNet-50 experiment).
  explicit ControlledExperiment(const ClusterConfig& testbed);

  // Places a job. Returns false (placing nothing) if the placement does not
  // fit. The first job added is the job under study unless `study` is given.
  bool Place(const JobSpec& job, const Placement& placement, bool study = false);

  // Expected utilization of the study job in the current configuration.
  double StudyUtilization() const;

  // Training throughput of the study job (images/s; 0 for non-image models).
  double StudyImagesPerSecond() const;

  // Expected utilization of any placed job by id.
  double UtilizationOf(JobId id) const;

  // Removes a placed job (e.g. to vary the background set).
  void Remove(JobId id);

  const Cluster& cluster() const { return cluster_; }

 private:
  struct PlacedJob {
    JobSpec spec;
    Placement placement;
  };
  const PlacedJob* Find(JobId id) const;
  JobActivity ActivityOf(JobId id) const;

  Cluster cluster_;
  UtilizationModel model_;
  std::vector<PlacedJob> jobs_;
  JobId study_ = kNoJob;
};

}  // namespace philly

#endif  // SRC_TELEMETRY_CONTROLLED_H_
