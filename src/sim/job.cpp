#include "sim/job.h"

#include "common/error.h"

namespace shiraz::sim {

SimJob SimJob::at_oci(std::string name, Seconds delta, Seconds mtbf, unsigned stretch,
                      checkpoint::OciFormula formula) {
  SHIRAZ_REQUIRE(stretch >= 1, "stretch factor must be >= 1");
  const Seconds oci = checkpoint::optimal_interval(mtbf, delta, formula);
  SimJob job;
  job.name = std::move(name);
  job.delta = delta;
  // Shiraz+'s stretched schedule is still equidistant (paper Fig. 8).
  job.schedule = std::make_shared<checkpoint::EquidistantSchedule>(
      oci * static_cast<double>(stretch));
  return job;
}

SimJob SimJob::lazy(std::string name, Seconds delta, Seconds mtbf, double weibull_shape) {
  SimJob job;
  job.name = std::move(name);
  job.delta = delta;
  job.schedule = std::make_shared<checkpoint::LazySchedule>(delta, mtbf, weibull_shape);
  return job;
}

}  // namespace shiraz::sim
