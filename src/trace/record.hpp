// Trace record types shared by the generator and the consolidated
// simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace forktail::trace {

/// One job of a workload trace, in the format the paper describes for its
/// Facebook-derived trace file: "request arrival time, number of forked
/// tasks, mean task service time, and the service times of individual
/// forked tasks".
struct JobRecord {
  double arrival_time = 0.0;
  std::uint32_t num_tasks = 1;
  double mean_task_time = 0.0;
  std::vector<double> task_times;  ///< empty when times are drawn at replay
};

}  // namespace forktail::trace
