// Calibrates the arrival rate of the tenant_storm workload.
//
//   storm_rate
//
// Runs the tenant_storm storm (its grid, query mix, admission and flow
// control settings, 48 arrivals) at increasing arrival rates, each over
// the same set of storm seeds, and prints per rate the share of storms in
// which every query completed with no rejection, and the admitted and
// completed shares of all submitted queries. The sustainable rate is the
// highest rate at which the median storm completes every query with no
// rejection, that is at least half the storms do; tenant_storm runs at
// twice that rate. With an admission queue of two, a rare burst of
// Poisson arrivals is rejected even far below that rate, so the highest
// rate at which every storm is clean is also printed, for context. Built
// next to perfbench by the same CMake package (target storm_rate); the
// benchmark itself does not run it.

#include <cstdio>

#include "workload/driver.h"
#include "workloads.h"

namespace {

constexpr int kStorms = 50;
constexpr double kRateStepQps = 0.25;
constexpr double kMaxRateQps = 8.0;

}  // namespace

int main() {
  std::printf("%8s %12s %14s %15s\n", "rate_qps", "clean_share",
              "admitted_share", "completed_share");
  double sustainable = 0.0;
  double all_clean_rate = 0.0;
  bool median_clean = true;
  bool all_clean = true;
  for (double rate = kRateStepQps; rate <= kMaxRateQps; rate += kRateStepQps) {
    int clean = 0;
    uint64_t submitted = 0, rejected = 0, completed = 0;
    for (uint64_t seed = 1; seed <= kStorms; ++seed) {
      gqp::DriverReport report;
      uint64_t events = 0;
      const gqp::Status status =
          perfbench::RunStorm(perfbench::StormConfig(seed, rate), &report, &events);
      if (!status.ok() || !report.trichotomy_ok) {
        std::fprintf(stderr, "storm_rate: storm %llu at %.2f qps failed: %s\n",
                     static_cast<unsigned long long>(seed), rate,
                     status.ToString().c_str());
        return 1;
      }
      submitted += report.submitted;
      rejected += report.rejected;
      completed += report.completed;
      clean += report.completed == report.submitted ? 1 : 0;
    }
    median_clean = median_clean && 2 * clean >= kStorms;
    all_clean = all_clean && clean == kStorms;
    if (median_clean) sustainable = rate;
    if (all_clean) all_clean_rate = rate;
    std::printf("%8.2f %12.3f %14.4f %15.4f\n", rate,
                static_cast<double>(clean) / kStorms,
                static_cast<double>(submitted - rejected) / submitted,
                static_cast<double>(completed) / submitted);
  }
  std::printf("every storm clean up to: %.2f qps per tenant\n", all_clean_rate);
  std::printf("sustainable rate (median storm clean): %.2f qps per tenant\n",
              sustainable);
  return 0;
}
