#pragma once
// The three benchmark workloads and the trial runner they share.
//
// A workload is a fixed list of trials. Each trial is a preset name plus
// ScenarioSpec `key = value` override text and a simulated length; the
// driver never builds a ScenarioConfig by hand. Every per-trial input is
// derived from the workload seed, so one seed gives one set of inputs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "csi/csi_detector.hpp"
#include "replay.hpp"
#include "util/time.hpp"

namespace perfbench {

struct TrialSpec {
  std::string label;
  std::string preset;
  std::string overrides;      ///< ScenarioSpec text, applied after the preset
  bicord::Duration length;    ///< simulated time the trial runs
  bool bicord_family = false; ///< BiCord/TSCH/LTE-U requester on the primary link
  /// Fig. 10(b) check: cells at the grid's shortest burst interval.
  bool fig10_shortest = false;
  /// Keep the full medium recording of this trial for the replay.
  bool replay = false;
};

struct Workload {
  std::string name;
  /// Round r runs trial_sets[r % trial_sets.size()]: the same trials, each
  /// set with its own derived seeds. Several sets average the seed-to-seed
  /// spread of the simulated behaviour (and of the speed) into every run.
  std::vector<std::vector<TrialSpec>> trial_sets;
  int jobs = 1;  ///< ParallelExperimentRunner worker count
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// What a traced trial adds on top of the plain result. Counts come from
/// accessors and the recorder; host times from timing the calls.
struct TrialTrace {
  double run_host_s = 0.0;             ///< host time inside run_for
  std::uint64_t events = 0;            ///< Simulator::dispatched_events
  std::vector<std::size_t> pending;    ///< queue depth sampled every 10 ms
  TxCounts tx;                         ///< transmissions seen on the medium
  std::uint64_t topology_edges = 0;    ///< moves + retunes + churn
  std::uint64_t csi_samples = 0;
  std::uint64_t csi_high = 0;
  std::uint64_t cti_samples = 0;
  bicord::csi::DetectorParams detector;  ///< the grantor's, for the CSI replay
  std::unique_ptr<Recording> recording;  ///< only for TrialSpec::replay
};

/// Everything one trial produced. `stats` holds every simulated statistic
/// the driver reads, as exact integers (doubles by bit pattern), so two runs
/// of the same trial compare with ==.
struct TrialResult {
  double wall_s = 0.0;  ///< set-up plus run, host seconds
  double sim_seconds = 0.0;
  std::vector<std::uint64_t> stats;
  std::vector<double> delays_ms;  ///< primary ZigBee link, per packet
  std::vector<std::string> failed_checks;
  std::uint64_t delivered = 0;  ///< primary ZigBee link
  double mean_delay_ms = 0.0;
  double goodput_kbps = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  TrialTrace trace;
};

/// Host seconds from preset + override text to ready-to-run scenarios,
/// summed over the workload's trials.
struct SetupTimes {
  double lower_s = 0.0;  ///< ScenarioSpec text -> ScenarioConfig
  double build_s = 0.0;  ///< the coex::Scenario constructor
  double total_s = 0.0;  ///< both, per pass; its median is not the sum of theirs
};
/// Lowers and builds every trial's scenario once, serially, without running it.
[[nodiscard]] SetupTimes time_setup(const std::vector<TrialSpec>& trials);

/// Builds and runs one trial; `traced` attaches the recorder, samples the
/// queue depth between 10 ms chunks, and fills TrialResult::trace. Checks
/// that need only this trial's outputs run here.
[[nodiscard]] TrialResult run_trial(const TrialSpec& spec, bool traced);

}  // namespace perfbench
