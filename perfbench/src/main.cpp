// perfbench: the repository benchmark driver.
//
//   perfbench --workload <testbed_sweep|dense1k|city_hopping> --seed <n>
//             --seconds <s> --trace <0|1> [--rev <text>]
//
// --trace 0 times whole rounds of the workload with no tracing and prints the
// end-to-end metrics; --trace 1 runs traced rounds plus the layer replays and
// prints the per-layer metrics. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; a failed check names
// itself on stderr and the exit code is 1. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "micro.hpp"
#include "replay.hpp"
#include "runner/parallel_runner.hpp"
#include "util/stats.hpp"
#include "timing.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string rev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--rev <text>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (key == "--rev") {
        a.rev = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return a;
}

/// One pass over one trial set of the workload through the trial pool.
struct Round {
  const std::vector<TrialSpec>* specs = nullptr;
  std::vector<TrialResult> trials;
  std::vector<bicord::runner::MetricSummary> summary;
  bicord::runner::RunReport report;
  double wall_s = 0.0;
  double sim_s = 0.0;
};

Round run_round(const std::vector<TrialSpec>& specs, bool traced, int jobs) {
  Round round;
  round.specs = &specs;
  round.trials.resize(specs.size());
  bicord::runner::ParallelExperimentRunner runner(
      {"delivered", "mean_delay_ms", "goodput_kbps"}, [&](std::size_t i) {
        round.trials[i] = run_trial(specs[i], traced);
        const TrialResult& t = round.trials[i];
        return std::vector<double>{static_cast<double>(t.delivered), t.mean_delay_ms,
                                   t.goodput_kbps};
      });
  runner.set_jobs(jobs);
  const auto t0 = Clock::now();
  round.summary = runner.run(static_cast<int>(specs.size()));
  round.wall_s = seconds_since(t0);
  round.report = runner.last_report();
  for (const auto& t : round.trials) round.sim_s += t.sim_seconds;
  return round;
}

/// Host time of the set-up repetitions after each round. Spreading them
/// over the whole run, like the rounds, keeps a stall of the host that lasts
/// a second or two from moving many of them; a slice also gives a trial set
/// whose scenarios build in microseconds as many repetitions as one whose
/// scenarios build in milliseconds.
constexpr double kSetupSliceS = 0.01;

/// Serial set-ups of the scenarios of each trial set, one total per pass.
class SetupSamples {
 public:
  explicit SetupSamples(std::size_t sets) : lower_(sets), build_(sets), total_(sets) {}

  /// Passes over trial set `k` of `w`: at least one, and more until
  /// kSetupSliceS has passed.
  void sample(const Workload& w, std::size_t k) {
    const auto t0 = Clock::now();
    do {
      const SetupTimes t = time_setup(w.trial_sets[k]);
      lower_[k].push_back(t.lower_s);
      build_[k].push_back(t.build_s);
      total_[k].push_back(t.total_s);
    } while (seconds_since(t0) < kSetupSliceS);
  }
  /// Each sampled set's median pass, summed over the sets.
  [[nodiscard]] SetupTimes sum_of_medians() const {
    SetupTimes out;
    for (std::size_t k = 0; k < total_.size(); ++k) {
      out.lower_s += median(lower_[k]);
      out.build_s += median(build_[k]);
      out.total_s += median(total_[k]);
    }
    return out;
  }

 private:
  std::vector<std::vector<double>> lower_, build_, total_;
};

/// Checks that need the whole round; appends failures to `failed`.
void check_round(const Round& r, std::vector<std::string>& failed) {
  const auto& specs = *r.specs;
  double bicord_delay = -1.0;
  std::vector<std::pair<std::string, double>> ecc_delays;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& t = r.trials[i];
    failed.insert(failed.end(), t.failed_checks.begin(), t.failed_checks.end());
    if (!specs[i].fig10_shortest) continue;
    if (specs[i].bicord_family) {
      bicord_delay = t.mean_delay_ms;
    } else {
      ecc_delays.emplace_back(specs[i].label, t.mean_delay_ms);
    }
  }
  for (const auto& [label, delay] : ecc_delays) {
    if (!(bicord_delay < delay)) {
      failed.push_back("fig10b: BiCord mean delay " + std::to_string(bicord_delay) +
                       " ms is not below " + label + "'s " + std::to_string(delay) + " ms");
    }
  }
}

/// The primary link delivered something over `rounds`. Checked per pass, not
/// per trial: a 1 s dense1k trial whose first burst arrives late legitimately
/// delivers nothing.
void check_delivered(std::span<const Round> rounds, std::vector<std::string>& failed) {
  std::uint64_t delivered = 0;
  for (const auto& r : rounds) {
    for (const auto& t : r.trials) delivered += t.delivered;
  }
  if (delivered == 0) failed.push_back("zigbee: nothing delivered on the primary links");
}

/// Every simulated statistic of `r` must equal the reference round's, which
/// ran the same trial set.
void check_same(const Round& ref, const Round& r, const std::string& what,
                std::vector<std::string>& failed) {
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    if (r.trials[i].stats != ref.trials[i].stats) {
      failed.push_back(what + ": simulated statistics of " + (*r.specs)[i].label + " differ");
    }
  }
}

bool same_summary(const Round& a, const Round& b) {
  if (a.summary.size() != b.summary.size()) return false;
  for (std::size_t m = 0; m < a.summary.size(); ++m) {
    const auto& x = a.summary[m].stats;
    const auto& y = b.summary[m].stats;
    if (x.count() != y.count() || x.mean() != y.mean() || x.variance() != y.variance() ||
        x.min() != y.min() || x.max() != y.max()) {
      return false;
    }
  }
  return true;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host_stamp(const Args& a) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "host: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"rev\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(compiler).c_str(), PERFBENCH_BUILD_TYPE, json_escape(a.rev).c_str());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Per-packet primary-link delays pooled over the BiCord-family trials of
/// `rounds`.
bicord::Samples pooled_delays(const std::vector<Round>& rounds) {
  bicord::Samples pooled;
  for (const auto& r : rounds) {
    for (std::size_t i = 0; i < r.trials.size(); ++i) {
      if (!(*r.specs)[i].bicord_family) continue;
      for (const double d : r.trials[i].delays_ms) pooled.add(d);
    }
  }
  return pooled;
}

/// --trace 0: one pass over every trial set of the workload (the first round
/// is the warm-up), then more whole rounds until `seconds` of timed rounds.
std::vector<Metric> end_to_end(const Args& a, const Workload& w, std::uint64_t& attempted,
                               std::vector<std::string>& failed) {
  const std::size_t sets = w.trial_sets.size();
  std::vector<Round> first_pass;
  std::vector<double> rates;
  SetupSamples setup(sets);
  Clock::time_point t0;
  for (std::size_t r = 0; r < sets || seconds_since(t0) < a.seconds; ++r) {
    Round round = run_round(w.trial_sets[r % sets], false, w.jobs);
    attempted += round.trials.size();
    check_round(round, failed);
    if (r == 0) t0 = Clock::now();  // warm-up ends here
    if (r > 0) rates.push_back(round.sim_s / round.wall_s);
    setup.sample(w, r % sets);
    if (r < sets) {
      first_pass.push_back(std::move(round));
    } else {
      check_same(first_pass[r % sets], round,
                 "determinism (round " + std::to_string(r + 1) + ")", failed);
    }
  }
  const bicord::Samples delays = pooled_delays(first_pass);
  if (delays.empty()) throw std::runtime_error("no primary-link delays to pool");
  std::printf("rounds: %zu (1 warm-up) over %zu trial sets, jobs=%d; sim s per wall s "
              "min %.4g median %.4g max %.4g\n",
              rates.size() + 1, sets, w.jobs, *std::min_element(rates.begin(), rates.end()),
              median(rates), *std::max_element(rates.begin(), rates.end()));
  std::printf("delay: %zu packets, p50 %.3f ms, p95 %.3f ms, mean %.4f ms\n", delays.count(),
              delays.quantile(0.5), delays.quantile(0.95), delays.mean());
  check_delivered(first_pass, failed);
  return {{"sim_s_per_wall_s", median(rates), "s/s"},
          {"setup_s", setup.sum_of_medians().total_s, "s"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"},
          {"zigbee_delay_p50_ms", delays.quantile(0.5), "ms"}};
}

/// --trace 1: untraced reference round of the first trial set, then traced
/// and untraced rounds of the same set in turn for `seconds`, then the
/// medium, queue and CSI replays at the traced run's operating point.
std::vector<Metric> per_layer(const Args& a, const Workload& w, std::uint64_t& attempted,
                              std::vector<std::string>& failed) {
  const auto& specs = w.trial_sets.front();
  const Round ref = run_round(specs, false, w.jobs);
  attempted += specs.size();
  check_round(ref, failed);
  check_delivered({&ref, 1}, failed);
  // The untraced rounds only time the tracing's cost; taking turns keeps a
  // drift of the host's speed out of that comparison.
  std::vector<Round> traced;
  std::vector<double> traced_wall, untraced_wall;
  SetupSamples setup_samples(1);
  const auto t0 = Clock::now();
  do {
    traced.push_back(run_round(specs, true, w.jobs));
    traced_wall.push_back(traced.back().wall_s);
    const Round plain = run_round(specs, false, w.jobs);
    untraced_wall.push_back(plain.wall_s);
    attempted += 2 * specs.size();
    check_round(traced.back(), failed);
    check_round(plain, failed);
    const std::string n = std::to_string(traced.size());
    check_same(ref, traced.back(), "trace (round " + n + ")", failed);
    check_same(ref, plain, "determinism (round " + n + ")", failed);
    setup_samples.sample(w, 0);
  } while (seconds_since(t0) < a.seconds);
  if (w.jobs > 1) {
    const Round serial = run_round(specs, false, 1);
    attempted += specs.size();
    check_same(ref, serial, "runner (jobs=1)", failed);
    if (!same_summary(ref, serial)) {
      failed.push_back("runner: aggregate at jobs=" + std::to_string(w.jobs) +
                       " differs from jobs=1");
    }
  }

  // Counts come from the first traced round (they repeat exactly); host
  // times are medians over every traced round.
  Round& first = traced.front();
  double sim_s = 0.0, events = 0.0, tx = 0.0, wifi = 0.0, zigbee = 0.0, control = 0.0;
  double edges = 0.0, requests = 0.0, grants = 0.0, csi = 0.0, cti = 0.0;
  std::vector<double> pending;
  const Recording* recording = nullptr;
  const TrialResult* csi_source = nullptr;
  for (const auto& t : first.trials) {
    sim_s += t.sim_seconds;
    events += static_cast<double>(t.trace.events);
    tx += static_cast<double>(t.trace.tx.total);
    wifi += static_cast<double>(t.trace.tx.wifi);
    zigbee += static_cast<double>(t.trace.tx.zigbee);
    control += static_cast<double>(t.trace.tx.control);
    edges += static_cast<double>(t.trace.topology_edges);
    requests += static_cast<double>(t.requests);
    grants += static_cast<double>(t.grants);
    csi += static_cast<double>(t.trace.csi_samples);
    cti += static_cast<double>(t.trace.cti_samples);
    for (const auto p : t.trace.pending) pending.push_back(static_cast<double>(p));
    if (t.trace.recording) recording = t.trace.recording.get();
    if (t.trace.csi_samples > 0 && csi_source == nullptr) csi_source = &t;
  }
  std::vector<double> ns_per_event, speedup, slowest;
  for (const auto& r : traced) {
    double host = 0.0, slow = 0.0;
    for (const auto& t : r.trials) {
      host += t.trace.run_host_s;
      slow = std::max(slow, t.wall_s);
    }
    ns_per_event.push_back(host * 1e9 / events);
    speedup.push_back(r.report.speedup());
    slowest.push_back(slow);
  }
  const double traced_s = median(traced_wall);
  const double untraced_s = median(untraced_wall);
  std::printf("trace overhead: median of %zu traced rounds %.4f s vs %zu untraced %.4f s "
              "(%+.1f%%)\n",
              traced_wall.size(), traced_s, untraced_wall.size(), untraced_s,
              100.0 * (traced_s / untraced_s - 1.0));

  ReplayResult replay;
  if (recording == nullptr) {
    failed.push_back("replay: no trial kept a recording");
  } else {
    replay = replay_medium(*recording, 3);
    failed.insert(failed.end(), replay.failed_checks.begin(), replay.failed_checks.end());
    std::printf("replay: %llu tx, %llu (edge, audible node) pairs checked, %llu silent nodes\n",
                static_cast<unsigned long long>(replay.tx),
                static_cast<unsigned long long>(replay.contract_checked),
                static_cast<unsigned long long>(replay.nodes_silent));
  }
  const double queue_ns = queue_ns_per_op(static_cast<std::size_t>(median(pending)),
                                          sim_s * 1e6 / events, a.seed);
  double csi_ns = 0.0;
  if (csi_source != nullptr) {
    const TrialTrace& t = csi_source->trace;
    const auto n = static_cast<double>(t.csi_samples);
    csi_ns = csi_add_sample_ns(t.detector, csi_source->sim_seconds * 1e6 / n,
                               static_cast<double>(t.csi_high) / n, a.seed);
  }

  const SetupTimes setup = setup_samples.sum_of_medians();
  const auto scenarios = static_cast<double>(specs.size());
  return {{"sim.events_per_sim_s", events / sim_s, "1/s"},
          {"sim.host_ns_per_event", median(ns_per_event), "ns"},
          {"sim.queue_ns_per_op", queue_ns, "ns"},
          {"phy.tx_per_sim_s", tx / sim_s, "1/s"},
          {"phy.fanout_ns_per_tx", replay.fanout_ns_per_tx, "ns"},
          {"phy.notified_per_tx", replay.notified_per_tx, "count"},
          {"phy.audible_share", replay.audible_share, "ratio"},
          {"phy.energy_query_ns", replay.energy_query_ns, "ns"},
          {"phy.radio_ns_per_tx", replay.radio_ns_per_tx, "ns"},
          {"phy.topology_edges_per_sim_s", edges / sim_s, "1/s"},
          {"mac.wifi_frames_per_sim_s", wifi / sim_s, "1/s"},
          {"mac.zigbee_frames_per_sim_s", zigbee / sim_s, "1/s"},
          {"core.requests_per_sim_s", requests / sim_s, "1/s"},
          {"core.control_packets_per_sim_s", control / sim_s, "1/s"},
          {"core.grant_ratio", requests > 0.0 ? grants / requests : 0.0, "ratio"},
          {"csi.samples_per_sim_s", csi / sim_s, "1/s"},
          {"csi.add_sample_ns", csi_ns, "ns"},
          {"detect.cti_samples_per_sim_s", cti / sim_s, "1/s"},
          {"coex.spec_lower_us", setup.lower_s * 1e6 / scenarios, "us"},
          {"coex.build_ms", setup.build_s * 1e3 / scenarios, "ms"},
          {"runner.speedup", median(speedup), "x"},
          {"runner.slowest_trial_s", median(slowest), "s"}};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Workload workload;
  try {
    workload = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  print_host_stamp(args);
  std::printf("workload: %s seed=%llu trial sets=%zu of %zu trials, jobs=%d, trace=%d\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              workload.trial_sets.size(), workload.trial_sets.front().size(), workload.jobs,
              args.trace ? 1 : 0);

  std::vector<std::string> failed;
  std::uint64_t attempted = 0;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace ? per_layer(args, workload, attempted, failed)
                         : end_to_end(args, workload, attempted, failed);
  } catch (const std::exception& e) {
    failed.push_back(std::string("exception: ") + e.what());
  }
  for (const auto& f : failed) std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  print_result(failed.empty(), std::max<std::uint64_t>(1, attempted), 0, metrics);
  return failed.empty() ? 0 : 1;
}
