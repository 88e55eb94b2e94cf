#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "timing.hpp"

namespace perfbench {

using bicord::Duration;
using bicord::TimePoint;
namespace coex = bicord::coex;

namespace {

/// SplitMix64: per-trial seeds from the workload seed. Kept below 2^63 so
/// the spec's integer parser takes them as they are.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (index + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) >> 1;
}

std::string seed_line(std::uint64_t seed, std::uint64_t index) {
  return "seed = " + std::to_string(derive_seed(seed, index)) + "\n";
}

/// The paper's 802.15.4 data rate: 250 kbit/s is 32 us per byte.
constexpr double kAirtimeMsPerByte = 0.032;
/// TschHopSchedule retunes the primary link's sender and receiver.
constexpr std::uint64_t kTschEnrolledRadios = 2;
/// Queue-depth sampling period of a traced run.
constexpr Duration kTraceChunk = Duration::from_ms(10);

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<TrialSpec> testbed_sweep(std::uint64_t seed) {
  std::vector<TrialSpec> trials;
  // Fig. 10's burst intervals, longest first so the pool's tail is short.
  struct Interval {
    const char* name;
    Duration mean;
  };
  const Interval intervals[] = {{"2s", Duration::from_sec(2)},
                                {"1s", Duration::from_sec(1)},
                                {"406.24ms", Duration::from_us(406240)},
                                {"203.12ms", Duration::from_us(203120)},
                                {"101.56ms", Duration::from_us(101560)}};
  struct Scheme {
    const char* name;
    const char* coordination;
    const char* whitespace;
  };
  const Scheme schemes[] = {{"BiCord", "bicord", "20ms"},
                            {"ECC-20ms", "ecc", "20ms"},
                            {"ECC-30ms", "ecc", "30ms"},
                            {"ECC-40ms", "ecc", "40ms"}};
  // 1000 packets per cell: 200 bursts of 5 at the mean interval.
  constexpr std::int64_t kBursts = 200;
  std::uint64_t index = 0;
  for (const auto& iv : intervals) {
    for (const auto& s : schemes) {
      TrialSpec t;
      t.label = std::string(s.name) + "@" + iv.name;
      t.preset = "fig10";
      t.overrides = seed_line(seed, index++) + "coordination = " + s.coordination +
                    "\nburst.interval = " + std::to_string(iv.mean.us()) +
                    "us\necc.whitespace = " + s.whitespace + "\n";
      t.length = iv.mean * kBursts;
      t.bicord_family = std::strcmp(s.coordination, "bicord") == 0;
      t.fig10_shortest = iv.mean == Duration::from_us(101560);
      t.replay = t.fig10_shortest && t.bicord_family;
      trials.push_back(t);
    }
  }
  for (const char* preset : {"tsch", "lteu"}) {
    TrialSpec t;
    t.label = preset;
    t.preset = preset;
    t.overrides = seed_line(seed, index++);
    t.length = Duration::from_ms(200) * kBursts;
    t.bicord_family = true;
    trials.push_back(t);
  }
  return trials;
}

/// `count` trial sets of one serial scenario of `preset`, each with its own seed.
std::vector<std::vector<TrialSpec>> serial_sets(const std::string& label,
                                                const std::string& preset,
                                                const std::string& overrides,
                                                Duration length, int count,
                                                std::uint64_t seed) {
  std::vector<std::vector<TrialSpec>> sets;
  for (int i = 0; i < count; ++i) {
    TrialSpec t;
    t.label = label + "#" + std::to_string(i);
    t.preset = preset;
    t.overrides = seed_line(seed, static_cast<std::uint64_t>(i)) + overrides;
    t.length = length;
    t.bicord_family = true;
    t.replay = true;
    sets.push_back({t});
  }
  return sets;
}

coex::ScenarioConfig lower_spec(const TrialSpec& spec) {
  std::string error;
  const auto preset = coex::ScenarioSpec::preset(spec.preset);
  if (!preset) throw std::runtime_error("spec: unknown preset '" + spec.preset + "'");
  const auto parsed = coex::ScenarioSpec::parse(preset->serialize() + spec.overrides, &error);
  std::optional<coex::ScenarioConfig> cfg;
  if (parsed) cfg = parsed->config(&error);
  if (!cfg) throw std::runtime_error("spec: " + spec.label + ": " + error);
  return std::move(*cfg);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "testbed_sweep") {
    const auto hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    return Workload{name, {testbed_sweep(seed)}, std::min(2, hw)};
  }
  // Set counts and lengths: one pass over every set pools ~1,500 and ~2,800
  // primary-link packets, for a delay median that moves 2-5 % from seed to
  // seed; twice the trials did not narrow that. The pass takes ~20 s on the
  // reference host, so it outlasts a 10 s run.
  if (name == "dense1k") {
    return Workload{name, serial_sets(name, "dense1k", "", Duration::from_sec(1), 64, seed), 1};
  }
  if (name == "city_hopping") {
    // 3.5 s covers the preset's leave/join churn, which falls between 1 s and 3 s.
    return Workload{name,
                    serial_sets(name, "city",
                                  "coordination = tsch\nmobility.device = true\n"
                                  "mobility.device_period = 20ms\n",
                                  Duration::from_ms(3500), 32, seed),
                    1};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

SetupTimes time_setup(const std::vector<TrialSpec>& trials) {
  SetupTimes out;
  for (const auto& spec : trials) {
    const auto t0 = Clock::now();
    coex::ScenarioConfig cfg = lower_spec(spec);
    out.lower_s += seconds_since(t0);
    const auto t1 = Clock::now();
    const coex::Scenario sc(std::move(cfg));
    out.build_s += seconds_since(t1);
  }
  out.total_s = out.lower_s + out.build_s;
  return out;
}

TrialResult run_trial(const TrialSpec& spec, bool traced) {
  TrialResult r;
  const auto t_begin = Clock::now();
  coex::Scenario sc(lower_spec(spec));

  std::optional<MediumRecorder> recorder;
  if (traced) recorder.emplace(sc.medium(), spec.replay);

  const auto t_run = Clock::now();
  if (!traced) {
    sc.run_for(spec.length);
  } else {
    for (Duration left = spec.length; left > Duration::zero(); left -= kTraceChunk) {
      sc.run_for(std::min(left, kTraceChunk));
      r.trace.pending.push_back(sc.simulator().pending_events());
    }
  }
  r.trace.run_host_s = seconds_since(t_run);

  auto& sim = sc.simulator();
  const auto& zs = sc.zigbee_stats();
  const double elapsed_s = (sim.now() - TimePoint::origin()).sec();
  r.sim_seconds = spec.length.sec();
  r.delivered = zs.delivered;
  r.delays_ms = zs.delay_ms.values();
  r.mean_delay_ms = zs.delay_ms.empty() ? 0.0 : zs.delay_ms.mean();
  r.goodput_kbps = sc.zigbee_goodput_kbps();

  bool has_grantor = true;
  if (auto* g = sc.bicord_wifi()) {
    r.requests = g->requests_detected();
    r.grants = g->whitespaces_granted();
  } else if (auto* g = sc.lteu_grantor()) {
    r.requests = g->requests_detected();
    r.grants = g->suppressions_granted();
  } else {
    has_grantor = false;
  }

  // --- checks against computations made apart from the program ---------------
  auto fail = [&](const std::string& what) { r.failed_checks.push_back(spec.label + ": " + what); };
  if (sim.now() != TimePoint::origin() + spec.length) {
    fail("clock: ended at " + std::to_string(sim.now().us()) + " us, requested " +
         std::to_string(spec.length.us()) + " us");
  }
  if (zs.delivered > zs.generated) fail("zigbee: delivered > generated");
  const std::uint32_t payload = sc.config().burst.payload_bytes;
  const double min_delay_ms = static_cast<double>(payload) * kAirtimeMsPerByte;
  for (const double d : r.delays_ms) {
    if (d < min_delay_ms) {
      fail("zigbee: delay " + std::to_string(d) + " ms below the payload airtime");
      break;
    }
  }
  // The measurement window is the whole run (no simulated warm-up), and
  // every packet of the primary link carries the configured payload.
  const double expected_bits = static_cast<double>(zs.delivered) * payload * 8.0;
  const double reported_bits = r.goodput_kbps * 1000.0 * elapsed_s;
  if (std::abs(reported_bits - expected_bits) > 1e-9 * std::max(1.0, expected_bits)) {
    fail("goodput: " + std::to_string(reported_bits) + " bits reported, " +
         std::to_string(expected_bits) + " delivered");
  }
  if (has_grantor && r.grants > r.requests) fail("core: grants > requests");
  std::uint64_t hops = 0;
  if (auto* tsch = sc.tsch_schedule()) {
    hops = tsch->hops();
    const auto expected = static_cast<std::uint64_t>((sim.now() - TimePoint::origin()) /
                                                     sc.config().tsch_hop_period);
    if (hops != expected) {
      fail("tsch: " + std::to_string(hops) + " hops, expected " + std::to_string(expected));
    }
  }
  std::uint64_t lteu_cycles = 0;
  if (auto* enb = sc.lteu_device()) {
    lteu_cycles = enb->bursts_sent() + enb->cycles_suppressed();
    const auto begun = static_cast<std::int64_t>(
        (sim.now() - TimePoint::origin()) / enb->config().period + 1);
    if (std::llabs(static_cast<std::int64_t>(lteu_cycles) - begun) > 1) {
      fail("lteu: " + std::to_string(lteu_cycles) + " bursts+suppressed, " +
           std::to_string(begun) + " CSAT periods begun");
    }
  }

  // --- every simulated statistic read, for run-to-run comparison -----------
  std::uint64_t churn = 0;
  if (auto* fi = sc.fault_injector()) churn = fi->counters().node_leaves + fi->counters().node_joins;
  std::uint64_t delay_hash = 1469598103934665603ull;
  for (const double d : r.delays_ms) delay_hash = (delay_hash ^ bits_of(d)) * 1099511628211ull;
  r.stats = {static_cast<std::uint64_t>(sim.now().us()), sim.dispatched_events(),
             zs.generated, zs.delivered, zs.dropped, zs.payload_bytes_delivered,
             delay_hash, r.requests, r.grants, bits_of(r.goodput_kbps),
             bits_of(sc.wifi_delivery_ratio()), sc.dense_wifi_delivered(),
             sc.dense_zigbee_delivered(), hops, lteu_cycles, churn,
             static_cast<std::uint64_t>(sc.medium().node_count())};
  if (auto* g = sc.bicord_wifi()) {
    r.stats.push_back(g->detector().samples_seen());
    r.stats.push_back(g->detector().detections());
  }
  for (const auto tech : {bicord::phy::Technology::WiFi, bicord::phy::Technology::ZigBee,
                          bicord::phy::Technology::Bluetooth, bicord::phy::Technology::LteU}) {
    r.stats.push_back(static_cast<std::uint64_t>(sc.medium().airtime(tech).us()));
  }

  if (traced) {
    r.trace.events = sim.dispatched_events();
    r.trace.topology_edges = churn + hops * kTschEnrolledRadios;
    if (auto* g = sc.bicord_wifi()) {
      r.trace.csi_samples = g->detector().samples_seen();
      r.trace.csi_high = g->detector().high_samples();
    }
    if (auto* zb = sc.bicord_zigbee()) r.trace.cti_samples = zb->cti_samples_taken();
    r.trace.detector = sc.config().detector;
    r.trace.tx = recorder->counts();
    r.trace.topology_edges += r.trace.tx.moves;
    Recording rec = recorder->finish();
    if (spec.replay) r.trace.recording = std::make_unique<Recording>(std::move(rec));
  }
  r.wall_s = seconds_since(t_begin);
  return r;
}

}  // namespace perfbench
