#include "micro.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "sim/event_queue.hpp"
#include "timing.hpp"
#include "util/rng.hpp"

namespace perfbench {

using bicord::Duration;
using bicord::TimePoint;

namespace {

constexpr int kRepeats = 5;

}  // namespace

double queue_ns_per_op(std::size_t depth, double mean_gap_us, std::uint64_t seed) {
  constexpr std::size_t kOps = 1'000'000;
  depth = std::max<std::size_t>(depth, 1);
  // A pop removes the earliest event and the schedule re-adds one within
  // twice the mean time the queue takes to turn over, so depth holds.
  const auto span = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(2.0 * mean_gap_us * static_cast<double>(depth)));
  bicord::Rng rng(seed);
  std::vector<std::int64_t> delays(kOps + depth);
  for (auto& d : delays) d = rng.uniform_int(1, span);

  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    bicord::sim::EventQueue q;
    for (std::size_t i = 0; i < depth; ++i) q.schedule(TimePoint::from_us(delays[i]), [] {});
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto fired = q.pop();
      q.schedule(fired.time + Duration::from_us(delays[depth + i]), [] {});
    }
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                 static_cast<double>(kOps));
  }
  return median(ns);
}

double csi_add_sample_ns(const bicord::csi::DetectorParams& params, double interval_us,
                         double high_share, std::uint64_t seed) {
  constexpr std::size_t kSamples = 400'000;
  bicord::Rng rng(seed);
  std::vector<bicord::csi::CsiSample> samples(kSamples);
  const double step = std::max(1.0, interval_us);
  for (std::size_t i = 0; i < kSamples; ++i) {
    samples[i].time =
        TimePoint::from_us(static_cast<std::int64_t>(step * static_cast<double>(i)));
    samples[i].amplitude = rng.bernoulli(high_share) ? rng.uniform(0.6, 1.4)
                                                     : rng.uniform(0.0, 0.3);
  }
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    bicord::csi::CsiDetector det(params);
    std::uint64_t detections = 0;
    det.set_detection_callback([&detections](TimePoint) { ++detections; });
    const auto t0 = Clock::now();
    for (const auto& s : samples) det.add_sample(s);
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                 static_cast<double>(kSamples));
  }
  return median(ns);
}

}  // namespace perfbench
