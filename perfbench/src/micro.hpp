#pragma once
// Replays of single layers at a workload's measured operating point.

#include <cstddef>
#include <cstdint>

#include "csi/csi_detector.hpp"

namespace perfbench {

/// sim::EventQueue schedule + pop, with `depth` events pending and delays
/// spread so the depth stays put. Host ns per (schedule + pop) pair; median
/// of several repetitions.
[[nodiscard]] double queue_ns_per_op(std::size_t depth, double mean_gap_us, std::uint64_t seed);

/// csi::CsiDetector::add_sample on a stream with the workload's sample
/// interval and high-fluctuation share. Host ns per sample; median of
/// several repetitions.
[[nodiscard]] double csi_add_sample_ns(const bicord::csi::DetectorParams& params,
                                       double interval_us, double high_share,
                                       std::uint64_t seed);

}  // namespace perfbench
