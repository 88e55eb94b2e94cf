#pragma once
// Medium recording and replay: the per-layer view of phy::Medium.
//
// A MediumRecorder is a global MediumListener. It sees every transmission
// and every position change of a running scenario and keeps the inputs the
// medium was given (source frame, band, power, start, duration, moves). The
// replay feeds that recording into a fresh phy::Medium with the same nodes,
// path loss and MediumTuning, so the medium's fan-out cost is measured apart
// from the MACs and engines that produced the traffic.

#include <cstdint>
#include <string>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"
#include "phy/medium.hpp"
#include "phy/path_loss.hpp"
#include "phy/spectrum.hpp"

namespace perfbench {

struct TxCounts {
  std::uint64_t total = 0;
  std::uint64_t wifi = 0;
  std::uint64_t zigbee = 0;
  std::uint64_t control = 0;  ///< FrameKind::Control (BiCord requests on air)
  std::uint64_t moves = 0;    ///< on_position_change edges
};

struct Recording {
  struct Item {
    std::int64_t t_us = 0;
    bool move = false;
    // transmission
    bicord::phy::Frame frame;
    bicord::phy::Band band;
    double power_dbm = 0.0;
    std::int64_t duration_us = 0;
    // move
    bicord::phy::NodeId node = 0;
    bicord::phy::Position pos;
  };
  bicord::phy::PathLossModel path_loss;
  bicord::phy::MediumTuning tuning;
  std::vector<bicord::phy::Position> nodes;  ///< positions when recording began
  std::vector<Item> items;                   ///< in the order the medium saw them
  std::uint64_t tx_count = 0;
};

class MediumRecorder final : public bicord::phy::MediumListener {
 public:
  /// Attaches globally; `keep` stores every item, otherwise only counts.
  MediumRecorder(bicord::phy::Medium& medium, bool keep);
  ~MediumRecorder();
  MediumRecorder(const MediumRecorder&) = delete;
  MediumRecorder& operator=(const MediumRecorder&) = delete;

  void on_tx_start(const bicord::phy::ActiveTransmission& tx) override;
  void on_tx_end(const bicord::phy::ActiveTransmission& tx) override { (void)tx; }
  void on_position_change(bicord::phy::NodeId node) override;

  [[nodiscard]] const TxCounts& counts() const { return counts_; }
  /// Detaches and hands over the recording (empty items unless `keep`).
  [[nodiscard]] Recording finish();

 private:
  bicord::phy::Medium& medium_;
  bool keep_;
  bool attached_ = true;
  TxCounts counts_;
  Recording rec_;
};

struct ReplayResult {
  double fanout_ns_per_tx = 0.0;   ///< counting listeners: begin_tx + end edge
  double radio_ns_per_tx = 0.0;    ///< phy::Radio replay minus the counting one
  double notified_per_tx = 0.0;    ///< listener calls (start + end) per tx
  double audible_share = 0.0;      ///< notifications audible + band-overlapping
  double energy_query_ns = 0.0;    ///< Medium::energy_dbm
  std::uint64_t tx = 0;
  std::uint64_t contract_checked = 0;  ///< (tx edge, node) pairs checked
  std::uint64_t nodes_silent = 0;      ///< nodes that never transmit
  std::vector<std::string> failed_checks;
};

/// Replays `rec` `repeats` times per timed variant and reports medians of the
/// timings; counts are exact. Also checks the MediumListener delivery
/// contract on a deterministic sample of transmissions.
[[nodiscard]] ReplayResult replay_medium(const Recording& rec, int repeats);

}  // namespace perfbench
