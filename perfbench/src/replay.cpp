#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "timing.hpp"

namespace perfbench {

using bicord::Duration;
using bicord::TimePoint;
using namespace bicord::phy;

namespace {

/// Feeds recorded items into a medium at their recorded times. One pending
/// feeder event at a time, so the replay's queue holds only the medium's
/// own end edges plus this event.
class Feeder {
 public:
  Feeder(bicord::sim::Simulator& sim, Medium& medium, const Recording& rec)
      : sim_(sim), medium_(medium), rec_(rec) {}

  /// One radio per node, each retuned to the band of its node's
  /// transmissions, so a hopping radio follows its channel.
  void follow(const std::vector<std::unique_ptr<Radio>>* radios) { radios_ = radios; }

  void arm() {
    if (next_ >= rec_.items.size()) return;
    sim_.at(TimePoint::from_us(rec_.items[next_].t_us), [this] { fire(); });
  }

 private:
  void fire() {
    const std::int64_t now = sim_.now().us();
    while (next_ < rec_.items.size() && rec_.items[next_].t_us == now) {
      const Recording::Item& it = rec_.items[next_++];
      if (it.move) {
        medium_.set_position(it.node, it.pos);
      } else {
        if (radios_ != nullptr) {
          Radio& radio = *(*radios_)[it.frame.src];
          if (radio.band() != it.band) radio.retune(it.band);
        }
        medium_.begin_tx(it.frame, it.band, it.power_dbm,
                         Duration::from_us(it.duration_us));
      }
    }
    arm();
  }

  bicord::sim::Simulator& sim_;
  Medium& medium_;
  const Recording& rec_;
  const std::vector<std::unique_ptr<Radio>>* radios_ = nullptr;
  std::size_t next_ = 0;
};

/// A fresh simulator + medium holding the recording's nodes.
struct World {
  explicit World(const Recording& rec)
      : sim(1), medium(sim, rec.path_loss, rec.tuning), feeder(sim, medium, rec) {
    for (std::size_t i = 0; i < rec.nodes.size(); ++i) {
      medium.add_node("n" + std::to_string(i), rec.nodes[i]);
    }
  }
  /// Runs the whole recording; returns the host seconds it took.
  double run() {
    feeder.arm();
    const auto t0 = Clock::now();
    sim.run_all();
    return seconds_since(t0);
  }
  bicord::sim::Simulator sim;
  Medium medium;
  Feeder feeder;
};

/// Pass A: the cheapest possible bound listener, so the timing is the
/// medium's gather/sort/notify work and not the listener's.
struct CountingListener final : MediumListener {
  void on_tx_start(const ActiveTransmission& tx) override {
    (void)tx;
    ++calls;
  }
  void on_tx_end(const ActiveTransmission& tx) override {
    (void)tx;
    ++calls;
  }
  std::uint64_t calls = 0;
};

/// Pass B: classifies each notification and remembers the last edges it
/// saw, for the delivery-contract check.
struct ClassifyingListener final : MediumListener {
  void on_tx_start(const ActiveTransmission& tx) override {
    ++calls;
    last_start = tx.id;
    if (tx.frame.src == node) {
      band = tx.band;  // a node listens where it last transmitted
      return;
    }
    if (medium->audible(tx, node) && overlap_mhz(tx.band, band) > 0.0) {
      ++useful;
    }
  }
  void on_tx_end(const ActiveTransmission& tx) override {
    ++calls;
    last_end = tx.id;
    if (tx.frame.src != node && medium->audible(tx, node) &&
        overlap_mhz(tx.band, band) > 0.0) {
      ++useful;
    }
  }
  const Medium* medium = nullptr;
  NodeId node = 0;
  Band band;  ///< the replay's listening band, then where it last transmitted
  std::uint64_t calls = 0;
  std::uint64_t useful = 0;
  TxId last_start = kInvalidTx;
  TxId last_end = kInvalidTx;
};

/// Global listener attached after every bound one, so it runs last on each
/// edge: checks that every node the transmission is audible at was told,
/// and times energy queries while transmissions are on the air.
struct ContractChecker final : MediumListener {
  void on_tx_start(const ActiveTransmission& tx) override {
    if (tx.id % stride != 0) return;
    time_energy(tx);
    check(tx, true);
  }
  void on_tx_end(const ActiveTransmission& tx) override {
    if (tx.id % stride == 0) check(tx, false);
  }
  void check(const ActiveTransmission& tx, bool start) {
    for (NodeId n = 0; n < listeners->size(); ++n) {
      if (!medium->audible(tx, n)) continue;
      ++checked;
      const auto& l = (*listeners)[n];
      if ((start ? l.last_start : l.last_end) != tx.id && failures.size() < 3) {
        failures.push_back("medium contract: tx " + std::to_string(tx.id) + " " +
                           (start ? "start" : "end") + " audible at node " +
                           std::to_string(n) + " was not delivered");
      }
    }
  }
  void time_energy(const ActiveTransmission& tx) {
    const auto n = static_cast<NodeId>(listeners->size());
    const NodeId probe[4] = {tx.frame.dst < n ? tx.frame.dst : tx.frame.src, tx.frame.src,
                             static_cast<NodeId>((tx.id * 2654435761u) % n),
                             static_cast<NodeId>((tx.id * 40503u + 7u) % n)};
    const auto t0 = Clock::now();
    for (const NodeId q : probe) {
      (void)medium->energy_dbm(q, (*listeners)[q].band, q == tx.frame.src ? q : kInvalidNode);
    }
    energy_ns.push_back(seconds_since(t0) * 1e9 / 4.0);
  }
  const Medium* medium = nullptr;
  const std::vector<ClassifyingListener>* listeners = nullptr;
  TxId stride = 1;
  std::uint64_t checked = 0;
  std::vector<std::string> failures;
  std::vector<double> energy_ns;
};

}  // namespace

MediumRecorder::MediumRecorder(Medium& medium, bool keep) : medium_(medium), keep_(keep) {
  rec_.path_loss = medium.path_loss();
  rec_.tuning = medium.tuning();
  rec_.nodes.reserve(medium.node_count());
  for (NodeId i = 0; i < medium.node_count(); ++i) rec_.nodes.push_back(medium.position(i));
  medium_.attach(this);
}

MediumRecorder::~MediumRecorder() {
  if (attached_) medium_.detach(this);
}

void MediumRecorder::on_tx_start(const ActiveTransmission& tx) {
  ++counts_.total;
  if (tx.frame.tech == Technology::WiFi) ++counts_.wifi;
  if (tx.frame.tech == Technology::ZigBee) ++counts_.zigbee;
  if (tx.frame.kind == FrameKind::Control) ++counts_.control;
  if (!keep_) return;
  Recording::Item it;
  it.t_us = tx.start.us();
  it.frame = tx.frame;
  it.band = tx.band;
  it.power_dbm = tx.tx_power_dbm;
  it.duration_us = (tx.end - tx.start).us();
  rec_.items.push_back(it);
}

void MediumRecorder::on_position_change(NodeId node) {
  ++counts_.moves;
  if (!keep_) return;
  Recording::Item it;
  it.t_us = medium_.simulator().now().us();
  it.move = true;
  it.node = node;
  it.pos = medium_.position(node);
  rec_.items.push_back(it);
}

Recording MediumRecorder::finish() {
  if (attached_) {
    medium_.detach(this);
    attached_ = false;
  }
  // Nodes added after recording began join the replay at their last position.
  for (auto i = static_cast<NodeId>(rec_.nodes.size()); i < medium_.node_count(); ++i) {
    rec_.nodes.push_back(medium_.position(i));
  }
  rec_.tx_count = counts_.total;
  return std::move(rec_);
}

ReplayResult replay_medium(const Recording& rec, int repeats) {
  ReplayResult out;
  out.tx = rec.tx_count;
  if (rec.tx_count == 0) {
    out.failed_checks.push_back("replay: recording holds no transmissions");
    return out;
  }
  const auto n = rec.nodes.size();
  const double tx = static_cast<double>(rec.tx_count);

  // Each node's technology and first band, from its own first transmission.
  // A node that never transmits takes those of the recording's first
  // transmission.
  std::vector<std::optional<std::pair<Technology, Band>>> own(n);
  std::optional<std::pair<Technology, Band>> any;
  for (const auto& it : rec.items) {
    if (it.move) continue;
    if (!own[it.frame.src]) own[it.frame.src] = {it.frame.tech, it.band};
    if (!any) any = own[it.frame.src];
  }
  std::vector<std::pair<Technology, Band>> listen(n);
  for (NodeId i = 0; i < n; ++i) {
    listen[i] = own[i] ? *own[i] : *any;
    if (!own[i]) ++out.nodes_silent;
  }

  std::vector<double> counting_s;
  std::vector<double> radio_s;
  std::uint64_t calls = 0;
  for (int r = 0; r < repeats; ++r) {
    {
      World w(rec);
      std::vector<CountingListener> ls(n);
      for (NodeId i = 0; i < n; ++i) w.medium.attach(&ls[i], i);
      counting_s.push_back(w.run());
      calls = 0;
      for (const auto& l : ls) calls += l.calls;
      for (auto& l : ls) w.medium.detach(&l);
    }
    {
      World w(rec);
      std::vector<std::unique_ptr<Radio>> radios(n);
      for (NodeId i = 0; i < n; ++i) {
        Radio::Config cfg;
        cfg.tech = listen[i].first;
        cfg.band = listen[i].second;
        radios[i] = std::make_unique<Radio>(w.medium, i, cfg);
      }
      w.feeder.follow(&radios);
      radio_s.push_back(w.run());
    }
  }

  World w(rec);
  std::vector<ClassifyingListener> ls(n);
  for (NodeId i = 0; i < n; ++i) {
    ls[i].medium = &w.medium;
    ls[i].node = i;
    ls[i].band = listen[i].second;
    w.medium.attach(&ls[i], i);
  }
  ContractChecker checker;
  checker.medium = &w.medium;
  checker.listeners = &ls;
  checker.stride = std::max<TxId>(1, rec.tx_count / 20000);
  w.medium.attach(&checker);
  (void)w.run();
  std::uint64_t useful = 0;
  std::uint64_t classified_calls = 0;
  for (const auto& l : ls) {
    useful += l.useful;
    classified_calls += l.calls;
  }
  w.medium.detach(&checker);
  for (auto& l : ls) w.medium.detach(&l);

  if (classified_calls != calls) {
    out.failed_checks.push_back("replay: counting and classifying replays notified " +
                                std::to_string(calls) + " vs " +
                                std::to_string(classified_calls) + " times");
  }
  out.failed_checks.insert(out.failed_checks.end(), checker.failures.begin(),
                           checker.failures.end());
  out.contract_checked = checker.checked;
  out.fanout_ns_per_tx = median(counting_s) * 1e9 / tx;
  out.radio_ns_per_tx = (median(radio_s) - median(counting_s)) * 1e9 / tx;
  out.notified_per_tx = static_cast<double>(calls) / tx;
  out.audible_share =
      calls ? static_cast<double>(useful) / static_cast<double>(calls) : 0.0;
  out.energy_query_ns = median(checker.energy_ns);
  return out;
}

}  // namespace perfbench
