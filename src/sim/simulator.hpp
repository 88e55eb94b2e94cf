#pragma once
// The discrete-event simulator: a virtual clock plus the event queue.
//
// Everything in the library that needs to act "later" — frame completions,
// backoff expiry, white-space deadlines, traffic arrivals — schedules a
// callback here. The simulator advances the clock to each event in timestamp
// order; there is no real time anywhere in the library.

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bicord::sim {

class Simulator {
 public:
  /// `seed` drives the root RNG from which all per-device streams split.
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventId at(TimePoint when, EventCallback cb);
  /// Schedules `cb` after `delay` (must be >= 0).
  EventId after(Duration delay, EventCallback cb);
  /// Schedules `cb` to fire first after `initial_delay` and then every
  /// `period`, reusing one queue slot across ticks (the allocation-free
  /// repeating-timer primitive; PeriodicTask wraps it). The event re-arms
  /// *after* each tick returns, so same-instant events the tick scheduled
  /// fire first.
  EventId every(Duration initial_delay, Duration period, EventCallback cb);
  /// Changes a periodic event's period, effective at the next re-arm.
  bool set_event_period(EventId id, Duration period);
  /// Cancels a pending event; false if it already fired or was cancelled.
  /// Cancelling a periodic event works from inside its own tick, too.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the clock would pass `deadline`.
  /// The clock is left at min(deadline, time of last event).
  void run_until(TimePoint deadline);
  /// Runs for `d` simulated time from now().
  void run_for(Duration d);
  /// Runs until the event queue is empty.
  void run_all();
  /// Fires exactly one event if any is pending. Returns false when idle.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t dispatched_events() const { return dispatched_; }

 private:
  TimePoint now_;
  EventQueue queue_;
  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t dispatched_ = 0;
};

/// Fires every `period` until stop() — convenient for traffic generators,
/// expiry timers, and samplers. Safe to destroy before the simulator (it
/// cancels its pending event). Built on Simulator::every(), so a running
/// task occupies one reusable queue slot instead of re-scheduling a fresh
/// event per tick.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, Duration period, std::function<void()> tick);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  /// Starts with the first tick after `initial_delay`.
  void start_after(Duration initial_delay);
  void stop();
  [[nodiscard]] bool running() const { return event_ != kInvalidEventId; }
  void set_period(Duration period);
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void arm(Duration delay);

  Simulator& sim_;
  Duration period_;
  std::function<void()> tick_;
  EventId event_ = kInvalidEventId;
};

}  // namespace bicord::sim
