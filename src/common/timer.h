#ifndef AQE_COMMON_TIMER_H_
#define AQE_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace aqe {

/// Monotonic wall-clock timer with millisecond helpers. Used both by the
/// bench harnesses and by the adaptive controller's progress tracking.
class Timer {
 public:
  /// Starts the timer at construction.
  Timer() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic timestamp in nanoseconds since an arbitrary epoch. Used by the
/// trace recorder so events from different threads share one timeline.
int64_t MonotonicNanos();

/// Formats a duration in seconds as a human-readable string ("12.3ms").
std::string FormatDuration(double seconds);

}  // namespace aqe

#endif  // AQE_COMMON_TIMER_H_
