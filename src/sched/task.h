#ifndef AQE_SCHED_TASK_H_
#define AQE_SCHED_TASK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace aqe {

/// Number of weighted-fair scheduling classes (per-client priority lanes).
/// Class 0 is the default; higher classes are meant for lower-latency
/// tenants, but the mapping is purely a weight question — see
/// TaskScheduler::set_class_weight and DESIGN.md §Admission & fairness.
constexpr int kNumTaskClasses = 4;

/// A unit of schedulable work. Tasks run on TaskScheduler workers; a task
/// that has more work than one bounded slice returns kYield and is
/// re-enqueued at the *steal* end of its worker's deque, so other local
/// tasks (and thieves) get a turn between slices — this is what keeps a
/// long scan from starving short queries that land on the same worker.
///
/// Every task carries a scheduling class and is queued in its class's
/// per-worker lane; the scheduler accounts executed slices per class
/// (weighted virtual time) and picks the most-behind class first, so a
/// high-weight class of short queries overtakes a saturating low-class
/// scan at slice granularity. The class survives yields: a re-enqueued
/// slice stays in its lane.
class Task {
 public:
  enum class Status : uint8_t {
    kDone,   ///< finished; the scheduler releases the task
    kYield,  ///< more work; re-enqueue at the steal end of the local deque
  };

  virtual ~Task() = default;

  /// Runs one bounded slice on worker `worker` (0..num_workers-1).
  virtual Status Run(int worker) = 0;

  /// Weighted-fair class (0..kNumTaskClasses-1). Set before submission;
  /// the setter clamps out-of-range values, so the class is always valid.
  uint8_t scheduling_class() const { return scheduling_class_; }
  void set_scheduling_class(int cls) {
    if (cls < 0) cls = 0;
    if (cls >= kNumTaskClasses) cls = kNumTaskClasses - 1;
    scheduling_class_ = static_cast<uint8_t>(cls);
  }

 private:
  uint8_t scheduling_class_ = 0;
};

/// Wraps a callable as a one-shot task.
class ClosureTask : public Task {
 public:
  explicit ClosureTask(std::function<void(int)> fn) : fn_(std::move(fn)) {}

  Status Run(int worker) override {
    fn_(worker);
    return Status::kDone;
  }

 private:
  std::function<void(int)> fn_;
};

inline std::unique_ptr<Task> MakeClosureTask(std::function<void(int)> fn) {
  return std::make_unique<ClosureTask>(std::move(fn));
}

}  // namespace aqe

#endif  // AQE_SCHED_TASK_H_
