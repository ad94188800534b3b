#ifndef AQE_SCHED_SCHEDULER_H_
#define AQE_SCHED_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/stealing_deque.h"
#include "sched/task.h"

namespace aqe {

/// Task scheduler with per-worker work-stealing deques — the engine's one
/// execution substrate. Queries, morsels and JIT compilations are all
/// tasks on it, so N concurrent queries (and the adaptive controller's
/// background compilations) share one set of cores. See DESIGN.md in
/// this directory for invariants (task lifetime, steal protocol, priority
/// and class rules).
///
/// Normal-priority work is split into kNumTaskClasses weighted-fair lanes
/// (one deque per class per worker). The scheduler keeps one global virtual
/// time per class — each executed slice advances its class's clock by
/// 1/weight — and always serves the most-behind (minimum virtual time)
/// non-empty class first, both for local pops and steals. An idle class's
/// clock is clamped forward when it re-activates, so sleeping never banks
/// credit. This is weighted fair queueing at task-slice (= morsel)
/// granularity: a weight-8 class receives ~8x the slices of a weight-1
/// class while both are backlogged.
///
/// Work pick order for worker w (DESIGN.md §priority):
///   1. every kLowPriorityTick picks: a low-priority task (own, then steal)
///   2. w's own class lanes, most-behind class first (LIFO within a lane)
///   3. steal from other workers' lanes (FIFO end), same class order
///   4. any low-priority task
/// Then spin briefly and park until new work is submitted.
///
/// Shutdown: the destructor stops all workers after their current task
/// slice; tasks still queued are destroyed *without running*. A destroyed
/// query task breaks its promise, so Submit() futures never hang.
class TaskScheduler {
 public:
  /// Workers use runtime thread indices [0, num_workers).
  static constexpr int kMaxWorkers = 48;

  explicit TaskScheduler(int num_workers);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Thread-safe; callable from workers and external
  /// threads. External submissions round-robin across workers.
  void Submit(std::unique_ptr<Task> task,
              TaskPriority priority = TaskPriority::kNormal);

  /// Enqueues a task on a specific worker's deque (it may still be stolen).
  void SubmitTo(int worker, std::unique_ptr<Task> task,
                TaskPriority priority = TaskPriority::kNormal);

  /// Index of the worker the calling thread is, or -1 for external threads.
  static int CurrentWorker();
  /// The scheduler whose worker the calling thread is, or nullptr.
  static TaskScheduler* CurrentScheduler();

  /// Total task slices executed (yields count once per slice). Test hook.
  uint64_t executed_slices() const {
    return executed_slices_.load(std::memory_order_relaxed);
  }

  /// Weighted-fair share of a scheduling class (default 1). A class with
  /// weight w receives ~w times the slices of a weight-1 class while both
  /// are backlogged. Weights are clamped to [1, kVtimeScale]; `cls` must be
  /// a class (CHECKed). Thread-safe; takes effect on the next slice.
  void set_class_weight(int cls, int weight);
  int class_weight(int cls) const {
    return weights_[static_cast<size_t>(cls)].load(std::memory_order_relaxed);
  }

  /// A class's virtual time (kVtimeScale / weight per slice, plus the
  /// clamps): the least-served class has the lowest. Engine admission gives
  /// a freed slot to the waiting class with the lowest.
  uint64_t class_vtime(int cls) const {
    return vtime_[static_cast<size_t>(cls)].load(std::memory_order_relaxed);
  }

  /// Slices executed per class (yields count once per slice). Test hook
  /// for fairness assertions.
  uint64_t class_slices(int cls) const {
    return class_slices_[static_cast<size_t>(cls)].load(
        std::memory_order_relaxed);
  }

 private:
  struct Worker {
    StealingDeque normal[kNumTaskClasses];
    StealingDeque low;
    std::unique_ptr<std::thread> thread;
  };

  /// A low-priority task is considered at least once per this many picks
  /// even when normal work is plentiful, bounding compile-task latency to a
  /// few morsels without letting compilations displace morsel processing.
  static constexpr uint64_t kLowPriorityTick = 4;

  /// Virtual-time increment of one slice for a weight-1 class; a weight-w
  /// class advances by kVtimeScale / w.
  static constexpr uint64_t kVtimeScale = 1024;

  /// Maximum virtual-time lag (banked credit) any class may hold behind
  /// the other active classes, in weight-1 slices. The activation clamp in
  /// OnClassActivated can race a preempted submitter and leave a class
  /// arbitrarily far behind; this continuous bound caps the resulting
  /// monopoly burst at ~64 slices. Steady-state lag between fairly-served
  /// classes is ~1 slice, so the cap never distorts the weighted shares.
  static constexpr uint64_t kMaxClassCredit = 64 * kVtimeScale;

  void WorkerLoop(int index);
  /// `from_low` reports which lane kind the task came from: low-lane tasks
  /// are outside the per-class pending accounting.
  Task* FindWork(int index, uint64_t picks, bool* from_low);
  Task* FindNormal(int index);
  Task* FindLow(int index);
  void RunTask(Task* task, int worker, bool from_low);
  void Enqueue(int worker, Task* task, TaskPriority priority);
  /// Sorts the class indices by virtual time (most-behind first) into
  /// `order`; classes with no queued work anywhere go last.
  void ClassPickOrder(int* order) const;
  /// Clamps a re-activating idle class's clock to the minimum active
  /// virtual time, so an idle period never banks credit.
  void OnClassActivated(int cls);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> round_robin_{0};
  std::atomic<uint64_t> executed_slices_{0};

  // Weighted-fair accounting (see the class comment). All relaxed: the
  // fairness target is statistical, not exact.
  std::atomic<int> weights_[kNumTaskClasses];
  std::atomic<uint64_t> vtime_[kNumTaskClasses];
  std::atomic<uint64_t> class_slices_[kNumTaskClasses];
  /// Queued normal-priority tasks per class across all workers (activation
  /// detection + lets FindNormal skip globally empty classes).
  std::atomic<int64_t> class_pending_[kNumTaskClasses];

  // Parking. pending_ counts queued tasks; workers park only when it is 0
  // and re-check under the mutex, so a Submit cannot be missed.
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::atomic<int> pending_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace aqe

#endif  // AQE_SCHED_SCHEDULER_H_
