#include "sched/scheduler.h"

#include "common/status.h"
#include "runtime/thread_index.h"

namespace aqe {
namespace {

/// Worker identity of the calling thread (see CurrentWorker). External
/// threads keep the {-1, nullptr} defaults.
thread_local int t_worker_index = -1;
thread_local TaskScheduler* t_scheduler = nullptr;

}  // namespace

TaskScheduler::TaskScheduler(int num_workers) {
  AQE_CHECK(num_workers >= 1 && num_workers <= kMaxWorkers);
  for (int c = 0; c < kNumTaskClasses; ++c) {
    weights_[c].store(1, std::memory_order_relaxed);
    vtime_[c].store(0, std::memory_order_relaxed);
    class_slices_[c].store(0, std::memory_order_relaxed);
    class_pending_[c].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after every Worker exists: a fast first worker may
  // immediately scan siblings for steal victims.
  for (int i = 0; i < num_workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::make_unique<std::thread>([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_.store(true, std::memory_order_seq_cst);
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker->thread->join();
  // Tasks still queued are destroyed without running; a query task's
  // promise breaks, so futures handed out by Submit() never hang.
  for (auto& worker : workers_) {
    for (int c = 0; c < kNumTaskClasses; ++c) {
      while (Task* task = worker->normal[c].PopLocal()) delete task;
    }
    while (Task* task = worker->low.PopLocal()) delete task;
  }
}

void TaskScheduler::set_class_weight(int cls, int weight) {
  AQE_CHECK(cls >= 0 && cls < kNumTaskClasses);
  AQE_CHECK(weight >= 1);
  // Above kVtimeScale the per-slice charge kVtimeScale/weight would
  // truncate to 0 and freeze the class's clock (permanent starvation of
  // every other class); shares beyond 1024:1 are indistinguishable anyway.
  if (weight > static_cast<int>(kVtimeScale)) {
    weight = static_cast<int>(kVtimeScale);
  }
  weights_[static_cast<size_t>(cls)].store(weight, std::memory_order_relaxed);
}

int TaskScheduler::CurrentWorker() { return t_worker_index; }
TaskScheduler* TaskScheduler::CurrentScheduler() { return t_scheduler; }

void TaskScheduler::Submit(std::unique_ptr<Task> task, TaskPriority priority) {
  int worker;
  if (t_scheduler == this) {
    worker = t_worker_index;  // spawned work stays local until stolen
  } else {
    worker = static_cast<int>(round_robin_.fetch_add(
                 1, std::memory_order_relaxed) %
             static_cast<uint64_t>(workers_.size()));
  }
  Enqueue(worker, task.release(), priority);
}

void TaskScheduler::SubmitTo(int worker, std::unique_ptr<Task> task,
                             TaskPriority priority) {
  AQE_CHECK(worker >= 0 && worker < num_workers());
  Enqueue(worker, task.release(), priority);
}

void TaskScheduler::Enqueue(int worker, Task* task, TaskPriority priority) {
  Worker& w = *workers_[static_cast<size_t>(worker)];
  if (priority == TaskPriority::kLow) {
    w.low.PushLocal(task);
  } else {
    const int cls = task->scheduling_class();
    if (class_pending_[static_cast<size_t>(cls)].fetch_add(
            1, std::memory_order_acq_rel) == 0) {
      OnClassActivated(cls);
    }
    w.normal[cls].PushLocal(task);
  }
  pending_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker-style pairing with the parking path: workers either see
  // pending_ > 0 before sleeping or are woken under the mutex.
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  work_available_.notify_one();
}

Task* TaskScheduler::FindLow(int index) {
  const int n = num_workers();
  if (Task* task = workers_[static_cast<size_t>(index)]->low.PopLocal()) {
    return task;
  }
  for (int offset = 1; offset < n; ++offset) {
    size_t victim = static_cast<size_t>((index + offset) % n);
    if (workers_[victim]->low.ApproxSize() == 0) continue;  // skip the lock
    if (Task* task = workers_[victim]->low.Steal()) return task;
  }
  return nullptr;
}

void TaskScheduler::ClassPickOrder(int* order) const {
  // Snapshot the active classes' clocks and insertion-sort them most-behind
  // first (kNumTaskClasses is tiny). Globally empty classes get -1 slots at
  // the tail so FindNormal skips their lanes without touching any lock.
  uint64_t vt[kNumTaskClasses];
  int count = 0;
  for (int c = 0; c < kNumTaskClasses; ++c) {
    if (class_pending_[c].load(std::memory_order_acquire) <= 0) continue;
    uint64_t v = vtime_[c].load(std::memory_order_relaxed);
    int pos = count++;
    while (pos > 0 && vt[pos - 1] > v) {
      vt[pos] = vt[pos - 1];
      order[pos] = order[pos - 1];
      --pos;
    }
    vt[pos] = v;
    order[pos] = c;
  }
  for (int k = count; k < kNumTaskClasses; ++k) order[k] = -1;
}

void TaskScheduler::OnClassActivated(int cls) {
  // An idle class's clock stood still; without this clamp it would return
  // with banked credit and lock out every other class until it caught up.
  uint64_t min_active = UINT64_MAX;
  for (int c = 0; c < kNumTaskClasses; ++c) {
    if (c == cls) continue;
    if (class_pending_[c].load(std::memory_order_relaxed) > 0) {
      uint64_t v = vtime_[c].load(std::memory_order_relaxed);
      if (v < min_active) min_active = v;
    }
  }
  if (min_active == UINT64_MAX) return;
  uint64_t cur = vtime_[static_cast<size_t>(cls)].load(
      std::memory_order_relaxed);
  while (cur < min_active &&
         !vtime_[static_cast<size_t>(cls)].compare_exchange_weak(
             cur, min_active, std::memory_order_relaxed)) {
  }
}

Task* TaskScheduler::FindNormal(int index) {
  int order[kNumTaskClasses];
  ClassPickOrder(order);
  Worker& w = *workers_[static_cast<size_t>(index)];
  // Own lanes first, most-behind class first (LIFO within a lane).
  // class_pending_ is NOT decremented here: a popped task still executing
  // keeps its class "active" (RunTask decrements on completion), so a class
  // with a single long yielding task is not treated as freshly activated —
  // and clock-clamped — on every one of its slices.
  for (int k = 0; k < kNumTaskClasses; ++k) {
    const int cls = order[k];
    if (cls < 0) break;
    if (Task* task = w.normal[cls].PopLocal()) return task;
  }
  // Steal in the same class order: fairness beats locality for a class
  // that is behind.
  const int n = num_workers();
  for (int k = 0; k < kNumTaskClasses; ++k) {
    const int cls = order[k];
    if (cls < 0) break;
    for (int offset = 1; offset < n; ++offset) {
      size_t victim = static_cast<size_t>((index + offset) % n);
      if (workers_[victim]->normal[cls].ApproxSize() == 0) continue;
      if (Task* task = workers_[victim]->normal[cls].Steal()) return task;
    }
  }
  return nullptr;
}

Task* TaskScheduler::FindWork(int index, uint64_t picks, bool* from_low) {
  // Periodic low-priority tick: without it, back-to-back morsel yields
  // would keep the normal lanes non-empty forever and starve compilations.
  if (picks % kLowPriorityTick == kLowPriorityTick - 1) {
    if (Task* task = FindLow(index)) {
      *from_low = true;
      return task;
    }
  }
  if (Task* task = FindNormal(index)) {
    *from_low = false;
    return task;
  }
  *from_low = true;
  return FindLow(index);
}

void TaskScheduler::RunTask(Task* task, int worker, bool from_low) {
  executed_slices_.fetch_add(1, std::memory_order_relaxed);
  const int cls = task->scheduling_class();
  Task::Status status = task->Run(worker);
  // Weighted-fair accounting: one slice advances the class clock by
  // 1/weight, so heavier classes fall behind slower and are picked more.
  class_slices_[cls].fetch_add(1, std::memory_order_relaxed);
  const int weight = weights_[cls].load(std::memory_order_relaxed);
  const uint64_t my_vtime =
      vtime_[cls].fetch_add(kVtimeScale / static_cast<uint64_t>(weight),
                            std::memory_order_relaxed) +
      kVtimeScale / static_cast<uint64_t>(weight);
  // Credit cap (see kMaxClassCredit): if this class still lags every other
  // active class by more than the cap — e.g. its activation clamp raced a
  // preempted submitter — pull its clock forward so the monopoly burst
  // stays bounded.
  uint64_t min_other = UINT64_MAX;
  for (int c = 0; c < kNumTaskClasses; ++c) {
    if (c == cls) continue;
    if (class_pending_[c].load(std::memory_order_relaxed) > 0) {
      uint64_t v = vtime_[c].load(std::memory_order_relaxed);
      if (v < min_other) min_other = v;
    }
  }
  if (min_other != UINT64_MAX && min_other > kMaxClassCredit &&
      my_vtime < min_other - kMaxClassCredit) {
    const uint64_t target = min_other - kMaxClassCredit;
    uint64_t cur = my_vtime;
    while (cur < target && !vtime_[cls].compare_exchange_weak(
                               cur, target, std::memory_order_relaxed)) {
    }
  }
  if (status == Task::Status::kYield) {
    // Back at the *steal* end of its class lane: other local tasks run
    // first, and thieves pick the yielder up — a long pipeline cannot
    // monopolize its worker. A normal-lane task stayed "pending" across
    // its slice (see FindNormal); a low-lane yielder enters the class
    // accounting here for the first time.
    if (from_low &&
        class_pending_[cls].fetch_add(1, std::memory_order_acq_rel) == 0) {
      OnClassActivated(cls);
    }
    workers_[static_cast<size_t>(worker)]->normal[cls].PushSteal(task);
    pending_.fetch_add(1, std::memory_order_seq_cst);
    // Same Dekker pairing as Enqueue: without touching the mutex, the
    // notify could land in a parker's pred-check-to-block gap and be lost.
    {
      std::lock_guard<std::mutex> lock(mutex_);
    }
    work_available_.notify_one();
  } else {
    // Completion deactivates: the pop in FindNormal left the class counted
    // as pending while the slice ran.
    if (!from_low) class_pending_[cls].fetch_sub(1, std::memory_order_acq_rel);
    delete task;
  }
}

void TaskScheduler::WorkerLoop(int index) {
  runtime_internal::SetThreadIndex(index);
  t_worker_index = index;
  t_scheduler = this;
  uint64_t picks = 0;
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  for (;;) {
    // Checked every iteration (not only when idle): on shutdown, queued and
    // yielded tasks stop being resumed and are destroyed by the destructor.
    // A task mid-slice still finishes its slice.
    if (shutdown_.load(std::memory_order_seq_cst)) return;
    bool from_low = false;
    Task* task = FindWork(index, picks++, &from_low);
    if (task != nullptr) {
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      RunTask(task, index, from_low);
      continue;
    }
    // Brief spin before parking: morsel yields re-arrive within
    // microseconds, an OS sleep would dominate them.
    bool ready = false;
    for (int spin = 0; spin < 64; ++spin) {
      if (pending_.load(std::memory_order_seq_cst) > 0) {
        ready = true;
        break;
      }
      std::this_thread::yield();
    }
    if (ready) continue;
    lock.lock();
    work_available_.wait(lock, [this] {
      return shutdown_.load(std::memory_order_seq_cst) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    lock.unlock();
  }
}

}  // namespace aqe
