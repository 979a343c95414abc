#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace oasis {

namespace {
/// Identifies the pool (and worker slot) owning the current thread, so a
/// nested ParallelFor can tell "I am worker k of this pool — keep executing
/// chunks while I wait" apart from an external caller, which must block
/// instead of becoming an unaccounted extra executor.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;
}  // namespace

int ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  num_threads = std::min(num_threads, kMaxThreads);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back(&ThreadPool::WorkerLoop, this, static_cast<size_t>(i));
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

/// Lifecycle of one Submit()ed task. `phase` moves 0 (queued) -> 1 (claimed,
/// running) -> 2 (done); the 0->1 transition is a CAS so exactly one thread —
/// the dequeuing worker or a Wait()ing caller — runs the function.
struct ThreadPool::TaskHandle::SubmitState {
  std::function<void()> fn;
  std::atomic<int> phase{0};
  std::exception_ptr exception;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  /// Claims and runs the task if it is still unclaimed; no-op otherwise.
  void TryRun() {
    int expected = 0;
    if (!phase.compare_exchange_strong(expected, 1, std::memory_order_acq_rel)) {
      return;
    }
    try {
      fn();
    } catch (...) {
      exception = std::current_exception();
    }
    fn = nullptr;  // Release captured resources eagerly.
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      phase.store(2, std::memory_order_release);
    }
    done_cv.notify_all();
  }
};

void ThreadPool::TaskHandle::Wait() {
  if (state_ == nullptr) return;
  // Claim-or-block: running an unclaimed task inline keeps submit-then-wait
  // live even when all workers (including the caller's own worker slot) are
  // occupied.
  state_->TryRun();
  if (state_->phase.load(std::memory_order_acquire) != 2) {
    std::unique_lock<std::mutex> lock(state_->done_mutex);
    state_->done_cv.wait(lock, [&] {
      return state_->phase.load(std::memory_order_acquire) == 2;
    });
  }
  // `exception` is written before the phase-2 release store and only read
  // here after the acquire, so concurrent waiters all see it safely.
  if (state_->exception) std::rethrow_exception(state_->exception);
}

bool ThreadPool::TaskHandle::done() const {
  return state_ == nullptr ||
         state_->phase.load(std::memory_order_acquire) == 2;
}

ThreadPool::TaskHandle ThreadPool::Submit(std::function<void()> fn) {
  OASIS_CHECK(!stop_.load(std::memory_order_acquire));
  OASIS_CHECK(fn != nullptr);
  TaskHandle handle;
  handle.state_ = std::make_shared<TaskHandle::SubmitState>();
  handle.state_->fn = std::move(fn);

  Task task;
  task.submit = handle.state_;
  const size_t target =
      push_cursor_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  queued_tasks_.fetch_add(1, std::memory_order_acq_rel);
  {
    // Pairing the notify with the wake mutex orders it after any worker's
    // predicate check, so no worker sleeps through the new task.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
  return handle;
}

void ThreadPool::ExecuteTask(const Task& task) {
  if (task.submit != nullptr) {
    // Single submitted task; a Wait()ing caller may have claimed it already,
    // in which case TryRun is a no-op.
    task.submit->TryRun();
    return;
  }
  LoopState& state = *task.state;
  for (int64_t i = task.lo; i < task.hi; ++i) {
    if (state.abort.load(std::memory_order_acquire)) break;
    if (state.cancel != nullptr && state.cancel->cancelled()) {
      state.saw_cancel.store(true, std::memory_order_release);
      state.abort.store(true, std::memory_order_release);
      break;
    }
    try {
      (*state.body)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state.exception_mutex);
        if (!state.first_exception) {
          state.first_exception = std::current_exception();
        }
      }
      state.abort.store(true, std::memory_order_release);
      break;
    }
  }
  if (state.pending_chunks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last chunk: wake the caller blocked in ParallelFor. Taking the lock
    // orders this notify after the caller's predicate check, avoiding the
    // lost-wakeup race.
    std::lock_guard<std::mutex> lock(state.done_mutex);
    state.done_cv.notify_all();
  }
}

bool ThreadPool::TryRunOneTask(int self) {
  const size_t n = workers_.size();
  // Own queue first (back = most recently pushed, cache-warm)...
  if (self >= 0) {
    Worker& own = *workers_[static_cast<size_t>(self)];
    std::unique_lock<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      Task task = std::move(own.queue.back());
      own.queue.pop_back();
      lock.unlock();
      queued_tasks_.fetch_sub(1, std::memory_order_acq_rel);
      ExecuteDequeued(task, /*stolen=*/false);
      return true;
    }
  }
  // ...then steal the oldest task from a sibling.
  const size_t start = self >= 0 ? static_cast<size_t>(self) + 1 : 0;
  for (size_t offset = 0; offset < n; ++offset) {
    Worker& victim = *workers_[(start + offset) % n];
    std::unique_lock<std::mutex> lock(victim.mutex);
    if (victim.queue.empty()) continue;
    Task task = std::move(victim.queue.front());
    victim.queue.pop_front();
    lock.unlock();
    queued_tasks_.fetch_sub(1, std::memory_order_acq_rel);
    ExecuteDequeued(task, /*stolen=*/true);
    return true;
  }
  return false;
}

void ThreadPool::ExecuteDequeued(const Task& task, bool stolen) {
  if (!OASIS_TELEMETRY_ON) {
    ExecuteTask(task);
    return;
  }
  // Dequeue-kind counters (steal ratio = steal / (own + steal)) and the
  // post-dequeue queue depth. Tasks are coarse (an experiment repeat, a loop
  // chunk), so the steady-clock reads around ExecuteTask are noise.
  static telemetry::Counter& own_tasks = telemetry::DefaultRegistry().AddCounter(
      "oasis_threadpool_tasks_total",
      "Tasks executed by the pool, by dequeue kind (own-queue pop vs steal).",
      {{"kind", "own"}});
  static telemetry::Counter& stolen_tasks =
      telemetry::DefaultRegistry().AddCounter(
          "oasis_threadpool_tasks_total",
          "Tasks executed by the pool, by dequeue kind (own-queue pop vs "
          "steal).",
          {{"kind", "steal"}});
  static telemetry::Gauge& depth = telemetry::DefaultRegistry().AddGauge(
      "oasis_threadpool_queue_depth",
      "Tasks pushed but not yet dequeued, across all worker queues.");
  static telemetry::Histogram& latency =
      telemetry::DefaultRegistry().AddHistogram(
          "oasis_threadpool_task_latency_seconds",
          "Wall-clock execution time of one dequeued task.",
          {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
  (stolen ? stolen_tasks : own_tasks).Increment();
  depth.Set(
      static_cast<double>(queued_tasks_.load(std::memory_order_relaxed)));
  const auto start = std::chrono::steady_clock::now();
  ExecuteTask(task);
  latency.Observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count());
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_pool = this;
  tls_worker_index = static_cast<int>(worker_index);
  for (;;) {
    if (TryRunOneTask(static_cast<int>(worker_index))) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             queued_tasks_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) {
      lock.unlock();
      // Drain on shutdown: a Submit()ed task still queued when the pool is
      // destroyed runs here rather than being silently dropped, so its
      // TaskHandle always completes (ParallelFor chunks cannot reach this
      // point — the destructor contract forbids in-flight loops).
      while (TryRunOneTask(static_cast<int>(worker_index))) {
      }
      return;
    }
  }
}

bool ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t)>& body,
                             const CancellationToken* cancel) {
  OASIS_CHECK(!stop_.load(std::memory_order_acquire));
  if (begin >= end) return true;
  if (cancel != nullptr && cancel->cancelled()) return false;

  auto state = std::make_shared<LoopState>();
  state->body = &body;
  state->cancel = cancel;

  // Chunking: enough chunks that stealing can rebalance uneven iteration
  // costs, but no finer than one index per chunk.
  const int64_t total = end - begin;
  const int64_t target_chunks =
      std::min<int64_t>(total, static_cast<int64_t>(workers_.size()) * 4);
  const int64_t chunk_size = (total + target_chunks - 1) / target_chunks;
  int64_t num_chunks = 0;
  for (int64_t lo = begin; lo < end; lo += chunk_size) ++num_chunks;
  state->pending_chunks.store(num_chunks, std::memory_order_release);

  for (int64_t lo = begin; lo < end; lo += chunk_size) {
    Task task;
    task.state = state;
    task.lo = lo;
    task.hi = std::min(end, lo + chunk_size);
    const size_t target =
        push_cursor_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    {
      std::lock_guard<std::mutex> lock(workers_[target]->mutex);
      workers_[target]->queue.push_back(std::move(task));
    }
    queued_tasks_.fetch_add(1, std::memory_order_acq_rel);
  }
  {
    // Pairing the notify with the wake mutex orders it after any worker's
    // predicate check, so no worker sleeps through the new tasks.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();

  // A nested call from one of this pool's workers keeps executing queued
  // chunks (possibly other loops', which is what keeps nesting live); an
  // external caller blocks so the pool never runs more than num_threads()
  // bodies concurrently.
  const bool is_pool_worker = (tls_pool == this);
  while (state->pending_chunks.load(std::memory_order_acquire) > 0) {
    if (is_pool_worker && TryRunOneTask(tls_worker_index)) continue;
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&] {
      return state->pending_chunks.load(std::memory_order_acquire) <= 0;
    });
  }

  if (state->first_exception) std::rethrow_exception(state->first_exception);
  return !state->saw_cancel.load(std::memory_order_acquire);
}

}  // namespace oasis
