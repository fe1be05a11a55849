// A self-contained work-stealing thread pool — the library's second
// scheduler backend.
//
// The algorithms only ever call pcc::parallel::parallel_for / par_do
// (scheduler.hpp), which dispatch either to OpenMP (default) or to this
// pool, selected at runtime via set_backend(). The pool exists so the
// library runs without an OpenMP runtime and so the scheduler abstraction
// is demonstrably real (the test suite runs the full pipeline under both
// backends).
//
// Design: a persistent set of workers parked on a condition variable; a
// parallel region publishes a job = {block function, per-participant block
// deques}. The flattened block range [0, num_blocks) is partitioned into
// one contiguous bounded deque per participant; each participant drains
// its own deque with a private fetch_add (its own cache line — the common
// case has zero cross-thread contention, unlike the old single shared
// cursor), then steals leftover blocks from the other deques in cyclic
// order. Steals claim one block at a time with the same fetch_add, so a
// block is executed exactly once no matter how owner and thieves
// interleave.
//
// Worker-count control: the pool has a bounded *active-thread cap*
// (set_active_threads), distinct from how many worker threads exist.
// Workers above the cap park on the condition variable and never join a
// job; num_threads() returns the cap, which is what scheduler.hpp's
// num_workers() reports on this backend. Raising the cap beyond the
// spawned count lazily spawns more workers (bounded by kMaxThreads), so
// scoped_workers can sweep 1..P even on small machines. The cap must not
// change while a region is open (asserted): emit.hpp sizes per-worker
// staging from num_workers() at region entry and relies on the value
// staying put until the stitch.
//
// Nested regions execute inline on the calling thread, mirroring the
// OpenMP backend's policy.
#pragma once

#include <atomic>
#include <cassert>
#include <cerrno>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "parallel/defs.hpp"

namespace pcc::parallel {

class thread_pool {
 public:
  // Hard ceiling on total threads (submitter + workers): bounds lazy
  // growth from set_active_threads and the PCC_POOL_THREADS override.
  static constexpr size_t kMaxThreads = 512;

  // Global pool, created on first use with hardware_concurrency - 1
  // workers (the submitting thread participates too).
  static thread_pool& instance() {
    static thread_pool pool(default_worker_count());
    return pool;
  }

  explicit thread_pool(size_t num_workers)
      : deques_(std::make_unique<block_deque[]>(kMaxThreads)) {
    num_workers = std::min(num_workers, kMaxThreads - 1);
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      // Worker i gets id i + 1; id 0 belongs to whichever thread submits
      // the region (see worker_index below).
      workers_.emplace_back([this, i] { worker_loop(static_cast<int>(i) + 1); });
    }
    active_threads_.store(num_workers + 1, std::memory_order_relaxed);
  }

  ~thread_pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
  }

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  // Run block_fn(b) for every b in [0, num_blocks), in parallel with the
  // calling thread participating. Blocking; returns when all blocks ran.
  // Must not be called from inside a pool job (callers handle nesting by
  // running inline — see scheduler.hpp). The callable is passed by
  // reference through a raw (fn pointer, context) pair — unlike
  // std::function this never heap-allocates, which keeps parallel regions
  // off the allocator on the engine's hot path. Block bodies must not
  // throw: the trampoline is noexcept, so a throw calls std::terminate on
  // whichever thread ran the block, as it does inside an OpenMP region —
  // an exception unwinding out of run() would free the job while workers
  // still hold it.
  template <typename F>
  void run(size_t num_blocks, F&& block_fn) {
    using Fn = std::remove_reference_t<F>;
    run_erased(
        num_blocks,
        [](void* ctx, size_t b) noexcept { (*static_cast<Fn*>(ctx))(b); },
        const_cast<void*>(static_cast<const void*>(&block_fn)));
  }

  void run_erased(size_t num_blocks, void (*invoke)(void*, size_t) noexcept,
                  void* ctx) {
    if (num_blocks == 0) return;
    job j;
    j.invoke = invoke;
    j.ctx = ctx;
    j.deques = deques_.get();
    j.num_participants = active_threads_.load(std::memory_order_relaxed);
    // Partition [0, num_blocks) into one contiguous bounded deque per
    // participant (empty deques for participants past num_blocks). The
    // plain stores here are published to every participant by the mutex
    // hand-off below, and `end` never changes while the job is live.
    const size_t p = j.num_participants;
    const size_t q = num_blocks / p;
    const size_t r = num_blocks % p;
    size_t lo = 0;
    for (size_t s = 0; s < p; ++s) {
      const size_t len = q + (s < r ? 1 : 0);
      deques_[s].next.store(lo, std::memory_order_relaxed);
      deques_[s].end = lo + len;
      lo += len;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_ = &j;
      ++epoch_;
    }
    wake_.notify_all();

    in_region = true;
    j.active.fetch_add(1, std::memory_order_acq_rel);
    work_on(j, /*self=*/0);
    in_region = false;

    // Wait for stragglers. The submitter drained every deque itself (its
    // steal loop visits all of them), so once `active` drops to zero all
    // blocks have executed.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock,
               [&] { return j.active.load(std::memory_order_acquire) == 0; });
    current_ = nullptr;
  }

  // Active thread count (submitter + participating workers): the value
  // scheduler.hpp's num_workers() reports on this backend, and the number
  // of deques a job is partitioned into.
  size_t num_threads() const {
    return active_threads_.load(std::memory_order_relaxed);
  }

  // Worker threads actually spawned (>= num_threads() - 1; the excess is
  // parked).
  size_t spawned_threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size() + 1;
  }

  // Bound the number of threads that participate in jobs to n (clamped to
  // [1, kMaxThreads]); workers above the cap park. Spawns workers lazily
  // when n exceeds the current pool size. Must NOT be called while a
  // region is open — num_workers()/worker_id()/per-worker staging sizes
  // must stay consistent for the whole region (see emit.hpp).
  void set_active_threads(size_t n) {
    n = std::min(std::max<size_t>(n, 1), kMaxThreads);
    assert(!in_region &&
           "worker count cannot change inside an open parallel region");
    std::lock_guard<std::mutex> lock(mutex_);
    assert(current_ == nullptr &&
           "worker count cannot change while a job is in flight");
    while (workers_.size() + 1 < n) {
      const size_t i = workers_.size();
      workers_.emplace_back(
          [this, i] { worker_loop(static_cast<int>(i) + 1); });
    }
    active_threads_.store(n, std::memory_order_relaxed);
  }

  // True while the calling thread executes inside a pool region (used for
  // the inline-nesting policy).
  static thread_local bool in_region;

  // Stable per-thread worker id: 0 for the submitting thread, i + 1 for
  // pool worker i. Backs parallel::worker_id() on this backend; always
  // < num_threads() inside a region (parked workers never enter one).
  static thread_local int worker_index;

 private:
  // One participant's bounded block deque: the contiguous range
  // [next, end) of still-unclaimed flattened block indices. `next` is the
  // only contended word and each deque has its own cache line; `end` is
  // immutable while the job is live. Owned by participant s == its index
  // for the drain phase; thieves claim from the same end once the owner
  // is done or slow (the fetch_add hands out each block exactly once
  // either way).
  struct alignas(kCacheLineBytes) block_deque {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };

  struct job {
    void (*invoke)(void*, size_t) noexcept = nullptr;
    void* ctx = nullptr;
    block_deque* deques = nullptr;
    size_t num_participants = 1;
    std::atomic<int> active{0};
  };

  static size_t default_worker_count() {
    // PCC_POOL_THREADS overrides the initial pool size (total threads
    // including the submitter). Lets stress/TSan runs force real
    // parallelism on machines where hardware_concurrency() would yield
    // zero workers. The value must be a complete decimal number in
    // [1, kMaxThreads]; anything else (garbage suffix, overflow, zero,
    // negative, absurd sizes) is rejected with a diagnostic instead of
    // being silently wrapped through strtol.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before any worker
    // thread exists (function-local static init of the singleton pool).
    if (const char* env = std::getenv("PCC_POOL_THREADS")) {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(env, &end, 10);
      if (end == env || *end != '\0' || errno == ERANGE || v < 1 ||
          v > static_cast<long>(kMaxThreads)) {
        std::fprintf(stderr,
                     "pcc: ignoring invalid PCC_POOL_THREADS=\"%s\" "
                     "(expected an integer in [1, %zu])\n",
                     env, kMaxThreads);
      } else {
        return static_cast<size_t>(v) - 1;
      }
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? hc - 1 : 0;
  }

  // Caller must have registered itself in j.active (under the pool mutex
  // for workers — that registration is what keeps the job alive: run()
  // only destroys the job once active drops to 0, checked under the same
  // mutex). `self` is the caller's deque index.
  void work_on(job& j, size_t self) {
    // Drain our own deque first (private cache line, contiguous blocks),
    // then steal leftovers from the other participants' deques in cyclic
    // order. A probe of an exhausted deque overshoots its `next` by one —
    // harmless, fetch_add still hands out each in-range block exactly
    // once.
    for (size_t d = 0; d < j.num_participants; ++d) {
      block_deque& dq = j.deques[(self + d) % j.num_participants];
      while (true) {
        const size_t b = dq.next.fetch_add(1, std::memory_order_acq_rel);
        if (b >= dq.end) break;
        j.invoke(j.ctx, b);
      }
    }
    if (j.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Possibly the last one out: wake the submitter.
      std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_all();
    }
  }

  void worker_loop(int id) {
    worker_index = id;
    uint64_t seen_epoch = 0;
    while (true) {
      job* j = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return shutdown_ || (current_ != nullptr && epoch_ != seen_epoch);
        });
        if (shutdown_) return;
        seen_epoch = epoch_;
        // Parked worker: above the job's active cap — never registers,
        // never touches the deques, goes back to sleep until the next
        // epoch.
        if (static_cast<size_t>(id) >= current_->num_participants) continue;
        j = current_;
        // Register while holding the mutex: run()'s completion check reads
        // `active` under this mutex, so a registered worker keeps the job
        // alive until its final fetch_sub.
        j->active.fetch_add(1, std::memory_order_acq_rel);
      }
      in_region = true;
      work_on(*j, static_cast<size_t>(id));
      in_region = false;
    }
  }

  std::vector<std::thread> workers_;
  std::unique_ptr<block_deque[]> deques_;
  std::atomic<size_t> active_threads_{1};
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  job* current_ = nullptr;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
};

inline thread_local bool thread_pool::in_region = false;
inline thread_local int thread_pool::worker_index = 0;

}  // namespace pcc::parallel
