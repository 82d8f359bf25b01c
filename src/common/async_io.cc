#include "common/async_io.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "observe/metrics.h"
#include "observe/trace.h"
#include "testing/fault_injector.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define SSAGG_HAVE_IO_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define SSAGG_HAVE_IO_URING 0
#endif

namespace ssagg {

const char *IoBackendKindName(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kSync:
      return "sync";
    case IoBackendKind::kThreadPool:
      return "threadpool";
    case IoBackendKind::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

IoBackendKind IoBackendKindFromEnv(const char *env_var) {
  const char *value = std::getenv(env_var);
  if (value == nullptr) {
    return IoBackendKind::kSync;
  }
  if (std::strcmp(value, "threadpool") == 0 ||
      std::strcmp(value, "thread_pool") == 0) {
    return IoBackendKind::kThreadPool;
  }
  if (std::strcmp(value, "io_uring") == 0 || std::strcmp(value, "uring") == 0) {
    return IoBackendKind::kIoUring;
  }
  return IoBackendKind::kSync;
}

bool SpillCompressionFromEnv() {
  const char *value = std::getenv("SSAGG_SPILL_COMPRESSION");
  if (value == nullptr) {
    return false;
  }
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "on") == 0 ||
         std::strcmp(value, "true") == 0;
}

Status AsyncIoBackend::HitSubmitSite() {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    return injector->Hit(FaultSite::kAsyncSubmit);
  }
  return Status::OK();
}

Status AsyncIoBackend::HitCompleteSite() {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    return injector->Hit(FaultSite::kAsyncComplete);
  }
  return Status::OK();
}

Status AsyncIoBackend::Execute(const IoRequest &request) {
  if (request.kind == IoRequest::Kind::kRead) {
    return request.file->Read(request.buffer, request.bytes, request.offset);
  }
  return request.file->Write(request.buffer, request.bytes, request.offset);
}

namespace {

/// Registry key ids shared by all backends (the registry deduplicates by
/// name, so resolving in each constructor is fine).
struct IoMetricKeys {
  idx_t submitted;
  idx_t completed;
  idx_t submit_failed;
  idx_t depth_integral;  // sum over submits of the in-flight count: divide
                         // by io.async_submitted for the mean queue depth
  idx_t write_latency_hist;  // submit-to-completion, nanoseconds
  idx_t read_latency_hist;

  IoMetricKeys() {
    MetricsRegistry &registry = MetricsRegistry::Global();
    submitted = registry.KeyId("io.async_submitted");
    completed = registry.KeyId("io.async_completed");
    submit_failed = registry.KeyId("io.async_submit_failed");
    depth_integral = registry.KeyId("io.async_depth_integral");
    write_latency_hist = registry.HistogramId("io.spill_write_latency_ns");
    read_latency_hist = registry.HistogramId("io.spill_read_latency_ns");
  }
};

using IoClock = std::chrono::steady_clock;

/// Submit-to-completion latency of one request, into the per-direction
/// histogram. Called on whatever thread completes the request; failed and
/// injected-failure completions are recorded too — a stall is a stall.
void RecordIoLatency(const IoMetricKeys &keys, IoRequest::Kind kind,
                     IoClock::time_point submit_time) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                IoClock::now() - submit_time)
                .count();
  MetricsRegistry::Global().Record(kind == IoRequest::Kind::kRead
                                       ? keys.read_latency_hist
                                       : keys.write_latency_hist,
                                   static_cast<uint64_t>(ns));
}

//===----------------------------------------------------------------------===//
// SyncIoBackend
//===----------------------------------------------------------------------===//

/// Executes every request inline on the submitting thread. This is the
/// default backend: it preserves the exact I/O schedule of the pre-async
/// engine, which tier-1 tests and the eviction-policy benches pin down.
class SyncIoBackend final : public AsyncIoBackend {
 public:
  IoCompletionPtr Submit(IoRequest request) override {
    IoClock::time_point submit_time = IoClock::now();
    auto completion = std::make_shared<IoCompletion>();
    MetricsRegistry::Global().Add(keys_.submitted, 1);
    Status status = HitSubmitSite();
    if (status.ok() && request.prepare) {
      status = request.prepare(request);
    }
    if (status.ok()) {
      status = Execute(request);
      if (status.ok()) {
        status = HitCompleteSite();
      }
    } else {
      MetricsRegistry::Global().Add(keys_.submit_failed, 1);
    }
    MetricsRegistry::Global().Add(keys_.completed, 1);
    RecordIoLatency(keys_, request.kind, submit_time);
    if (request.on_complete) {
      request.on_complete(status);
    }
    completion->Complete(std::move(status));
    return completion;
  }

  void Drain() override {}

  [[nodiscard]] IoBackendKind kind() const override {
    return IoBackendKind::kSync;
  }

 private:
  IoMetricKeys keys_;
};

//===----------------------------------------------------------------------===//
// ThreadPoolIoBackend
//===----------------------------------------------------------------------===//

/// A small pool of writeback threads draining a FIFO of requests. The
/// portable async backend: works against any FileHandle (including the
/// fault-injecting decorator) because workers go through the virtual
/// Read/Write path.
class ThreadPoolIoBackend final : public AsyncIoBackend {
 public:
  explicit ThreadPoolIoBackend(idx_t threads) {
    threads = std::max<idx_t>(threads, 1);
    workers_.reserve(threads);
    for (idx_t i = 0; i < threads; i++) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  }

  ~ThreadPoolIoBackend() override {
    Drain();
    {
      ScopedLock guard(lock_);
      shutdown_ = true;
    }
    work_cv_.NotifyAll();
    for (auto &worker : workers_) {
      worker.join();
    }
  }

  IoCompletionPtr Submit(IoRequest request) override {
    IoClock::time_point submit_time = IoClock::now();
    auto completion = std::make_shared<IoCompletion>();
    MetricsRegistry &registry = MetricsRegistry::Global();
    registry.Add(keys_.submitted, 1);
    registry.Add(keys_.depth_integral,
                 in_flight_.load(std::memory_order_relaxed));
    Status injected = HitSubmitSite();
    if (!injected.ok()) {
      // Fail fast on the submitting thread: the request never reaches the
      // queue, mirroring a kernel submission error.
      registry.Add(keys_.submit_failed, 1);
      registry.Add(keys_.completed, 1);
      RecordIoLatency(keys_, request.kind, submit_time);
      if (request.on_complete) {
        request.on_complete(injected);
      }
      completion->Complete(std::move(injected));
      return completion;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    {
      ScopedLock guard(lock_);
      queue_.push_back(Item{std::move(request), completion, submit_time});
    }
    work_cv_.NotifyOne();
    return completion;
  }

  void Drain() override {
    ScopedLock guard(lock_);
    drain_cv_.Wait(lock_, [this]() SSAGG_REQUIRES(lock_) {
      return queue_.empty() && active_ == 0;
    });
  }

  [[nodiscard]] IoBackendKind kind() const override {
    return IoBackendKind::kThreadPool;
  }

 private:
  struct Item {
    IoRequest request;
    IoCompletionPtr completion;
    IoClock::time_point submit_time;
  };

  void WorkerLoop() {
    while (true) {
      Item item;
      {
        ScopedLock guard(lock_);
        work_cv_.Wait(lock_, [this]() SSAGG_REQUIRES(lock_) {
          return shutdown_ || !queue_.empty();
        });
        if (queue_.empty()) {
          return;  // shutdown with nothing left to do
        }
        item = std::move(queue_.front());
        queue_.pop_front();
        active_++;
      }
      Status status;
      if (item.request.prepare) {
        status = item.request.prepare(item.request);
      }
      if (status.ok()) {
        TraceSpan span("io.async_execute", "io", item.request.bytes);
        status = Execute(item.request);
      }
      if (status.ok()) {
        status = HitCompleteSite();
      }
      MetricsRegistry::Global().Add(keys_.completed, 1);
      RecordIoLatency(keys_, item.request.kind, item.submit_time);
      if (item.request.on_complete) {
        item.request.on_complete(status);
      }
      item.completion->Complete(std::move(status));
      // Drop the request, and whatever its callback captured, before
      // reporting idle: once Drain() returns no callback state may remain.
      // A captured block handle's last reference would otherwise release
      // its page into a buffer manager that is being destroyed.
      item = Item{};
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      bool idle;
      {
        ScopedLock guard(lock_);
        active_--;
        idle = queue_.empty() && active_ == 0;
      }
      if (idle) {
        drain_cv_.NotifyAll();
      }
    }
  }

  IoMetricKeys keys_;
  Mutex lock_{LockRank::kIoWorkQueue, "ThreadPoolIoBackend::lock_"};
  CondVar work_cv_;
  CondVar drain_cv_;
  std::deque<Item> queue_ SSAGG_GUARDED_BY(lock_);
  idx_t active_ SSAGG_GUARDED_BY(lock_) = 0;
  bool shutdown_ SSAGG_GUARDED_BY(lock_) = false;
  std::vector<std::thread> workers_;
};

//===----------------------------------------------------------------------===//
// IoUringBackend (Linux, raw syscalls — no liburing dependency)
//===----------------------------------------------------------------------===//

#if SSAGG_HAVE_IO_URING

int SysIoUringSetup(unsigned entries, struct io_uring_params *params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// io_uring-backed executor. Submission fills an SQE under a lock and enters
/// the kernel immediately; a single reaper thread blocks for completions and
/// finishes requests. Handles without a raw descriptor (decorators) and
/// overflow past the CQ capacity are executed inline — the contract (Submit
/// may complete synchronously) already allows it.
class IoUringBackend final : public AsyncIoBackend {
 public:
  /// Builds the ring; on any setup failure ok() is false and the factory
  /// falls back to the thread pool. cpu_bound requests (codec work riding
  /// the executor) bypass the ring for a small worker pool: the ring's
  /// single reaper must never run a compression pass while completions
  /// queue up behind it.
  explicit IoUringBackend(idx_t helper_threads)
      : helper_(std::make_unique<ThreadPoolIoBackend>(helper_threads)) {
    std::memset(&params_, 0, sizeof(params_));
    ring_fd_ = SysIoUringSetup(kQueueDepth, &params_);
    if (ring_fd_ < 0) {
      return;
    }
    size_t sq_size = params_.sq_off.array + params_.sq_entries * sizeof(__u32);
    size_t cq_size =
        params_.cq_off.cqes + params_.cq_entries * sizeof(io_uring_cqe);
    if (params_.features & IORING_FEAT_SINGLE_MMAP) {
      sq_size = std::max(sq_size, cq_size);
      cq_size = sq_size;
    }
    sq_ring_ = ::mmap(nullptr, sq_size, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) {
      Close();
      return;
    }
    sq_ring_size_ = sq_size;
    if (params_.features & IORING_FEAT_SINGLE_MMAP) {
      cq_ring_ = sq_ring_;
    } else {
      cq_ring_ =
          ::mmap(nullptr, cq_size, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) {
        cq_ring_ = nullptr;
        Close();
        return;
      }
      cq_ring_size_ = cq_size;
    }
    sqes_size_ = params_.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe *>(
        ::mmap(nullptr, sqes_size_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      Close();
      return;
    }
    auto *sq = static_cast<uint8_t *>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned *>(sq + params_.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned *>(sq + params_.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned *>(sq + params_.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned *>(sq + params_.sq_off.array);
    auto *cq = static_cast<uint8_t *>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned *>(cq + params_.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned *>(cq + params_.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned *>(cq + params_.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe *>(cq + params_.cq_off.cqes);
    ok_ = true;
    reaper_ = std::thread([this]() { ReaperLoop(); });
  }

  ~IoUringBackend() override {
    if (ok_) {
      Drain();
      // Wake the reaper with a NOP carrying the stop sentinel.
      SubmitSqe(IORING_OP_NOP, -1, nullptr, 0, 0, kStopSentinel);
      reaper_.join();
    }
    Close();
  }

  [[nodiscard]] bool ok() const { return ok_; }

  IoCompletionPtr Submit(IoRequest request) override {
    if (request.prepare || request.cpu_bound) {
      // Codec work rides the helper pool end to end (prepare, transfer via
      // the virtual path, completion) so it parallelizes across workers
      // instead of serializing on the reaper. The helper hits the fault
      // sites itself — exactly once per request, like the ring path.
      return helper_->Submit(std::move(request));
    }
    IoClock::time_point submit_time = IoClock::now();
    auto completion = std::make_shared<IoCompletion>();
    MetricsRegistry &registry = MetricsRegistry::Global();
    registry.Add(keys_.submitted, 1);
    registry.Add(keys_.depth_integral,
                 in_flight_.load(std::memory_order_relaxed));
    Status injected = HitSubmitSite();
    if (!injected.ok()) {
      registry.Add(keys_.submit_failed, 1);
      registry.Add(keys_.completed, 1);
      RecordIoLatency(keys_, request.kind, submit_time);
      if (request.on_complete) {
        request.on_complete(injected);
      }
      completion->Complete(std::move(injected));
      return completion;
    }
    int fd = request.file->RawFd();
    if (fd < 0 ||
        in_flight_.load(std::memory_order_relaxed) >= kMaxInFlight) {
      // Decorated handle (no kernel descriptor) or CQ nearly full: execute
      // inline through the virtual path.
      CompleteInline(request, completion, submit_time);
      return completion;
    }
    auto *op = new Op{std::move(request), completion, submit_time};
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    uint8_t opcode = op->request.kind == IoRequest::Kind::kRead
                         ? IORING_OP_READ
                         : IORING_OP_WRITE;
    if (!SubmitSqe(opcode, fd, op->request.buffer, op->request.bytes,
                   op->request.offset, reinterpret_cast<uint64_t>(op))) {
      // Kernel rejected the submission; fall back to inline execution.
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      IoRequest req = std::move(op->request);
      delete op;
      CompleteInline(req, completion, submit_time);
    }
    return completion;
  }

  void Drain() override {
    helper_->Drain();
    ScopedLock guard(drain_lock_);
    drain_cv_.Wait(drain_lock_, [this]() SSAGG_REQUIRES(drain_lock_) {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }

  void SetFaultInjector(FaultInjector *injector) override {
    AsyncIoBackend::SetFaultInjector(injector);
    helper_->SetFaultInjector(injector);
  }

  [[nodiscard]] IoBackendKind kind() const override {
    return IoBackendKind::kIoUring;
  }

 private:
  static constexpr unsigned kQueueDepth = 64;
  /// Leave CQ headroom (cq_entries defaults to 2 * sq_entries).
  static constexpr idx_t kMaxInFlight = 2 * kQueueDepth - 8;
  static constexpr uint64_t kStopSentinel = ~uint64_t(0);

  struct Op {
    IoRequest request;
    IoCompletionPtr completion;
    IoClock::time_point submit_time;
  };

  void CompleteInline(IoRequest &request, const IoCompletionPtr &completion,
                      IoClock::time_point submit_time) {
    Status status = Execute(request);
    if (status.ok()) {
      status = HitCompleteSite();
    }
    MetricsRegistry::Global().Add(keys_.completed, 1);
    RecordIoLatency(keys_, request.kind, submit_time);
    if (request.on_complete) {
      request.on_complete(status);
    }
    completion->Complete(std::move(status));
  }

  /// Queues one SQE and submits it to the kernel. Returns false if the
  /// kernel rejected it.
  bool SubmitSqe(uint8_t opcode, int fd, void *addr, idx_t len, idx_t offset,
                 uint64_t user_data) {
    ScopedLock guard(sq_lock_);
    unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    unsigned tail = *sq_tail_;
    if (tail - head >= params_.sq_entries) {
      // Cannot happen in practice: each SQE is consumed by the enter call
      // below before the lock is released. Treated as a rejection.
      return false;
    }
    unsigned index = tail & sq_mask_;
    io_uring_sqe &sqe = sqes_[index];
    std::memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = opcode;
    sqe.fd = fd;
    sqe.addr = reinterpret_cast<uint64_t>(addr);
    sqe.len = static_cast<uint32_t>(len);
    sqe.off = offset;
    sqe.user_data = user_data;
    sq_array_[index] = index;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
    int ret = SysIoUringEnter(ring_fd_, 1, 0, 0);
    return ret >= 0;
  }

  void ReaperLoop() {
    while (true) {
      unsigned head = __atomic_load_n(cq_head_, __ATOMIC_ACQUIRE);
      unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      if (head == tail) {
        int ret = SysIoUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
        if (ret < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
          return;  // ring is broken; outstanding waits would hang anyway
        }
        continue;
      }
      bool stop = false;
      while (head != tail) {
        io_uring_cqe cqe = cqes_[head & cq_mask_];
        head++;
        __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
        if (cqe.user_data == kStopSentinel) {
          stop = true;
          continue;
        }
        FinishOp(reinterpret_cast<Op *>(cqe.user_data), cqe.res);
      }
      if (stop) {
        return;
      }
    }
  }

  void FinishOp(Op *op, int32_t res) {
    // Pairs with the submitter's SubmitSqe critical section. The CQE's
    // arrival proves the submission happened first, but that ordering runs
    // through the kernel's ring, which TSan cannot see; passing once
    // through the same lock makes the op's field writes visible to this
    // thread in a way the race detector can verify too.
    { ScopedLock guard(sq_lock_); }
    Status status;
    if (res < 0) {
      status = Status::IOError(std::string("io_uring ") +
                               (op->request.kind == IoRequest::Kind::kRead
                                    ? "read"
                                    : "write") +
                               " failed: " + std::strerror(-res) + " (" +
                               op->request.file->path() + ")");
    } else if (static_cast<idx_t>(res) < op->request.bytes) {
      // Short transfer: finish the remainder through the virtual path.
      TraceSpan span("io.async_execute", "io", op->request.bytes);
      IoRequest rest = op->request;
      rest.buffer = static_cast<uint8_t *>(rest.buffer) + res;
      rest.bytes -= static_cast<idx_t>(res);
      rest.offset += static_cast<idx_t>(res);
      status = Execute(rest);
    }
    if (status.ok()) {
      status = HitCompleteSite();
    }
    MetricsRegistry::Global().Add(keys_.completed, 1);
    RecordIoLatency(keys_, op->request.kind, op->submit_time);
    if (op->request.on_complete) {
      op->request.on_complete(status);
    }
    op->completion->Complete(std::move(status));
    delete op;
    if (in_flight_.fetch_sub(1, std::memory_order_release) == 1) {
      // Take the drain lock (empty critical section) so the decrement cannot
      // slot between a drainer's predicate check and its sleep.
      { ScopedLock guard(drain_lock_); }
      drain_cv_.NotifyAll();
    }
  }

  void Close() {
    if (sqes_ != nullptr) {
      ::munmap(sqes_, sqes_size_);
      sqes_ = nullptr;
    }
    if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
      ::munmap(cq_ring_, cq_ring_size_);
    }
    cq_ring_ = nullptr;
    if (sq_ring_ != nullptr && sq_ring_ != MAP_FAILED) {
      ::munmap(sq_ring_, sq_ring_size_);
      sq_ring_ = nullptr;
    }
    if (ring_fd_ >= 0) {
      ::close(ring_fd_);
      ring_fd_ = -1;
    }
  }

  IoMetricKeys keys_;
  struct io_uring_params params_;
  int ring_fd_ = -1;
  bool ok_ = false;

  void *sq_ring_ = nullptr;
  size_t sq_ring_size_ = 0;
  void *cq_ring_ = nullptr;
  size_t cq_ring_size_ = 0;
  io_uring_sqe *sqes_ = nullptr;
  size_t sqes_size_ = 0;
  unsigned *sq_head_ = nullptr;
  unsigned *sq_tail_ SSAGG_GUARDED_BY(sq_lock_) = nullptr;
  unsigned sq_mask_ = 0;
  unsigned *sq_array_ = nullptr;
  unsigned *cq_head_ = nullptr;
  unsigned *cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe *cqes_ = nullptr;

  /// Serializes SQE construction and submission.
  Mutex sq_lock_{LockRank::kIoSubmitRing, "IoUringBackend::sq_lock_"};
  /// Only pairs the drain condition with its wait; in_flight_ is atomic.
  Mutex drain_lock_{LockRank::kIoDrain, "IoUringBackend::drain_lock_"};
  CondVar drain_cv_;
  std::thread reaper_;
  /// Executes cpu_bound requests (codec passes) off the reaper.
  std::unique_ptr<ThreadPoolIoBackend> helper_;
};

#endif  // SSAGG_HAVE_IO_URING

}  // namespace

std::unique_ptr<AsyncIoBackend> CreateIoBackend(IoBackendKind kind,
                                                idx_t io_threads) {
#if SSAGG_HAVE_IO_URING
  if (kind == IoBackendKind::kIoUring) {
    auto uring = std::make_unique<IoUringBackend>(io_threads);
    if (uring->ok()) {
      return uring;
    }
    kind = IoBackendKind::kThreadPool;  // kernel lacks io_uring
  }
#else
  if (kind == IoBackendKind::kIoUring) {
    kind = IoBackendKind::kThreadPool;
  }
#endif
  if (kind == IoBackendKind::kThreadPool) {
    return std::make_unique<ThreadPoolIoBackend>(io_threads);
  }
  return std::make_unique<SyncIoBackend>();
}

}  // namespace ssagg
