#include "observe/flight_recorder.h"

#include <sys/mman.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "observe/log.h"

namespace ssagg {

namespace {

using Word = std::atomic_ref<uint64_t>;

uint64_t *MapZeroedWords(idx_t bytes) {
  // Anonymous pages read as zero and become resident only when written.
  void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return static_cast<uint64_t *>(mem);
}

Status WriteJsonFile(const std::string &path, const Json &doc) {
  std::string text = doc.Dump(1);
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file " + path);
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::IOError("short write to trace file " + path);
  }
  return Status::OK();
}

}  // namespace

FlightRecorder::Ring::Ring(idx_t events)
    : bytes(events * kWords * sizeof(uint64_t)), words(MapZeroedWords(bytes)) {}

FlightRecorder::Ring::~Ring() { ::munmap(words, bytes); }

FlightRecorder::FlightRecorder(idx_t ring_events, std::string trace_path)
    : ring_events_(ring_events),
      trace_path_(std::move(trace_path)),
      epoch_(std::chrono::steady_clock::now()) {
  SSAGG_ASSERT(ring_events_ > 0 && (ring_events_ & (ring_events_ - 1)) == 0);
}

FlightRecorder &FlightRecorder::Global() {
  // Leaked so instrumentation may record during static destruction, same as
  // MetricsRegistry::Global; the exit-time flush still sees a live recorder.
  static FlightRecorder *global = []() {
    const char *trace = std::getenv("SSAGG_TRACE");
    bool tracing = trace != nullptr && trace[0] != '\0';
    auto *recorder = tracing ? new FlightRecorder(kTraceRingEvents, trace)
                             : new FlightRecorder();
    if (tracing) {
      std::atexit([]() { (void)FlightRecorder::Global().FlushTrace(); });
    }
    if (const char *dir = std::getenv("SSAGG_FLIGHT_DUMP")) {
      if (dir[0] != '\0') {
        recorder->SetDumpDirectory(dir);
        InstallSignalHandler();
      }
    }
    return recorder;
  }();
  return *global;
}

void FlightRecorder::Record(const char *name, const char *category, char phase,
                            uint64_t ts_us, uint64_t dur_us, uint64_t arg) {
  Ring &ring = rings_.Local(lock_, ring_events_);
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  uint64_t *event = ring.words + (head & (ring_events_ - 1)) * kWords;
  Word(event[0]).store(reinterpret_cast<uint64_t>(name),
                       std::memory_order_relaxed);
  Word(event[1]).store(reinterpret_cast<uint64_t>(category),
                       std::memory_order_relaxed);
  Word(event[2]).store(ts_us, std::memory_order_relaxed);
  Word(event[3]).store(dur_us, std::memory_order_relaxed);
  Word(event[4]).store(arg, std::memory_order_relaxed);
  Word(event[5]).store(static_cast<uint64_t>(phase),
                       std::memory_order_relaxed);
  // Publishes the slot: readers acquire head and only trust slots below it.
  ring.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::SetDumpDirectory(std::string dir) {
  ScopedLock guard(lock_);
  dump_dir_ = std::move(dir);
}

std::string FlightRecorder::dump_directory() const {
  ScopedLock guard(lock_);
  return dump_dir_;
}

Json FlightRecorder::ToJson() const {
  Json events = Json::Array();
  uint64_t dropped = 0;
  uint64_t tid = 0;
  ScopedLock guard(lock_);
  rings_.ForEach(lock_, [&](Ring &ring) {
    tid++;  // one Chrome-trace track per ring
    uint64_t head = ring.head.load(std::memory_order_acquire);
    uint64_t retained = head < ring_events_ ? head : ring_events_;
    dropped += head - retained;
    for (uint64_t i = head - retained; i < head; i++) {
      uint64_t *event = ring.words + (i & (ring_events_ - 1)) * kWords;
      auto name = reinterpret_cast<const char *>(
          Word(event[0]).load(std::memory_order_relaxed));
      auto category = reinterpret_cast<const char *>(
          Word(event[1]).load(std::memory_order_relaxed));
      uint64_t ts_us = Word(event[2]).load(std::memory_order_relaxed);
      uint64_t dur_us = Word(event[3]).load(std::memory_order_relaxed);
      uint64_t arg = Word(event[4]).load(std::memory_order_relaxed);
      auto phase =
          static_cast<char>(Word(event[5]).load(std::memory_order_relaxed));
      if (name == nullptr ||
          (phase != 'X' && phase != 'i' && phase != 'C')) {
        // Slot raced a concurrent writer mid-update; drop it.
        continue;
      }
      Json e = Json::Object();
      e.Set("name", name);
      e.Set("cat", category == nullptr ? "flight" : category);
      e.Set("ph", std::string(1, phase));
      e.Set("pid", uint64_t(1));
      e.Set("tid", tid);
      e.Set("ts", ts_us);
      if (phase == 'X') {
        e.Set("dur", dur_us);
      }
      if (phase == 'i') {
        e.Set("s", "t");  // thread-scoped instant
      }
      if (phase == 'C') {
        e.Set("args", Json::Object().Set("value", arg));
      } else if (arg != kInvalidIndex) {
        e.Set("args", Json::Object().Set("v", arg));
      }
      events.Push(std::move(e));
    }
  });
  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  doc.Set("droppedEvents", dropped);
  return doc;
}

std::string FlightRecorder::DumpAnomaly(const char *reason) {
  std::string dir = dump_directory();
  if (dir.empty()) {
    return "";
  }
  uint64_t seq = dump_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= kMaxDumps) {
    return "";
  }
  std::string tag;
  for (const char *p = reason; *p != '\0'; p++) {
    char c = *p;
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    tag.push_back(ok ? c : '_');
  }
  Json doc = ToJson();
  doc.Set("flightReason", reason);
  char path[512];
  std::snprintf(path, sizeof(path), "%s/ssagg_flight_%s_%llu.json",
                dir.c_str(), tag.c_str(),
                static_cast<unsigned long long>(seq));
  Status status = WriteJsonFile(path, doc);
  if (!status.ok()) {
    SSAGG_LOG_WARN("flight recorder: %s", status.ToString().c_str());
    return "";
  }
  SSAGG_LOG_INFO("flight recorder: dumped %s (%llu events) to %s", reason,
                 static_cast<unsigned long long>(EventCount()), path);
  return path;
}

Status FlightRecorder::FlushTrace() const {
  if (trace_path_.empty()) {
    return Status::OK();
  }
  return WriteJsonFile(trace_path_, ToJson());
}

idx_t FlightRecorder::EventCount() const {
  ScopedLock guard(lock_);
  idx_t total = 0;
  rings_.ForEach(lock_, [&](Ring &ring) {
    uint64_t head = ring.head.load(std::memory_order_acquire);
    total += static_cast<idx_t>(head < ring_events_ ? head : ring_events_);
  });
  return total;
}

idx_t FlightRecorder::RingCount() const {
  ScopedLock guard(lock_);
  return rings_.Count(lock_);
}

void FlightRecorder::Clear() {
  ScopedLock guard(lock_);
  rings_.ForEach(lock_, [](Ring &ring) {
    ring.head.store(0, std::memory_order_release);
  });
}

void FlightRecorder::InstallSignalHandler() {
#ifndef _WIN32
  std::signal(SIGUSR1, [](int) {
    // Best effort: DumpAnomaly allocates and locks, which is formally
    // undefined from a signal handler; acceptable for an operator poking a
    // live process, and never installed unless dumping was requested.
    (void)FlightRecorder::Global().DumpAnomaly("sigusr1");
  });
#endif
}

}  // namespace ssagg
