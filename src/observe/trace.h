#ifndef SSAGG_OBSERVE_TRACE_H_
#define SSAGG_OBSERVE_TRACE_H_

#include "common/constants.h"
#include "observe/flight_recorder.h"

namespace ssagg {

/// Emit helpers over FlightRecorder::Global(), the one event recorder: one
/// enabled check and, when on, one ring append. Events use the Chrome
/// trace-event schema (loadable in chrome://tracing and Perfetto) and are
/// emitted at morsel/phase/spill granularity, never from per-row loops.
/// Names and categories must be string literals (the rings store the
/// pointers). SSAGG_TRACE=<path> additionally writes the rings to a file;
/// see observe/flight_recorder.h.

/// RAII span: records a complete event (ph "X") over its lifetime on the
/// calling thread's track. `arg` lands in the event's args as "v" when not
/// kInvalidIndex.
class TraceSpan {
 public:
  TraceSpan(const char *name, const char *category, idx_t arg = kInvalidIndex)
      : name_(name), category_(category), arg_(arg) {
    FlightRecorder &recorder = FlightRecorder::Global();
    if (recorder.enabled()) {
      recorder_ = &recorder;
      start_us_ = recorder.NowMicros();
    }
  }
  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->Record(name_, category_, 'X', start_us_,
                        recorder_->NowMicros() - start_us_, arg_);
    }
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

 private:
  const char *name_;
  const char *category_;
  idx_t arg_;
  FlightRecorder *recorder_ = nullptr;
  uint64_t start_us_ = 0;
};

/// Instant event (ph "i"): a point occurrence (HT reset, eviction, ...).
inline void TraceInstant(const char *name, const char *category,
                         idx_t arg = kInvalidIndex) {
  FlightRecorder &recorder = FlightRecorder::Global();
  if (recorder.enabled()) {
    recorder.Record(name, category, 'i', recorder.NowMicros(), 0, arg);
  }
}

/// Counter event (ph "C"): plots `value` over time under `name`.
inline void TraceCounter(const char *name, uint64_t value) {
  FlightRecorder &recorder = FlightRecorder::Global();
  if (recorder.enabled()) {
    recorder.Record(name, "counter", 'C', recorder.NowMicros(), 0, value);
  }
}

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_TRACE_H_
