//===- Spans.h - In-memory span log for the traced run ----------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. A span records one call into a layer of the
/// system (its name, start and end on the steady clock, the enclosing
/// span, and the op it belongs to) plus an optional work count (guest
/// instructions run, blocks translated) so per-unit costs are measured
/// where the work happens. Spans are opened from the benchmark's own code
/// around the public entry points of each layer; nothing in src/ is
/// instrumented.
///
/// The log is one buffer reserved up front, so recording allocates
/// nothing while ops run and the harness heap stays constant (see the
/// heap-trim hazard in README.md). When the buffer is full, further spans
/// are dropped and full() turns true; the traced phase stops there.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_PERFBENCH_SPANS_H
#define CFED_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Op id of spans recorded outside any op (set-up, probes).
inline constexpr int64_t NoOp = -1;

struct Span {
  const char *Name = nullptr; ///< A string literal naming the layer call.
  int32_t Parent = -1;        ///< Index of the enclosing span, -1 at a root.
  int64_t Op = NoOp;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Work = 0;
};

/// Aggregate of all spans sharing one name.
struct SpanTotals {
  uint64_t Count = 0;
  double TotalNs = 0;
  /// Duration minus the time covered by child spans.
  double SelfNs = 0;
  /// Self time of the spans whose root span is named "op".
  double OpSelfNs = 0;
  uint64_t Work = 0;
};

class SpanLog {
public:
  explicit SpanLog(size_t Capacity) { Spans.reserve(Capacity); }

  /// Opens a span under the innermost open one. Returns its index, or -1
  /// when the buffer is full (the span is dropped).
  int32_t open(const char *Name, int64_t Op);
  /// Closes span \p Index (as returned by open), adding \p Work.
  void close(int32_t Index, uint64_t Work);

  bool full() const { return Spans.size() == Spans.capacity(); }
  const std::vector<Span> &spans() const { return Spans; }

  /// Totals of every span name, in order of first appearance. When
  /// given, \p Scale maps a span's start time to a factor its durations
  /// are multiplied by.
  std::vector<std::pair<std::string, SpanTotals>>
  allTotals(const std::function<double(uint64_t)> &Scale = {}) const;

  /// Writes one tab-separated line per span. Returns false on an I/O
  /// error.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int32_t Current = -1;
};

/// Opens a span for the lifetime of the scope (or until close()). With a
/// null log it records nothing, so untraced ops run the same code.
class Scope {
public:
  Scope(SpanLog *Log, const char *Name, int64_t Op)
      : Log(Log), Index(Log ? Log->open(Name, Op) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  void addWork(uint64_t N) { Work += N; }
  void close() {
    if (Log && Index >= 0)
      Log->close(Index, Work);
    Log = nullptr;
  }

private:
  SpanLog *Log;
  int32_t Index;
  uint64_t Work = 0;
};

} // namespace perfbench

#endif // CFED_PERFBENCH_SPANS_H
