//===- Metrics.h - Named counters, gauges, and histograms -------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide metrics registry: every subsystem publishes its
/// counts through named instruments obtained from a MetricsRegistry
/// instead of keeping private ad-hoc fields. Instruments are created
/// lazily on first lookup, live for the registry's lifetime at a stable
/// address, and are cheap to bump (a relaxed atomic add). Snapshots are
/// plain value objects that can be diffed, merged, and rendered as
/// text, single-line JSON, or CSV.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_TELEMETRY_METRICS_H
#define CFED_TELEMETRY_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cfed {
namespace json {
struct JsonValue;
} // namespace json
namespace telemetry {

/// A monotonically increasing event count. Thread-safe; bumping is a
/// single relaxed atomic add so it is safe on translation/dispatch
/// paths (but still too hot for per-instruction loops — see the
/// overhead policy in DESIGN.md §8).
class Counter {
public:
  void inc(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// A last-value-wins measurement (hit rates, published totals).
class Gauge {
public:
  void set(double V) { Value.store(V, std::memory_order_relaxed); }
  double value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

/// A fixed-bucket histogram: ascending inclusive upper bounds plus an
/// implicit overflow bucket. observe() is thread-safe.
class Histogram {
public:
  explicit Histogram(std::vector<uint64_t> UpperBounds);

  void observe(uint64_t Sample);
  /// Folds pre-aggregated bucket counts in (same shape as
  /// bucketCounts()); used when merging snapshots.
  void add(const std::vector<uint64_t> &OtherBuckets, uint64_t OtherCount,
           uint64_t OtherSum);
  /// Buckets.size() == bounds().size() + 1; the last is the overflow.
  std::vector<uint64_t> bucketCounts() const;
  const std::vector<uint64_t> &bounds() const { return Bounds; }
  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  void reset();

private:
  std::vector<uint64_t> Bounds;
  std::vector<std::atomic<uint64_t>> Buckets;
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
};

/// A point-in-time copy of a registry's instruments, sorted by name.
struct RegistrySnapshot {
  struct HistogramValue {
    std::vector<uint64_t> Bounds;
    std::vector<uint64_t> Buckets; ///< Bounds.size() + 1 entries.
    uint64_t Count = 0;
    uint64_t Sum = 0;

    /// Sum / Count; 0 when empty.
    double mean() const;
    /// Upper bound of the bucket containing the \p Q-quantile sample
    /// (Q in [0,1]); 0 when empty. When the sample falls in the
    /// open-ended overflow bucket this clamps to the largest bound —
    /// check quantileOverflows() (or use quantileText(), which renders
    /// ">=max") rather than trusting the clamped number: the actual
    /// sample may be arbitrarily larger.
    uint64_t quantile(double Q) const;
    /// True when the \p Q-quantile sample falls in the overflow bucket,
    /// i.e. quantile(Q) is a clamp, not a bound.
    bool quantileOverflows(double Q) const;
    /// Display form of quantile(Q): the bound in decimal, or ">=max"
    /// for the open-ended overflow bucket. The one renderer every
    /// text/JSON sink shares.
    std::string quantileText(double Q) const;

    bool operator==(const HistogramValue &) const = default;
  };

  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<std::pair<std::string, HistogramValue>> Histograms;

  /// Value of the named counter, or Default when absent.
  uint64_t counterOr(const std::string &Name, uint64_t Default = 0) const;
  /// Value of the named gauge, or Default when absent.
  double gaugeOr(const std::string &Name, double Default = 0.0) const;

  /// Single-line JSON object (BENCH_perf.json's merge parser is
  /// line-based, so snapshots must never span lines).
  std::string toJson() const;
  /// One "kind,name,value" row per instrument.
  std::string toCsv() const;
  /// Human-readable aligned listing.
  std::string toText() const;

  bool operator==(const RegistrySnapshot &) const = default;
};

/// Rebuilds a snapshot from the JSON shape toJson() emits (an object
/// with "counters"/"gauges"/"histograms" members). \p Json is the
/// parsed value; returns false (and sets \p Error) on a shape mismatch.
/// Lives next to toJson() so the two can never drift apart.
bool snapshotFromJson(const json::JsonValue &Json, RegistrySnapshot &Out,
                      std::string &Error);

/// Owns named instruments. Lookup is mutex-guarded and creates the
/// instrument on first use; the returned references stay valid for the
/// registry's lifetime, so callers cache them once and bump lock-free
/// afterwards.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The process-wide registry used by the CLI tools.
  static MetricsRegistry &global();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// Bounds are only used on first creation; later lookups with
  /// different bounds return the existing instrument unchanged.
  Histogram &histogram(const std::string &Name,
                       std::vector<uint64_t> UpperBounds);

  RegistrySnapshot snapshot() const;
  /// Zeroes every instrument (instruments stay registered).
  void reset();
  /// Sets every counter to its value in \p Values (RegistrySnapshot's
  /// Counters shape), creating the ones not registered yet; counters
  /// \p Values does not name read zero. Gauges and histograms are left
  /// alone.
  void restoreCounters(
      const std::vector<std::pair<std::string, uint64_t>> &Values);
  /// Folds a snapshot in: counters and histograms add, gauges take the
  /// incoming value. Used to merge per-run tallies into campaign-level
  /// cumulative metrics.
  void merge(const RegistrySnapshot &Delta);

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

} // namespace telemetry
} // namespace cfed

#endif // CFED_TELEMETRY_METRICS_H
