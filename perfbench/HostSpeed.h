//===- HostSpeed.h - Host-speed reference for the timed phases --*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine the benchmark runs on is shared: other tenants' cache and
/// memory traffic slows everything in this process by up to half, in
/// epochs of seconds (README.md, hazard 4). A fixed reference kernel,
/// interleaved with the ops, samples that slowdown as it happens, and
/// every timing the benchmark reports is scaled by ReferenceNs / (the
/// kernel's local time). A change to src/ moves the ops but not the
/// kernel, so the scaled figures still show it.
///
/// The kernel is owned by the benchmark and uses nothing from src/. Each
/// step does a hash-map lookup, a switch dispatch and a read-modify-write
/// into a 4 MiB table: the kinds of work the interpreter does per guest
/// instruction. Of the kernels tried, this one tracked the ops' slowdown
/// best (README.md, hazard 4).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_PERFBENCH_HOSTSPEED_H
#define CFED_PERFBENCH_HOSTSPEED_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostSpeed {
public:
  /// The kernel's median time on the 4-vCPU container the benchmark was
  /// defined on, so scaled times read as milliseconds on that container
  /// at its median speed.
  static constexpr double ReferenceNs = 1.3e6;

  HostSpeed();

  /// Runs the kernel once and records when and how long.
  void sample();
  /// Samples when \p IntervalNs have passed since the last sample.
  void sampleEvery(uint64_t IntervalNs);
  /// ReferenceNs over the median kernel time of the samples nearest to
  /// \p AtNs: multiply a duration measured at AtNs by this.
  double scaleAt(uint64_t AtNs) const;
  /// ReferenceNs over the median kernel time of the samples taken in
  /// [\p BeginNs, \p EndNs].
  double scaleOver(uint64_t BeginNs, uint64_t EndNs) const;
  /// Median kernel time over all samples.
  double medianNs() const;

private:
  std::unordered_map<uint64_t, uint64_t> Map;
  std::vector<uint64_t> Table;
  std::vector<uint64_t> At;
  std::vector<double> Ns;
  uint64_t Sink = 0;
};

} // namespace perfbench

#endif // CFED_PERFBENCH_HOSTSPEED_H
