//===- Stats.h - Small statistical helpers ----------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Geometric and arithmetic means used when aggregating per-benchmark
/// slowdowns the same way the paper's figures do, Wilson intervals for
/// campaign rates, and the paired-median estimator behind every measured
/// overhead figure and overhead-bound test.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_SUPPORT_STATS_H
#define CFED_SUPPORT_STATS_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace cfed {

/// Geometric mean of \p Values; all values must be positive. Returns 0 for
/// an empty input.
double geometricMean(const std::vector<double> &Values);

/// Arithmetic mean of \p Values. Returns 0 for an empty input.
double arithmeticMean(const std::vector<double> &Values);

/// A Wilson-score confidence interval on a binomial proportion. Unlike
/// the Wald interval it stays inside [0, 1] and behaves sanely at 0 or
/// n successes — the regimes fault campaigns live in (SDC rates near
/// zero with small samples).
struct WilsonInterval {
  double Low = 0.0;
  double High = 1.0;

  double halfWidth() const { return (High - Low) / 2.0; }
  bool contains(double P) const { return P >= Low && P <= High; }
};

/// Wilson interval for \p Successes out of \p Trials at critical value
/// \p Z (1.96 for 95%, 2.576 for 99%). Zero trials yields [0, 1].
WilsonInterval wilsonInterval(uint64_t Successes, uint64_t Trials, double Z);

/// CPU seconds consumed so far by the calling thread. Millisecond-scale
/// runs on a shared host see preemption slices larger than the effects
/// being measured; thread CPU time leaves them out.
double threadCpuSeconds();

/// Relative cost of a feature, estimated as the median over \p Pairs
/// back-to-back pairs of TimedRun(true) / TimedRun(false) - 1, where
/// TimedRun(On) performs one run with the feature on or off and returns
/// its duration in seconds (timed with threadCpuSeconds). The per-pair
/// ratio cancels the host's frequency state, which a best-of-N minimum
/// per side still tracks, and the median drops the pairs a load spike
/// landed on. The result can be slightly negative when the feature is
/// free. Returns std::nullopt if a run reports failure (a negative
/// duration, or a zero duration for the off run).
template <typename TimedRunFn>
std::optional<double> pairedMedianOverhead(TimedRunFn &&TimedRun, int Pairs) {
  std::vector<double> Ratios;
  for (int I = 0; I < Pairs; ++I) {
    double Off = TimedRun(false);
    double On = TimedRun(true);
    if (Off <= 0 || On < 0)
      return std::nullopt;
    Ratios.push_back(On / Off - 1.0);
  }
  if (Ratios.empty())
    return std::nullopt;
  std::nth_element(Ratios.begin(), Ratios.begin() + Ratios.size() / 2,
                   Ratios.end());
  return Ratios[Ratios.size() / 2];
}

} // namespace cfed

#endif // CFED_SUPPORT_STATS_H
