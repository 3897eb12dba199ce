//===- OverheadBound.h - Shared overhead-bound check for tests --*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The estimate behind the tier-1 tests that bound what a disabled or idle
/// feature costs the run: pairedMedianOverhead (support/Stats.h, the
/// estimator micro_dbt's *_overhead gates use) over short interleaved
/// runs timed in thread CPU seconds, re-estimated a few times before the
/// caller's bound is judged, because a parallel ctest run on a loaded
/// host can skew a single estimate.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_TESTS_OVERHEADBOUND_H
#define CFED_TESTS_OVERHEADBOUND_H

#include "support/Stats.h"

#include <gtest/gtest.h>

namespace cfed {
namespace test {

/// Estimates the relative overhead of TimedRun(true) over
/// TimedRun(false) (each returning thread CPU seconds) up to three
/// times, stopping at the first estimate within \p Bound, and returns
/// the last estimate.
template <typename TimedRunFn>
double settledOverhead(TimedRunFn &&TimedRun, double Bound) {
  constexpr int Attempts = 3;
  constexpr int Pairs = 31;
  double Overhead = 0.0;
  for (int Attempt = 0; Attempt < Attempts; ++Attempt) {
    std::optional<double> Estimate = pairedMedianOverhead(TimedRun, Pairs);
    EXPECT_TRUE(Estimate.has_value()) << "a timed run failed";
    Overhead = Estimate.value_or(0.0);
    if (Overhead <= Bound)
      break;
  }
  return Overhead;
}

} // namespace test
} // namespace cfed

#endif // CFED_TESTS_OVERHEADBOUND_H
