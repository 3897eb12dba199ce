//===- Stats.cpp - Small statistical helpers ------------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ctime>

using namespace cfed;

double cfed::geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double Value : Values) {
    assert(Value > 0.0 && "geometric mean requires positive values");
    LogSum += std::log(Value);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double cfed::threadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + Ts.tv_nsec * 1e-9;
#else
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
}

double cfed::arithmeticMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double Value : Values)
    Sum += Value;
  return Sum / static_cast<double>(Values.size());
}

WilsonInterval cfed::wilsonInterval(uint64_t Successes, uint64_t Trials,
                                    double Z) {
  assert(Successes <= Trials && "more successes than trials");
  assert(Z > 0.0 && "critical value must be positive");
  if (Trials == 0)
    return {0.0, 1.0};
  double N = static_cast<double>(Trials);
  double P = static_cast<double>(Successes) / N;
  double Z2 = Z * Z;
  double Denom = 1.0 + Z2 / N;
  double Center = (P + Z2 / (2.0 * N)) / Denom;
  double Margin =
      (Z / Denom) * std::sqrt(P * (1.0 - P) / N + Z2 / (4.0 * N * N));
  WilsonInterval I;
  I.Low = std::max(0.0, Center - Margin);
  I.High = std::min(1.0, Center + Margin);
  // At the boundaries the exact Wilson bound is 0 (resp. 1), but the
  // arithmetic above leaves ~1e-17 of rounding noise that would make
  // the interval "exclude" a true rate of exactly 0 or 1.
  if (Successes == 0)
    I.Low = 0.0;
  if (Successes == Trials)
    I.High = 1.0;
  return I;
}
