//===- HostSpeed.cpp - Host-speed reference for the timed phases ---------===//

#include "HostSpeed.h"

#include "Spans.h"

#include <algorithm>

using namespace perfbench;

namespace {

constexpr uint64_t MapKeys = 4096;
constexpr uint64_t TableWords = uint64_t(1) << 19; // 4 MiB.
constexpr int KernelSteps = 1 << 16;
/// Samples on each side of a timestamp that scaleAt() takes the median of.
constexpr size_t Neighbours = 4;
/// Sample capacity, reserved up front (a sample every 50 ms for an hour).
constexpr size_t MaxSamples = 72000;

double medianOf(std::vector<double> V) {
  if (V.empty())
    return HostSpeed::ReferenceNs;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

} // namespace

HostSpeed::HostSpeed() : Table(TableWords) {
  for (uint64_t K = 0; K < MapKeys; ++K)
    Map[K * 4096 + 0x10000] = K;
  At.reserve(MaxSamples);
  Ns.reserve(MaxSamples);
}

void HostSpeed::sample() {
  if (At.size() == MaxSamples)
    return;
  uint64_t Start = nowNs();
  uint64_t X = Sink | 1, S = Sink;
  for (int I = 0; I < KernelSteps; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    S += Map.find(((X >> 30) % MapKeys) * 4096 + 0x10000)->second;
    uint64_t &Word = Table[(X >> 12) % TableWords];
    switch ((X >> 20) & 7) {
    case 0:
      S ^= X;
      break;
    case 1:
      S += X >> 3;
      break;
    case 2:
      S -= X;
      break;
    case 3:
      S *= 3;
      break;
    case 4:
      S = (S << 1) | 1;
      break;
    case 5:
      S += Word;
      break;
    case 6:
      Word = S;
      break;
    default:
      S ^= S >> 7;
    }
  }
  Sink = S;
  At.push_back(Start);
  Ns.push_back(double(nowNs() - Start));
}

void HostSpeed::sampleEvery(uint64_t IntervalNs) {
  if (At.empty() || nowNs() - At.back() >= IntervalNs)
    sample();
}

double HostSpeed::scaleAt(uint64_t AtNs) const {
  size_t I = std::upper_bound(At.begin(), At.end(), AtNs) - At.begin();
  size_t Lo = I > Neighbours ? I - Neighbours : 0;
  size_t Hi = std::min(Ns.size(), I + Neighbours);
  return ReferenceNs /
         medianOf(std::vector<double>(Ns.begin() + Lo, Ns.begin() + Hi));
}

double HostSpeed::scaleOver(uint64_t BeginNs, uint64_t EndNs) const {
  std::vector<double> In;
  for (size_t I = 0; I < At.size(); ++I)
    if (At[I] >= BeginNs && At[I] <= EndNs)
      In.push_back(Ns[I]);
  return ReferenceNs / medianOf(In);
}

double HostSpeed::medianNs() const { return medianOf(Ns); }
