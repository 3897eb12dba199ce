//===- Spans.cpp - In-memory span log ------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <cstring>

using namespace perfbench;

int32_t SpanLog::open(const char *Name, int64_t Op) {
  if (full())
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Current;
  S.Op = Op;
  S.Start = nowNs();
  Spans.push_back(S);
  Current = static_cast<int32_t>(Spans.size() - 1);
  return Current;
}

void SpanLog::close(int32_t Index, uint64_t Work) {
  Span &S = Spans[Index];
  S.End = nowNs();
  S.Work += Work;
  Current = S.Parent;
}

namespace {

/// Per-span child time and "rooted at an op" flag; parents precede their
/// children in the log, so one forward pass resolves both.
struct Derived {
  std::vector<uint64_t> ChildNs;
  std::vector<bool> UnderOp;
};

Derived derive(const std::vector<Span> &Spans) {
  Derived D;
  D.ChildNs.assign(Spans.size(), 0);
  D.UnderOp.assign(Spans.size(), false);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Parent < 0) {
      D.UnderOp[I] = std::strcmp(S.Name, "op") == 0;
      continue;
    }
    D.ChildNs[S.Parent] += S.End - S.Start;
    D.UnderOp[I] = D.UnderOp[S.Parent];
  }
  return D;
}

void accumulate(SpanTotals &T, const Span &S, uint64_t ChildNs, bool UnderOp,
                double Scale) {
  uint64_t Ns = S.End - S.Start;
  double Self = double(Ns > ChildNs ? Ns - ChildNs : 0) * Scale;
  ++T.Count;
  T.TotalNs += double(Ns) * Scale;
  T.SelfNs += Self;
  if (UnderOp)
    T.OpSelfNs += Self;
  T.Work += S.Work;
}

} // namespace

std::vector<std::pair<std::string, SpanTotals>>
SpanLog::allTotals(const std::function<double(uint64_t)> &Scale) const {
  Derived D = derive(Spans);
  std::vector<std::pair<std::string, SpanTotals>> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    size_t K = 0;
    while (K < Out.size() && Out[K].first != Spans[I].Name)
      ++K;
    if (K == Out.size())
      Out.emplace_back(Spans[I].Name, SpanTotals());
    accumulate(Out[K].second, Spans[I], D.ChildNs[I], D.UnderOp[I],
               Scale ? Scale(Spans[I].Start) : 1.0);
  }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "index\tname\top\tparent\tstart_ns\tend_ns\twork\n");
  uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu\t%s\t%lld\t%d\t%llu\t%llu\t%llu\n", I, S.Name,
                 (long long)S.Op, S.Parent,
                 (unsigned long long)(S.Start - Base),
                 (unsigned long long)(S.End - Base),
                 (unsigned long long)S.Work);
  }
  return std::fclose(F) == 0;
}
