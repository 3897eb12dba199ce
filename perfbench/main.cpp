//===- main.cpp - The repository benchmark -------------------------------===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <steady|recover|cold|campaign> --seed <n>
//           --seconds <s> --trace <0|1> [--spans <file>] [--ledger-dir <dir>]
//
// Runs one closed-loop workload (one client, the next op starts when the
// previous one returns) and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, from a run that times half its seconds untraced and
// half traced and then probes the layers the ops do not reach. The
// per-layer self-time table goes to stderr. README.md defines every
// metric.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Spans.h"
#include "Workloads.h"

#include "fault/Campaign.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int SetupRuns = 5;
/// Ops every phase runs at least, so p90 has ten samples beyond it.
constexpr uint64_t MinPhaseOps = 100;
/// Span buffer of the traced run (48 bytes a span).
constexpr size_t SpanCapacity = size_t(1) << 18;
/// Op-time samples one phase can hold.
constexpr size_t SampleCapacity = size_t(1) << 18;
/// Interval between host-speed reference samples during a phase.
constexpr uint64_t HostSampleNs = 50000000;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
  std::string LedgerDir;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (!(O.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      O.Trace = Value == "1";
    } else if (Flag == "--spans") {
      O.SpansPath = Value;
    } else if (Flag == "--ledger-dir") {
      O.LedgerDir = Value;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return HaveWorkload;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolated quantile of sorted \p V.
double quantile(const std::vector<double> &V, double Q) {
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

uint64_t minorFaults() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_minflt);
}

/// Per-op sample buffers, reserved once before the set-up and reused by
/// both phases: a buffer allocated between phases can land in the heap
/// instead of its own mapping and change how the ops' frees trim it
/// (hazard 1 in README.md).
struct OpSamples {
  std::vector<double> OpMs;
  std::vector<uint64_t> StartNs;
  OpSamples() {
    OpMs.reserve(SampleCapacity);
    StartNs.reserve(SampleCapacity);
  }
};

/// One timed, closed-loop pass over the op stream from index 0. Op times
/// are scaled to the reference host speed (HostSpeed.h).
struct Phase {
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  double OpNs = 0;    ///< Summed scaled op time.
  double RawOpNs = 0; ///< Summed op wall time as measured.
  uint64_t WallNs = 0;
  uint64_t NativeInsns = 0;
  uint64_t MinorFaults = 0; ///< Summed per-op minor-fault deltas.
  double P50Ms = 0;
  double P90Ms = 0;
};

Phase runPhase(Workload &W, double Seconds, SpanLog *Log, HostSpeed &Host,
               OpSamples &S) {
  Phase P;
  S.OpMs.clear();
  S.StartNs.clear();
  uint64_t MinOps = std::max(MinPhaseOps, W.minOps());
  uint64_t Round = W.roundSize();
  MinOps = (MinOps + Round - 1) / Round * Round;
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  for (uint64_t I = 0;; ++I) {
    if (I % Round == 0 && I >= MinOps &&
        (nowNs() >= Deadline || (Log && Log->full())))
      break;
    if (S.OpMs.size() == S.OpMs.capacity())
      break;
    Host.sampleEvery(HostSampleNs);
    uint64_t Faults = minorFaults();
    S.StartNs.push_back(nowNs());
    OpResult R = W.runOp(I, Log);
    P.MinorFaults += minorFaults() - Faults;
    ++P.Ops;
    P.Failed += R.Ok ? 0 : 1;
    P.RawOpNs += double(R.Ns);
    P.NativeInsns += R.NativeInsns;
    S.OpMs.push_back(double(R.Ns) / 1e6);
  }
  P.WallNs = nowNs() - Start;
  Host.sample(); // The last ops need neighbours on both sides too.
  for (size_t I = 0; I < S.OpMs.size(); ++I) {
    S.OpMs[I] *= Host.scaleAt(S.StartNs[I]);
    P.OpNs += S.OpMs[I] * 1e6;
  }
  std::sort(S.OpMs.begin(), S.OpMs.end());
  P.P50Ms = quantile(S.OpMs, 0.5);
  P.P90Ms = quantile(S.OpMs, 0.9);
  return P;
}

double opsPerSecond(const Phase &P) { return double(P.Ops) / (P.OpNs / 1e9); }

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Checks the ledger against the one an earlier run of the same binary,
/// workload and seed left in \p Dir, then stores the union. Returns the
/// number of slots whose counts differ.
uint64_t checkAcrossRuns(const Ledger &L, const Options &O) {
  if (O.LedgerDir.empty())
    return 0;
  struct stat Exe;
  if (stat("/proc/self/exe", &Exe) != 0)
    return 0;
  std::ostringstream Name;
  Name << O.LedgerDir << "/" << O.Workload << "-" << O.Seed << "-"
       << Exe.st_size << "-" << Exe.st_mtim.tv_sec << "."
       << Exe.st_mtim.tv_nsec << ".txt";
  auto Encode = [](const OpCounts &C) {
    std::ostringstream S;
    for (uint64_t V :
         {C.NativeInsns, C.NativeCycles, C.Insns, C.Cycles, C.Translations,
          C.LoadTranslations, C.Dispatches, C.Chains, C.IbtcHits,
          C.IbtcMisses, C.CheckSig, C.GenSig, C.Checkpoints, C.Outcome,
          C.LatencyInsns, C.Runs})
      S << ' ' << V;
    return S.str();
  };
  std::map<size_t, std::string> Stored;
  {
    std::ifstream In(Name.str());
    std::string Line;
    while (std::getline(In, Line)) {
      size_t Space = Line.find(' ');
      if (Space != std::string::npos)
        Stored[std::stoull(Line.substr(0, Space))] = Line.substr(Space);
    }
  }
  uint64_t Mismatches = 0;
  for (size_t Slot = 0; Slot < L.slots().size(); ++Slot) {
    if (!L.slots()[Slot])
      continue;
    std::string Mine = Encode(*L.slots()[Slot]);
    auto It = Stored.find(Slot);
    if (It == Stored.end())
      Stored[Slot] = Mine;
    else if (It->second != Mine && Mismatches++ == 0)
      std::fprintf(stderr,
                   "perfbench: determinism check failed: slot %zu differs "
                   "from an earlier run of this binary and seed\n",
                   Slot);
  }
  std::ofstream Out(Name.str(), std::ios::trunc);
  for (const auto &[Slot, Line] : Stored)
    Out << Slot << Line << '\n';
  return Mismatches;
}

/// Metrics in print order: name, value, unit.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t I = 0; I < Metrics.size(); ++I) {
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), V,
                Metrics[I].Unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

/// The end-to-end metric each layer's span should move (README.md).
const char *movesOf(const std::string &Span) {
  static const std::pair<const char *, const char *> Table[] = {
      {"op", "ops_per_s, op_ms_p50/p90"},
      {"setup", "setup_s"},
      {"asm.assemble", "cold op_ms_p50, ops_per_s"},
      {"vm.native", "setup_s"},
      {"vm.instance", "cold, campaign op_ms_p50"},
      {"vm.load", "cold, campaign op_ms_p50 (not steady)"},
      {"cfg.build", "cold op_ms_p90"},
      {"dbt.load", "cold op_ms_p50"},
      {"dbt.run", "steady guest_mips"},
      {"dbt.golden", "campaign setup_s"},
      {"recovery.run", "recover guest_mips"},
      {"fault.prepare", "campaign setup_s"},
      {"fault.plan", "campaign setup_s"},
      {"fault.inject", "campaign ops_per_s, op_ms_p90"},
      {"probe", "(probe) guest_mips"},
  };
  for (const auto &[Prefix, Moves] : Table)
    if (Span.rfind(Prefix, 0) == 0)
      return Moves;
  return "";
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t ProcessStart = nowNs();
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload steady|recover|cold|campaign "
                 "--seed N --seconds S --trace 0|1 [--spans FILE] "
                 "[--ledger-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> W = createWorkload(O.Workload, O.Seed);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  std::unique_ptr<SpanLog> Log;
  if (O.Trace)
    Log = std::make_unique<SpanLog>(SpanCapacity);
  HostSpeed Host;
  OpSamples Samples;

  // Set-up, several times, between batches of host-speed samples: each
  // set-up is scaled by the samples on either side, and setup_s is the
  // median.
  std::vector<uint64_t> Marks;
  auto HostBatch = [&] {
    Marks.push_back(nowNs());
    for (int I = 0; I < 3; ++I)
      Host.sample();
  };
  std::vector<double> RawSetupS, SetupS;
  HostBatch();
  for (int I = 0; I < SetupRuns; ++I) {
    uint64_t Start = nowNs();
    if (!W->setUp(Log.get()))
      return 1;
    RawSetupS.push_back(double(nowNs() - Start) / 1e9);
    HostBatch();
  }
  Marks.push_back(~0ULL);
  for (int I = 0; I < SetupRuns; ++I)
    SetupS.push_back(RawSetupS[I] * Host.scaleOver(Marks[I], Marks[I + 2] - 1));
  std::fprintf(stderr,
               "perfbench: %s seed %llu: first op %.3f s after start\n",
               O.Workload.c_str(), (unsigned long long)O.Seed,
               double(nowNs() - ProcessStart) / 1e9);

  // With tracing the seconds split into an untraced and a traced half;
  // both start at op 0, so the ledger compares the two.
  Phase Plain = runPhase(*W, O.Trace ? O.Seconds / 2 : O.Seconds, nullptr,
                         Host, Samples);
  Phase Traced;
  if (O.Trace)
    Traced = runPhase(*W, O.Seconds / 2, Log.get(), Host, Samples);

  uint64_t Attempted = Plain.Ops + Traced.Ops;
  uint64_t Failed = Plain.Failed + Traced.Failed;
  OpCounts Model = W->modelTotals();

  if (!O.Trace) {
    uint64_t Mismatches =
        W->ledger().mismatches() + checkAcrossRuns(W->ledger(), O);
    std::fprintf(stderr,
                 "perfbench: %llu ops, %llu failed, %llu determinism "
                 "mismatches; unscaled: setup %.4f s, %.3f ops/s; host "
                 "reference %.3f ms; %.2f minor faults per op\n",
                 (unsigned long long)Plain.Ops, (unsigned long long)Failed,
                 (unsigned long long)Mismatches, median(RawSetupS),
                 double(Plain.Ops) / (Plain.RawOpNs / 1e9),
                 Host.medianNs() / 1e6,
                 ratio(double(Plain.MinorFaults), double(Plain.Ops)));
    std::vector<Metric> M = {
        {"setup_s", median(SetupS), "s"},
        {"ops_per_s", opsPerSecond(Plain), "1/s"},
        {"op_ms_p50", Plain.P50Ms, "ms"},
        {"op_ms_p90", Plain.P90Ms, "ms"},
        {"guest_mips", double(Plain.NativeInsns) / (Plain.OpNs / 1e3),
         "insn/us"},
        {"model_slowdown",
         ratio(double(Model.Cycles), double(Model.NativeCycles)), "x"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printResult(Failed == 0 && Mismatches == 0, Attempted, Failed, M);
    return 0;
  }

  // Traced run: the layers the ops do not reach are probed once here,
  // on the workload's own programs, with host-speed samples in between.
  ProbeStats Probes;
  int64_t ProbeIndex = 0;
  for (const ProbeProgram &P : W->probePrograms()) {
    Host.sample();
    runProbes(P, ProbeIndex++, Log.get(), Probes);
  }
  Host.sample();
  // The fault layer: the campaign's own ops, or for the other workloads a
  // small campaign with a span log of its own.
  std::unique_ptr<Workload> FaultProbe;
  std::unique_ptr<SpanLog> FaultLog;
  const Workload *FaultSource = W.get();
  if (O.Workload != "campaign") {
    FaultProbe = createCampaign(O.Seed, 4);
    FaultLog = std::make_unique<SpanLog>(SpanCapacity / 64);
    Host.sample();
    if (!FaultProbe->setUp(FaultLog.get()))
      return 1;
    for (uint64_t I = 0; I < FaultProbe->minOps(); ++I) {
      Host.sampleEvery(HostSampleNs);
      Failed += FaultProbe->runOp(I, FaultLog.get()).Ok ? 0 : 1;
    }
    Host.sample();
    FaultSource = FaultProbe.get();
  }
  // Probed programs and probe injections count as attempted ops too.
  Attempted += Probes.Programs + (FaultProbe ? FaultProbe->minOps() : 0);
  Failed += Probes.Failures;
  uint64_t Mismatches = W->ledger().mismatches() +
                        checkAcrossRuns(W->ledger(), O) +
                        FaultSource->ledger().mismatches();

  // Per-layer times are scaled like the end-to-end ones.
  auto Scale = [&](uint64_t AtNs) { return Host.scaleAt(AtNs); };
  std::map<std::string, SpanTotals> Spans;
  std::vector<std::string> SpanOrder;
  for (auto &[Name, T] : Log->allTotals(Scale)) {
    Spans[Name] = T;
    SpanOrder.push_back(Name);
  }
  std::map<std::string, SpanTotals> FaultSpans = Spans;
  if (FaultLog) {
    FaultSpans.clear();
    for (auto &[Name, T] : FaultLog->allTotals(Scale))
      FaultSpans[Name] = T;
  }
  auto meanUs = [&](const char *Name) {
    const SpanTotals &T = Spans[Name];
    return ratio(T.TotalNs / 1e3, double(T.Count));
  };
  auto nsPerWork = [&](const char *Name) {
    const SpanTotals &T = Spans[Name];
    return ratio(T.TotalNs, double(T.Work));
  };
  // Prefer the ops' own span; fall back to the probe that makes the same
  // call when the ops do not.
  auto nsPerInsn = [&](const char *Name, const char *Probe) {
    return Spans[Name].Count ? nsPerWork(Name) : nsPerWork(Probe);
  };

  // Dbt::load minus the image load it contains, per block translated,
  // from the paired probes.
  double VmLoadUs = meanUs("vm.load");
  const SpanTotals &DbtLoad = Spans["probe.dbt_load"];
  double TranslateUs =
      ratio(DbtLoad.TotalNs / 1e3 - VmLoadUs * double(DbtLoad.Count),
            double(DbtLoad.Work));

  // Fault outcomes over the distinct injections of the leading ops.
  std::vector<OpCounts> Injections = FaultSource->modelSlots();
  uint64_t OutcomeN[cfed::NumOutcomes] = {};
  uint64_t LatencySum = 0;
  for (const OpCounts &C : Injections) {
    ++OutcomeN[C.Outcome];
    LatencySum += C.LatencyInsns;
  }
  auto share = [&](cfed::Outcome Out) {
    return ratio(double(OutcomeN[static_cast<unsigned>(Out)]),
                 double(Injections.size()));
  };
  // Fault spans: per campaign set-up (four programs) or per injection.
  auto perSetUp = [&](const char *Name) {
    const SpanTotals &T = FaultSpans[Name];
    return ratio(T.TotalNs / 1e9, double(T.Count) / 4.0);
  };
  auto injectMs = [&](const std::string &Name) {
    const SpanTotals &T = FaultSpans[Name];
    return ratio(T.TotalNs / 1e6, double(T.Count));
  };

  // Share of the op time (campaign: of the traced phase's wall time,
  // unscaled) spent in the layer predicted to dominate.
  double OpNs = Spans["op"].TotalNs;
  double Dominant = 0;
  if (O.Workload == "steady")
    Dominant = ratio(Spans["dbt.run"].OpSelfNs, OpNs);
  else if (O.Workload == "recover")
    Dominant = ratio(Spans["recovery.run"].OpSelfNs, OpNs);
  else if (O.Workload == "cold")
    Dominant = ratio(
        Spans["asm.assemble"].OpSelfNs + Spans["dbt.load"].OpSelfNs, OpNs);
  else {
    double Inject = 0;
    for (const auto &[Name, T] : Log->allTotals())
      if (Name.rfind("fault.inject.", 0) == 0)
        Inject += T.TotalNs;
    Dominant = ratio(Inject, double(Traced.WallNs));
  }

  std::vector<Metric> M = {
      {"asm.assemble_us", meanUs("asm.assemble"), "us"},
      {"vm.load_us", VmLoadUs, "us"},
      {"vm.instance_us", 2 * meanUs("vm.instance"), "us"},
      {"vm.minflt_per_op",
       ratio(double(Traced.MinorFaults), double(Traced.Ops)), "count"},
      {"vm.native_ns_per_insn", nsPerWork("vm.native"), "ns"},
      {"cfg.build_us", meanUs("cfg.build"), "us"},
      {"cfc.instr_share",
       ratio(double(Model.Insns) - double(Model.NativeInsns),
             double(Model.Insns)),
       "ratio"},
      {"cfc.check_sig_per_block",
       ratio(double(Model.CheckSig), double(Model.Translations)), "count"},
      {"cfc.gen_sig_per_block",
       ratio(double(Model.GenSig), double(Model.Translations)), "count"},
      {"dbt.load_us", meanUs("dbt.load"), "us"},
      {"dbt.translate_us_per_block", TranslateUs, "us"},
      {"dbt.run_ns_per_insn", nsPerInsn("dbt.run", "probe.base"), "ns"},
      {"dbt.dispatches_per_kinsn",
       ratio(double(Model.Dispatches), double(Model.NativeInsns) / 1e3),
       "count"},
      {"dbt.ibtc_hit_rate",
       ratio(double(Model.IbtcHits), double(Model.IbtcHits + Model.IbtcMisses)),
       "ratio"},
      {"dbt.chains_per_op", ratio(double(Model.Chains), double(Model.Runs)),
       "count"},
      {"dbt.translations_per_op",
       ratio(double(Model.Translations), double(Model.Runs)), "count"},
      {"dbt.tier.interp_ns", nsPerWork("probe.interp"), "ns"},
      {"dbt.tier.base_ns", nsPerWork("probe.base"), "ns"},
      {"dbt.tier.opt_ns", nsPerWork("probe.opt"), "ns"},
      {"recovery.run_ns_per_insn", nsPerInsn("recovery.run", "probe.recovery"),
       "ns"},
      {"recovery.overhead",
       ratio(Spans["probe.recovery"].TotalNs,
             Spans["probe.base"].TotalNs),
       "x"},
      {"recovery.checkpoints_per_op",
       ratio(double(Probes.Checkpoints), double(Probes.Programs)), "count"},
      {"fault.prepare_s", perSetUp("fault.prepare"), "s"},
      {"fault.plan_s", perSetUp("fault.plan"), "s"},
  };
  for (const std::string &Span : campaignInjectSpans())
    M.push_back({"fault.inject_ms." + Span.substr(Span.rfind('.') + 1),
                 injectMs(Span), "ms"});
  M.push_back({"fault.outcome.detected_sig",
               share(cfed::Outcome::DetectedSignature), "ratio"});
  M.push_back({"fault.outcome.detected_hw",
               share(cfed::Outcome::DetectedHardware), "ratio"});
  M.push_back({"fault.outcome.masked", share(cfed::Outcome::Masked), "ratio"});
  M.push_back({"fault.outcome.sdc", share(cfed::Outcome::Sdc), "ratio"});
  M.push_back(
      {"fault.outcome.timeout", share(cfed::Outcome::Timeout), "ratio"});
  M.push_back({"fault.latency_insns_mean",
               ratio(double(LatencySum), double(Injections.size())), "count"});
  M.push_back({"trace.overhead",
               ratio(opsPerSecond(Plain), opsPerSecond(Traced)) - 1, "ratio"});
  M.push_back({"trace.dominant_share", Dominant, "ratio"});
  M.push_back({"host.reference_ms", Host.medianNs() / 1e6, "ms"});

  // The per-layer self-time table.
  std::fprintf(stderr, "\nperfbench: %s seed %llu traced: %llu ops, %llu "
                       "spans, tracing overhead %+.1f%%, minor faults per "
                       "op %.2f untraced\n",
               O.Workload.c_str(), (unsigned long long)O.Seed,
               (unsigned long long)Traced.Ops,
               (unsigned long long)Log->spans().size(),
               100 * (ratio(opsPerSecond(Plain), opsPerSecond(Traced)) - 1),
               ratio(double(Plain.MinorFaults), double(Plain.Ops)));
  std::fprintf(stderr, "%-22s %8s %12s %10s %8s  %s\n", "span", "count",
               "self_ms", "mean_us", "op_time%", "moves");
  for (const std::string &Name : SpanOrder) {
    const SpanTotals &T = Spans[Name];
    std::fprintf(stderr, "%-22s %8llu %12.3f %10.2f %8.2f  %s\n", Name.c_str(),
                 (unsigned long long)T.Count, T.SelfNs / 1e6,
                 ratio(T.TotalNs / 1e3, double(T.Count)),
                 100 * ratio(T.OpSelfNs, OpNs),
                 movesOf(Name));
  }
  std::fprintf(stderr, "dominant layer share %.3f, %llu determinism "
                       "mismatches\n\n",
               Dominant, (unsigned long long)Mismatches);
  if (!O.SpansPath.empty() && !Log->write(O.SpansPath))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.SpansPath.c_str());

  printResult(Failed == 0 && Mismatches == 0, Attempted, Failed, M);
  return 0;
}
