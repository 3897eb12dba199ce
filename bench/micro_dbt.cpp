//===- micro_dbt.cpp - google-benchmark microbenchmarks -------------------------===//
//
// Host-time microbenchmarks of the infrastructure itself (the only
// bench measuring wall-clock rather than model cycles): assembler
// throughput, encode/decode, interpreter dispatch, whole-program
// translation, the predecode and IBTC hot paths, and fault-campaign
// throughput per job count.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "bench/BenchUtil.h"
#include "dbt/Dbt.h"
#include "fault/Campaign.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "telemetry/LiveExport.h"
#include "telemetry/Metrics.h"
#include "telemetry/Profile.h"
#include "telemetry/Provenance.h"
#include "telemetry/Trace.h"
#include "vm/Loader.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

using namespace cfed;

namespace {
// Filled by the hot-path benchmarks, recorded into BENCH_perf.json at
// exit.
double GPredecodeHitRate = 0.0;
double GIbtcHitRate = 0.0;
double GTelemetryOverhead = 0.0;
double GScrubOverhead = 0.0;
double GLiveExportOverhead = 0.0;
double GDigestOverhead = 0.0;
double GShadowStackOverhead = 0.0;

/// The configurations the scrub-overhead comparison runs: the unchained
/// dispatch loop (every block exit goes through the dispatcher, so the
/// scrubber and dispatch verifier actually run at their configured
/// cadence) with the self-integrity machinery off versus on.
DbtConfig scrubBaselineConfig() {
  DbtConfig Config;
  Config.ChainDirectExits = false;
  return Config;
}

DbtConfig scrubEnabledConfig() {
  DbtConfig Config = scrubBaselineConfig();
  // A moderate periodic cadence: a full-cache scrub every 1024
  // dispatches plus one block rehash per 64 dispatch hits. The fault
  // campaigns crank both down to intervals of 1-16 to catch faults
  // within their short windows; that assurance configuration is
  // deliberately not what the overhead gate measures.
  Config.ScrubInterval = 1024;
  Config.VerifyDispatchInterval = 64;
  return Config;
}

/// One 181.mcf DBT run, optionally with a service live exporter
/// publishing an atomic snapshot file every 5 ms alongside it, timed in
/// the running thread's CPU seconds: the exporter's snapshot/format/write
/// cycle rides its own thread, so what the gate prices is the cost the
/// exporter imposes on the run itself. Shared by BM_LiveExportOverhead
/// and the reference run in main().
double timedLiveExportRun(const AsmProgram &Program, bool WithExporter) {
  Memory Mem;
  Interpreter Interp(Mem);
  telemetry::MetricsRegistry Registry;
  Dbt Translator(Mem, DbtConfig{}, &Registry);
  if (!Translator.load(Program, Interp.state()))
    return -1.0;
  std::string Path = "/tmp/cfed_bench_live_" +
                     std::to_string(::getpid()) + ".live.json";
  std::unique_ptr<telemetry::LiveExporter> Exporter;
  if (WithExporter) {
    telemetry::LiveExporter::Config Cfg;
    Cfg.Path = Path;
    Cfg.RunId = "bench";
    Cfg.IntervalMs = 5;
    Exporter = std::make_unique<telemetry::LiveExporter>(
        Cfg, [&Registry](telemetry::RegistrySnapshot &Snap,
                         telemetry::Heartbeat &) {
          Snap = Registry.snapshot();
        });
    Exporter->start();
  }
  double Begin = threadCpuSeconds();
  Translator.run(Interp, 1000000);
  double End = threadCpuSeconds();
  if (Exporter)
    Exporter->stop();
  std::remove(Path.c_str());
  benchmark::DoNotOptimize(Interp.cycleCount());
  return End - Begin;
}

/// One 181.mcf DBT run of 1M guest instructions under \p Config, timed
/// in thread CPU seconds. Long enough for the scrub cadence of
/// scrubEnabledConfig to fire many times. Shared by BM_ScrubOverhead and
/// the reference run in main().
double timedScrubRun(const AsmProgram &Program, const DbtConfig &Config) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  if (!Translator.load(Program, Interp.state()))
    return -1.0;
  double Begin = threadCpuSeconds();
  Translator.run(Interp, 1000000);
  double End = threadCpuSeconds();
  benchmark::DoNotOptimize(Interp.cycleCount());
  return End - Begin;
}

/// Configuration the digest gate measures under: golden-trace capture
/// is a campaign feature — the oracle is recorded and every faulted run
/// replayed under the campaign's checker configuration — so the
/// deployment-relevant ratio is digests-on versus digests-off with the
/// default campaign technique active, not against a bare unchecked run.
/// (Same pick-the-configuration-it-ships-in rationale as the scrub
/// gate's scrubBaselineConfig above.)
DbtConfig digestCampaignConfig() {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  return Config;
}

/// Instruction budget for one timed digest run. Short on purpose: a
/// ~1-2 ms run fits inside a scheduler timeslice, so on a busy shared
/// runner enough of the off/on pairs below execute unpreempted for a
/// robust estimate, and the staged record stream stays cache-resident —
/// the gate measures the capture path itself, not the shared box's LLC
/// weather. (Chain materialization happens outside the timed window,
/// like the campaign's own analysis pass.)
constexpr uint64_t DigestRunBudget = 100000;

/// Off/on run pairs per overhead estimate. A digest pair is ~2 ms of
/// CPU and a scrub or live-export pair (1M instructions) ~12 ms, so 40
/// pairs keep each estimate between a tenth and half a second while
/// giving the median enough clean samples to shrug off load spikes.
constexpr int OverheadRunPairs = 40;

/// One timed 181.mcf DBT run under digestCampaignConfig, optionally
/// with a golden-trace digest recorder attached (Marker mode: the
/// translator plants a Digest capture marker at every sub-block
/// boundary at load time, so the run pays the full per-boundary
/// register/flag fold). The recorder is passed in and reset per run
/// rather than constructed here: the bench measures the steady-state
/// capture cost, with the record vector's capacity already faulted in —
/// the pattern a long golden-trace recording or a recorder-reusing
/// campaign sees — not the allocator. Shared by BM_DigestCapture and
/// the deterministic reference run in main().
double timedDigestRun(const AsmProgram &Program,
                      telemetry::DigestRecorder *Digests) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, digestCampaignConfig());
  if (Digests) {
    Digests->resetRun();
    Translator.setDigestRecorder(Digests);
  }
  if (!Translator.load(Program, Interp.state()))
    return -1.0;
  double Begin = threadCpuSeconds();
  Translator.run(Interp, DigestRunBudget);
  double End = threadCpuSeconds();
  benchmark::DoNotOptimize(Interp.cycleCount());
  if (Digests)
    benchmark::DoNotOptimize(Digests->records().size());
  return End - Begin;
}

std::optional<double>
measureDigestOverhead(const AsmProgram &Program,
                      telemetry::DigestRecorder &Digests) {
  return pairedMedianOverhead(
      [&](bool On) { return timedDigestRun(Program, On ? &Digests : nullptr); },
      OverheadRunPairs);
}

/// Configuration the shadow-stack gate measures under: the shadow
/// return stack deploys alongside a signature scheme (it exists to
/// close the forged-return hole every signature accepts), so the
/// deployment-relevant ratio is shadow-on versus shadow-off with EdgCF
/// active — the same pick-the-configuration-it-ships-in rationale as
/// the scrub and digest gates.
DbtConfig shadowStackConfig(bool ShadowStack) {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.ShadowStack = ShadowStack;
  return Config;
}

/// One timed run of the call-heavy 186.crafty workload (the shadow
/// stack only costs on call/ret, so a call-dense program is the
/// worst case the gate should price). Same short-budget CPU-time
/// rationale as timedDigestRun.
double timedShadowStackRun(const AsmProgram &Program, bool ShadowStack) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, shadowStackConfig(ShadowStack));
  if (!Translator.load(Program, Interp.state()))
    return -1.0;
  double Begin = threadCpuSeconds();
  Translator.run(Interp, DigestRunBudget);
  double End = threadCpuSeconds();
  benchmark::DoNotOptimize(Interp.cycleCount());
  return End - Begin;
}

std::optional<double> measureShadowStackOverhead(const AsmProgram &Program) {
  return pairedMedianOverhead(
      [&](bool On) { return timedShadowStackRun(Program, On); },
      OverheadRunPairs);
}

std::optional<double> measureScrubOverhead(const AsmProgram &Program) {
  return pairedMedianOverhead(
      [&](bool On) {
        return timedScrubRun(Program, On ? scrubEnabledConfig()
                                         : scrubBaselineConfig());
      },
      OverheadRunPairs);
}

std::optional<double> measureLiveExportOverhead(const AsmProgram &Program) {
  return pairedMedianOverhead(
      [&](bool On) { return timedLiveExportRun(Program, On); },
      OverheadRunPairs);
}
} // namespace

static void BM_Assembler(benchmark::State &State) {
  std::string Source = getWorkloadSource("164.gzip");
  for (auto _ : State) {
    AsmResult Result = assembleProgram(Source);
    benchmark::DoNotOptimize(Result.Program.Code.data());
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * Source.size());
}
BENCHMARK(BM_Assembler);

static void BM_EncodeDecode(benchmark::State &State) {
  Instruction I = insn::rri(Opcode::Lea, RegPCP, RegPCP, 12345);
  uint8_t Buffer[InsnSize];
  for (auto _ : State) {
    I.encode(Buffer);
    auto Decoded = Instruction::decode(Buffer);
    benchmark::DoNotOptimize(Decoded);
  }
}
BENCHMARK(BM_EncodeDecode);

static void BM_InterpreterDispatch(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("181.mcf");
  for (auto _ : State) {
    Memory Mem;
    Interpreter Interp(Mem);
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    Interp.run(100000);
    benchmark::DoNotOptimize(Interp.cycleCount());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * 100000);
}
BENCHMARK(BM_InterpreterDispatch);

/// Interpreter fetch through the predecoded-page cache: reports the share
/// of fetches answered from the decoded side arrays.
static void BM_PredecodedFetch(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("181.mcf");
  double HitRate = 0.0;
  for (auto _ : State) {
    Memory Mem;
    Interpreter Interp(Mem);
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    Interp.run(100000);
    benchmark::DoNotOptimize(Interp.cycleCount());
    uint64_t Hits = Mem.predecodeHitCount();
    uint64_t Misses = Mem.predecodeMissCount();
    HitRate = Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
  }
  GPredecodeHitRate = HitRate;
  State.counters["predecode_hit_rate"] = HitRate;
  State.SetItemsProcessed(int64_t(State.iterations()) * 100000);
}
BENCHMARK(BM_PredecodedFetch);

/// Indirect-branch dispatch on a call-heavy program: every ret exits
/// through TrampR, so the IBTC answers the repeats.
static void BM_IbtcDispatch(benchmark::State &State) {
  RandomProgramOptions Options;
  Options.Seed = 97;
  Options.NumSegments = 8;
  Options.NumHelpers = 4;
  Options.LoopTrip = 32;
  AsmResult Result = assembleProgram(generateRandomProgram(Options));
  if (!Result.succeeded()) {
    State.SkipWithError("random program failed to assemble");
    return;
  }
  double HitRate = 0.0;
  uint64_t Dispatches = 0;
  for (auto _ : State) {
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, DbtConfig{});
    if (!Translator.load(Result.Program, Interp.state())) {
      State.SkipWithError("program failed to load under the DBT");
      return;
    }
    Translator.run(Interp, 10000000);
    benchmark::DoNotOptimize(Interp.cycleCount());
    uint64_t Hits = Translator.ibtcHitCount();
    uint64_t Misses = Translator.ibtcMissCount();
    HitRate = Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
    Dispatches = Translator.dispatchCount();
  }
  GIbtcHitRate = HitRate;
  State.counters["ibtc_hit_rate"] = HitRate;
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Dispatches));
}
BENCHMARK(BM_IbtcDispatch);

/// Full fault-injection campaign throughput (injections/second) at the
/// given job count.
static void BM_CampaignThroughput(benchmark::State &State) {
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  RandomProgramOptions Options;
  Options.Seed = 31;
  Options.NumSegments = 6;
  Options.LoopTrip = 12;
  AsmResult Result = assembleProgram(generateRandomProgram(Options));
  if (!Result.succeeded()) {
    State.SkipWithError("random program failed to assemble");
    return;
  }
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  FaultCampaign Campaign(Result.Program, Config);
  if (!Campaign.prepare(50000000ULL)) {
    State.SkipWithError("campaign prepare failed");
    return;
  }
  uint64_t Injections = 0;
  for (auto _ : State) {
    CampaignResult R = Campaign.run(40, 1234, SiteClass::Any, Jobs);
    benchmark::DoNotOptimize(R.Injections);
    Injections += R.Injections;
  }
  State.counters["jobs"] = double(Jobs);
  State.SetItemsProcessed(int64_t(Injections));
}
BENCHMARK(BM_CampaignThroughput)
    ->ArgName("jobs")
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Cost of full telemetry (event tracer + phase profiler attached) over
/// the disabled default (registry counters only, no tracer/profiler) on
/// the same DBT run. Reports the relative overhead; the hard <=2% gate
/// on the *disabled* configuration lives in TelemetryTest.
static void BM_TelemetryOverhead(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("181.mcf");
  auto RunOnce = [&Program](bool Enabled) {
    Memory Mem;
    Interpreter Interp(Mem);
    telemetry::MetricsRegistry Registry;
    Dbt Translator(Mem, DbtConfig{}, &Registry);
    telemetry::EventTracer Tracer(4096);
    telemetry::PhaseProfiler Profiler;
    if (Enabled) {
      Translator.setTracer(&Tracer);
      Translator.setProfiler(&Profiler);
    }
    if (!Translator.load(Program, Interp.state()))
      return -1.0;
    auto Begin = std::chrono::steady_clock::now();
    Translator.run(Interp, 1000000);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Interp.cycleCount());
    return std::chrono::duration<double>(End - Begin).count();
  };
  double BestDisabled = -1.0, BestEnabled = -1.0;
  for (auto _ : State) {
    double Disabled = RunOnce(false);
    double Enabled = RunOnce(true);
    if (Disabled < 0 || Enabled < 0) {
      State.SkipWithError("program failed to load under the DBT");
      return;
    }
    if (BestDisabled < 0 || Disabled < BestDisabled)
      BestDisabled = Disabled;
    if (BestEnabled < 0 || Enabled < BestEnabled)
      BestEnabled = Enabled;
  }
  GTelemetryOverhead =
      BestDisabled > 0 ? BestEnabled / BestDisabled - 1.0 : 0.0;
  State.counters["telemetry_overhead"] = GTelemetryOverhead;
  State.SetItemsProcessed(int64_t(State.iterations()) * 2000000);
}
BENCHMARK(BM_TelemetryOverhead);

/// Cost of the self-integrity machinery (a full code-cache scrub every
/// 1024 dispatches + lazy verification of a block on every 64th hit,
/// scrubEnabledConfig) over the same unchained dispatch loop with
/// integrity off. Reports the paired-median relative overhead;
/// tools/check_bench_regression.sh gates it at CFED_SCRUB_OVERHEAD_MAX
/// (default 0.15).
static void BM_ScrubOverhead(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("181.mcf");
  for (auto _ : State) {
    std::optional<double> Overhead = measureScrubOverhead(Program);
    if (!Overhead) {
      State.SkipWithError("program failed to load under the DBT");
      return;
    }
    GScrubOverhead = *Overhead;
  }
  State.counters["scrub_overhead"] = GScrubOverhead;
  State.SetItemsProcessed(int64_t(State.iterations()) * 2 *
                          int64_t(OverheadRunPairs) * 1000000);
}
BENCHMARK(BM_ScrubOverhead);

/// Cost of an *active* live exporter — the service thread snapshotting
/// the registry and atomically rewriting the snapshot file every 5 ms —
/// over the same DBT run with no exporter. The hot path only pays for
/// the relaxed counter increments it already does; the snapshot/format/
/// write cycle rides the exporter thread. Reports the paired-median
/// relative overhead; tools/check_bench_regression.sh gates it at
/// CFED_EXPORT_OVERHEAD_MAX (default 0.15).
static void BM_LiveExportOverhead(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("181.mcf");
  for (auto _ : State) {
    std::optional<double> Overhead = measureLiveExportOverhead(Program);
    if (!Overhead) {
      State.SkipWithError("program failed to load under the DBT");
      return;
    }
    GLiveExportOverhead = *Overhead;
  }
  State.counters["live_export_overhead"] = GLiveExportOverhead;
  State.SetItemsProcessed(int64_t(State.iterations()) * 2 *
                          int64_t(OverheadRunPairs) * 1000000);
}
BENCHMARK(BM_LiveExportOverhead);

/// Cost of golden-trace digest capture — a rolling FNV fold of the full
/// architectural state at every sub-block boundary — over the same
/// checker-on campaign run (digestCampaignConfig) with no recorder
/// attached. Reports the relative overhead;
/// tools/check_bench_regression.sh gates it at CFED_DIGEST_OVERHEAD_MAX
/// (default 0.15).
static void BM_DigestCapture(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("181.mcf");
  telemetry::DigestRecorder Digests;
  for (auto _ : State) {
    std::optional<double> Overhead = measureDigestOverhead(Program, Digests);
    if (!Overhead) {
      State.SkipWithError("program failed to load under the DBT");
      return;
    }
    GDigestOverhead = *Overhead;
  }
  State.counters["digest_overhead"] = GDigestOverhead;
  State.SetItemsProcessed(int64_t(State.iterations()) * 2 *
                          int64_t(OverheadRunPairs) *
                          int64_t(DigestRunBudget));
}
BENCHMARK(BM_DigestCapture);

/// Cost of the shadow return stack (a push per call, a check+pop per
/// ret, 0x5AC on mismatch) over the same EdgCF run without it, on the
/// call-heavy 186.crafty workload. Reports the relative overhead;
/// tools/check_bench_regression.sh gates it at
/// CFED_SHADOWSTACK_OVERHEAD_MAX (default 0.15).
static void BM_ShadowStackOverhead(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("186.crafty");
  for (auto _ : State) {
    std::optional<double> Overhead = measureShadowStackOverhead(Program);
    if (!Overhead) {
      State.SkipWithError("program failed to load under the DBT");
      return;
    }
    GShadowStackOverhead = *Overhead;
  }
  State.counters["shadow_stack_overhead"] = GShadowStackOverhead;
  State.SetItemsProcessed(int64_t(State.iterations()) * 2 *
                          int64_t(OverheadRunPairs) *
                          int64_t(DigestRunBudget));
}
BENCHMARK(BM_ShadowStackOverhead);

static void BM_Translation(benchmark::State &State) {
  AsmProgram Program = assembleWorkload("176.gcc");
  for (auto _ : State) {
    Memory Mem;
    Interpreter Interp(Mem);
    DbtConfig Config;
    Config.Tech = Technique::Rcf;
    Config.EagerTranslate = true;
    Dbt Translator(Mem, Config);
    bool Ok = Translator.load(Program, Interp.state());
    benchmark::DoNotOptimize(Ok);
    State.counters["blocks"] =
        static_cast<double>(Translator.blocks().size());
  }
}
BENCHMARK(BM_Translation);

int main(int argc, char **argv) {
  if (unsigned Jobs = ThreadPool::defaultJobCount(); Jobs > 1)
    benchmark::RegisterBenchmark("BM_CampaignThroughput", BM_CampaignThroughput)
        ->ArgName("jobs")
        ->Arg(static_cast<int64_t>(Jobs))
        ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  {
    bench::PerfReport Report("micro_dbt");
    benchmark::RunSpecifiedBenchmarks();
    if (GTelemetryOverhead != 0.0)
      Report.set("telemetry_overhead", GTelemetryOverhead);
    // The published hit rates come from the deterministic reference runs
    // below, NOT from the benchmark globals: a --benchmark_filter that
    // skips BM_PredecodedFetch/BM_IbtcDispatch would leave those at 0.0
    // and record a bogus total miss into BENCH_perf.json.
    // The reference runs share one registry, and the embedded snapshot
    // is taken after the last of them: snapshotting after run 1 used to
    // record dbt.ibtc_hits = 0 next to the nonzero ibtc_hit_rate that
    // run 2 measured through a private, registry-less translator.
    telemetry::MetricsRegistry Registry;
    {
      // Reference run 1: 181.mcf under the default DBT, for the
      // predecode hit rate.
      AsmProgram Program = assembleWorkload("181.mcf");
      Memory Mem;
      Interpreter Interp(Mem);
      Dbt Translator(Mem, DbtConfig{}, &Registry);
      if (Translator.load(Program, Interp.state())) {
        Translator.run(Interp, bench::RunBudget);
        Interp.publishMetrics(Registry);
        uint64_t Hits = Mem.predecodeHitCount();
        uint64_t Misses = Mem.predecodeMissCount();
        if (Hits + Misses)
          Report.set("predecode_hit_rate",
                     double(Hits) / double(Hits + Misses));
      }
    }
    {
      // Reference run 2: the call-heavy random program BM_IbtcDispatch
      // uses (every ret exits through TrampR), for the IBTC hit rate.
      RandomProgramOptions Options;
      Options.Seed = 97;
      Options.NumSegments = 8;
      Options.NumHelpers = 4;
      Options.LoopTrip = 32;
      AsmResult Result = assembleProgram(generateRandomProgram(Options));
      if (Result.succeeded()) {
        Memory Mem;
        Interpreter Interp(Mem);
        Dbt Translator(Mem, DbtConfig{}, &Registry);
        if (Translator.load(Result.Program, Interp.state())) {
          Translator.run(Interp, 10000000);
          uint64_t Hits = Translator.ibtcHitCount();
          uint64_t Misses = Translator.ibtcMissCount();
          if (Hits + Misses)
            Report.set("ibtc_hit_rate",
                       double(Hits) / double(Hits + Misses));
        }
      }
    }
    Report.setRegistry(Registry.snapshot());
    // Reference runs 3-6: the gated overhead ratios, measured with the
    // paired-median estimator independently of any --benchmark_filter
    // that skips the benchmarks themselves.
    AsmProgram Mcf = assembleWorkload("181.mcf");
    if (std::optional<double> Overhead = measureScrubOverhead(Mcf))
      Report.set("scrub_overhead", *Overhead);
    if (std::optional<double> Overhead = measureLiveExportOverhead(Mcf))
      Report.set("live_export_overhead", *Overhead);
    telemetry::DigestRecorder Digests;
    if (std::optional<double> Overhead = measureDigestOverhead(Mcf, Digests))
      Report.set("digest_overhead", *Overhead);
    // The shadow stack is priced on the call-heavy workload.
    if (std::optional<double> Overhead =
            measureShadowStackOverhead(assembleWorkload("186.crafty")))
      Report.set("shadow_stack_overhead", *Overhead);
  }
  benchmark::Shutdown();
  return 0;
}
