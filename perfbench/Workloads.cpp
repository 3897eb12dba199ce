//===- Workloads.cpp - The benchmark's four closed-loop workloads --------===//

#include "Workloads.h"

#include "cfg/Cfg.h"
#include "fault/Campaign.h"
#include "recovery/Recovery.h"
#include "support/Prng.h"
#include "vm/Loader.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

using namespace cfed;
using namespace perfbench;

void OpCounts::add(const OpCounts &O) {
  NativeInsns += O.NativeInsns;
  NativeCycles += O.NativeCycles;
  Insns += O.Insns;
  Cycles += O.Cycles;
  Translations += O.Translations;
  LoadTranslations += O.LoadTranslations;
  Dispatches += O.Dispatches;
  Chains += O.Chains;
  IbtcHits += O.IbtcHits;
  IbtcMisses += O.IbtcMisses;
  CheckSig += O.CheckSig;
  GenSig += O.GenSig;
  Checkpoints += O.Checkpoints;
  Outcome += O.Outcome;
  LatencyInsns += O.LatencyInsns;
  Runs += O.Runs;
}

void Ledger::reset(size_t N) {
  Slots.assign(N, std::nullopt);
  Mismatches = 0;
}

void Ledger::check(size_t Slot, const OpCounts &C) {
  if (!Slots[Slot]) {
    Slots[Slot] = C;
    return;
  }
  if (*Slots[Slot] == C)
    return;
  if (Mismatches++ == 0)
    std::fprintf(stderr,
                 "perfbench: determinism check failed: slot %zu reran with "
                 "different counts (cycles %llu vs %llu, translations %llu "
                 "vs %llu)\n",
                 Slot, (unsigned long long)Slots[Slot]->Cycles,
                 (unsigned long long)C.Cycles,
                 (unsigned long long)Slots[Slot]->Translations,
                 (unsigned long long)C.Translations);
}

std::vector<OpCounts> Workload::modelSlots() const {
  std::vector<bool> Seen(slots(), false);
  std::vector<OpCounts> Out;
  for (uint64_t I = 0; I < minOps(); ++I) {
    size_t Slot = slotOf(I);
    if (Seen[Slot] || !Counts.slots()[Slot])
      continue;
    Seen[Slot] = true;
    Out.push_back(*Counts.slots()[Slot]);
  }
  return Out;
}

OpCounts Workload::modelTotals() const {
  OpCounts T;
  for (const OpCounts &C : modelSlots())
    T.add(C);
  return T;
}

namespace {

uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9E3779B97F4A7C15ULL + B + 0x632BE59BD9B4E019ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

template <typename T> void shuffle(std::vector<T> &V, uint64_t Seed) {
  Prng Rng(Seed);
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

bool assemble(const std::string &Source, AsmProgram &Out, SpanLog *Log,
              int64_t Op) {
  Scope S(Log, "asm.assemble", Op);
  AsmResult R = assembleProgram(Source);
  if (!R.succeeded())
    return false;
  Out = std::move(R.Program);
  return true;
}

/// The native-interpreter oracle of one program.
struct Golden {
  bool Ok = false;
  uint64_t Hash = 0;
  uint64_t Insns = 0;
  uint64_t Cycles = 0;
};

Golden runNative(const AsmProgram &Program, SpanLog *Log) {
  Memory Mem;
  Interpreter Interp(Mem);
  loadProgram(Program, LoadMode::Native, Mem, Interp.state());
  StopInfo Stop;
  {
    Scope S(Log, "vm.native", NoOp);
    Stop = Interp.run(RunBudget);
    S.addWork(Interp.instructionCount());
  }
  Golden G;
  G.Ok = Stop.Kind == StopKind::Halted;
  G.Hash = hashOutput(Interp.output());
  G.Insns = Interp.instructionCount();
  G.Cycles = Interp.cycleCount();
  return G;
}

/// One program run under the DBT: instance, Dbt::load, Dbt::run (or
/// RecoveryManager::run), teardown — each a span.
struct DbtRun {
  bool Ok = false; ///< Halted with the golden output (and, under
                   ///< recovery, completed without a rollback).
  OpCounts Counts;
};

DbtRun runDbt(const AsmProgram &Program, const DbtConfig &Config,
              const Golden &G, bool Recover, SpanLog *Log, int64_t Op) {
  Scope Inst(Log, "vm.instance", Op);
  auto Mem = std::make_unique<Memory>();
  auto Interp = std::make_unique<Interpreter>(*Mem);
  auto Translator = std::make_unique<Dbt>(*Mem, Config);
  Inst.close();

  DbtRun R;
  OpCounts &C = R.Counts;
  bool Loaded;
  {
    Scope S(Log, "dbt.load", Op);
    Loaded = Translator->load(Program, Interp->state());
    C.LoadTranslations = Translator->translationCount();
    S.addWork(C.LoadTranslations);
  }
  if (Loaded) {
    bool Clean;
    if (Recover) {
      Scope S(Log, "recovery.run", Op);
      RecoveryManager Manager(*Interp, *Translator, RecoveryConfig());
      RecoveryReport Rep = Manager.run(RunBudget);
      Clean = Rep.Completed && Rep.NumRollbacks == 0 &&
              Rep.FinalStop.Kind == StopKind::Halted;
      C.Checkpoints = Rep.NumCheckpoints;
      S.addWork(G.Insns);
    } else {
      Scope S(Log, "dbt.run", Op);
      Clean = Translator->run(*Interp, RunBudget).Kind == StopKind::Halted;
      S.addWork(G.Insns);
    }
    R.Ok = Clean && hashOutput(Interp->output()) == G.Hash;
    C.Runs = 1;
    C.NativeInsns = G.Insns;
    C.NativeCycles = G.Cycles;
    C.Insns = Interp->instructionCount();
    C.Cycles = Interp->cycleCount();
    C.Translations = Translator->translationCount();
    C.Dispatches = Translator->dispatchCount();
    C.Chains = Translator->chainCount();
    C.IbtcHits = Translator->ibtcHitCount();
    C.IbtcMisses = Translator->ibtcMissCount();
    std::string Prefix =
        std::string("cfc.") + Translator->checker().name() + ".";
    telemetry::MetricsRegistry &M = Translator->metrics();
    C.CheckSig = M.counter(Prefix + "check_sig_emitted").value();
    C.GenSig = M.counter(Prefix + "gen_sig_emitted").value();
  }

  Scope Down(Log, "vm.instance", Op);
  Translator.reset();
  Interp.reset();
  Mem.reset();
  return R;
}

DbtConfig edgCfConfig() {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  return Config;
}

//===----------------------------------------------------------------------===//
// steady and recover: the 26 SPEC stand-ins under EdgCF.
//===----------------------------------------------------------------------===//

class SuiteWorkload : public Workload {
public:
  SuiteWorkload(uint64_t Seed, bool Recover) : Seed(Seed), Recover(Recover) {}

  bool setUp(SpanLog *Log) override {
    Programs.clear();
    Scope Setup(Log, "setup", NoOp);
    for (const WorkloadInfo &W : getWorkloadSuite()) {
      Entry E;
      if (!assemble(getWorkloadSource(W.Name), E.Program, Log, NoOp))
        return fail(W.Name, "does not assemble");
      E.Oracle = runNative(E.Program, Log);
      if (!E.Oracle.Ok)
        return fail(W.Name, "does not halt natively");
      Programs.push_back(std::move(E));
    }
    Counts.reset(Programs.size());
    return true;
  }

  size_t slots() const override { return Programs.size(); }
  /// Programs run in a seed-shuffled order, reshuffled every round.
  size_t slotOf(uint64_t Index) const override {
    std::vector<size_t> Order(Programs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, mix(Seed, Index / Programs.size()));
    return Order[Index % Programs.size()];
  }
  uint64_t minOps() const override { return 4 * Programs.size(); }
  uint64_t roundSize() const override { return Programs.size(); }

  OpResult runOp(uint64_t Index, SpanLog *Log) override {
    size_t Slot = slotOf(Index);
    const Entry &E = Programs[Slot];
    OpResult R;
    uint64_t Start = nowNs();
    DbtRun Run;
    {
      Scope Op(Log, "op", static_cast<int64_t>(Index));
      Run = runDbt(E.Program, edgCfConfig(), E.Oracle, Recover, Log,
                   static_cast<int64_t>(Index));
    }
    R.Ns = nowNs() - Start;
    R.Ok = Run.Ok;
    R.NativeInsns = E.Oracle.Insns;
    Counts.check(Slot, Run.Counts);
    return R;
  }

  std::vector<ProbeProgram> probePrograms() override {
    std::vector<ProbeProgram> Out;
    for (const Entry &E : Programs)
      Out.push_back({&E.Program, edgCfConfig(), E.Oracle.Insns});
    return Out;
  }

private:
  struct Entry {
    AsmProgram Program;
    Golden Oracle;
  };

  bool fail(const std::string &Name, const char *What) {
    std::fprintf(stderr, "perfbench: set-up failed: %s %s\n", Name.c_str(),
                 What);
    return false;
  }

  uint64_t Seed;
  bool Recover;
  std::vector<Entry> Programs;
};

//===----------------------------------------------------------------------===//
// cold: a seeded stream of distinct small random programs.
//===----------------------------------------------------------------------===//

/// Distinct programs in the cold stream; op I runs program I mod this.
constexpr size_t ColdPrograms = 1000;
/// Cold programs the tier and recovery probes run.
constexpr size_t ColdProbePrograms = 50;

class ColdWorkload : public Workload {
public:
  explicit ColdWorkload(uint64_t Seed) : Seed(Seed) {}

  bool setUp(SpanLog *Log) override {
    Oracles.clear();
    ProbeAsm.clear();
    Scope Setup(Log, "setup", NoOp);
    Oracles.reserve(ColdPrograms);
    for (size_t K = 0; K < ColdPrograms; ++K) {
      AsmProgram Program;
      if (!assemble(source(K), Program, Log, NoOp))
        return fail(K, "does not assemble");
      Golden G = runNative(Program, Log);
      if (!G.Ok)
        return fail(K, "does not halt natively");
      Oracles.push_back(G);
    }
    Counts.reset(ColdPrograms);
    return true;
  }

  size_t slots() const override { return ColdPrograms; }
  size_t slotOf(uint64_t Index) const override {
    return Index % ColdPrograms;
  }
  uint64_t minOps() const override { return ColdPrograms; }
  uint64_t roundSize() const override { return 1; }

  OpResult runOp(uint64_t Index, SpanLog *Log) override {
    size_t K = slotOf(Index);
    // Generated just before the op and outside its span, so the harness
    // heap stays small and constant.
    std::string Source = source(K);
    OpResult R;
    DbtRun Run;
    uint64_t Start = nowNs();
    {
      Scope Op(Log, "op", static_cast<int64_t>(Index));
      AsmProgram Program;
      if (assemble(Source, Program, Log, static_cast<int64_t>(Index)))
        Run = runDbt(Program, config(K), Oracles[K], /*Recover=*/false, Log,
                     static_cast<int64_t>(Index));
    }
    R.Ns = nowNs() - Start;
    R.Ok = Run.Ok;
    R.NativeInsns = Oracles[K].Insns;
    Counts.check(K, Run.Counts);
    return R;
  }

  std::vector<ProbeProgram> probePrograms() override {
    ProbeAsm.resize(ColdProbePrograms);
    std::vector<ProbeProgram> Out;
    for (size_t K = 0; K < ColdProbePrograms; ++K) {
      if (!assemble(source(K), ProbeAsm[K], nullptr, NoOp))
        continue;
      Out.push_back({&ProbeAsm[K], config(K), Oracles[K].Insns});
    }
    return Out;
  }

private:
  bool fail(size_t K, const char *What) {
    std::fprintf(stderr, "perfbench: set-up failed: cold program %zu %s\n",
                 K, What);
    return false;
  }

  /// Program K's shape varies segments, body size, trip count, helpers
  /// and FP use; all of it follows from (Seed, K).
  std::string source(size_t K) const {
    Prng Rng(mix(Seed, K));
    RandomProgramOptions Options;
    Options.NumSegments = 2 + static_cast<unsigned>(Rng.nextBelow(6));
    Options.MaxBodyInsns = 3 + static_cast<unsigned>(Rng.nextBelow(6));
    Options.LoopTrip = 4 + static_cast<unsigned>(Rng.nextBelow(21));
    Options.NumHelpers = static_cast<unsigned>(Rng.nextBelow(4));
    Options.UseFp = Rng.chance(1, 3);
    Options.Seed = Rng.next();
    return generateRandomProgram(Options);
  }

  /// The technique rotates along the stream: EdgCF, RCF and ECF translate
  /// on demand, ECCA and CFCSS eagerly from the CFG.
  static DbtConfig config(size_t K) {
    static constexpr Technique Rotation[] = {Technique::EdgCf, Technique::Rcf,
                                             Technique::Ecf, Technique::Ecca,
                                             Technique::Cfcss};
    DbtConfig Config;
    Config.Tech = Rotation[K % 5];
    Config.EagerTranslate =
        Config.Tech == Technique::Ecca || Config.Tech == Technique::Cfcss;
    return Config;
  }

  uint64_t Seed;
  std::vector<Golden> Oracles;
  std::vector<AsmProgram> ProbeAsm;
};

//===----------------------------------------------------------------------===//
// campaign: serial EdgCF fault injection over four stand-ins.
//===----------------------------------------------------------------------===//

/// The campaign's programs with their injection span names (span names
/// must outlive the log, so they are literals).
struct CampaignProgram {
  const char *Name;
  const char *InjectSpan;
};
constexpr CampaignProgram CampaignPrograms[] = {
    {"186.crafty", "fault.inject.crafty"},
    {"181.mcf", "fault.inject.mcf"},
    {"171.swim", "fault.inject.swim"},
    {"164.gzip", "fault.inject.gzip"},
};
constexpr size_t NumCampaignPrograms = std::size(CampaignPrograms);
/// Faults planned per program; the selected ones are one per stratum of
/// the plan's fire-instance order.
constexpr uint64_t CampaignCandidates = 4000;

class CampaignWorkload : public Workload {
public:
  CampaignWorkload(uint64_t Seed, unsigned FaultsPerProgram)
      : Seed(Seed), FaultsPerProgram(FaultsPerProgram) {}

  bool setUp(SpanLog *Log) override {
    Programs.clear();
    Scope Setup(Log, "setup", NoOp);
    for (size_t J = 0; J < NumCampaignPrograms; ++J) {
      auto E = std::make_unique<Entry>();
      const char *Name = CampaignPrograms[J].Name;
      if (!assemble(getWorkloadSource(Name), E->Program, Log, NoOp))
        return fail(Name, "does not assemble");
      E->Oracle = runNative(E->Program, Log);
      if (!E->Oracle.Ok)
        return fail(Name, "does not halt natively");
      // The translated reference run: its model counts, and a check that
      // the DBT reproduces the native output before any fault goes in.
      DbtRun Ref;
      {
        Scope S(Log, "dbt.golden", NoOp);
        Ref = runDbt(E->Program, edgCfConfig(), E->Oracle, /*Recover=*/false,
                     Log, NoOp);
      }
      if (!Ref.Ok)
        return fail(Name, "differs from its native output under the DBT");
      E->Reference = Ref.Counts;
      E->Campaign =
          std::make_unique<FaultCampaign>(E->Program, edgCfConfig());
      {
        Scope S(Log, "fault.prepare", NoOp);
        if (!E->Campaign->prepare(RunBudget))
          return fail(Name, "fails FaultCampaign::prepare");
      }
      if (E->Campaign->goldenHash() != E->Oracle.Hash)
        return fail(Name, "has a campaign golden hash unlike the native one");
      std::vector<PlannedFault> Candidates;
      {
        Scope S(Log, "fault.plan", NoOp);
        Candidates = E->Campaign->plan(CampaignCandidates, mix(Seed, J),
                                       SiteClass::Any);
      }
      // One fault per stratum of the instance-ordered plan, so every seed
      // spreads its faults over the whole run length; then a seeded
      // shuffle, so any prefix of the op stream is a uniform sample.
      for (unsigned S = 0; S < FaultsPerProgram; ++S) {
        size_t Begin = Candidates.size() * S / FaultsPerProgram;
        size_t End = Candidates.size() * (S + 1) / FaultsPerProgram;
        for (size_t I = Begin; I < End; ++I)
          if (Candidates[I].Category != BranchErrorCategory::NoError) {
            E->Faults.push_back(Candidates[I]);
            break;
          }
      }
      if (E->Faults.empty())
        return fail(Name, "has no fault that deviates control flow");
      shuffle(E->Faults, mix(Seed, J + NumCampaignPrograms));
      Programs.push_back(std::move(E));
    }
    SlotBase.clear();
    size_t Total = 0;
    for (const auto &E : Programs) {
      SlotBase.push_back(Total);
      Total += E->Faults.size();
    }
    Counts.reset(Total);
    return true;
  }

  size_t slots() const override { return Counts.slots().size(); }
  /// Round-robin over the programs, each walking its shuffled faults.
  size_t slotOf(uint64_t Index) const override {
    size_t J = Index % NumCampaignPrograms;
    return SlotBase[J] +
           (Index / NumCampaignPrograms) % Programs[J]->Faults.size();
  }
  uint64_t minOps() const override {
    return std::min<uint64_t>(100, slots() / NumCampaignPrograms *
                                       NumCampaignPrograms);
  }
  uint64_t roundSize() const override { return NumCampaignPrograms; }

  OpResult runOp(uint64_t Index, SpanLog *Log) override {
    size_t J = Index % NumCampaignPrograms;
    const Entry &E = *Programs[J];
    size_t Slot = slotOf(Index);
    OpResult R;
    InjectionReport Rep;
    uint64_t Start = nowNs();
    {
      Scope Op(Log, "op", static_cast<int64_t>(Index));
      Scope S(Log, CampaignPrograms[J].InjectSpan,
              static_cast<int64_t>(Index));
      Rep = E.Campaign->injectDetailed(E.Faults[Slot - SlotBase[J]]);
    }
    R.Ns = nowNs() - Start;
    R.Ok = Rep.Fired;
    R.NativeInsns = E.Oracle.Insns;
    OpCounts C;
    C.Outcome = static_cast<uint64_t>(Rep.Result);
    C.LatencyInsns = Rep.LatencyInsns;
    Counts.check(Slot, C);
    return R;
  }

  std::vector<ProbeProgram> probePrograms() override {
    std::vector<ProbeProgram> Out;
    for (const auto &E : Programs)
      Out.push_back({&E->Program, edgCfConfig(), E->Oracle.Insns});
    return Out;
  }

  /// Injections are not whole program runs: the model counts are those
  /// of the translated reference runs, one per program.
  OpCounts modelTotals() const override {
    OpCounts T;
    for (const auto &E : Programs)
      T.add(E->Reference);
    return T;
  }

private:
  struct Entry {
    AsmProgram Program; // FaultCampaign keeps a reference: Entry is pinned.
    Golden Oracle;
    OpCounts Reference;
    std::unique_ptr<FaultCampaign> Campaign;
    std::vector<PlannedFault> Faults;
  };

  bool fail(const char *Name, const char *What) {
    std::fprintf(stderr, "perfbench: set-up failed: %s %s\n", Name, What);
    return false;
  }

  uint64_t Seed;
  unsigned FaultsPerProgram;
  std::vector<std::unique_ptr<Entry>> Programs;
  std::vector<size_t> SlotBase;
};

} // namespace

std::unique_ptr<Workload> perfbench::createWorkload(const std::string &Name,
                                                    uint64_t Seed) {
  if (Name == "steady" || Name == "recover")
    return std::make_unique<SuiteWorkload>(Seed, Name == "recover");
  if (Name == "cold")
    return std::make_unique<ColdWorkload>(Seed);
  if (Name == "campaign")
    return createCampaign(Seed, 250);
  return nullptr;
}

std::unique_ptr<Workload> perfbench::createCampaign(uint64_t Seed,
                                                    unsigned FaultsPerProgram) {
  return std::make_unique<CampaignWorkload>(Seed, FaultsPerProgram);
}

std::vector<std::string> perfbench::campaignInjectSpans() {
  std::vector<std::string> Names;
  for (const CampaignProgram &P : CampaignPrograms)
    Names.push_back(P.InjectSpan);
  return Names;
}

void perfbench::runProbes(const ProbeProgram &P, int64_t Index, SpanLog *Log,
                          ProbeStats &Stats) {
  ++Stats.Programs;
  bool Ok = true;
  // The image load alone and the whole Dbt::load, into fresh instances.
  // The first allocation after another run is the slower one, so the two
  // swap order on odd programs and each sees both positions equally.
  for (int Step = 0; Step < 2; ++Step) {
    if ((Step == 0) == (Index % 2 == 0)) {
      Memory Mem;
      CpuState State;
      Scope S(Log, "vm.load", Index);
      loadProgram(*P.Program, LoadMode::Translated, Mem, State);
    } else {
      Memory Mem;
      Interpreter Interp(Mem);
      Dbt Translator(Mem, P.Config);
      Scope S(Log, "probe.dbt_load", Index);
      Ok = Translator.load(*P.Program, Interp.state()) && Ok;
      S.addWork(Translator.translationCount());
    }
  }
  {
    Scope S(Log, "cfg.build", Index);
    Cfg Graph = Cfg::build(P.Program->Code.data(), P.Program->Code.size(),
                           CodeBase, P.Program->Entry, P.Program->CodeLabels);
    S.addWork(Graph.blocks().size());
  }
  {
    Memory Mem;
    Interpreter Interp(Mem);
    loadProgram(*P.Program, LoadMode::Native, Mem, Interp.state());
    Scope S(Log, "probe.interp", Index);
    if (Interp.run(RunBudget).Kind != StopKind::Halted)
      Ok = false;
    S.addWork(P.NativeInsns);
  }
  for (int Mode = 0; Mode < 3; ++Mode) {
    static const char *const Names[] = {"probe.base", "probe.opt",
                                        "probe.recovery"};
    DbtConfig Config = P.Config;
    if (Mode == 1)
      Config.Tier = DbtTier::Opt;
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, Config);
    if (!Translator.load(*P.Program, Interp.state())) {
      Ok = false;
      continue;
    }
    Scope S(Log, Names[Mode], Index);
    if (Mode == 2) {
      RecoveryManager Manager(Interp, Translator, RecoveryConfig());
      RecoveryReport Rep = Manager.run(RunBudget);
      Stats.Checkpoints += Rep.NumCheckpoints;
      if (!Rep.Completed || Rep.NumRollbacks)
        Ok = false;
    } else if (Translator.run(Interp, RunBudget).Kind != StopKind::Halted) {
      Ok = false;
    }
    S.addWork(P.NativeInsns);
  }
  if (!Ok)
    ++Stats.Failures;
}
