//===- Campaign.cpp - Fault-injection campaigns --------------------------------===//

#include "fault/Campaign.h"

#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <set>
#include <unordered_set>

using namespace cfed;

const char *cfed::getOutcomeName(Outcome O) {
  switch (O) {
  case Outcome::DetectedSignature:
    return "det-sig";
  case Outcome::DetectedHardware:
    return "det-hw";
  case Outcome::Masked:
    return "masked";
  case Outcome::Sdc:
    return "SDC";
  case Outcome::Timeout:
    return "timeout";
  case Outcome::Recovered:
    return "recovered";
  case Outcome::RecoveryFailed:
    return "rec-fail";
  }
  return "?";
}

std::string cfed::getOutcomeCounterName(BranchErrorCategory Cat, Outcome O) {
  return std::string("fault.cat_") + getCategoryName(Cat) + '.' +
         getOutcomeName(O);
}

telemetry::PropOutcome cfed::toPropOutcome(Outcome O) {
  switch (O) {
  case Outcome::DetectedSignature:
  case Outcome::DetectedHardware:
  case Outcome::Recovered:
    return telemetry::PropOutcome::Detected;
  case Outcome::Sdc:
  case Outcome::RecoveryFailed:
    return telemetry::PropOutcome::Sdc;
  case Outcome::Masked:
    return telemetry::PropOutcome::Masked;
  case Outcome::Timeout:
    return telemetry::PropOutcome::Timeout;
  }
  cfed_unreachable("covered switch");
}

std::string cfed::getPropagationCounterName(BranchErrorCategory Cat,
                                            telemetry::PropClass C) {
  return telemetry::getPropCounterName(getCategoryName(Cat), C);
}

std::string cfed::getPropagationDistanceName(BranchErrorCategory Cat) {
  return telemetry::getPropDistanceHistogramName(getCategoryName(Cat));
}

std::string
cfed::renderPropagationFunnel(const telemetry::RegistrySnapshot &Snap) {
  // Column order mirrors the funnel: detection first, then the bad
  // outcomes, then the benign tail.
  static constexpr telemetry::PropClass Cols[] = {
      telemetry::PropClass::DetectedClean,
      telemetry::PropClass::DetectedAfterDivergence,
      telemetry::PropClass::SdcExplained,
      telemetry::PropClass::SdcUnexplained,
      telemetry::PropClass::MaskedClean,
      telemetry::PropClass::MaskedConverged,
      telemetry::PropClass::MaskedLatent,
      telemetry::PropClass::TimeoutClean,
      telemetry::PropClass::TimeoutAfterDivergence,
  };
  static constexpr const char *ColNames[] = {
      "det-cln", "det-div", "sdc-exp", "sdc-unx", "msk-cln",
      "msk-cnv", "msk-lat", "to-cln",  "to-div",
  };
  constexpr size_t NumCols = sizeof(Cols) / sizeof(Cols[0]);

  uint64_t Grand = 0;
  uint64_t ColTotals[NumCols] = {};
  std::string Rows;
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    BranchErrorCategory Cat = static_cast<BranchErrorCategory>(C);
    uint64_t RowTotal = 0;
    uint64_t Counts[NumCols];
    for (size_t I = 0; I < NumCols; ++I) {
      Counts[I] = Snap.counterOr(getPropagationCounterName(Cat, Cols[I]));
      RowTotal += Counts[I];
      ColTotals[I] += Counts[I];
    }
    if (!RowTotal)
      continue;
    Grand += RowTotal;
    Rows += formatString("  %-9s %7llu", getCategoryName(Cat),
                         static_cast<unsigned long long>(RowTotal));
    for (size_t I = 0; I < NumCols; ++I)
      Rows += formatString(" %7llu",
                           static_cast<unsigned long long>(Counts[I]));
    std::string Dist = "-";
    for (const auto &[Name, H] : Snap.Histograms)
      if (Name == getPropagationDistanceName(Cat) && H.Count)
        Dist = formatString("%s/%s", H.quantileText(0.5).c_str(),
                            H.quantileText(0.9).c_str());
    Rows += formatString("  %s\n", Dist.c_str());
  }
  if (!Grand)
    return "";

  std::string Out =
      "propagation funnel (first divergence -> outcome, per category):\n";
  Out += formatString("  %-9s %7s", "cell", "inj");
  for (size_t I = 0; I < NumCols; ++I)
    Out += formatString(" %7s", ColNames[I]);
  Out += formatString("  %s\n", "dist p50/p90");
  Out += Rows;
  Out += formatString("  %-9s %7llu", "total",
                      static_cast<unsigned long long>(Grand));
  for (size_t I = 0; I < NumCols; ++I)
    Out += formatString(" %7llu",
                        static_cast<unsigned long long>(ColTotals[I]));
  Out += "  -\n";
  return Out;
}

CampaignResult
cfed::campaignResultFromSnapshot(const telemetry::RegistrySnapshot &Snap) {
  CampaignResult Result;
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    for (unsigned O = 0; O < NumOutcomes; ++O) {
      auto Out = static_cast<Outcome>(O);
      uint64_t N = Snap.counterOr(getOutcomeCounterName(Cat, Out));
      for (uint64_t I = 0; I < N; ++I)
        Result.of(Cat).add(Out);
    }
  }
  Result.Injections = Snap.counterOr("fault.injections");
  return Result;
}

void OutcomeCounts::add(Outcome O) {
  switch (O) {
  case Outcome::DetectedSignature:
    ++DetectedSig;
    return;
  case Outcome::DetectedHardware:
    ++DetectedHw;
    return;
  case Outcome::Masked:
    ++Masked;
    return;
  case Outcome::Sdc:
    ++Sdc;
    return;
  case Outcome::Timeout:
    ++Timeout;
    return;
  case Outcome::Recovered:
    ++Recovered;
    return;
  case Outcome::RecoveryFailed:
    ++RecoveryFailed;
    return;
  }
  cfed_unreachable("covered switch");
}

void OutcomeCounts::merge(const OutcomeCounts &Other) {
  DetectedSig += Other.DetectedSig;
  DetectedHw += Other.DetectedHw;
  Masked += Other.Masked;
  Sdc += Other.Sdc;
  Timeout += Other.Timeout;
  Recovered += Other.Recovered;
  RecoveryFailed += Other.RecoveryFailed;
}

OutcomeCounts CampaignResult::totals() const {
  OutcomeCounts Totals;
  for (const OutcomeCounts &Row : PerCategory)
    Totals.merge(Row);
  return Totals;
}

struct FaultCampaign::Instance {
  Memory Mem;
  Dbt Translator;
  Interpreter Interp;
  bool Ok;

  /// \p Digests must be attached before load(): eager configurations
  /// translate at load time, and the Digest markers must be in the
  /// cache from the first translation so every run of the campaign
  /// shares one layout. With \p Start the instance resumes there; a
  /// freshly loaded instance already is in the reset state.
  Instance(const AsmProgram &Program, const DbtConfig &Config,
           telemetry::DigestRecorder *Digests = nullptr,
           const GoldenSnapshot *Start = nullptr)
      : Translator(Mem, Config), Interp(Mem) {
    if (Digests)
      Translator.setDigestRecorder(Digests);
    Ok = Translator.load(Program, Interp.state());
    if (Ok && Start && Start->Point.Insns) {
      Mem.restore(Start->Mem);
      Interp.restore(Start->Cpu);
      Translator.restore(Start->Translator);
    }
  }

  GoldenSnapshot capture(const GoldenSnapshot *Prev) const {
    return {{Interp.instructionCount(), {}},
            Mem.capture(Prev ? &Prev->Mem : nullptr),
            Interp.capture(),
            Translator.capture()};
  }
};

namespace {

/// Shared logic: decide whether a branch will be taken given the real
/// architectural state.
bool branchTaken(const Instruction &I, const Flags &F,
                 const CpuState &State) {
  switch (getOpcodeKind(I.Op)) {
  case OpKind::Jump:
  case OpKind::Call:
    return true;
  case OpKind::CondJump:
    return evalCondCode(I.cond(), F);
  case OpKind::RegZeroJump:
    return I.Op == Opcode::Jzr ? State.Regs[I.A] == 0
                               : State.Regs[I.A] != 0;
  default:
    cfed_unreachable("not an offset branch");
  }
}

/// Classifies an erroneous transfer from the cache branch at \p SiteAddr
/// to \p Target against the translator's live block layout.
BranchErrorCategory classifyCacheTarget(const Dbt &Translator,
                                        uint64_t SiteAddr, uint64_t Target) {
  const TranslatedBlock *Own = Translator.cacheBlockContaining(SiteAddr);
  const TranslatedBlock *Dest = Translator.cacheBlockContaining(Target);
  if (!Dest)
    return BranchErrorCategory::F;
  if (Own && Dest->CacheAddr == Own->CacheAddr)
    return Target == Own->CacheAddr ? BranchErrorCategory::B
                                    : BranchErrorCategory::C;
  return Target == Dest->CacheAddr ? BranchErrorCategory::D
                                   : BranchErrorCategory::E;
}

/// Determines the branch-error category a (Kind, Mask) fault would cause
/// at this dynamic branch execution, without applying it.
BranchErrorCategory categorize(const Dbt &Translator, uint64_t InsnAddr,
                               const Instruction &I, const Flags &F,
                               const CpuState &State, FaultKind Kind,
                               uint64_t Mask) {
  if (Kind == FaultKind::FlagBit) {
    if (I.Op != Opcode::Jcc)
      return BranchErrorCategory::NoError;
    bool Orig = evalCondCode(I.cond(), F);
    bool Mutated = evalCondCode(
        I.cond(), F.withMaskFlipped(static_cast<uint8_t>(Mask)));
    return Orig == Mutated ? BranchErrorCategory::NoError
                           : BranchErrorCategory::A;
  }
  if (!branchTaken(I, F, State))
    return BranchErrorCategory::NoError;
  uint32_t MutatedImm =
      static_cast<uint32_t>(I.Imm) ^ static_cast<uint32_t>(Mask);
  uint64_t Target = InsnAddr + InsnSize +
                    static_cast<int64_t>(static_cast<int32_t>(MutatedImm));
  uint64_t FallThrough = InsnAddr + InsnSize;
  if (Target == FallThrough)
    return BranchErrorCategory::A; // Behaves like a mistaken branch.
  return classifyCacheTarget(Translator, InsnAddr, Target);
}

/// Counts dynamic branch executions per site (golden run).
class CountingHook : public FaultHook {
public:
  std::unordered_map<uint64_t, uint64_t> PerSite;
  void apply(uint64_t InsnAddr, Instruction &, Flags &,
             const CpuState &) override {
    ++PerSite[InsnAddr];
  }
};

/// True when \p SiteAddr is in class \p Sites under the site
/// classification \p InstrMap.
bool matchesClass(const std::unordered_map<uint64_t, bool> &InstrMap,
                  uint64_t SiteAddr, SiteClass Sites) {
  if (Sites == SiteClass::Any)
    return true;
  auto It = InstrMap.find(SiteAddr);
  bool IsInstr = It != InstrMap.end() && It->second;
  return Sites == SiteClass::InstrumentationOnly ? IsInstr : !IsInstr;
}

/// Base for hooks that index dynamic branch executions within a site
/// class.
class ClassCountingHook : public FaultHook {
public:
  ClassCountingHook(SiteClass Sites,
                    const std::unordered_map<uint64_t, bool> &InstrMap,
                    uint64_t Counter = 0)
      : Sites(Sites), InstrMap(InstrMap), Counter(Counter) {}

protected:
  bool matches(uint64_t SiteAddr) const {
    return matchesClass(InstrMap, SiteAddr, Sites);
  }

  SiteClass Sites;
  const std::unordered_map<uint64_t, bool> &InstrMap;
  uint64_t Counter;
};

/// Planning hook: at each selected instance, records the analytic
/// category for the pre-drawn fault.
class PlanningHook : public ClassCountingHook {
public:
  PlanningHook(SiteClass Sites,
               const std::unordered_map<uint64_t, bool> &InstrMap,
               const Dbt &Translator, std::vector<PlannedFault> &Faults)
      : ClassCountingHook(Sites, InstrMap), Translator(Translator),
        Faults(Faults) {}

  void apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             const CpuState &State) override {
    if (!matches(InsnAddr))
      return;
    ++Counter;
    while (Next < Faults.size() && Faults[Next].Instance == Counter) {
      PlannedFault &Fault = Faults[Next];
      Fault.Category = categorize(Translator, InsnAddr, I, F, State,
                                  Fault.Kind, Fault.Mask);
      Fault.InstrSite =
          matchesClass(InstrMap, InsnAddr, SiteClass::InstrumentationOnly);
      Fault.SiteAddr = InsnAddr;
      ++Next;
    }
  }

private:
  const Dbt &Translator;
  std::vector<PlannedFault> &Faults; // Sorted by Instance.
  size_t Next = 0;
};

/// Injection hook: applies the fault at the chosen instance. A run
/// resumed at a snapshot starts counting at the snapshot's branch count.
class InjectionHook : public ClassCountingHook {
public:
  InjectionHook(const std::unordered_map<uint64_t, bool> &InstrMap,
                const PlannedFault &Fault, const Interpreter &Interp,
                uint64_t StartCount)
      : ClassCountingHook(Fault.Class, InstrMap, StartCount), Fault(Fault),
        Interp(Interp) {}

  bool Fired = false;
  /// Dynamic instruction count at the moment the fault fired.
  uint64_t InsnsAtFire = 0;

  void apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             const CpuState &) override {
    if (Fired || !matches(InsnAddr))
      return;
    if (++Counter != Fault.Instance)
      return;
    Fired = true;
    InsnsAtFire = Interp.instructionCount();
    if (Fault.Kind == FaultKind::AddrBit)
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^
                                   static_cast<uint32_t>(Fault.Mask));
    else
      F = F.withMaskFlipped(static_cast<uint8_t>(Fault.Mask));
  }

private:
  const PlannedFault &Fault;
  const Interpreter &Interp;
};

} // namespace

FaultCampaign::FaultCampaign(const AsmProgram &Program, DbtConfig Config)
    : Program(Program), Config(Config) {}

namespace {

/// Start of the golden run's snapshot spacing, in retired instructions.
constexpr uint64_t FirstSnapshotSpacing = 1024;

/// Keeps elements 0, 2, 4, ... of \p V.
template <typename T> void keepEveryOther(std::vector<T> &V) {
  for (size_t I = 1; 2 * I < V.size(); ++I)
    V[I] = std::move(V[2 * I]);
  V.resize((V.size() + 1) / 2);
}

} // namespace

bool FaultCampaign::prepare(uint64_t MaxInsns) {
  telemetry::DigestRecorder Digests;
  Instance Ref(Program, Config, PropEnabled ? &Digests : nullptr);
  if (!Ref.Ok)
    return false;
  CountingHook Hook;
  Ref.Interp.setFaultHook(&Hook);

  // The golden run in budget slices, with a snapshot at every multiple
  // of Spacing. When a snapshot would overflow the list, every other
  // one is dropped and the spacing doubles, so the snapshots stay evenly
  // spread over a run of any length. Snapshot 0 is the reset state,
  // which holds nothing: every instance is loaded there. Sites can only
  // be classified once the run is over, so each snapshot keeps its
  // per-site branch counts until then.
  Snapshots.assign(1, GoldenSnapshot{});
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> SiteCounts(1);
  auto Take = [&] {
    Snapshots.push_back(
        Ref.capture(Snapshots.size() > 1 ? &Snapshots.back() : nullptr));
    SiteCounts.emplace_back(Hook.PerSite.begin(), Hook.PerSite.end());
  };
  uint64_t Spacing = FirstSnapshotSpacing;
  StopInfo Stop;
  for (;;) {
    uint64_t Done = Ref.Interp.instructionCount();
    uint64_t Next = std::min(MaxInsns, Done - Done % Spacing + Spacing);
    Stop = Ref.Translator.run(Ref.Interp, Next - Done);
    if (Stop.Kind != StopKind::InsnLimit || Next == MaxInsns)
      break;
    if (Snapshots.size() == MaxSnapshots) {
      keepEveryOther(Snapshots);
      keepEveryOther(SiteCounts);
      Spacing *= 2;
    }
    Take();
  }
  if (Stop.Kind != StopKind::Halted)
    return false;
  GoldenInsns = Ref.Interp.instructionCount();
  GoldenHash = hashOutput(Ref.Interp.output());
  InsnBudget = GoldenInsns * 4 + 100000;
  if (PropEnabled) {
    Golden.Records = Digests.takeRecords();
    // Fingerprint the reference execution, not the bytes of the image:
    // the output hash and retired count together reject an oracle
    // recorded from a different program or configuration.
    Golden.ProgramFp = GoldenHash;
    Golden.ConfigFp = GoldenInsns;
  }

  InstrMap.clear();
  for (const BranchSiteInfo &Site : Ref.Translator.enumerateBranchSites())
    InstrMap[Site.CacheAddr] = Site.IsInstrumentation;

  auto Fold = [&](const auto &PerSite) {
    std::array<uint64_t, 3> Counts = {};
    for (const auto &[Addr, Count] : PerSite) {
      SiteClass Class =
          matchesClass(InstrMap, Addr, SiteClass::InstrumentationOnly)
              ? SiteClass::InstrumentationOnly
              : SiteClass::OriginalOnly;
      Counts[static_cast<size_t>(SiteClass::Any)] += Count;
      Counts[static_cast<size_t>(Class)] += Count;
    }
    return Counts;
  };
  for (size_t K = 0; K < Snapshots.size(); ++K)
    Snapshots[K].Point.Branches = Fold(SiteCounts[K]);
  Executions = Fold(Hook.PerSite);
  Prepared = true;
  return true;
}

std::vector<FaultCampaign::SnapshotPoint>
FaultCampaign::snapshotPoints() const {
  std::vector<SnapshotPoint> Points;
  for (const GoldenSnapshot &S : Snapshots)
    Points.push_back(S.Point);
  return Points;
}

size_t FaultCampaign::snapshotBytes() const {
  std::unordered_set<const void *> Seen;
  size_t Bytes = 0;
  for (const GoldenSnapshot &S : Snapshots)
    if (S.Point.Insns)
      Bytes += sizeof(S) + S.Mem.bytes(Seen) + S.Cpu.Output.size() +
               S.Translator.bytes();
  return Bytes;
}

const FaultCampaign::GoldenSnapshot &
FaultCampaign::snapshotBefore(const PlannedFault &Fault) const {
  size_t Class = static_cast<size_t>(Fault.Class);
  // Branch counts never decrease along the run, and snapshot 0's are
  // zero while instances count from 1.
  auto It = std::partition_point(
      Snapshots.begin() + 1, Snapshots.end(), [&](const GoldenSnapshot &S) {
        return S.Point.Branches[Class] < Fault.Instance;
      });
  return *(It - 1);
}

std::vector<PlannedFault> FaultCampaign::plan(uint64_t NumCandidates,
                                              uint64_t Seed, SiteClass Class,
                                              FaultModel Model) {
  assert(Prepared && "call prepare() first");
  uint64_t Population = branchExecutions(Class);
  if (Population == 0)
    return {};

  Prng Rng(Seed);
  std::set<uint64_t> Instances;
  uint64_t Want = std::min(NumCandidates, Population);
  while (Instances.size() < Want)
    Instances.insert(1 + Rng.nextBelow(Population));

  std::vector<PlannedFault> Faults;
  Faults.reserve(Instances.size());
  for (uint64_t InstanceIdx : Instances) {
    PlannedFault Fault;
    Fault.Instance = InstanceIdx;
    Fault.Class = Class;
    // 32 addr bits + 4 flag bits, uniformly (the Section 2 model). The
    // domain draw doubles as the SingleBit mask draw, so single-bit
    // plans reproduce the pre-FaultModel sequences bit-for-bit.
    uint64_t Pick = Rng.nextBelow(36);
    if (Pick < 32) {
      Fault.Kind = FaultKind::AddrBit;
      Fault.Mask = Model == FaultModel::SingleBit
                       ? uint64_t(1) << Pick
                       : drawFaultMask(Rng, Model, 32);
    } else {
      Fault.Kind = FaultKind::FlagBit;
      Fault.Mask = Model == FaultModel::SingleBit
                       ? uint64_t(1) << (Pick - 32)
                       : drawFaultMask(Rng, Model, Flags::NumFlagBits);
    }
    Fault.Bit = static_cast<unsigned>(__builtin_ctzll(Fault.Mask));
    Faults.push_back(Fault);
  }

  // A prop-enabled campaign plants Digest markers in every instance —
  // including this one, or the cache layout (and so the site addresses
  // recorded in prepare()) would not reproduce.
  telemetry::DigestRecorder Digests;
  Instance Planner(Program, Config, PropEnabled ? &Digests : nullptr);
  if (!Planner.Ok)
    reportFatalError("planning instance failed to load after prepare()");
  PlanningHook Hook(Class, InstrMap, Planner.Translator, Faults);
  Planner.Interp.setFaultHook(&Hook);
  Planner.Translator.run(Planner.Interp, InsnBudget);
  return Faults;
}

Outcome FaultCampaign::inject(const PlannedFault &Fault) const {
  return injectDetailed(Fault).Result;
}

namespace {

/// Annotates and writes one "campaign-injection" bundle.
void writeInjectionBundle(telemetry::FlightRecorder &Recorder, Dbt &Translator,
                          Interpreter &Interp, const StopInfo &Stop,
                          const PlannedFault &Fault, bool Fired,
                          Outcome Result, const telemetry::PropagationReport &Prop) {
  telemetry::PostMortem PM =
      Translator.buildPostMortem("campaign-injection", Stop, Interp);
  PM.Annotations.emplace_back("instance", Fault.Instance);
  PM.Annotations.emplace_back("bit", Fault.Bit);
  PM.Annotations.emplace_back(
      "flag_bit_fault", Fault.Kind == FaultKind::FlagBit ? 1 : 0);
  PM.Annotations.emplace_back("site_addr", Fault.SiteAddr);
  PM.Annotations.emplace_back("fired", Fired ? 1 : 0);
  if (Prop.Enabled) {
    PM.Propagation.Present = true;
    PM.Propagation.Class = telemetry::getPropClassName(Prop.Class);
    PM.Propagation.Diverged = Prop.Diverged;
    PM.Propagation.DivergenceOrdinal = Prop.DivergenceOrdinal;
    PM.Propagation.DivergenceKey = Prop.DivergenceKey;
    PM.Propagation.DivergencePC = Prop.DivergencePC;
    PM.Propagation.TaintedBlocks = Prop.TaintedBlocks;
    PM.Propagation.ChecksCrossed = Prop.ChecksCrossed;
    PM.Propagation.InsnsCrossed = Prop.InsnsCrossed;
  }
  PM.Note = getOutcomeName(Result);
  Recorder.write(PM);
}

} // namespace

InjectionReport
FaultCampaign::injectDetailed(const PlannedFault &Fault,
                              telemetry::FlightRecorder *Recorder) const {
  assert(Prepared && "call prepare() first");
  // A bundle carries the run's last trace events and the propagation
  // digest stream starts at reset: both need the run from the start.
  const GoldenSnapshot &Start = Recorder || PropEnabled
                                    ? Snapshots.front()
                                    : snapshotBefore(Fault);
  telemetry::DigestRecorder Digests;
  Instance Run(Program, Config, PropEnabled ? &Digests : nullptr, &Start);
  if (!Run.Ok)
    reportFatalError("injection instance failed to load after prepare()");
  InjectionHook Hook(InstrMap, Fault, Run.Interp,
                     Start.Point.Branches[static_cast<size_t>(Fault.Class)]);
  Run.Interp.setFaultHook(&Hook);
  std::unique_ptr<telemetry::EventTracer> Tracer;
  if (Recorder) {
    Tracer = std::make_unique<telemetry::EventTracer>(Recorder->maxEvents());
    Run.Translator.setTracer(Tracer.get());
  }
  StopInfo Stop =
      Run.Translator.run(Run.Interp, InsnBudget - Start.Point.Insns);

  InjectionReport Report;
  Report.Fired = Hook.Fired;
  Report.LatencyInsns =
      Hook.Fired ? Run.Interp.instructionCount() - Hook.InsnsAtFire : 0;

  switch (Stop.Kind) {
  case StopKind::Halted:
    Report.Result = hashOutput(Run.Interp.output()) == GoldenHash
                        ? Outcome::Masked
                        : Outcome::Sdc;
    break;
  case StopKind::InsnLimit:
    Report.Result = Outcome::Timeout;
    break;
  case StopKind::Trapped: {
    Report.Result = Outcome::DetectedHardware;
    if (Stop.Trap == TrapKind::BreakTrap &&
        Stop.BreakCode == BrkControlFlowError) {
      Report.Result = Outcome::DetectedSignature;
    } else if (Stop.Trap == TrapKind::DivByZero) {
      // ECCA reports through the div-by-zero handler: the fault is a
      // signature detection when the div is instrumentation (Section 3.1's
      // discussion of the ECCA exception handler).
      const TranslatedBlock *Block =
          Run.Translator.cacheBlockContaining(Stop.TrapAddr);
      if (Block && Block->isInstrumentation(Stop.TrapAddr))
        Report.Result = Outcome::DetectedSignature;
    }
    break;
  }
  }
  if (PropEnabled)
    Report.Prop = telemetry::analyzePropagation(
        Golden.Records, Digests.records(), toPropOutcome(Report.Result));
  if (Recorder)
    writeInjectionBundle(*Recorder, Run.Translator, Run.Interp, Stop, Fault,
                         Hook.Fired, Report.Result, Report.Prop);
  return Report;
}

FaultCampaign::RecoveryInjection
FaultCampaign::injectWithRecovery(const PlannedFault &Fault,
                                  const RecoveryConfig &Recovery,
                                  telemetry::FlightRecorder *Recorder) const {
  assert(Prepared && "call prepare() first");
  // Recovery campaigns do not track propagation, but the layout must
  // still match prepare()'s when the campaign is prop-enabled. The run
  // starts at reset: the checkpoint schedule counts from the run start.
  const GoldenSnapshot &Start = Snapshots.front();
  telemetry::DigestRecorder Digests;
  Instance Run(Program, Config, PropEnabled ? &Digests : nullptr, &Start);
  if (!Run.Ok)
    reportFatalError("injection instance failed to load after prepare()");
  InjectionHook Hook(InstrMap, Fault, Run.Interp,
                     Start.Point.Branches[static_cast<size_t>(Fault.Class)]);
  Run.Interp.setFaultHook(&Hook);
  std::unique_ptr<telemetry::EventTracer> Tracer;
  if (Recorder) {
    Tracer = std::make_unique<telemetry::EventTracer>(Recorder->maxEvents());
    Run.Translator.setTracer(Tracer.get());
  }
  RecoveryManager Manager(Run.Interp, Run.Translator, Recovery);
  RecoveryReport Report = Manager.run(InsnBudget);

  RecoveryInjection Injection;
  Injection.Fired = Hook.Fired;
  if (Report.Completed) {
    bool Golden = hashOutput(Run.Interp.output()) == GoldenHash;
    if (Report.NumRollbacks > 0)
      Injection.Result = Golden ? Outcome::Recovered : Outcome::RecoveryFailed;
    else
      Injection.Result = Golden ? Outcome::Masked : Outcome::Sdc;
  } else if (Report.FinalStop.Kind == StopKind::InsnLimit) {
    Injection.Result = Report.NumRollbacks > 0 ? Outcome::RecoveryFailed
                                               : Outcome::Timeout;
  } else {
    // A final trap means even the interpreter fallback could not make
    // progress: the ladder is exhausted.
    Injection.Result = Outcome::RecoveryFailed;
  }
  if (Recorder) {
    telemetry::PostMortem PM = Run.Translator.buildPostMortem(
        "campaign-injection", Report.FinalStop, Run.Interp);
    PM.Recovery.Present = true;
    PM.Recovery.Checkpoints = Report.NumCheckpoints;
    PM.Recovery.Rollbacks = Report.NumRollbacks;
    PM.Recovery.WatchdogFires = Report.NumWatchdogFires;
    PM.Recovery.Degraded = Report.Degraded;
    PM.Recovery.InterpreterFallback = Report.InterpreterFallback;
    PM.Annotations.emplace_back("instance", Fault.Instance);
    PM.Annotations.emplace_back("bit", Fault.Bit);
    PM.Annotations.emplace_back(
        "flag_bit_fault", Fault.Kind == FaultKind::FlagBit ? 1 : 0);
    PM.Annotations.emplace_back("site_addr", Fault.SiteAddr);
    PM.Annotations.emplace_back("fired", Hook.Fired ? 1 : 0);
    PM.Note = getOutcomeName(Injection.Result);
    Recorder->write(PM);
  }
  Injection.Recovery = std::move(Report);
  return Injection;
}

namespace {

/// Serial selection shared by run() and runWithRecovery(): the first
/// NumInjections candidates that can actually deviate control flow, in
/// plan order — keeping the two phases' fault sets identical.
std::vector<const PlannedFault *>
selectFaults(const std::vector<PlannedFault> &Candidates,
             uint64_t NumInjections) {
  std::vector<const PlannedFault *> Selected;
  Selected.reserve(std::min<uint64_t>(NumInjections, Candidates.size()));
  for (const PlannedFault &Fault : Candidates) {
    if (Fault.Category == BranchErrorCategory::NoError)
      continue;
    if (Selected.size() >= NumInjections)
      break;
    Selected.push_back(&Fault);
  }
  return Selected;
}

} // namespace

CampaignResult
FaultCampaign::tallyOutcomes(const std::vector<const PlannedFault *> &Sel,
                             const std::vector<Outcome> &Outcomes) {
  // Serial tally from position-indexed slots: workers never touch shared
  // counters, so the registry contents — and the result rebuilt from
  // them — are identical for any job count.
  telemetry::MetricsRegistry RunMetrics;
  for (size_t I = 0; I < Sel.size(); ++I) {
    RunMetrics.counter(getOutcomeCounterName(Sel[I]->Category, Outcomes[I]))
        .inc();
    RunMetrics.counter("fault.injections").inc();
  }
  telemetry::RegistrySnapshot Snap = RunMetrics.snapshot();
  Metrics.merge(Snap);
  CampaignResult Result = campaignResultFromSnapshot(Snap);
  assert(Result.totals().total() == Result.Injections &&
         "registry tallies must cover every injection");
  return Result;
}

void FaultCampaign::tallyPropagation(
    const std::vector<const PlannedFault *> &Sel,
    const std::vector<telemetry::PropagationReport> &Prop) {
  // Same discipline as tallyOutcomes: serial, position-indexed, into a
  // fresh registry that folds into Metrics — so the prop.* instruments
  // are identical for any job count (and, at the engine level, for any
  // shard split).
  telemetry::MetricsRegistry PropMetrics;
  std::vector<uint64_t> Bounds = telemetry::propDistanceBounds();
  for (size_t I = 0; I < Sel.size(); ++I) {
    if (!Prop[I].Enabled)
      continue;
    PropMetrics.counter(getPropagationCounterName(Sel[I]->Category,
                                                  Prop[I].Class))
        .inc();
    if (Prop[I].Class == telemetry::PropClass::DetectedAfterDivergence)
      PropMetrics.histogram(getPropagationDistanceName(Sel[I]->Category),
                            Bounds)
          .observe(Prop[I].InsnsCrossed);
  }
  Metrics.merge(PropMetrics.snapshot());
}

CampaignResult FaultCampaign::run(uint64_t NumInjections, uint64_t Seed,
                                  SiteClass Class, unsigned Jobs) {
  // Over-plan: a sizeable share of random faults are NoError.
  std::vector<PlannedFault> Candidates =
      plan(NumInjections * 4, Seed, Class);
  std::vector<const PlannedFault *> Selected =
      selectFaults(Candidates, NumInjections);

  // Parallel injection into position-indexed slots. Each worker touches
  // only its own slot; the merge into the registry stays serial.
  std::vector<Outcome> Outcomes(Selected.size());
  std::vector<telemetry::PropagationReport> Prop(Selected.size());
  ThreadPool Pool(Jobs);
  Pool.parallelFor(Selected.size(), [&](uint64_t I) {
    InjectionReport Rep = injectDetailed(*Selected[I]);
    Outcomes[I] = Rep.Result;
    Prop[I] = Rep.Prop;
  });
  CampaignResult Result = tallyOutcomes(Selected, Outcomes);
  if (PropEnabled)
    tallyPropagation(Selected, Prop);
  return Result;
}

CampaignResult FaultCampaign::runWithRecovery(uint64_t NumInjections,
                                              uint64_t Seed, SiteClass Class,
                                              const RecoveryConfig &Recovery,
                                              unsigned Jobs) {
  std::vector<PlannedFault> Candidates =
      plan(NumInjections * 4, Seed, Class);
  std::vector<const PlannedFault *> Selected =
      selectFaults(Candidates, NumInjections);

  // Position-indexed slots for the outcome and the recovery ladder's
  // activity, so the serial sums below are jobs-invariant.
  std::vector<Outcome> Outcomes(Selected.size());
  std::vector<std::array<uint64_t, 5>> Ladder(Selected.size());
  ThreadPool Pool(Jobs);
  Pool.parallelFor(Selected.size(), [&](uint64_t I) {
    RecoveryInjection Inj = injectWithRecovery(*Selected[I], Recovery);
    Outcomes[I] = Inj.Result;
    Ladder[I] = {Inj.Recovery.NumCheckpoints, Inj.Recovery.NumRollbacks,
                 Inj.Recovery.NumWatchdogFires,
                 Inj.Recovery.Degraded ? uint64_t(1) : 0,
                 Inj.Recovery.InterpreterFallback ? uint64_t(1) : 0};
  });
  CampaignResult Result = tallyOutcomes(Selected, Outcomes);

  // Each injection's RecoveryManager counted into its own worker
  // registry, which dies with the worker; re-aggregate the per-slot
  // records under the same names so campaign-level snapshots carry the
  // recovery story too.
  static const char *const LadderNames[5] = {
      "recovery.checkpoints", "recovery.rollbacks",
      "recovery.watchdog_fires", "recovery.degradations",
      "recovery.interp_fallbacks"};
  for (unsigned K = 0; K < 5; ++K) {
    uint64_t Sum = 0;
    for (const auto &Slot : Ladder)
      Sum += Slot[K];
    Metrics.counter(LadderNames[K]).inc(Sum);
  }
  return Result;
}
