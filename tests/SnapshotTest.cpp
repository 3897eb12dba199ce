//===- SnapshotTest.cpp - Golden-run snapshots and resumed injections -----===//
//
// Memory/Interpreter/Dbt capture and restore, the golden-run snapshot
// schedule, and the property that an injection resumed at a snapshot
// reports exactly what the same injection run from reset reports.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Campaign.h"
#include "vm/Interp.h"
#include "vm/Layout.h"
#include "vm/Memory.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <unordered_map>
#include <unordered_set>

using namespace cfed;

namespace {

uint64_t readWord(const Memory &Mem, uint64_t Addr) {
  uint64_t Value = 0;
  Mem.readRaw(Addr, &Value, sizeof(Value));
  return Value;
}

/// Flips the fault's mask at its instance, counting the class's branch
/// executions from reset.
class FlipAtInstance : public FaultHook {
public:
  FlipAtInstance(const PlannedFault &Fault,
                 const std::unordered_map<uint64_t, bool> &InstrMap,
                 const Interpreter &Interp)
      : Fault(Fault), InstrMap(InstrMap), Interp(Interp) {}

  bool Fired = false;
  uint64_t InsnsAtFire = 0;

  void apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             const CpuState &) override {
    if (Fired || !inClass(InsnAddr) || ++Count != Fault.Instance)
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
  bool inClass(uint64_t Addr) const {
    if (Fault.Class == SiteClass::Any)
      return true;
    auto It = InstrMap.find(Addr);
    bool IsInstr = It != InstrMap.end() && It->second;
    return (Fault.Class == SiteClass::InstrumentationOnly) == IsInstr;
  }

  const PlannedFault &Fault;
  const std::unordered_map<uint64_t, bool> &InstrMap;
  const Interpreter &Interp;
  uint64_t Count = 0;
};

/// The reference injector: a fresh Memory, Dbt and Interpreter per
/// fault, run from reset, the way every injection ran before golden-run
/// snapshots. Classifies sites from a golden run of its own.
class ResetInjector {
public:
  ResetInjector(const AsmProgram &Program, const DbtConfig &Config,
                const FaultCampaign &Campaign)
      : Program(Program), Config(Config),
        Budget(Campaign.goldenInsns() * 4 + 100000),
        GoldenHash(Campaign.goldenHash()) {
    Memory Mem;
    Dbt Translator(Mem, Config);
    Interpreter Interp(Mem);
    EXPECT_TRUE(Translator.load(Program, Interp.state()));
    EXPECT_EQ(Translator.run(Interp, Budget).Kind, StopKind::Halted);
    for (const BranchSiteInfo &Site : Translator.enumerateBranchSites())
      InstrMap[Site.CacheAddr] = Site.IsInstrumentation;
  }

  InjectionReport inject(const PlannedFault &Fault) const {
    Memory Mem;
    Dbt Translator(Mem, Config);
    Interpreter Interp(Mem);
    EXPECT_TRUE(Translator.load(Program, Interp.state()));
    FlipAtInstance Hook(Fault, InstrMap, Interp);
    Interp.setFaultHook(&Hook);
    StopInfo Stop = Translator.run(Interp, Budget);
    InjectionReport Report;
    Report.Fired = Hook.Fired;
    Report.LatencyInsns =
        Hook.Fired ? Interp.instructionCount() - Hook.InsnsAtFire : 0;
    switch (Stop.Kind) {
    case StopKind::Halted:
      Report.Result = hashOutput(Interp.output()) == GoldenHash
                          ? Outcome::Masked
                          : Outcome::Sdc;
      break;
    case StopKind::InsnLimit:
      Report.Result = Outcome::Timeout;
      break;
    case StopKind::Trapped: {
      Report.Result = Outcome::DetectedHardware;
      const TranslatedBlock *Block =
          Translator.cacheBlockContaining(Stop.TrapAddr);
      if ((Stop.Trap == TrapKind::BreakTrap &&
           Stop.BreakCode == BrkControlFlowError) ||
          (Stop.Trap == TrapKind::DivByZero && Block &&
           Block->isInstrumentation(Stop.TrapAddr)))
        Report.Result = Outcome::DetectedSignature;
      break;
    }
    }
    return Report;
  }

private:
  const AsmProgram &Program;
  DbtConfig Config;
  uint64_t Budget;
  uint64_t GoldenHash;
  std::unordered_map<uint64_t, bool> InstrMap;
};

/// Injects every fault both ways and compares the reports field by field.
/// Returns how many faults were compared.
size_t expectSameAsFromReset(const FaultCampaign &Campaign,
                             const ResetInjector &Reference,
                             const std::vector<PlannedFault> &Faults,
                             const std::string &What) {
  for (const PlannedFault &Fault : Faults) {
    InjectionReport Resumed = Campaign.injectDetailed(Fault);
    InjectionReport Reset = Reference.inject(Fault);
    EXPECT_EQ(Resumed.Result, Reset.Result)
        << What << " instance " << Fault.Instance << " mask " << Fault.Mask;
    EXPECT_EQ(Resumed.Fired, Reset.Fired)
        << What << " instance " << Fault.Instance;
    EXPECT_EQ(Resumed.LatencyInsns, Reset.LatencyInsns)
        << What << " instance " << Fault.Instance;
  }
  return Faults.size();
}

AsmProgram randomProgram(uint64_t Seed, unsigned LoopTrip) {
  RandomProgramOptions Options;
  Options.Seed = Seed;
  Options.LoopTrip = LoopTrip;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  return std::move(R.Program);
}

DbtConfig edgCf() {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  return Config;
}

/// A fault flipping offset bit \p Bit at the \p Instance-th branch.
PlannedFault faultAt(uint64_t Instance, unsigned Bit = 3) {
  PlannedFault Fault;
  Fault.Instance = Instance;
  Fault.Bit = Bit;
  Fault.Mask = uint64_t(1) << Bit;
  return Fault;
}

} // namespace

//===----------------------------------------------------------------------===//
// Component capture and restore.
//===----------------------------------------------------------------------===//

TEST(MemorySnapshotTest, RestoreReplacesRegionsAndResidentPages) {
  Memory Mem;
  Mem.mapRegion(DataBase, 4 * PageSize, PermRW);
  Mem.writeRaw(DataBase, "\x11", 1);
  Mem.writeRaw(DataBase + PageSize, "\x22", 1);
  Memory::Snapshot S = Mem.capture();

  Mem.writeRaw(DataBase, "\x33", 1);
  Mem.writeRaw(DataBase + 2 * PageSize, "\x44", 1); // First touched after.
  Mem.setPerms(DataBase + PageSize, PageSize, PermR);
  Mem.mapRegion(CacheBase, PageSize, PermX);
  Mem.restore(S);

  EXPECT_EQ(Mem.residentPageCount(), 2u);
  EXPECT_EQ(readWord(Mem, DataBase) & 0xff, 0x11u);
  EXPECT_EQ(readWord(Mem, DataBase + PageSize) & 0xff, 0x22u);
  // The page touched after the capture reads zero again.
  EXPECT_EQ(readWord(Mem, DataBase + 2 * PageSize), 0u);
  EXPECT_EQ(Mem.getPerms(DataBase + PageSize), PermRW);
  EXPECT_FALSE(Mem.isMapped(CacheBase));
  // The restored pages are writable through the ordinary paths.
  EXPECT_EQ(Mem.write64(DataBase + PageSize, 5), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(DataBase + PageSize, R), 5u);
}

TEST(MemorySnapshotTest, PageResidentOnlyInTargetReadsZero) {
  // Restoring into a Memory that has its own resident pages (a freshly
  // loaded instance) must drop the ones the snapshot does not hold.
  Memory Source;
  Source.mapRegion(DataBase, 2 * PageSize, PermRW);
  Source.writeRaw(DataBase, "\x01", 1);
  Memory::Snapshot S = Source.capture();

  Memory Target;
  Target.mapRegion(DataBase, 2 * PageSize, PermRW);
  EXPECT_EQ(Target.write64(DataBase + PageSize, ~0ULL), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Target.read64(DataBase + PageSize, R), ~0ULL); // Fill the TLB.
  Target.restore(S);
  EXPECT_EQ(Target.read64(DataBase + PageSize, R), 0u);
  EXPECT_EQ(R, MemResult::Ok);
  EXPECT_EQ(Target.read64(DataBase, R), 1u);
}

TEST(MemorySnapshotTest, RestoredCodeDecodesLazilyAndStaysCoherent) {
  Memory Mem;
  Mem.mapRegion(CacheBase, PageSize, PermRWX);
  uint8_t Raw[InsnSize];
  insn::r(Opcode::Halt, 0).encode(Raw);
  Mem.writeRaw(CacheBase, Raw, InsnSize);
  MemResult R = MemResult::Ok;
  ASSERT_NE(Mem.fetchDecoded(CacheBase, R), nullptr); // Side array live.
  Memory::Snapshot S = Mem.capture();

  Memory Other;
  Other.restore(S);
  const Instruction *I = Other.fetchDecoded(CacheBase, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Op, Opcode::Halt);
  insn::r(Opcode::Nop, 0).encode(Raw);
  EXPECT_EQ(Other.write(CacheBase, Raw, InsnSize), MemResult::Ok);
  I = Other.fetchDecoded(CacheBase, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Op, Opcode::Nop);
}

TEST(MemorySnapshotTest, UnchangedPagesShareTheirCopy) {
  Memory Mem;
  Mem.mapRegion(DataBase, 3 * PageSize, PermRW);
  for (uint64_t P = 0; P < 3; ++P)
    Mem.writeRaw(DataBase + P * PageSize, "\x07", 1);
  Memory::Snapshot First = Mem.capture();
  Mem.writeRaw(DataBase + PageSize, "\x08", 1);
  Memory::Snapshot Second = Mem.capture(&First);

  std::unordered_set<const void *> Seen;
  size_t FirstBytes = First.bytes(Seen);
  size_t SecondBytes = Second.bytes(Seen);
  EXPECT_GE(FirstBytes, 3 * PageSize);
  // Only the changed page costs a new copy.
  EXPECT_GE(SecondBytes, PageSize);
  EXPECT_LT(SecondBytes, 2 * PageSize);

  Memory Other;
  Other.restore(Second);
  EXPECT_EQ(readWord(Other, DataBase) & 0xff, 7u);
  EXPECT_EQ(readWord(Other, DataBase + PageSize) & 0xff, 8u);
}

namespace {

/// Runs \p Program to \p CaptureAt instructions, captures memory, CPU and
/// translator, and finishes the run; then restores the capture into a
/// freshly loaded instance and finishes that. Both must end alike, down
/// to every translator counter. \p Then, when given, acts on both
/// translators right after the capture and the restore.
void expectResumeMatches(const AsmProgram &Program, const DbtConfig &Config,
                         uint64_t CaptureAt, const std::string &What,
                         const std::function<void(Dbt &)> &Then = {}) {
  Memory Mem;
  Dbt Translator(Mem, Config);
  Interpreter Interp(Mem);
  ASSERT_TRUE(Translator.load(Program, Interp.state())) << What;
  ASSERT_EQ(Translator.run(Interp, CaptureAt).Kind, StopKind::InsnLimit)
      << What;
  Memory::Snapshot MemAt = Mem.capture();
  Interpreter::Snapshot CpuAt = Interp.capture();
  Dbt::Snapshot DbtAt = Translator.capture();
  if (Then)
    Then(Translator);
  ASSERT_EQ(Translator.run(Interp, 10000000).Kind, StopKind::Halted) << What;

  Memory Mem2;
  Dbt Translator2(Mem2, Config);
  Interpreter Interp2(Mem2);
  ASSERT_TRUE(Translator2.load(Program, Interp2.state())) << What;
  Mem2.restore(MemAt);
  Interp2.restore(CpuAt);
  Translator2.restore(DbtAt);
  if (Then)
    Then(Translator2);
  EXPECT_EQ(Interp2.instructionCount(), CaptureAt) << What;
  ASSERT_EQ(Translator2.run(Interp2, 10000000).Kind, StopKind::Halted)
      << What;
  EXPECT_EQ(Interp2.output(), Interp.output()) << What;
  EXPECT_EQ(Interp2.instructionCount(), Interp.instructionCount()) << What;
  EXPECT_EQ(Interp2.cycleCount(), Interp.cycleCount()) << What;
  EXPECT_TRUE(Translator2.metrics().snapshot() ==
              Translator.metrics().snapshot())
      << What;
}

} // namespace

TEST(ResumeTest, RestoredRunFinishesLikeTheUninterruptedOne) {
  AsmProgram Program = randomProgram(5, 30);
  DbtConfig Plain = edgCf();
  DbtConfig Opt = edgCf();
  Opt.Tier = DbtTier::Opt;
  DbtConfig Integrity = edgCf();
  Integrity.VerifyDispatchInterval = 1;
  Integrity.ScrubInterval = 4;
  Integrity.ShadowSignature = true;
  DbtConfig Shadow;
  Shadow.Tech = Technique::Rcf;
  Shadow.ShadowStack = true;
  for (uint64_t At : {1u, 700u, 1500u, 3100u}) {
    std::string Where = " at " + std::to_string(At);
    expectResumeMatches(Program, Plain, At, "plain" + Where);
    expectResumeMatches(Program, Opt, At, "opt" + Where);
    expectResumeMatches(Program, Integrity, At, "integrity" + Where);
    expectResumeMatches(Program, Shadow, At, "shadow-stack" + Where);
  }
}

TEST(ResumeTest, QuarantineAfterRestoreUnchainsEarlierPatches) {
  // Evicting every unit right after the restore must unchain the exits
  // chained before the capture, or they keep jumping into evicted code.
  AsmProgram Program = randomProgram(5, 30);
  auto QuarantineAll = [](Dbt &Translator) {
    std::vector<uint64_t> Guests;
    for (const TranslatedBlock &TB : Translator.blocks())
      Guests.push_back(TB.GuestAddr);
    for (uint64_t Guest : Guests)
      Translator.quarantineGuestBlock(Guest);
  };
  for (uint64_t At : {700u, 1500u, 3100u})
    expectResumeMatches(Program, edgCf(), At,
                        "quarantine at " + std::to_string(At),
                        QuarantineAll);
}

TEST(ResumeTest, SelfModificationAfterRestoreUnchainsEarlierPatches) {
  // Every outer iteration spins, then patches the movi below and jumps
  // to it. The flush that patch triggers must unchain the exits chained
  // before the capture, or the jump lands in the stale translation.
  AsmResult R = assembleProgram(".entry main\n"
                                "main:\n"
                                "  movi r10, 3\n"
                                "  movi r1, patch\n"
                                "again:\n"
                                "  movi r5, 400\n"
                                "spin:\n"
                                "  addi r5, r5, -1\n"
                                "  jcc ne, spin\n"
                                "  mov r2, r10\n"
                                "  stb [r1+4], r2\n"
                                "  jmp run\n"
                                "run:\n"
                                "patch:\n"
                                "  movi r3, 0\n"
                                "  out r3\n"
                                "  addi r10, r10, -1\n"
                                "  jcc ne, again\n"
                                "  halt\n");
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  DbtConfig Config;
  Config.Tech = Technique::Rcf;
  // One outer iteration retires about 3,600 instructions.
  for (uint64_t At : {1000u, 4000u, 5000u, 8000u})
    expectResumeMatches(R.Program, Config, At,
                        "self-modifying at " + std::to_string(At));
}

//===----------------------------------------------------------------------===//
// The golden-run schedule.
//===----------------------------------------------------------------------===//

TEST(SnapshotScheduleTest, HalvingKeepsSnapshotsEvenlySpread) {
  AsmProgram Program = randomProgram(7, 600);
  FaultCampaign Campaign(Program, edgCf());
  ASSERT_TRUE(Campaign.prepare(50000000));
  std::vector<FaultCampaign::SnapshotPoint> Points = Campaign.snapshotPoints();
  // Long enough to have halved at least once.
  ASSERT_GT(Campaign.goldenInsns(), 2 * 32 * 1024u);
  ASSERT_GT(Points.size(), FaultCampaign::MaxSnapshots / 2);
  ASSERT_LE(Points.size(), FaultCampaign::MaxSnapshots);

  EXPECT_EQ(Points[0].Insns, 0u);
  for (uint64_t Count : Points[0].Branches)
    EXPECT_EQ(Count, 0u);
  uint64_t Spacing = Points[1].Insns;
  EXPECT_EQ(Spacing & (Spacing - 1), 0u) << "spacing is 1024 * 2^k";
  EXPECT_GE(Spacing, 1024u);
  for (size_t K = 1; K < Points.size(); ++K) {
    EXPECT_EQ(Points[K].Insns, K * Spacing);
    for (size_t C = 0; C < 3; ++C)
      EXPECT_GE(Points[K].Branches[C], Points[K - 1].Branches[C]);
    // Any = OriginalOnly + InstrumentationOnly.
    EXPECT_EQ(Points[K].Branches[0],
              Points[K].Branches[1] + Points[K].Branches[2]);
  }
  // The last snapshot is the last multiple of the spacing before the end.
  EXPECT_LT(Points.back().Insns, Campaign.goldenInsns());
  EXPECT_GE(Points.back().Insns + Spacing, Campaign.goldenInsns());
  EXPECT_LE(Points.back().Branches[0],
            Campaign.branchExecutions(SiteClass::Any));
  // Each snapshot's counts equal an independent count of the branches
  // retired before it, classified by the finished run's sites.
  class SiteCounter : public FaultHook {
  public:
    std::unordered_map<uint64_t, uint64_t> PerSite;
    void apply(uint64_t InsnAddr, Instruction &, Flags &,
               const CpuState &) override {
      ++PerSite[InsnAddr];
    }
  } Counter;
  Memory Mem;
  Dbt Translator(Mem, edgCf());
  Interpreter Interp(Mem);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  Interp.setFaultHook(&Counter);
  std::vector<std::unordered_map<uint64_t, uint64_t>> AtPoint;
  for (const FaultCampaign::SnapshotPoint &P : Points) {
    Translator.run(Interp, P.Insns - Interp.instructionCount());
    AtPoint.push_back(Counter.PerSite);
  }
  ASSERT_EQ(Translator.run(Interp, 50000000).Kind, StopKind::Halted);
  std::unordered_map<uint64_t, bool> InstrMap;
  for (const BranchSiteInfo &Site : Translator.enumerateBranchSites())
    InstrMap[Site.CacheAddr] = Site.IsInstrumentation;
  for (size_t K = 0; K < Points.size(); ++K) {
    std::array<uint64_t, 3> Expected = {};
    for (const auto &[Addr, Count] : AtPoint[K]) {
      auto It = InstrMap.find(Addr);
      bool IsInstr = It != InstrMap.end() && It->second;
      Expected[0] += Count;
      Expected[IsInstr ? 2 : 1] += Count;
    }
    EXPECT_EQ(Points[K].Branches, Expected) << "snapshot " << K;
  }
  // Pages and translation layouts that do not change are shared.
  EXPECT_GT(Campaign.snapshotBytes(), 0u);
  EXPECT_LT(Campaign.snapshotBytes(), Points.size() * 4 * PageSize);
}

TEST(SnapshotScheduleTest, ShortRunKeepsResetAndFewSnapshots) {
  AsmProgram Program = randomProgram(3, 12);
  FaultCampaign Campaign(Program, edgCf());
  ASSERT_TRUE(Campaign.prepare(50000000));
  std::vector<FaultCampaign::SnapshotPoint> Points = Campaign.snapshotPoints();
  ASSERT_GE(Points.size(), 1u);
  EXPECT_EQ(Points[0].Insns, 0u);
  EXPECT_EQ(Points.size(), 1 + (Campaign.goldenInsns() - 1) / 1024);
}

//===----------------------------------------------------------------------===//
// Resumed injections equal injections from reset.
//===----------------------------------------------------------------------===//

namespace {

struct MonitorConfig {
  const char *Name;
  bool ShadowStack;
  bool Integrity;
};

constexpr MonitorConfig Monitors[] = {
    {"plain", false, false},
    {"shadow-stack", true, false},
    {"verify+scrub+shadow-sig", false, true},
};

class SnapshotEquivalenceTest : public ::testing::TestWithParam<Technique> {};

} // namespace

TEST_P(SnapshotEquivalenceTest, ResumedReportsEqualReportsFromReset) {
  Technique Tech = GetParam();
  size_t Compared = 0;
  for (uint64_t Seed : {11u, 12u}) {
    AsmProgram Program = randomProgram(Seed, 120);
    for (DbtTier Tier : {DbtTier::Base, DbtTier::Opt}) {
      for (const MonitorConfig &Monitor : Monitors) {
        DbtConfig Config;
        Config.Tech = Tech;
        Config.EagerTranslate =
            Tech == Technique::Cfcss || Tech == Technique::Ecca;
        Config.Tier = Tier;
        Config.ShadowStack = Monitor.ShadowStack;
        if (Monitor.Integrity) {
          Config.VerifyDispatchInterval = 1;
          Config.ScrubInterval = 16;
          Config.ShadowSignature = true;
        }
        std::string What = std::string(getTechniqueName(Tech)) + "/" +
                           getDbtTierName(Tier) + "/" + Monitor.Name +
                           "/seed " + std::to_string(Seed);
        FaultCampaign Campaign(Program, Config);
        ASSERT_TRUE(Campaign.prepare(50000000)) << What;
        ASSERT_GT(Campaign.snapshotPoints().size(), 8u) << What;
        ResetInjector Reference(Program, Config, Campaign);
        for (SiteClass Class :
             {SiteClass::Any, SiteClass::OriginalOnly,
              SiteClass::InstrumentationOnly}) {
          std::vector<PlannedFault> Faults =
              Campaign.plan(6, Seed * 31 + static_cast<uint64_t>(Class),
                            Class);
          Compared += expectSameAsFromReset(Campaign, Reference, Faults,
                                            What);
        }
      }
    }
  }
  EXPECT_GT(Compared, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, SnapshotEquivalenceTest,
    ::testing::Values(Technique::None, Technique::Cfcss, Technique::Ecca,
                      Technique::Ecf, Technique::EdgCf, Technique::Rcf),
    [](const ::testing::TestParamInfo<Technique> &Info) {
      return std::string(getTechniqueName(Info.param));
    });

TEST(SnapshotEquivalenceEdgeTest, InstancesAroundEverySnapshot) {
  AsmProgram Program = randomProgram(21, 200);
  DbtConfig Config = edgCf();
  FaultCampaign Campaign(Program, Config);
  ASSERT_TRUE(Campaign.prepare(50000000));
  ResetInjector Reference(Program, Config, Campaign);
  std::vector<FaultCampaign::SnapshotPoint> Points = Campaign.snapshotPoints();
  ASSERT_GT(Points.size(), 2u);
  uint64_t Last = Campaign.branchExecutions(SiteClass::Any);

  std::vector<PlannedFault> Faults;
  // Before the first snapshot after reset.
  Faults.push_back(faultAt(1));
  Faults.push_back(faultAt(Points[1].Branches[0]));
  // The branch just before and just after each snapshot.
  for (size_t K = 1; K < Points.size(); ++K) {
    Faults.push_back(faultAt(Points[K].Branches[0], 2));
    Faults.push_back(faultAt(Points[K].Branches[0] + 1, 2));
  }
  // After the last snapshot, up to the last branch of the run.
  Faults.push_back(faultAt(Points.back().Branches[0] + 2, 4));
  Faults.push_back(faultAt(Last, 4));
  // Past the end: never fires.
  Faults.push_back(faultAt(Last + 1));
  for (PlannedFault &F : Faults)
    F.Class = SiteClass::Any;
  expectSameAsFromReset(Campaign, Reference, Faults, "edges");
  EXPECT_FALSE(Campaign.injectDetailed(faultAt(Last + 1)).Fired);
  EXPECT_TRUE(Campaign.injectDetailed(faultAt(Last)).Fired);
}

TEST(SnapshotEquivalenceEdgeTest, TimeoutHitsTheSameBudget) {
  // Unchecked code: flipping ZF at the loop's last back-edge keeps the
  // counter running past zero, so the run exhausts its budget. A resumed
  // run must hit the instruction limit at the same instant as one from
  // reset, which makes the timed-out latency identical too.
  AsmResult R = assembleProgram("main:\n"
                                "movi r5, 4000\n"
                                "loop:\n"
                                "addi r5, r5, -1\n"
                                "jcc ne, loop\n"
                                "out r5\n"
                                "halt\n");
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  DbtConfig Config; // Technique::None.
  FaultCampaign Campaign(R.Program, Config);
  ASSERT_TRUE(Campaign.prepare(50000000));
  ASSERT_GT(Campaign.snapshotPoints().size(), 3u);
  ResetInjector Reference(R.Program, Config, Campaign);
  uint64_t Last = Campaign.branchExecutions(SiteClass::Any);
  std::vector<PlannedFault> Faults;
  for (uint64_t Back = 0; Back < 4; ++Back) {
    PlannedFault Fault = faultAt(Last - Back);
    Fault.Kind = FaultKind::FlagBit;
    Fault.Mask = 1; // ZF.
    Fault.Bit = 0;
    Faults.push_back(Fault);
  }
  expectSameAsFromReset(Campaign, Reference, Faults, "timeout");
  size_t Timeouts = 0;
  for (const PlannedFault &Fault : Faults) {
    InjectionReport Report = Campaign.injectDetailed(Fault);
    if (Report.Result != Outcome::Timeout)
      continue;
    ++Timeouts;
    // The fault fired within the golden run's length, and the run went
    // on to the end of its budget of 4 * golden + 100000 instructions.
    EXPECT_GE(Report.LatencyInsns, Campaign.goldenInsns() * 3 + 100000);
    EXPECT_LT(Report.LatencyInsns, Campaign.goldenInsns() * 4 + 100000);
  }
  EXPECT_GT(Timeouts, 0u);
}

TEST(SnapshotEquivalenceEdgeTest, PageFirstTouchedAfterSnapshotReadsZero) {
  // The loop runs past several snapshots before the program first reads
  // (then writes and rereads) a data page nothing touched before.
  AsmResult R = assembleProgram("main:\n"
                                "movi r5, 3000\n"
                                "loop:\n"
                                "addi r5, r5, -1\n"
                                "jcc ne, loop\n"
                                "movi r9, 0x1010000\n"
                                "ld r3, [r9]\n"
                                "out r3\n"
                                "movi r4, 7\n"
                                "st [r9], r4\n"
                                "ld r3, [r9]\n"
                                "out r3\n"
                                "halt\n");
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  DbtConfig Config = edgCf();
  FaultCampaign Campaign(R.Program, Config);
  ASSERT_TRUE(Campaign.prepare(50000000));
  ASSERT_GT(Campaign.snapshotPoints().size(), 3u);
  ResetInjector Reference(R.Program, Config, Campaign);
  // Offset bit 2 of a late back-edge lands inside the loop body: masked
  // when the late page reads zero as it did in the golden run.
  uint64_t Last = Campaign.branchExecutions(SiteClass::Any);
  std::vector<PlannedFault> Faults;
  for (uint64_t Back = 1; Back <= 8; ++Back)
    for (unsigned Bit : {0u, 2u, 5u})
      Faults.push_back(faultAt(Last - Back, Bit));
  for (const PlannedFault &Fault : Campaign.plan(40, 9, SiteClass::Any))
    Faults.push_back(Fault);
  expectSameAsFromReset(Campaign, Reference, Faults, "late page");
}

TEST(SnapshotEquivalenceEdgeTest, ParallelRunReadsSharedSnapshots) {
  // Workers restore the same snapshots concurrently; the tallies must
  // equal the serial run's and those of injections run from reset.
  AsmProgram Program = randomProgram(19, 200);
  DbtConfig Config = edgCf();
  FaultCampaign Campaign(Program, Config);
  ASSERT_TRUE(Campaign.prepare(50000000));
  ASSERT_GT(Campaign.snapshotPoints().size(), 8u);
  CampaignResult Parallel = Campaign.run(40, 77, SiteClass::Any, 4);
  CampaignResult Serial = Campaign.run(40, 77, SiteClass::Any, 1);
  EXPECT_TRUE(Parallel == Serial);

  // The same selection run() makes: the first 40 deviating candidates of
  // a 160-candidate plan.
  ResetInjector Reference(Program, Config, Campaign);
  CampaignResult FromReset;
  for (const PlannedFault &Fault : Campaign.plan(160, 77, SiteClass::Any)) {
    if (Fault.Category == BranchErrorCategory::NoError)
      continue;
    if (FromReset.Injections == 40)
      break;
    FromReset.of(Fault.Category).add(Reference.inject(Fault).Result);
    ++FromReset.Injections;
  }
  EXPECT_EQ(Parallel.Injections, 40u);
  EXPECT_TRUE(Parallel == FromReset);
}
