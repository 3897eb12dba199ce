//===- BlockProfileTest.cpp - Tests for hot-spot attribution -------------------===//

#include "OverheadBound.h"
#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "telemetry/BlockProfile.h"
#include "telemetry/Metrics.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cfed;
using telemetry::BlockProfile;

namespace {

AsmProgram assembleOk(const std::string &Source) {
  AsmResult Result = assembleProgram(Source);
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return Result.Program;
}

/// A counted loop with a known block structure:
///   main (movi; addi; jnzr)  executes once,
///   loop (addi; jnzr)        executes 99 times (self-edge taken 98x),
///   exit (out; halt)         executes once.
const char *const CountedLoop = R"(
.entry main
main:
  movi r10, 100
loop:
  addi r10, r10, -1
  jnzr r10, loop
  out r10
  halt
)";

constexpr uint64_t MainAddr = CodeBase;                // movi
constexpr uint64_t LoopAddr = CodeBase + 1 * InsnSize; // addi
constexpr uint64_t ExitAddr = CodeBase + 3 * InsnSize; // out

struct ProfiledRun {
  Memory Mem;
  Interpreter Interp{Mem};
  BlockProfile Profile;
  Dbt Translator;
  StopInfo Stop;

  ProfiledRun(const AsmProgram &Program, DbtConfig Config,
              uint64_t MaxInsns = 2000000)
      : Translator(Mem, Config) {
    Translator.setBlockProfile(&Profile);
    EXPECT_TRUE(Translator.load(Program, Interp.state()))
        << Translator.loadError();
    Stop = Translator.run(Interp, MaxInsns);
  }
};

TEST(BlockProfileTest, SlotsAreStableAndDeduped) {
  BlockProfile Profile;
  uint32_t A = Profile.blockSlot(0x10000);
  uint32_t B = Profile.blockSlot(0x10040);
  EXPECT_NE(A, B);
  EXPECT_EQ(Profile.blockSlot(0x10000), A);
  uint32_t E = Profile.edgeSlot(0x10000, 0x10040);
  EXPECT_EQ(Profile.edgeSlot(0x10000, 0x10040), E);
  EXPECT_NE(Profile.edgeSlot(0x10040, 0x10000), E);

  Profile.bump(A);
  Profile.bump(A);
  Profile.bump(E);
  EXPECT_EQ(Profile.slotCount(A), 2u);
  EXPECT_EQ(Profile.execCount(0x10000), 2u);
  EXPECT_EQ(Profile.execCount(0x10040), 0u);
  EXPECT_EQ(Profile.edgeCount(0x10000, 0x10040), 1u);
  // Out-of-range bumps (a corrupted Prof immediate) are ignored.
  Profile.bump(1u << 30);
  EXPECT_EQ(Profile.totalBlockExecs(), 2u);
}

TEST(BlockProfileTest, HotnessNeedsExecutions) {
  BlockProfile Profile;
  uint32_t A = Profile.blockSlot(0x10000);
  EXPECT_FALSE(Profile.hasExecutions());
  EXPECT_FALSE(Profile.isHot(0x10000));
  Profile.bump(A);
  EXPECT_TRUE(Profile.hasExecutions());
  EXPECT_TRUE(Profile.isHot(0x10000)); // Default threshold 1.
  Profile.setHotThreshold(10);
  EXPECT_FALSE(Profile.isHot(0x10000));
  Profile.reset();
  EXPECT_FALSE(Profile.hasExecutions());
  // Slot assignments survive the counter reset.
  EXPECT_EQ(Profile.blockSlot(0x10000), A);
}

TEST(BlockProfileTest, ReportAndGauges) {
  BlockProfile Profile;
  uint32_t A = Profile.blockSlot(0x10000);
  Profile.noteBlock(0x10000, 0x10020, 4, 16, 64);
  for (int I = 0; I < 7; ++I)
    Profile.bump(A);
  Profile.bump(Profile.edgeSlot(0x10000, 0x10000));

  std::string Report = Profile.renderReport(5);
  EXPECT_NE(Report.find("0x10000..0x10020"), std::string::npos) << Report;
  EXPECT_NE(Report.find("100.00%"), std::string::npos) << Report;

  telemetry::MetricsRegistry Registry;
  Profile.publishTo(Registry);
  telemetry::RegistrySnapshot Snap = Registry.snapshot();
  EXPECT_EQ(Snap.gaugeOr("blockprofile.blocks"), 1.0);
  EXPECT_EQ(Snap.gaugeOr("blockprofile.edges"), 1.0);
  EXPECT_EQ(Snap.gaugeOr("blockprofile.execs"), 7.0);
  EXPECT_EQ(Snap.gaugeOr("blockprofile.dyn_insns"), 28.0);
}

TEST(BlockProfileTest, CountsMatchDispatchesWithoutChaining) {
  // In the fully conservative configuration every block entry goes
  // through the dispatch loop, so block executions and dbt.dispatches
  // must agree exactly — off by one for the initial entry, which the
  // run() prologue resolves without a dispatch.
  AsmProgram Program = assembleOk(CountedLoop);
  DbtConfig Config;
  Config.ChainDirectExits = false;
  ProfiledRun Run(Program, Config);
  ASSERT_EQ(Run.Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Run.Profile.totalBlockExecs(),
            Run.Translator.dispatchCount() + 1);
  EXPECT_EQ(Run.Profile.execCount(MainAddr), 1u);
  EXPECT_EQ(Run.Profile.execCount(LoopAddr), 99u);
  EXPECT_EQ(Run.Profile.execCount(ExitAddr), 1u);
  EXPECT_EQ(Run.Profile.edgeCount(MainAddr, LoopAddr), 1u);
  EXPECT_EQ(Run.Profile.edgeCount(LoopAddr, LoopAddr), 98u);
  EXPECT_EQ(Run.Profile.edgeCount(LoopAddr, ExitAddr), 1u);
}

TEST(BlockProfileTest, CountsSurviveChaining) {
  // Chained transfers bypass the dispatch loop but still land on the
  // per-block Prof prologue, so the attribution is identical with and
  // without chaining even though the dispatch counts differ wildly.
  AsmProgram Program = assembleOk(CountedLoop);
  DbtConfig Chained;
  ProfiledRun A(Program, Chained);
  DbtConfig Unchained;
  Unchained.ChainDirectExits = false;
  ProfiledRun B(Program, Unchained);
  ASSERT_EQ(A.Stop.Kind, StopKind::Halted);
  ASSERT_EQ(B.Stop.Kind, StopKind::Halted);
  EXPECT_LT(A.Translator.dispatchCount(), B.Translator.dispatchCount());

  EXPECT_EQ(A.Profile.totalBlockExecs(), B.Profile.totalBlockExecs());
  for (uint64_t Addr : {MainAddr, LoopAddr, ExitAddr})
    EXPECT_EQ(A.Profile.execCount(Addr), B.Profile.execCount(Addr))
        << "block 0x" << std::hex << Addr;
  EXPECT_EQ(A.Profile.edgeCount(LoopAddr, LoopAddr), 98u);
}

TEST(BlockProfileTest, CountsSurviveSuperblockFusion) {
  // Fusion keeps one Prof per fused sub-block, so per-block counts match
  // the unfused translation even when fall-throughs never dispatch.
  AsmProgram Program = assembleOk(R"(
.entry main
main:
  movi r10, 50
  movi r11, 0
loop:
  addi r11, r11, 2
  jmp step
step:
  addi r10, r10, -1
  jnzr r10, loop
  out r11
  halt
)");
  DbtConfig Fused;
  Fused.SuperblockLimit = 4;
  ProfiledRun A(Program, Fused);
  DbtConfig Unfused;
  ProfiledRun B(Program, Unfused);
  ASSERT_EQ(A.Stop.Kind, StopKind::Halted);
  ASSERT_EQ(B.Stop.Kind, StopKind::Halted);
  EXPECT_EQ(A.Interp.output(), B.Interp.output());
  EXPECT_GT(A.Translator.metrics().snapshot().counterOr(
                "dbt.superblock_fusions"),
            0u);

  EXPECT_EQ(A.Profile.totalBlockExecs(), B.Profile.totalBlockExecs());
  for (const BlockProfile::BlockStats &Stats : B.Profile.topBlocks(16))
    EXPECT_EQ(A.Profile.execCount(Stats.GuestAddr), Stats.Execs)
        << "block 0x" << std::hex << Stats.GuestAddr;
}

TEST(BlockProfileTest, CountsSurviveCacheFlush) {
  // Slots are keyed by guest address: a flush + conservative
  // retranslation must keep accumulating into the same counters, so a
  // second identical run exactly doubles every count.
  AsmProgram Program = assembleOk(CountedLoop);
  DbtConfig Config;
  Memory Mem;
  Interpreter Interp(Mem);
  BlockProfile Profile;
  Dbt Translator(Mem, Config);
  Translator.setBlockProfile(&Profile);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StopInfo Stop = Translator.run(Interp, 2000000);
  ASSERT_EQ(Stop.Kind, StopKind::Halted);
  uint64_t FirstTotal = Profile.totalBlockExecs();
  uint64_t FirstLoop = Profile.execCount(LoopAddr);
  ASSERT_GT(FirstLoop, 0u);

  Translator.degradeToConservative(); // Flushes every translation.
  Interp.state().PC = Translator.resolveGuestTarget(MainAddr);
  Stop = Translator.run(Interp, 2000000);
  ASSERT_EQ(Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Profile.totalBlockExecs(), 2 * FirstTotal);
  EXPECT_EQ(Profile.execCount(LoopAddr), 2 * FirstLoop);
  EXPECT_EQ(Profile.edgeCount(LoopAddr, LoopAddr), 2 * 98u);
}

TEST(BlockProfileTest, DisabledProfilingOverheadGate) {
  // The profiling analogue of TelemetryOverheadTest: with no profile
  // attached no Prof instructions are emitted and the interpreter's
  // dispatch loop must stay within the same <=2% envelope. The bound
  // profile is attached to the interpreter only (native load emits no
  // Prof), isolating the pure dispatch-loop cost of the hook.
  AsmProgram Program = assembleWorkload("181.mcf");
  constexpr uint64_t Budget = 200000;

  auto TimedRun = [&Program](bool WithProfileBound) {
    Memory Mem;
    Interpreter Interp(Mem);
    BlockProfile Profile;
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    if (WithProfileBound)
      Interp.setBlockProfile(&Profile);
    double Begin = threadCpuSeconds();
    Interp.run(Budget);
    return threadCpuSeconds() - Begin;
  };

  double Overhead = test::settledOverhead(TimedRun, 0.02);
  EXPECT_LE(Overhead, 0.02)
      << "disabled-profiling overhead on the dispatch hot loop: "
      << Overhead * 100 << "%";
}

} // namespace
