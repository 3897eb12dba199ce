//===- Recovery.cpp - Checkpoint/rollback error recovery -------------------===//

#include "recovery/Recovery.h"

#include "support/Format.h"
#include "vm/Layout.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace cfed;

RecoveryManager::RecoveryManager(Interpreter &Interp, Dbt &Translator,
                                 RecoveryConfig Config)
    : Interp(Interp), Translator(Translator), Config(Config),
      CkptCounter(Translator.metrics().counter("recovery.checkpoints")),
      RollbackCounter(Translator.metrics().counter("recovery.rollbacks")),
      WatchdogCounter(
          Translator.metrics().counter("recovery.watchdog_fires")),
      DegradeCounter(Translator.metrics().counter("recovery.degradations")),
      FallbackCounter(
          Translator.metrics().counter("recovery.interp_fallbacks")) {
  if (this->Config.MaxCheckpoints == 0)
    this->Config.MaxCheckpoints = 1;
}

RecoveryManager::~RecoveryManager() = default;

void RecoveryManager::onPageDirtied(uint64_t PageBase,
                                    const uint8_t *OldBytes) {
  if (InRestore || Checkpoints.empty())
    return;
  Checkpoint &CP = Checkpoints.back();
  auto [It, Inserted] = CP.UndoLog.try_emplace(PageBase);
  if (!Inserted)
    return; // Already have this page's pre-image for this checkpoint.
  It->second.assign(OldBytes, OldBytes + PageSize);
  CP.UndoBytes += PageSize;
}

void RecoveryManager::onInsn(uint64_t InsnAddr, const Instruction &I,
                             CpuState &State) {
  if (!Fallback) {
    if (const SafePointInfo *SP = Translator.safePointAt(InsnAddr)) {
      // The hook runs after the counters were charged for this
      // instruction but before it executes; the checkpointed counts must
      // not include it (it re-executes after a rollback).
      uint64_t InsnsNow = Interp.instructionCount() - 1;
      uint64_t CyclesNow = Interp.cycleCount() - getOpcodeCost(I.Op);
      if (SP->Checked)
        LastCheck = InsnsNow;
      bool IntervalDue =
          InsnsNow - CheckpointInsns >= Config.CheckpointInterval;
      bool BudgetDue = totalUndoBytes() > Config.MemoryBudget;
      if (Checkpoints.empty() || IntervalDue || BudgetDue)
        takeCheckpoint(SP->GuestAddr, InsnsNow, CyclesNow);
    }
  }
  if (SavedHook)
    SavedHook->onInsn(InsnAddr, I, State);
}

uint64_t RecoveryManager::totalUndoBytes() const {
  uint64_t Total = 0;
  for (const Checkpoint &CP : Checkpoints)
    Total += CP.UndoBytes;
  return Total;
}

void RecoveryManager::takeCheckpoint(uint64_t GuestPC, uint64_t InsnsNow,
                                     uint64_t CyclesNow) {
  Checkpoints.emplace_back();
  Checkpoint &CP = Checkpoints.back();
  CP.GuestPC = GuestPC;
  CP.State = Interp.state();
  CP.Insns = InsnsNow;
  CP.Cycles = CyclesNow;
  CP.OutputLen = Interp.output().size();
  while (Checkpoints.size() > Config.MaxCheckpoints)
    Checkpoints.pop_front();
  // New epoch: the next write to any tracked page lands in this
  // checkpoint's undo log.
  Interp.memory().resetWriteEpoch();
  CheckpointInsns = InsnsNow;
  ++Report.NumCheckpoints;
  CkptCounter.inc();
  if (telemetry::EventTracer *T = Translator.tracer())
    T->record(InsnsNow, telemetry::TraceEventKind::CheckpointTaken, nullptr,
              GuestPC, Checkpoints.size());
}

uint64_t RecoveryManager::rollbackTo(size_t Depth) {
  assert(!Checkpoints.empty() && "rollback without a checkpoint");
  Depth = std::min(Depth, Checkpoints.size());
  size_t Target = Checkpoints.size() - Depth;

  // Apply undo logs newest-first so that where logs overlap the older
  // pre-image (the state at the older checkpoint) wins.
  Memory &Mem = Interp.memory();
  InRestore = true;
  for (size_t Index = Checkpoints.size(); Index-- > Target;)
    for (const auto &[PageBase, Bytes] : Checkpoints[Index].UndoLog)
      Mem.writeRaw(PageBase, Bytes.data(), PageSize);
  InRestore = false;

  Checkpoints.resize(Target + 1);
  Checkpoint &CP = Checkpoints.back();
  CP.UndoLog.clear();
  CP.UndoBytes = 0;
  Mem.resetWriteEpoch();

  CpuState Restored = CP.State;
  Restored.PC = Translator.resolveGuestTarget(CP.GuestPC);
  Interp.state() = Restored;
  Interp.restoreProgress(CP.Insns, CP.Cycles, CP.OutputLen);
  CheckpointInsns = CP.Insns;
  LastCheck = CP.Insns; // The checkpoint is the new watchdog anchor.
  return CP.GuestPC;
}

void RecoveryManager::dumpPostMortem(const char *Reason,
                                     const StopInfo &Stop) {
  if (!Recorder)
    return;
  telemetry::PostMortem PM = Translator.buildPostMortem(Reason, Stop, Interp);
  PM.Recovery.Present = true;
  PM.Recovery.Checkpoints = Report.NumCheckpoints;
  PM.Recovery.Rollbacks = Report.NumRollbacks;
  PM.Recovery.WatchdogFires = Report.NumWatchdogFires;
  PM.Recovery.RingDepth = Checkpoints.size();
  PM.Recovery.Degraded = Report.Degraded;
  PM.Recovery.InterpreterFallback = Report.InterpreterFallback;
  Recorder->write(PM);
}

void RecoveryManager::enterInterpreterFallback(const StopInfo &Stop) {
  FallbackCounter.inc();
  if (telemetry::EventTracer *T = Translator.tracer())
    T->record(Interp.instructionCount(),
              telemetry::TraceEventKind::InterpreterFallback);
  uint64_t GuestPC = rollbackTo(Checkpoints.size());
  // Abandon translation: run the guest pages directly. Translated calls
  // pushed *guest* return addresses, so the guest stack is directly
  // consumable by raw guest code.
  if (Translator.guestCodeSize() > 0)
    Interp.memory().setPerms(Translator.guestCodeBase(),
                             Translator.guestCodeSize(), PermRX);
  Interp.state().PC = GuestPC;
  Fallback = true;
  Report.InterpreterFallback = true;
  dumpPostMortem("interpreter-fallback", Stop);
}

void RecoveryManager::recover(uint64_t SiteKey, const StopInfo &Stop) {
  telemetry::PhaseProfiler::Scope Timer(Translator.profiler(),
                                        telemetry::Phase::Recover);
  ++TotalRollbacks;
  ++Report.NumRollbacks;
  RollbackCounter.inc();
  if (telemetry::EventTracer *T = Translator.tracer())
    T->record(Interp.instructionCount(), telemetry::TraceEventKind::Rollback,
              nullptr, SiteKey, TotalRollbacks);
  if (TotalRollbacks > Config.MaxTotalRollbacks) {
    enterInterpreterFallback(Stop);
    return;
  }
  unsigned &SiteCount = SiteRollbacks[SiteKey];
  ++SiteCount;
  if (SiteCount > Config.MaxSiteRollbacks) {
    // Self-integrity rung: before the whole-cache degradation, try to
    // surgically quarantine and retranslate just the failing site's
    // translation unit — this cures persistent corruption confined to
    // one translation (flipped code-cache bytes, a mangled table
    // entry). Granted once per site; a repeat escalation climbs on.
    if (!Fallback && QuarantinedSites.insert(SiteKey).second &&
        Translator.quarantineGuestBlock(SiteKey)) {
      SiteCount = 0;
      dumpPostMortem("quarantine-retranslate", Stop);
      rollbackTo(Checkpoints.size());
      return;
    }
    // Same region keeps failing: flush and retranslate conservatively,
    // and roll back as deep as the ring allows in case a corrupted
    // checkpoint is what keeps bringing us back here.
    Translator.degradeToConservative();
    Report.Degraded = true;
    DegradeCounter.inc();
    SiteRollbacks.clear();
    dumpPostMortem("degradation", Stop);
    rollbackTo(Checkpoints.size());
    return;
  }
  rollbackTo(1);
}

RecoveryReport RecoveryManager::run(uint64_t MaxInsns) {
  Report = RecoveryReport();
  Checkpoints.clear();
  SiteRollbacks.clear();
  QuarantinedSites.clear();
  TotalRollbacks = 0;
  Fallback = false;

  Memory &Mem = Interp.memory();
  // Splice in front of any existing per-instruction hook (a fault
  // injector, typically) and forward to it from onInsn.
  SavedHook = Interp.preInsnHook();
  Interp.setPreInsnHook(this);
  Interp.setDbtHooks(&Translator);
  Mem.setWriteObserver(this, CacheBase);

  // Seed checkpoint: the program entry is trivially a safe point.
  takeCheckpoint(Translator.guestEntry(), Interp.instructionCount(),
                 Interp.cycleCount());

  uint64_t TotalBudgetFactor = Config.MaxTotalRollbacks + 2ull;
  uint64_t TotalBudget = MaxInsns > ~0ull / TotalBudgetFactor
                             ? ~0ull
                             : MaxInsns * TotalBudgetFactor;

  StopInfo Stop;
  for (;;) {
    uint64_t Progress = Interp.instructionCount();
    if (Progress >= MaxInsns) {
      Stop.Kind = StopKind::InsnLimit;
      Stop.Trap = TrapKind::None;
      Stop.PC = Interp.state().PC;
      break;
    }
    uint64_t Slice = MaxInsns - Progress;
    // Armed whenever a checking technique is configured — not gated on
    // translated-so-far check sites: under on-demand translation with a
    // relaxed policy the first checked block may only be translated near
    // the end of the run, and a flow spinning check-free before that is
    // exactly what the watchdog must bound.
    bool WatchdogOn = !Fallback && Config.WatchdogBound > 0 &&
                      Translator.config().Tech != Technique::None;
    if (WatchdogOn)
      Slice = std::min(Slice, Config.WatchdogBound);

    uint64_t Before = Interp.instructionCount();
    Stop = Interp.run(Slice);
    Report.TotalExecuted += Interp.instructionCount() - Before;

    if (Stop.Kind == StopKind::Halted)
      break;
    if (Report.TotalExecuted >= TotalBudget)
      break; // Livelock guard: stop with whatever the last slice said.

    if (Stop.Kind == StopKind::Trapped) {
      uint64_t GuestPC = Translator.guestPCFor(Stop.PC);
      Translator.metrics()
          .counter(std::string("trap.") + getTrapKindName(Stop.Trap))
          .inc();
      if (Stop.Trap == TrapKind::BreakTrap &&
          Stop.BreakCode == BrkShadowStackViolation)
        Translator.metrics().counter("recovery.shadow_stack_traps").inc();
      if (telemetry::EventTracer *T = Translator.tracer())
        T->record(Interp.instructionCount(),
                  telemetry::TraceEventKind::TrapRaised,
                  getTrapKindName(Stop.Trap), GuestPC);
      if (Report.FirstDetection.empty())
        Report.FirstDetection =
            formatTrapDiagnostic(Stop, Interp.state(), GuestPC);
      dumpPostMortem("trap", Stop);
      if (Fallback)
        break; // No further containment below the interpreter.
      recover(GuestPC, Stop);
      continue;
    }

    // InsnLimit inside a slice: check the watchdog, then keep running.
    if (WatchdogOn &&
        Interp.instructionCount() - LastCheck > Config.WatchdogBound) {
      ++Report.NumWatchdogFires;
      WatchdogCounter.inc();
      uint64_t GuestPC = Translator.guestPCFor(Interp.state().PC);
      if (telemetry::EventTracer *T = Translator.tracer())
        T->record(Interp.instructionCount(),
                  telemetry::TraceEventKind::WatchdogFire, nullptr, GuestPC,
                  Interp.instructionCount() - LastCheck);
      if (Report.FirstDetection.empty())
        Report.FirstDetection = formatString(
            "watchdog: %llu instructions since last signature check, "
            "guest-pc=0x%llx",
            static_cast<unsigned long long>(Interp.instructionCount() -
                                            LastCheck),
            static_cast<unsigned long long>(GuestPC));
      dumpPostMortem("watchdog", Stop);
      recover(GuestPC, Stop);
    }
  }

  Report.Completed = Stop.Kind == StopKind::Halted;
  Report.FinalStop = Stop;
  Report.GuestStopPC = Translator.guestPCFor(Stop.PC);

  Mem.setWriteObserver(nullptr, 0);
  Interp.setPreInsnHook(SavedHook);
  SavedHook = nullptr;
  Checkpoints.clear();
  return Report;
}
