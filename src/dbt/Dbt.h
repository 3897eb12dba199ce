//===- Dbt.h - Dynamic binary translator ------------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic binary translator of Section 5, structured like the
/// paper's Figure 11:
///
///  * Runtime  — loads the program image (guest code pages readable but
///    not executable, so wild jumps out of the code cache trap: the
///    category-F detector), initializes the signature registers, services
///    code-cache exits, and handles write-protection faults from
///    self-modifying code by flushing and unchaining translations.
///  * Frontend — translates guest basic blocks on demand into the code
///    cache, weaving in the configured control-flow checker's prologue
///    and exit updates, and chains direct exits (patching the Tramp exit
///    into a plain jmp once the target is translated). An eager mode
///    translates the whole program up front from the CFG — what CFCSS
///    and ECCA require and the paper's DBT could not do.
///  * Backend  — optional optimizations: superblock formation along
///    unconditional chains and peephole folding of adjacent signature
///    updates (legal because signatures only need checking, not
///    observing, between updates — the same algebraic slack the paper's
///    relaxed checking policies exploit).
///
/// All control transfers in translated code go through:
///   direct:   [updates] tramp <guest-target>        (patched to jmp)
///   cond:     [updates] jcc cc, +8-to-taken-stub; tramp <fall>;
///             taken-stub: tramp <taken>
///   call:     [updates] movi aux2, <guest-return>; push aux2;
///             tramp <callee>
///   ret:      pop aux2; [updates]; trampr aux2
///   indirect: [updates]; trampr <reg>   (callr also pushes the return)
///
/// The guest return addresses kept on the stack are guest addresses, so
/// the block-address-as-signature scheme maps dynamic targets to
/// signatures for free (Section 5's "the address to signature mapping has
/// no cost").
///
//===----------------------------------------------------------------------===//

#ifndef CFED_DBT_DBT_H
#define CFED_DBT_DBT_H

#include "asm/Assembler.h"
#include "cfc/Checker.h"
#include "cfc/ShadowStack.h"
#include "dbt/BlockTable.h"
#include "telemetry/BlockProfile.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Metrics.h"
#include "telemetry/Profile.h"
#include "telemetry/Provenance.h"
#include "telemetry/Trace.h"
#include "vm/Interp.h"
#include "vm/Memory.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace cfed {

/// Translation tiers. Base translates block-at-a-time on first dispatch
/// (plus optional superblock fusion along unconditional chains). Opt
/// starts every block at Base and, once the attached block profile shows
/// a unit's head crossing the promotion threshold, retranslates the unit
/// as an optimized *trace*: multi-block fusion across the hotter side of
/// conditional branches (tail duplication), spine signature-update
/// folding with dead-update elimination, and adaptive per-region check
/// placement. (An interpreter-only "interp" tier exists at the CLI
/// level; it is the absence of a translator.)
enum class DbtTier : uint8_t { Base, Opt };

/// Returns "base" or "opt".
const char *getDbtTierName(DbtTier Tier);

/// Translator configuration.
struct DbtConfig {
  Technique Tech = Technique::None;
  UpdateFlavor Flavor = UpdateFlavor::Jcc;
  CheckPolicy Policy = CheckPolicy::AllBB;
  /// Patch direct exits into plain jumps once the target is translated.
  bool ChainDirectExits = true;
  /// Translate the whole program up front from the static CFG. Required
  /// by techniques with requiresWholeProgramCfg().
  bool EagerTranslate = false;
  /// Backend: maximum number of guest blocks fused into one superblock
  /// along unconditional direct chains (1 = off).
  unsigned SuperblockLimit = 1;
  /// Backend: peephole-fold adjacent signature updates.
  bool FoldSignatureUpdates = false;
  /// Layer SWIFT-style data-flow checking under the control-flow
  /// technique: duplicate computations into shadow registers and compare
  /// before stores/outputs (the paper's future-work extension; see
  /// cfc/DataFlow.h).
  bool DataFlowCheck = false;
  /// Self-integrity: lazily verify a translated block's integrity word
  /// every N dispatches that land on it (0 = off).
  uint64_t VerifyDispatchInterval = 0;
  /// Self-integrity: eagerly verify every live translation (the
  /// scrubber) once per N cache-exit dispatches (0 = off).
  uint64_t ScrubInterval = 0;
  /// Self-integrity: duplicate the runtime signature into shadow
  /// registers (RegPCPShadow/RegRTSShadow) and cross-check at CHECK_SIG
  /// sites, so a flipped signature variable reports monitor corruption
  /// (0x5EC) instead of a guest control-flow error.
  bool ShadowSignature = false;
  /// Shadow return stack (adversarial mode): record each call's return
  /// site in a monitor-private ring and compare it at every return,
  /// trapping with 0x5AC on mismatch. Composable under any technique,
  /// like DataFlowCheck; catches forged returns whose attacker-chosen
  /// target carries a valid signature (see cfc/ShadowStack.h).
  bool ShadowStack = false;
  /// Translation tier (see DbtTier). Opt is incompatible with eager
  /// translation (the whole-program techniques freeze the translation
  /// set); load() silently falls back to Base there.
  DbtTier Tier = DbtTier::Base;
  /// Opt tier: maximum number of guest blocks fused into one trace
  /// (conditional and unconditional edges combined). Also raises the
  /// effective superblock limit for promoted translations.
  unsigned TraceLimit = 8;
  /// Opt tier: executions a unit head must accumulate before the unit
  /// is evicted and retranslated as an optimized trace.
  uint64_t PromoteThreshold = 16;
  /// Opt tier: the relaxed check policy applied to regions the profile
  /// has measured as hot (cold regions keep Policy). The default RetBE
  /// retains back-edge and return checks, so every loop still contains
  /// a checking block and the errant-flow watchdog stays anchored;
  /// sinking the remaining checks is detection-preserving because
  /// signature *updates* are still emitted in every block (the
  /// discrepancy persists until the next check — DESIGN.md §11).
  CheckPolicy HotPolicy = CheckPolicy::RetBE;
};

/// One translated guest block resident in the code cache.
struct TranslatedBlock {
  uint64_t GuestAddr = 0;
  uint64_t CacheAddr = 0;
  uint64_t CacheSize = 0;
  /// FNV-1a over the block's emitted cache bytes plus a sealed header of
  /// its entry metadata (GuestAddr/CacheAddr/CacheSize), computed when
  /// self-integrity checking is enabled and resealed after legitimate
  /// cache mutation (chain patches). 0 when integrity is off.
  uint64_t IntegrityWord = 0;
  /// Dispatches that landed on this block since its last lazy
  /// verification; reset when it reaches VerifyDispatchInterval.
  uint64_t Hits = 0;
  /// Cache-address ranges [begin, end) occupied by checker-emitted
  /// instrumentation.
  std::vector<std::pair<uint64_t, uint64_t>> InstrRanges;
  /// Guest address of the head block of the translation unit this entry
  /// belongs to. Sub-blocks of one superblock/trace share a head (and a
  /// unit end), which makes the unit enumerable from any member —
  /// quarantine, flight-recorder bundles and --dump-cache all see
  /// traces as chained units.
  uint64_t UnitHead = 0;
  /// Guest blocks fused into this translation unit (1 = unfused).
  uint32_t UnitBlocks = 1;
  /// Conditional-branch seams fused along the unit's spine (nonzero
  /// only for traces formed by the optimizing tier).
  uint32_t CondSeams = 0;
  /// True when this unit was produced by the optimizing tier's
  /// promotion pass (hot-trace retranslation).
  bool Promoted = false;

  bool containsCacheAddr(uint64_t Addr) const {
    return Addr >= CacheAddr && Addr < CacheAddr + CacheSize;
  }
  bool isInstrumentation(uint64_t Addr) const {
    for (const auto &[Begin, End] : InstrRanges)
      if (Addr >= Begin && Addr < End)
        return true;
    return false;
  }
};

/// A guest-consistent re-entry point in the code cache: the first
/// instruction of a registered sub-block's prologue. At these cache
/// addresses all architectural state is guest state (no partially
/// executed block), so the recovery subsystem may checkpoint there and
/// resume from the corresponding guest address after a rollback.
struct SafePointInfo {
  /// Guest address of the sub-block entered here (guest code lies below
  /// 4 GiB, so 32 bits keep a table slot at one cache word's size).
  uint32_t GuestAddr = 0;
  /// True when the checker emitted a signature *check* (not just an
  /// update) in this prologue — the anchors the errant-flow watchdog
  /// counts instructions between.
  bool Checked = false;
  /// False for table slots of cache words that are not safe points.
  bool Live = false;
};
static_assert(CodeBase + CodeMaxSize <= UINT32_MAX,
              "SafePointInfo::GuestAddr holds any guest code address");

/// A branch fault site discovered in translated code.
struct BranchSiteInfo {
  uint64_t CacheAddr = 0;
  Opcode Op = Opcode::Nop;
  bool IsInstrumentation = false;
  /// Guest address of the translated block containing the site.
  uint64_t GuestBlock = 0;
};

/// The translator. Owns the code cache region inside the given Memory and
/// acts as the interpreter's DbtHooks.
class Dbt : public DbtHooks {
public:
  /// \p Metrics is the registry this translator publishes its counters
  /// into; when null the translator owns a private registry, which keeps
  /// per-instance counts isolated (parallel fault campaigns create many
  /// concurrent translators). The CLI tools pass
  /// telemetry::MetricsRegistry::global().
  Dbt(Memory &Mem, DbtConfig Config,
      telemetry::MetricsRegistry *Metrics = nullptr);
  ~Dbt() override;

  /// Loads \p Program in translated mode, prepares the checker (eager
  /// CFG when required), translates the entry and points \p State at it.
  /// Returns false when the configured technique cannot instrument the
  /// program (e.g. CFCSS with indirect calls) or is incompatible with
  /// on-demand mode.
  bool load(const AsmProgram &Program, CpuState &State);

  /// Runs \p Interp (whose state was set up by load) to completion under
  /// this translator's hooks.
  StopInfo run(Interpreter &Interp, uint64_t MaxInsns);

  // DbtHooks:
  uint64_t onDirectExit(uint64_t SiteAddr, uint64_t GuestTarget) override;
  uint64_t onIndirectExit(uint64_t SiteAddr, uint64_t GuestTarget) override;
  bool onWriteViolation(uint64_t DataAddr) override;

  /// Live translated blocks, in translation order. Use
  /// blocks().find(GuestAddr) for keyed lookup.
  const BlockTable<TranslatedBlock> &blocks() const { return BlockMap; }

  /// Returns the translated block whose cache range contains \p Addr, or
  /// nullptr (stale translations from before a flush are not included).
  const TranslatedBlock *cacheBlockContaining(uint64_t Addr) const;

  /// The safe point at \p CacheAddr, or nullptr when the address is not
  /// the entry of a live translation's registered sub-block. Cleared on
  /// flush; repopulated as blocks retranslate. One bounds check and one
  /// table load: the recovery hook asks on every executed instruction.
  const SafePointInfo *safePointAt(uint64_t CacheAddr) const {
    uint64_t Offset = CacheAddr - CacheBase;
    if (Offset % InsnSize != 0 || Offset / InsnSize >= SafePoints.size())
      return nullptr;
    const SafePointInfo &SP = SafePoints[Offset / InsnSize];
    return SP.Live ? &SP : nullptr;
  }
  /// Number of live safe points.
  uint64_t safePointCount() const { return NumSafePoints; }

  /// True when at least one live safe point carries a signature check —
  /// the precondition for the errant-flow watchdog to be meaningful.
  bool hasCheckSites() const { return NumCheckSites > 0; }

  /// Public lookup for the recovery subsystem: cache address to resume at
  /// for \p GuestAddr (translating on demand if needed), or \p GuestAddr
  /// itself when it is not translatable.
  uint64_t resolveGuestTarget(uint64_t GuestAddr) {
    return lookupOrTranslate(GuestAddr);
  }

  /// Best-effort guest attribution of a stop: maps a code-cache PC back
  /// to the guest address of the innermost sub-block containing it;
  /// non-cache PCs pass through unchanged.
  uint64_t guestPCFor(uint64_t PC) const;

  /// Flushes all translations and permanently reconfigures this
  /// translator conservatively: chaining off, superblocks off, signature
  /// folding off, AllBB check policy. The degradation ladder's first
  /// rung — subsequent retranslations maximize detection latency bounds
  /// at the cost of throughput.
  void degradeToConservative();

  /// Number of degradeToConservative() calls.
  uint64_t degradeCount() const { return Degrades.value(); }

  /// True when any self-integrity verification is configured (the
  /// dispatch verifier or the scrubber).
  bool integrityEnabled() const {
    return Config.VerifyDispatchInterval > 0 || Config.ScrubInterval > 0;
  }

  /// One eager scrubber pass: verifies every live translation's
  /// integrity word between sub-block safe points, quarantining and
  /// retranslating any corrupted unit. Returns the number of corrupted
  /// blocks found. Runs automatically every Config.ScrubInterval
  /// dispatches; public for tools and tests.
  size_t scrubCodeCache();

  /// Side-effect-free integrity probe of the translation of
  /// \p GuestAddr: no counters, no quarantine. Returns false when the
  /// integrity word does not match, true when the block is clean or not
  /// translated. The healing paths are dispatch verification, the
  /// scrubber and quarantineGuestBlock().
  bool verifyGuestBlock(uint64_t GuestAddr) const;

  /// Quarantines the translation unit containing the translation of
  /// \p GuestAddr: evicts its blocks, unchains patched predecessors,
  /// drops its IBTC entries, and retranslates the unit head. Returns
  /// true if a unit was quarantined. The recovery ladder uses this as
  /// the rung before degradeToConservative().
  bool quarantineGuestBlock(uint64_t GuestAddr);

  /// Scrubber passes completed ("integrity.scrubs").
  uint64_t integrityScrubCount() const { return IntegrityScrubs.value(); }
  /// Integrity-word / IBTC check-word mismatches found
  /// ("integrity.mismatches").
  uint64_t integrityMismatchCount() const {
    return IntegrityMismatches.value();
  }
  /// Self-healing retranslations after quarantine
  /// ("integrity.retranslations").
  uint64_t integrityRetranslationCount() const {
    return IntegrityRetranslations.value();
  }

  /// Attaches/detaches a flight recorder that receives a "quarantine"
  /// post-mortem bundle whenever an integrity mismatch evicts a unit.
  void setFlightRecorder(telemetry::FlightRecorder *R) { Recorder = R; }

  /// The configured control-flow checker (adversarial campaigns consult
  /// its acceptsForgedReturn oracle during gadget search).
  const ControlFlowChecker &checker() const { return *Checker; }

  /// Adversarial surface: redirects the IBTC entry of \p GuestTarget to
  /// the live translation of \p ForgedGuest, resealing the entry with a
  /// *valid* check word — modeling an attacker who understands the seal
  /// and swaps in another signature-carrying block. The swapped entry
  /// survives integrity verification by construction; whether the
  /// redirect survives the *signature* algebra is the technique's
  /// problem. Returns false when \p ForgedGuest has no live translation.
  bool attackSwapIbtcEntry(uint64_t GuestTarget, uint64_t ForgedGuest);

  /// Adversarial surface: patches the direct exit at cache address
  /// \p SiteAddr (a Tramp stub or an already-chained Jmp) to dispatch to
  /// \p ForgedGuest instead, and keeps the patch signature-compatible
  /// for the additive schemes by adjusting the immediately preceding
  /// lea signature update (when there is one) by the target delta. The
  /// integrity word is deliberately NOT resealed: this is the SMC-style
  /// code patch the scrubber/dispatch verifier exist to catch. Returns
  /// false when the site does not hold a patchable direct exit or the
  /// forged target is not translated.
  bool attackPatchDirectExit(uint64_t SiteAddr, uint64_t ForgedGuest);

  /// Fault surface for the checker-targeted injection campaigns: flips
  /// bit \p Bit of metadata word \p Word (0 = GuestAddr, 1 = CacheAddr,
  /// 2 = CacheSize) of the \p Index-th live translated block
  /// (translation order). Returns false when no block exists.
  bool faultFlipBlockMetaBit(size_t Index, unsigned Word, unsigned Bit);
  /// Flips bit \p Bit of the cached target address of the \p Index-th
  /// occupied IBTC entry. Returns false when the IBTC is empty.
  bool faultFlipIbtcBit(size_t Index, unsigned Bit);

  /// Guest program entry and code segment, as captured by load().
  uint64_t guestEntry() const { return GuestEntry; }
  uint64_t guestCodeBase() const { return GuestCodeBase; }
  uint64_t guestCodeSize() const { return GuestCodeSize; }

  /// Descriptive reason for the most recent load() failure.
  const std::string &loadError() const { return LoadError; }

  /// Scans all live translations for offset-branch instructions — the
  /// fault sites of the error model. Call after a warm-up run so that
  /// chaining has stabilized the code.
  std::vector<BranchSiteInfo> enumerateBranchSites() const;

  /// Number of block translations performed (includes re-translations
  /// after self-modification flushes). Served from the metrics registry
  /// ("dbt.translations"), as are all the counters below.
  uint64_t translationCount() const { return Translations.value(); }
  /// Number of cache-exit dispatches serviced ("dbt.dispatches").
  uint64_t dispatchCount() const { return Dispatches.value(); }
  /// Indirect-branch translation cache hits: TrampR exits answered from
  /// the direct-mapped guest→cache table without a block-table lookup
  /// ("dbt.ibtc_hits").
  uint64_t ibtcHitCount() const { return IbtcHits.value(); }
  /// Indirect-branch dispatches that fell through to the full lookup
  /// ("dbt.ibtc_misses").
  uint64_t ibtcMissCount() const { return IbtcMisses.value(); }
  /// Number of full cache flushes ("dbt.flushes").
  uint64_t flushCount() const { return Flushes.value(); }
  /// Number of signature updates removed by the backend peephole
  /// ("dbt.folded_updates").
  uint64_t foldedUpdateCount() const { return FoldedUpdates.value(); }
  /// Number of direct exits patched into plain jumps ("dbt.chains").
  uint64_t chainCount() const { return Chains.value(); }
  /// Hot units retranslated as optimized traces ("trace.promotions").
  uint64_t tracePromotionCount() const { return TracePromotions.value(); }
  /// Promoted translations that fused at least two guest blocks
  /// ("trace.formed").
  uint64_t traceCount() const { return TracesFormed.value(); }
  /// Conditional-branch seams fused into trace spines
  /// ("trace.cond_fusions").
  uint64_t traceCondFusionCount() const { return TraceCondFusions.value(); }
  /// Signature checks elided by adaptive per-region check placement
  /// relative to the configured policy ("trace.checks_elided").
  uint64_t checksElidedCount() const { return TraceChecksElided.value(); }
  /// Signature updates that folded to identity and were rewritten to
  /// Nop by the backend ("trace.dead_updates").
  uint64_t deadUpdateCount() const { return TraceDeadUpdates.value(); }

  /// The registry this translator's counters live in (the injected one,
  /// or the private default).
  telemetry::MetricsRegistry &metrics() { return *Metrics; }
  const telemetry::MetricsRegistry &metrics() const { return *Metrics; }

  /// Attaches/detaches a structured event tracer. Null disables tracing
  /// (the default); events are timestamped with the interpreter's guest
  /// instruction count once run() binds one.
  void setTracer(telemetry::EventTracer *T) { Tracer = T; }
  telemetry::EventTracer *tracer() const { return Tracer; }

  /// Attaches/detaches a phase profiler (translate/execute scopes).
  void setProfiler(telemetry::PhaseProfiler *P) { Profiler = P; }
  telemetry::PhaseProfiler *profiler() const { return Profiler; }

  /// Attaches/detaches a block-execution profile. When attached, every
  /// translated sub-block gets a Prof counter bump in its prologue and
  /// each direct exit stub gets an edge bump, and superblock fusion only
  /// extends into targets the profile has observed as hot (first-seen
  /// order until the profile warms up). Null (the default) emits nothing
  /// and costs nothing.
  void setBlockProfile(telemetry::BlockProfile *P) { Profile = P; }
  telemetry::BlockProfile *blockProfile() const { return Profile; }

  /// Attaches/detaches a digest recorder (DESIGN.md §14). When attached
  /// *before translation*, every sub-block gets one Digest capture
  /// marker after its guest body and before the checker's exit updates,
  /// and run() binds the recorder to the interpreter in Marker mode.
  /// Null (the default) emits nothing and costs nothing. Note that
  /// attaching changes the code-cache layout, so a provenance-enabled
  /// campaign is only comparable against a provenance-enabled golden
  /// run.
  void setDigestRecorder(telemetry::DigestRecorder *R) { DigestRec = R; }
  telemetry::DigestRecorder *digestRecorder() const { return DigestRec; }

  /// Assembles a post-mortem bundle for \p Stop: stop classification,
  /// guest-attributed PC, CPU state, trace events (when a tracer is
  /// attached), a metrics snapshot, and guest/host disassembly of the
  /// faulting block. Callers add recovery status and annotations before
  /// handing the bundle to a FlightRecorder.
  telemetry::PostMortem buildPostMortem(const char *Reason,
                                        const StopInfo &Stop,
                                        const Interpreter &Interp) const;

  const DbtConfig &config() const { return Config; }

  /// The translator's dynamic state at an instruction boundary (defined
  /// below): what a translator freshly loaded from the same program and
  /// configuration needs, besides memory and CPU state, to resume a run
  /// from there.
  class Snapshot;

  /// Captures the translation layout (block table, safe points, retired
  /// ranges, chain patches, cache allocation point, and the config,
  /// which self-modification may change), the occupied IBTC entries, the
  /// write-protection and scrub-cadence state, the registry counter
  /// values and, on the opt tier, the owned block profile.
  Snapshot capture() const;

  /// Restores \p S into this translator, which must have been loaded
  /// from the program and configuration \p S was captured under.
  /// Attached tracers, recorders and profilers are kept.
  void restore(const Snapshot &S);

private:
  struct ChainPatch {
    uint64_t SiteAddr;
    uint64_t GuestTarget;
  };

  /// Translates the block entered at \p GuestAddr (and possibly
  /// following blocks into a superblock or, when Promoting, a trace);
  /// returns its cache address.
  uint64_t translate(uint64_t GuestAddr);
  uint64_t lookupOrTranslate(uint64_t GuestTarget);
  /// lookupOrTranslate returning the block: nullptr when \p GuestTarget
  /// is not translatable (it executes raw). One BlockMap probe on a hit.
  TranslatedBlock *lookupOrTranslateBlock(uint64_t GuestTarget);
  /// Resolves a dispatch to \p GuestTarget: looks it up (translating on
  /// a miss), then runs lazy dispatch verification and opt-tier
  /// promotion on the block found. Probes BlockMap again only when a
  /// quarantine or promotion changed it. nullptr means a raw target.
  TranslatedBlock *resolveDispatch(uint64_t GuestTarget);
  void flushTranslations();
  void reprotectCodePages();

  /// Opt tier: when the unit of \p TB (\p GuestTarget's live block, or
  /// nullptr) has crossed the promotion threshold, evicts the unit and
  /// retranslates it as an optimized trace. Returns true when it did,
  /// with \p TB re-resolved to \p GuestTarget's new block.
  bool maybePromote(uint64_t GuestTarget, TranslatedBlock *&TB);
  /// Chooses the check policy for the region headed at \p RegionHead:
  /// the configured policy for cold regions, the relaxed HotPolicy once
  /// the profile shows the head past the promotion threshold (opt tier
  /// only).
  CheckPolicy regionPolicy(uint64_t RegionHead) const;

  /// Trace timestamp: the bound interpreter's instruction count.
  uint64_t now() const {
    return ClockSource ? ClockSource->instructionCount() : 0;
  }

  /// One entry of the indirect-branch translation cache: a direct-mapped
  /// guest→cache-address table consulted before the block-table lookup on
  /// every TrampR exit (the DBT analogue of a hardware BTB). Check seals
  /// the (Guest, Cache) pair so that a flipped entry is dropped on hit
  /// instead of redirecting control (verified only when self-integrity
  /// checking is enabled).
  struct IbtcEntry {
    uint64_t Guest = ~0ULL;
    uint64_t Cache = 0;
    uint64_t Check = 0;
  };
  static constexpr size_t IbtcSlots = 512; // Power of two.

  /// Seals an IBTC entry: a cheap two-multiply mix of (Guest, Cache),
  /// never zero so a cleared entry cannot masquerade as sealed.
  static uint64_t ibtcCheckWord(uint64_t Guest, uint64_t Cache);

  /// FNV-1a over the block's cache byte range plus its sealed entry
  /// metadata (guest address, cache address, size).
  uint64_t computeIntegrityWord(const TranslatedBlock &TB) const;
  /// Plausibility-checks \p TB's metadata and recomputes its integrity
  /// word. False means the block (or its table entry) is corrupted.
  bool verifyIntegrityWord(const TranslatedBlock &TB) const;
  /// Recomputes the integrity words of every live block whose range
  /// contains \p CacheAddr (after a legitimate chain-patch write).
  void resealBlocksContaining(uint64_t CacheAddr);
  /// Lazy per-dispatch verification of \p TB, the dispatch target's
  /// live block (nullptr: nothing to verify). Returns true when a
  /// mismatch was found and the unit was quarantined (the caller must
  /// re-resolve the target).
  bool dispatchVerify(TranslatedBlock *TB);
  /// Runs a scrubber pass when the dispatch-count interval expired.
  void maybeScrub();
  /// Evicts the translation unit ending at \p UnitEnd: drops its blocks,
  /// safe points, IBTC entries, and chain bookkeeping, unchains patched
  /// predecessors, and retranslates the unit head when possible.
  /// \p Origin tags the flight-recorder bundle ("scrub",
  /// "dispatch-verify", "recovery").
  void quarantineUnit(uint64_t UnitEnd, const char *Origin);
  /// The eviction half of quarantineUnit, shared with trace promotion
  /// (which evicts clean units without diagnostics or retranslation).
  /// Returns the unit's head guest address, or ~0 when no live block
  /// belongs to the unit.
  uint64_t evictUnit(uint64_t UnitEnd);

  Memory &Mem;
  DbtConfig Config;
  /// Owned storage when no registry was injected.
  std::unique_ptr<telemetry::MetricsRegistry> OwnedMetrics;
  telemetry::MetricsRegistry *Metrics;
  std::unique_ptr<ControlFlowChecker> Checker;
  ShadowStackChecker ShadowStack;
  BlockTable<TranslatedBlock> BlockMap;
  /// Safe points indexed by (cache address - CacheBase) / InsnSize,
  /// sized to the allocated cache: one 8-byte slot per cache word.
  std::vector<SafePointInfo> SafePoints;
  uint64_t NumSafePoints = 0;
  /// Cache ranges whose translations were evicted (trace promotion,
  /// quarantine) but whose bytes stay allocated. Branch-site
  /// enumeration still reports them: a fault campaign's golden run
  /// executes the pre-promotion translation during warm-up, so its
  /// instrumentation branches must keep classifying as instrumentation
  /// after the promoted trace replaces them in the block table.
  struct RetiredRange {
    uint64_t Begin = 0;
    uint64_t End = 0;
    uint64_t GuestHead = 0;
    std::vector<std::pair<uint64_t, uint64_t>> InstrRanges;
  };
  std::vector<RetiredRange> Retired;
  uint64_t NumCheckSites = 0;
  std::string LoadError;
  std::array<IbtcEntry, IbtcSlots> Ibtc;
  std::vector<ChainPatch> Patches;
  uint64_t CacheAlloc;      ///< Next free cache address.
  uint64_t GuestCodeBase = 0;
  uint64_t GuestCodeSize = 0;
  uint64_t GuestEntry = 0;
  bool CodePagesWritable = false;
  // Registry-backed counters, cached once at construction so the hot
  // paths bump them without name lookups.
  telemetry::Counter &Translations;
  telemetry::Counter &Dispatches;
  telemetry::Counter &Chains;
  telemetry::Counter &IbtcHits;
  telemetry::Counter &IbtcMisses;
  telemetry::Counter &Flushes;
  telemetry::Counter &FoldedUpdates;
  telemetry::Counter &SuperblockFusions;
  telemetry::Counter &Degrades;
  telemetry::Counter &IntegrityScrubs;
  telemetry::Counter &IntegrityMismatches;
  telemetry::Counter &IntegrityRetranslations;
  telemetry::Counter &TracePromotions;
  telemetry::Counter &TracesFormed;
  telemetry::Counter &TraceCondFusions;
  telemetry::Counter &TraceChecksElided;
  telemetry::Counter &TraceDeadUpdates;
  /// Cache-exit dispatches since the last scrubber pass.
  uint64_t DispatchesSinceScrub = 0;
  /// True while translate() runs on behalf of a trace promotion: fusion
  /// crosses hot conditional seams (with tail duplication), the backend
  /// folds the spine, and only the unit head is registered.
  bool Promoting = false;
  telemetry::FlightRecorder *Recorder = nullptr;
  telemetry::EventTracer *Tracer = nullptr;
  telemetry::PhaseProfiler *Profiler = nullptr;
  telemetry::BlockProfile *Profile = nullptr;
  telemetry::DigestRecorder *DigestRec = nullptr;
  /// The opt tier needs hotness data to promote; when no profile was
  /// attached, load() creates this private one.
  std::unique_ptr<telemetry::BlockProfile> OwnedProfile;
  const Interpreter *ClockSource = nullptr;
  /// Leaders from the assembler side table (eager mode).
  std::vector<uint64_t> EagerLeaders;
};

/// See Dbt::capture().
class Dbt::Snapshot {
public:
  /// Approximate heap bytes held.
  size_t bytes() const;

private:
  friend class Dbt;
  DbtConfig Config;
  BlockTable<TranslatedBlock> BlockMap;
  std::vector<SafePointInfo> SafePoints;
  uint64_t NumSafePoints = 0;
  uint64_t NumCheckSites = 0;
  std::vector<RetiredRange> Retired;
  std::vector<ChainPatch> Patches;
  uint64_t CacheAlloc = 0;
  /// Occupied IBTC entries by slot.
  std::vector<std::pair<uint32_t, IbtcEntry>> Ibtc;
  bool CodePagesWritable = false;
  uint64_t DispatchesSinceScrub = 0;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  /// The owned opt-tier profile (null on the base tier).
  std::shared_ptr<const telemetry::BlockProfile> Profile;
};

} // namespace cfed

#endif // CFED_DBT_DBT_H
