//===- Campaign.h - Fault-injection campaigns -------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic single-bit fault-injection campaigns against translated
/// programs — the paper's future-work item ("soft-error injection to
/// measure the actual effectiveness"), used here to validate the
/// coverage claims of Sections 2-3 empirically.
///
/// A campaign runs in three phases:
///
///  1. prepare(): a golden run records the reference output hash, the
///     instruction budget, the stabilized code-cache layout and the
///     per-site dynamic branch execution counts (translation is
///     deterministic, so later runs reproduce the same cache layout),
///     and keeps up to MaxSnapshots snapshots of the run.
///  2. plan():    a planning run picks random dynamic branch instances
///     and one single-bit fault each (32 offset bits + 4 flag bits, as
///     in Section 2's model) and classifies each candidate's branch-error
///     category analytically, enabling stratified per-category sampling.
///  3. inject():  one run per planned fault, resumed at the last golden
///     snapshot before the fault fires (DESIGN.md §12); the outcome is
///     classified as detected-by-signature (the instrumentation's
///     .report_error, or ECCA's div-by-zero inside instrumentation),
///     detected-by-hardware (memory protection / illegal instruction —
///     the category-F detectors), masked (golden output), silent data
///     corruption, or timeout (the infinite-loop hazard of the relaxed
///     checking policies, Section 6).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_CAMPAIGN_H
#define CFED_FAULT_CAMPAIGN_H

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Category.h"
#include "fault/ErrorModel.h"
#include "recovery/Recovery.h"
#include "telemetry/Provenance.h"

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cfed {

/// Which single bit the fault flips.
enum class FaultKind : uint8_t {
  AddrBit, ///< One of the 32 bits of the branch's encoded offset.
  FlagBit, ///< One of the 4 FLAGS bits the branch observes.
};

/// Which fault sites a campaign draws from.
enum class SiteClass : uint8_t {
  Any,                  ///< Every offset branch in translated code.
  OriginalOnly,         ///< Branches translated from guest code.
  InstrumentationOnly,  ///< Branches the checker inserted (the RCF-vs-
                        ///< EdgCF safety experiment of Section 3.2).
};

/// One planned fault: XOR \p Mask into the offset or flag bits at the
/// \p Instance-th dynamic execution of a branch in the campaign's site
/// class. Under the single-bit model Mask has exactly one set bit and
/// \p Bit names it; multi-bit and burst masks keep Bit at the lowest
/// set bit for display.
struct PlannedFault {
  uint64_t Instance = 0;
  FaultKind Kind = FaultKind::AddrBit;
  unsigned Bit = 0;
  /// XOR mask over the 32 offset bits (AddrBit) or 4 flag bits
  /// (FlagBit). Never zero.
  uint64_t Mask = 1;
  /// The site class the instance index counts within.
  SiteClass Class = SiteClass::Any;
  /// Analytically determined branch-error category.
  BranchErrorCategory Category = BranchErrorCategory::NoError;
  /// The fault strikes an instrumentation-inserted branch.
  bool InstrSite = false;
  /// Cache address of the faulted branch.
  uint64_t SiteAddr = 0;
};

/// How one injected run ended. Keep NumOutcomes in sync.
enum class Outcome : uint8_t {
  DetectedSignature, ///< The checking technique reported the error.
  DetectedHardware,  ///< Memory protection / illegal instruction / trap.
  Masked,            ///< Run completed with the golden output.
  Sdc,               ///< Run completed with corrupted output.
  Timeout,           ///< Run exceeded the instruction budget.
  Recovered,         ///< Detected, rolled back, completed with the golden
                     ///< output (recovery campaigns only).
  RecoveryFailed,    ///< Detected and rolled back, but the run did not
                     ///< reproduce the golden output.
};

inline constexpr unsigned NumOutcomes = 7;

/// Returns a short display name for \p O.
const char *getOutcomeName(Outcome O);

/// The registry counter name tallying \p O for faults of category
/// \p Cat: "fault.cat_<category>.<outcome>".
std::string getOutcomeCounterName(BranchErrorCategory Cat, Outcome O);

/// Maps a campaign outcome down to the telemetry layer's propagation
/// outcome (Recovered folds to Detected and RecoveryFailed to Sdc, but
/// recovery campaigns do not track propagation today).
telemetry::PropOutcome toPropOutcome(Outcome O);

/// Counter name "prop.cat_<category>.<class>" for campaign aggregation.
std::string getPropagationCounterName(BranchErrorCategory Cat,
                                      telemetry::PropClass C);

/// Histogram name "prop.distance.cat_<category>": divergence-to-detection
/// distance in guest instructions for DetectedAfterDivergence injections.
std::string getPropagationDistanceName(BranchErrorCategory Cat);

/// Renders the per-category divergence→outcome funnel from the
/// prop.cat_*.* counters (and prop.distance.cat_* histograms) of
/// \p Snap as an aligned table with a totals row. Returns "" when the
/// snapshot carries no propagation tallies — callers print nothing for
/// non-propagation campaigns.
std::string renderPropagationFunnel(const telemetry::RegistrySnapshot &Snap);

/// Rebuilds per-category outcome tallies from the
/// "fault.cat_*.*" counters of \p Snap — the inverse of the tally pass
/// campaigns use, so results and telemetry can never disagree.
struct CampaignResult;
CampaignResult campaignResultFromSnapshot(
    const telemetry::RegistrySnapshot &Snap);

/// Full record of one injected run.
struct InjectionReport {
  Outcome Result = Outcome::Masked;
  /// Dynamic instructions executed between the fault firing and the run
  /// ending — for detected outcomes, the detection latency that the
  /// relaxed checking policies trade performance against (Section 6).
  uint64_t LatencyInsns = 0;
  /// The fault actually fired (always true when the instance index is
  /// within the golden run's branch count).
  bool Fired = false;
  /// Propagation provenance versus the golden digest oracle. Only
  /// populated (Prop.Enabled) when the campaign ran with
  /// enablePropagation(true).
  telemetry::PropagationReport Prop;
};

/// Outcome tallies.
struct OutcomeCounts {
  uint64_t DetectedSig = 0;
  uint64_t DetectedHw = 0;
  uint64_t Masked = 0;
  uint64_t Sdc = 0;
  uint64_t Timeout = 0;
  uint64_t Recovered = 0;
  uint64_t RecoveryFailed = 0;

  uint64_t total() const {
    return DetectedSig + DetectedHw + Masked + Sdc + Timeout + Recovered +
           RecoveryFailed;
  }
  void add(Outcome O);
  void merge(const OutcomeCounts &Other);

  bool operator==(const OutcomeCounts &Other) const {
    return DetectedSig == Other.DetectedSig && DetectedHw == Other.DetectedHw &&
           Masked == Other.Masked && Sdc == Other.Sdc &&
           Timeout == Other.Timeout && Recovered == Other.Recovered &&
           RecoveryFailed == Other.RecoveryFailed;
  }
  bool operator!=(const OutcomeCounts &Other) const {
    return !(*this == Other);
  }
};

/// Aggregated campaign results, bucketed by branch-error category.
struct CampaignResult {
  std::array<OutcomeCounts, NumBranchErrorCategories> PerCategory;
  uint64_t Injections = 0;

  OutcomeCounts &of(BranchErrorCategory Cat) {
    return PerCategory[static_cast<unsigned>(Cat)];
  }
  const OutcomeCounts &of(BranchErrorCategory Cat) const {
    return PerCategory[static_cast<unsigned>(Cat)];
  }
  OutcomeCounts totals() const;

  bool operator==(const CampaignResult &Other) const {
    return Injections == Other.Injections && PerCategory == Other.PerCategory;
  }
  bool operator!=(const CampaignResult &Other) const {
    return !(*this == Other);
  }
};

/// A fault-injection campaign against one program under one DBT
/// configuration.
class FaultCampaign {
public:
  FaultCampaign(const AsmProgram &Program, DbtConfig Config);

  /// Enables the fault-propagation provenance layer (DESIGN.md §14).
  /// Must be set before prepare(): the golden run then records the
  /// digest oracle, and every injection replays against it to fill
  /// InjectionReport::Prop. Attaching the digest recorder changes the
  /// code-cache layout (one Digest marker per sub-block), so results
  /// are comparable only within one enablePropagation setting.
  void enablePropagation(bool On) { PropEnabled = On; }
  bool propagationEnabled() const { return PropEnabled; }

  /// The golden digest oracle recorded by prepare() when propagation is
  /// enabled. ProgramFp/ConfigFp carry the golden output hash and
  /// instruction count — enough to reject an oracle file recorded from
  /// a different program or configuration.
  const telemetry::GoldenTrace &goldenTrace() const { return Golden; }

  /// Golden run. Returns false if the program fails to load or does not
  /// halt within \p MaxInsns.
  bool prepare(uint64_t MaxInsns);

  /// Plans \p NumCandidates random faults over the \p Sites class.
  /// Candidates whose fault provably does not deviate control flow are
  /// returned with Category == NoError; callers typically filter them.
  /// \p Model selects the mask shape (the default reproduces the
  /// Section 2 single-bit model draw-for-draw).
  std::vector<PlannedFault> plan(uint64_t NumCandidates, uint64_t Seed,
                                 SiteClass Sites,
                                 FaultModel Model = FaultModel::SingleBit);

  /// Executes one planned fault and classifies the outcome. Thread-safe
  /// after prepare(): every injection runs in a fresh Memory/Dbt/Interp
  /// instance and only reads campaign state.
  Outcome inject(const PlannedFault &Fault) const;

  /// Like inject(), additionally reporting detection latency. With a
  /// \p Recorder the run is traced from reset and one post-mortem bundle
  /// (reason "campaign-injection", annotated with the fault parameters
  /// and the outcome) is written per injection. Recorder use is
  /// serial-only.
  InjectionReport
  injectDetailed(const PlannedFault &Fault,
                 telemetry::FlightRecorder *Recorder = nullptr) const;

  /// Outcome of one injected run executed under a RecoveryManager.
  struct RecoveryInjection {
    Outcome Result = Outcome::Masked;
    /// The fault actually fired.
    bool Fired = false;
    /// Full recovery-subsystem record of the run.
    RecoveryReport Recovery;
  };

  /// Executes one planned fault under checkpoint/rollback recovery. A run
  /// that detects, rolls back and reproduces the golden output classifies
  /// as Recovered; a rolled-back run with wrong output or no forward
  /// progress classifies as RecoveryFailed. Thread-safe like inject().
  RecoveryInjection
  injectWithRecovery(const PlannedFault &Fault,
                     const RecoveryConfig &Recovery,
                     telemetry::FlightRecorder *Recorder = nullptr) const;

  /// The recovery-effectiveness phase: same plan and serial selection as
  /// run() (the fault sets are identical for equal NumInjections, Seed
  /// and Sites), but every injection executes under recovery. Results are
  /// byte-identical for any \p Jobs value.
  CampaignResult runWithRecovery(uint64_t NumInjections, uint64_t Seed,
                                 SiteClass Sites,
                                 const RecoveryConfig &Recovery,
                                 unsigned Jobs = 1);

  /// Runs a full campaign: plan, filter out NoError candidates, inject.
  /// With \p Jobs > 1 the injections execute on a thread pool; the fault
  /// selection and the merge stay serial and position-indexed, so the
  /// result is identical to the serial run for any job count.
  CampaignResult run(uint64_t NumInjections, uint64_t Seed, SiteClass Sites,
                     unsigned Jobs = 1);

  uint64_t goldenInsns() const { return GoldenInsns; }
  uint64_t goldenHash() const { return GoldenHash; }
  /// Dynamic branch executions in the golden run for \p Sites.
  uint64_t branchExecutions(SiteClass Sites) const {
    return Executions[static_cast<size_t>(Sites)];
  }

  /// Golden-run snapshots kept by prepare() (DESIGN.md §12): at most
  /// this many, the reset state first, then one at every multiple of a
  /// spacing that doubles whenever the list would overflow.
  static constexpr size_t MaxSnapshots = 32;
  /// Where one snapshot was taken.
  struct SnapshotPoint {
    /// Instructions retired before the snapshot.
    uint64_t Insns = 0;
    /// Branch executions before the snapshot, per SiteClass (indexed by
    /// its value).
    std::array<uint64_t, 3> Branches = {};
  };
  /// The snapshots' points, in run order.
  std::vector<SnapshotPoint> snapshotPoints() const;
  /// Approximate bytes the snapshots hold, counting shared page copies
  /// once.
  size_t snapshotBytes() const;

  /// Cumulative outcome telemetry across every run()/runWithRecovery()
  /// call on this campaign: "fault.cat_<category>.<outcome>" counters
  /// plus "fault.injections". Tallied serially from position-indexed
  /// per-injection slots, so the counters are identical for any job
  /// count.
  const telemetry::MetricsRegistry &metrics() const { return Metrics; }

private:
  /// A fresh memory/translator/interpreter trio with the program loaded,
  /// optionally resumed at a golden snapshot.
  struct Instance;

  /// The golden run's state at one point.
  struct GoldenSnapshot {
    SnapshotPoint Point;
    Memory::Snapshot Mem;
    Interpreter::Snapshot Cpu;
    Dbt::Snapshot Translator;
  };

  /// The snapshot an injection of \p Fault starts from: the last one
  /// taken before the fault's instance executed.
  const GoldenSnapshot &snapshotBefore(const PlannedFault &Fault) const;

  /// Tallies one run's outcome slots into a fresh registry, folds it
  /// into Metrics, and returns the result rebuilt from the snapshot.
  CampaignResult tallyOutcomes(const std::vector<const PlannedFault *> &Sel,
                               const std::vector<Outcome> &Outcomes);

  /// Serial prop.* tally from position-indexed propagation slots — the
  /// propagation analogue of tallyOutcomes, jobs-invariant the same way.
  void tallyPropagation(const std::vector<const PlannedFault *> &Sel,
                        const std::vector<telemetry::PropagationReport> &Prop);

  const AsmProgram &Program;
  DbtConfig Config;
  telemetry::MetricsRegistry Metrics;
  uint64_t GoldenInsns = 0;
  uint64_t GoldenHash = 0;
  uint64_t InsnBudget = 0;
  /// Site → is-instrumentation, from the golden run's translations.
  /// Sites missing here classify as original code.
  std::unordered_map<uint64_t, bool> InstrMap;
  /// Golden branch executions per SiteClass.
  std::array<uint64_t, 3> Executions = {};
  std::vector<GoldenSnapshot> Snapshots;
  bool Prepared = false;
  bool PropEnabled = false;
  telemetry::GoldenTrace Golden;
};

} // namespace cfed

#endif // CFED_FAULT_CAMPAIGN_H
