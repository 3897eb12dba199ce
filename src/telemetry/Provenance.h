//===- Provenance.h - Fault-propagation provenance layer --------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-run digest oracle and divergence tracing (DESIGN.md §14).
///
/// A DigestRecorder captures one compact architectural digest per
/// sub-block boundary — a word-folding FNV-1a over the guest registers,
/// FLAGS, FP registers, a store-address/value summary and a rolling
/// output summary — keyed by the retired guest instruction count. The
/// capture points are the *guest terminators*: the native interpreter
/// captures at the top of every transfer handler, and the translator
/// plants one Digest marker per sub-block after the guest body and
/// before the checker's exit updates, so interp, base-tier and opt-tier
/// runs produce byte-identical digest streams by construction (for the
/// flag-neutral techniques; see DESIGN.md §14 for the CFCSS/ECCA
/// caveat).
///
/// A reference run's records form a GoldenTrace oracle; replaying a
/// faulted run against it pinpoints the first architectural divergence
/// and tracks propagation up to detection, SDC or mask — the
/// per-injection PropagationReport.
///
/// Like the rest of the telemetry library this sits below vm/dbt in the
/// link order: the capture API takes raw register arrays, never a
/// CpuState.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_TELEMETRY_PROVENANCE_H
#define CFED_TELEMETRY_PROVENANCE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cfed {
namespace telemetry {

/// Guest-visible register window folded into digests. Registers at and
/// above the reserved boundary belong to the monitor (signature state,
/// DBT scratch) and differ across tiers by design, so they are excluded.
inline constexpr unsigned NumDigestIntRegs = 16;
inline constexpr unsigned NumDigestFpRegs = 16;

/// One captured sub-block boundary.
struct DigestRecord {
  /// Retired guest instruction count at the terminator (0-based index of
  /// the terminating instruction in the dynamic stream).
  uint64_t Key = 0;
  /// Guest PC of the terminator.
  uint64_t TermPC = 0;
  /// State-only digest: regs, FLAGS, FP regs, store summary, output
  /// summary. Deliberately excludes Key/TermPC so that two runs whose
  /// architectural state reconverges compare equal here even when their
  /// paths (and so their keys) differ.
  uint64_t Local = 0;
  /// Chained digest: folds the previous record's chain with this
  /// record's Key, TermPC and Local. The first chain mismatch against
  /// the golden run is the first architectural divergence; once diverged
  /// the chain never re-matches.
  uint64_t Chain = 0;
  /// The sub-block carrying this boundary ran a signature check. This
  /// is capture-configuration metadata, not architectural state: the
  /// uninstrumented native reference records false everywhere, so only
  /// streams captured under the same technique agree on it (which the
  /// within-campaign oracle replay always does).
  bool Checked = false;

  /// Architectural content only — the tier-identity relation. Streams
  /// from the interpreter and from either DBT tier agree on these four
  /// fields for the flag-neutral techniques regardless of where checks
  /// are placed.
  bool sameArch(const DigestRecord &O) const {
    return Key == O.Key && TermPC == O.TermPC && Local == O.Local &&
           Chain == O.Chain;
  }

  bool operator==(const DigestRecord &O) const {
    return sameArch(O) && Checked == O.Checked;
  }
};

/// Captures the digest stream of one run.
///
/// Two capture modes, matching the two execution engines:
///  * Interp — the native interpreter calls onTransfer() at the top of
///    every transfer handler.
///  * Marker — the translator registered one marker slot per sub-block
///    (defineMarker) and planted a Digest instruction carrying the slot;
///    the interpreter's Digest handler calls onMarker().
///
/// The marker table is append-only and survives cache flushes and
/// retranslation (stale cache code is never re-entered, and live code
/// always carries valid slots) — the same lifetime contract as
/// BlockProfile's slot table.
class DigestRecorder {
public:
  enum class Mode : uint8_t { Interp, Marker };

  static constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
  static constexpr uint64_t FnvPrime = 0x100000001b3ULL;

  /// One multiply per folded word; the byte-at-a-time FNV would put the
  /// capture cost well past the digest_overhead gate.
  static uint64_t foldWord(uint64_t H, uint64_t V) {
    return (H ^ V) * FnvPrime;
  }

  /// Rotate left (N in 1..63). Pre-mixing word groups with distinct
  /// rotations before one shared fold keeps the multiply count per
  /// capture independent of the window size.
  static uint64_t rotl(uint64_t V, unsigned N) {
    return V << N | V >> (64 - N);
  }

  /// Swaps the 32-bit halves.
  static uint64_t rotHalf(uint64_t V) { return rotl(V, 32); }

  /// Scalar reference for the 16-word window mix: XOR of every word
  /// rotated by a distinct odd amount (1,9,..,57 for the low half,
  /// 5,13,..,61 for the high), so permuted or swapped operands still
  /// change the result. This is the digest definition; mixWindow is
  /// the dispatched implementation and must compute the same function
  /// bit for bit (DigestSimdMatchesScalar pins that).
  static uint64_t mixWindowScalar(const uint64_t *W) {
    uint64_t X = 0;
    for (unsigned I = 0; I < 8; ++I)
      X ^= rotl(W[I], 8 * I + 1);
    for (unsigned I = 0; I < 8; ++I)
      X ^= rotl(W[8 + I], 8 * I + 5);
    return X;
  }

  /// The window mix the capture path uses: the scalar reference above,
  /// or an AVX-512 variant (two rotate-and-XOR vector ops plus a
  /// horizontal reduce) picked once at startup when the host supports
  /// it. Out of line (Provenance.cpp) with the rest of the capture
  /// body.
  static uint64_t mixWindow(const uint64_t *W);

  void setMode(Mode M) { CaptureMode = M; }
  Mode mode() const { return CaptureMode; }
  /// True when the native interpreter's transfer handlers should
  /// capture (Marker mode leaves capture to the planted Digest insns).
  bool interpMode() const { return CaptureMode == Mode::Interp; }

  /// Registers a sub-block marker at translate time. \p Delta is the
  /// number of guest body instructions preceding the terminator;
  /// \p Capture is false for seams with no terminator (fell into a
  /// leader or the block-size cap), which only advance the key.
  uint32_t defineMarker(uint32_t Delta, uint64_t TermPC, bool Capture,
                        bool Checked) {
    Markers.push_back(MarkerInfo{TermPC, Delta, Capture, Checked});
    return static_cast<uint32_t>(Markers.size() - 1);
  }
  size_t markerCount() const { return Markers.size(); }

  /// Interp-mode capture at a native transfer. \p Key is the 0-based
  /// dynamic index of the transfer instruction itself.
  void onTransfer(uint64_t Key, uint64_t TermPC, const uint64_t *Regs,
                  const double *FpRegs, unsigned FlagBits) {
    captureRecord(Key, TermPC, /*Checked=*/false, Regs, FpRegs, FlagBits);
  }

  /// Marker-mode capture from a planted Digest instruction. Inline up to
  /// the out-of-line capture body, so the interpreter makes one call per
  /// capturing marker and none for seams that only advance the key.
  void onMarker(uint32_t Slot, const uint64_t *Regs, const double *FpRegs,
                unsigned FlagBits) {
    if (Slot >= Markers.size())
      return;
    const MarkerInfo &M = Markers[Slot];
    if (M.Capture)
      captureRecord(GuestRetired + M.Delta, M.TermPC, M.Checked, Regs,
                    FpRegs, FlagBits);
    // Body plus the terminator itself, if the seam has one.
    GuestRetired += M.Delta + M.Capture;
  }

  /// Folds one successful guest store into the summary accumulator.
  /// Single fold: stores are the most frequent capture event, and their
  /// cost is part of the gated digest_overhead budget.
  void noteStore(uint64_t Addr, uint64_t Value) {
    StoreAcc = foldWord(StoreAcc, Addr ^ rotHalf(Value));
    ++StoreCount;
  }

  /// Marks the FP register file live for the rest of the run. The
  /// interpreter core calls this from every FP-register-writing handler
  /// (all tiers execute guest FP writes through that core, so the flag's
  /// history — and with it the digest stream — stays tier-identical),
  /// letting captureRecord skip the 16 FP folds for the integer-only
  /// majority of boundaries.
  void noteFpWrite() { FpActive = 1; }

  /// Folds bytes appended to the program output into the rolling output
  /// summary (byte-at-a-time, matching hashOutput; output is rare).
  void noteOutput(const char *Data, size_t Len) {
    uint64_t H = OutAcc;
    for (size_t I = 0; I < Len; ++I) {
      H ^= static_cast<uint8_t>(Data[I]);
      H *= FnvPrime;
    }
    OutAcc = H;
    OutLen += Len;
  }

  /// Clears the per-run capture state (records, key counter, summary
  /// accumulators) while keeping the marker table.
  void resetRun() {
    Records.clear();
    Staged.clear();
    GuestRetired = 0;
    PrevChain = FnvOffset;
    StoreAcc = FnvOffset;
    StoreCount = 0;
    OutAcc = FnvOffset;
    OutLen = 0;
    FpActive = 0;
  }

  /// Materializes and returns the run's records. The Chain digests are
  /// folded here, not in the hot capture path: the chain is a strictly
  /// sequential multiply fold, so deferring it takes that multiply (and
  /// the PrevChain read-modify-write) off every capture and pays one
  /// linear pass at analysis time instead — where the stream is about
  /// to be walked anyway (oracle replay, trace save).
  const std::vector<DigestRecord> &records() {
    materialize();
    return Records;
  }
  std::vector<DigestRecord> takeRecords() {
    materialize();
    return std::move(Records);
  }
  uint64_t guestRetired() const { return GuestRetired; }

private:
  struct MarkerInfo {
    uint64_t TermPC = 0;
    uint32_t Delta = 0;
    bool Capture = true;
    bool Checked = false;
  };

  /// What the hot capture path writes: only the fields that cannot be
  /// reconstructed afterwards. Size matters more than shape here — a
  /// million-instruction run stages ~50k boundaries, and at 24 bytes
  /// (versus the 40-byte DigestRecord) the staging stream stays inside
  /// the cache instead of evicting the interpreter's working set, a
  /// measured slice of the digest_overhead gate. Checked rides in the
  /// key's top bit; keys are retired-instruction counts, nowhere near
  /// 2^63, and the public DigestRecord keeps the honest separate field.
  struct StagedRecord {
    uint64_t KeyAndChecked = 0;
    uint64_t TermPC = 0;
    uint64_t Local = 0;
  };
  static constexpr uint64_t StagedCheckedBit = uint64_t(1) << 63;

  /// Out of line (Provenance.cpp): the capture body is large enough
  /// that inlining it into the interpreter's dispatch loop costs more
  /// in code footprint than the call costs in overhead.
  void captureRecord(uint64_t Key, uint64_t TermPC, bool Checked,
                     const uint64_t *Regs, const double *FpRegs,
                     unsigned FlagBits);

  /// Folds the chain over the staged records and appends them to
  /// Records (Provenance.cpp). Idempotent between captures; incremental
  /// calls continue the chain where the last one stopped.
  void materialize();

  Mode CaptureMode = Mode::Interp;
  std::vector<MarkerInfo> Markers;
  std::vector<DigestRecord> Records;
  std::vector<StagedRecord> Staged;
  uint64_t GuestRetired = 0;
  uint64_t PrevChain = FnvOffset;
  uint64_t StoreAcc = FnvOffset;
  uint64_t StoreCount = 0;
  uint64_t OutAcc = FnvOffset;
  uint64_t OutLen = 0;
  uint64_t FpActive = 0;
};

/// A reference run's digest stream plus identifying fingerprints,
/// serializable as the --golden-trace oracle file.
struct GoldenTrace {
  /// FNV over the guest program image (caller-computed; 0 = unknown).
  uint64_t ProgramFp = 0;
  /// FNV over the digest-relevant configuration (caller-computed).
  uint64_t ConfigFp = 0;
  std::vector<DigestRecord> Records;

  /// Binary serialization ("CFEDGT01" magic). Returns false and fills
  /// \p Error on failure.
  bool save(const std::string &Path, std::string *Error = nullptr) const;
  bool load(const std::string &Path, std::string *Error = nullptr);
};

/// How a faulted run ended, from the oracle's point of view. The fault
/// layer maps its Outcome enum down to this before analysis so the
/// telemetry library stays below it in the link order.
enum class PropOutcome : uint8_t { Detected, Sdc, Masked, Timeout };

/// The divergence→outcome funnel cell an injection lands in.
enum class PropClass : uint8_t {
  None, ///< Propagation tracking was not enabled for this injection.
  DetectedClean,           ///< Detected with no architectural divergence.
  DetectedAfterDivergence, ///< State diverged first, then a check fired.
  SdcExplained,            ///< SDC with a concrete first-divergence point.
  SdcUnexplained,          ///< SDC the oracle could not localize (bug trap).
  MaskedClean,             ///< Truly masked: no divergence at all.
  MaskedConverged,         ///< Diverged, but final state reconverged.
  MaskedLatent,            ///< Output matched; state still corrupt at exit.
  TimeoutClean,            ///< Timed out without diverging.
  TimeoutAfterDivergence,  ///< Diverged, then hung past the budget.
};

inline constexpr unsigned NumPropClasses = 10;

/// Short stable name ("detected-clean", "sdc-explained", ...).
const char *getPropClassName(PropClass C);

/// All classes except None, in funnel order — the iteration set for
/// aggregation and rendering.
extern const PropClass AllPropClasses[NumPropClasses - 1];

/// Per-injection propagation provenance.
struct PropagationReport {
  bool Enabled = false;
  bool Diverged = false;
  /// Index of the first mismatching record in the digest stream.
  uint64_t DivergenceOrdinal = 0;
  /// Guest instruction count at the first divergence.
  uint64_t DivergenceKey = 0;
  /// Guest PC of the sub-block terminator where state first diverged.
  uint64_t DivergencePC = 0;
  /// Distinct sub-blocks touched between divergence and the end.
  uint64_t TaintedBlocks = 0;
  /// Signature checks crossed between divergence and the end.
  uint64_t ChecksCrossed = 0;
  /// Guest instructions between divergence and the last boundary.
  uint64_t InsnsCrossed = 0;
  PropClass Class = PropClass::None;
};

/// Replays \p Faulted against the \p Golden oracle: finds the first
/// chain divergence, measures the propagation tail, and classifies the
/// injection into the funnel given how the run ended.
PropagationReport analyzePropagation(const std::vector<DigestRecord> &Golden,
                                     const std::vector<DigestRecord> &Faulted,
                                     PropOutcome HowItEnded);

/// Counter name "prop.cat_<cat>.<class>" — per-category funnel tallies.
std::string getPropCounterName(const char *CategoryName, PropClass C);

/// Histogram name "prop.distance.cat_<cat>" — divergence-to-detection
/// distance in guest instructions.
std::string getPropDistanceHistogramName(const char *CategoryName);

/// Bounds shared by every prop.distance.* histogram (powers of two,
/// 1 .. 2^20 guest instructions — mirroring the detection-latency
/// histograms so the two distributions line up bucket for bucket).
std::vector<uint64_t> propDistanceBounds();

} // namespace telemetry
} // namespace cfed

#endif // CFED_TELEMETRY_PROVENANCE_H
