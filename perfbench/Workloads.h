//===- Workloads.h - The benchmark's four closed-loop workloads -*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// steady, recover, cold and campaign (see README.md for why each one
/// exists). A workload is an op stream over a fixed set of slots: the
/// set-up builds every slot's oracle, and op I runs one slot and checks
/// its output against that oracle. Each slot's deterministic counts are
/// kept in a ledger the first time it runs; every later run of the slot,
/// traced or not, must reproduce them exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_PERFBENCH_WORKLOADS_H
#define CFED_PERFBENCH_WORKLOADS_H

#include "Spans.h"

#include "asm/Assembler.h"
#include "dbt/Dbt.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Instruction budget generous enough for every program run here.
inline constexpr uint64_t RunBudget = 200000000ULL;

/// The deterministic counts of one op. Model cycles are the VISA cost
/// model's, not host time.
struct OpCounts {
  uint64_t NativeInsns = 0;
  uint64_t NativeCycles = 0;
  uint64_t Insns = 0; ///< Retired under the DBT, checker code included.
  uint64_t Cycles = 0;
  uint64_t Translations = 0;
  uint64_t LoadTranslations = 0; ///< Translations done inside Dbt::load.
  uint64_t Dispatches = 0;
  uint64_t Chains = 0;
  uint64_t IbtcHits = 0;
  uint64_t IbtcMisses = 0;
  uint64_t CheckSig = 0; ///< cfc.<Tech>.check_sig_emitted.
  uint64_t GenSig = 0;   ///< cfc.<Tech>.gen_sig_emitted.
  uint64_t Checkpoints = 0;
  /// Campaign ops: the cfed::Outcome and the detection latency.
  uint64_t Outcome = 0;
  uint64_t LatencyInsns = 0;
  /// Program runs summed into these counts (1 for one op).
  uint64_t Runs = 0;

  bool operator==(const OpCounts &Other) const = default;
  void add(const OpCounts &Other);
};

/// First-seen counts per slot, and every disagreement since.
class Ledger {
public:
  void reset(size_t Slots);
  /// Records \p Counts for \p Slot, or compares against the first record.
  void check(size_t Slot, const OpCounts &Counts);
  const std::vector<std::optional<OpCounts>> &slots() const { return Slots; }
  uint64_t mismatches() const { return Mismatches; }

private:
  std::vector<std::optional<OpCounts>> Slots;
  uint64_t Mismatches = 0;
};

struct OpResult {
  bool Ok = false; ///< The op passed its oracle.
  uint64_t Ns = 0; ///< Wall time of the op.
  uint64_t NativeInsns = 0;
};

/// A program the traced run's layer probes run.
struct ProbeProgram {
  const cfed::AsmProgram *Program = nullptr;
  cfed::DbtConfig Config;
  uint64_t NativeInsns = 0;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds every slot's oracle from scratch, replacing the previous
  /// set-up. Returns false (after printing why) when the set-up itself
  /// fails an oracle.
  virtual bool setUp(SpanLog *Log) = 0;
  /// Distinct slots of the op stream.
  virtual size_t slots() const = 0;
  /// The slot op \p Index runs (a pure function of the seed and index).
  virtual size_t slotOf(uint64_t Index) const = 0;
  /// Ops every timed phase runs at least, from index 0. Their slots
  /// define the deterministic model metrics, which therefore do not
  /// depend on how many ops fit in the run.
  virtual uint64_t minOps() const = 0;
  /// Ops per round; the stream is run in whole rounds, so each run sees
  /// the same mix of programs.
  virtual uint64_t roundSize() const = 0;
  /// Runs op \p Index of the stream. Spans go to \p Log when non-null.
  virtual OpResult runOp(uint64_t Index, SpanLog *Log) = 0;
  /// Programs for the layer probes of the traced run. Each stays valid
  /// until the next setUp().
  virtual std::vector<ProbeProgram> probePrograms() = 0;

  const Ledger &ledger() const { return Counts; }
  /// Recorded counts of the distinct slots of ops [0, minOps()).
  std::vector<OpCounts> modelSlots() const;
  /// The counts behind model_slowdown and the cfc/dbt count metrics: the
  /// sum of modelSlots(), except where a workload's ops are not program
  /// runs (campaign).
  virtual OpCounts modelTotals() const;

protected:
  Ledger Counts;
};

/// Creates workload \p Name ("steady", "recover", "cold", "campaign"),
/// or null for an unknown name.
std::unique_ptr<Workload> createWorkload(const std::string &Name,
                                         uint64_t Seed);

/// The campaign workload with \p FaultsPerProgram injections per
/// program; the traced runs of the other workloads use a small one as
/// their fault-layer probe.
std::unique_ptr<Workload> createCampaign(uint64_t Seed,
                                         unsigned FaultsPerProgram);

/// Span names of the campaign's injections, "fault.inject.<program>",
/// in op order.
std::vector<std::string> campaignInjectSpans();

struct ProbeStats {
  uint64_t Programs = 0;
  uint64_t Checkpoints = 0;
  uint64_t Failures = 0; ///< Programs with a run that did not complete.
};

/// The layer probes on one program, the \p Index-th probed: "vm.load"
/// (loadProgram in Translated mode into a fresh Memory),
/// "probe.dbt_load" (Dbt::load into a fresh instance), "cfg.build", and
/// whole runs natively and under the base tier, the opt tier and the
/// recovery manager ("probe.interp", "probe.base", "probe.opt",
/// "probe.recovery", each with the native instruction count as work).
/// They run after the traced phase, not between its ops, so the traced
/// ops see the same heap as the untraced ones. Adds to \p Stats.
void runProbes(const ProbeProgram &P, int64_t Index, SpanLog *Log,
               ProbeStats &Stats);

} // namespace perfbench

#endif // CFED_PERFBENCH_WORKLOADS_H
