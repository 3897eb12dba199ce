//===- Provenance.cpp - Fault-propagation provenance layer ----------------===//

#include "telemetry/Provenance.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdio>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CFED_DIGEST_AVX512 1
#endif

using namespace cfed;
using namespace cfed::telemetry;

#if CFED_DIGEST_AVX512
namespace {

/// mixWindowScalar, vectorized: one variable-rotate per 8-word half,
/// one XOR to merge the halves, one horizontal reduce — versus 16
/// scalar rotate+XOR pairs. Compiled for AVX-512F via the target
/// attribute (the repo builds without -march flags) and only reached
/// when the CPUID probe below says the host has it.
__attribute__((target("avx512f"))) uint64_t
mixWindowAvx512(const uint64_t *W) {
  const __m512i RotLo = _mm512_setr_epi64(1, 9, 17, 25, 33, 41, 49, 57);
  const __m512i RotHi = _mm512_setr_epi64(5, 13, 21, 29, 37, 45, 53, 61);
  __m512i Lo = _mm512_loadu_si512(W);
  __m512i Hi = _mm512_loadu_si512(W + 8);
  __m512i X = _mm512_xor_si512(_mm512_rolv_epi64(Lo, RotLo),
                               _mm512_rolv_epi64(Hi, RotHi));
  // Horizontal XOR by halving (GCC has no _mm512_reduce_xor_epi64).
  __m256i Y = _mm256_xor_si256(_mm512_extracti64x4_epi64(X, 0),
                               _mm512_extracti64x4_epi64(X, 1));
  __m128i Z = _mm_xor_si128(_mm256_extracti128_si256(Y, 0),
                            _mm256_extracti128_si256(Y, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(Z)) ^
         static_cast<uint64_t>(_mm_extract_epi64(Z, 1));
}

/// Probed once at startup (namespace-scope initializer, so the per-call
/// path is a plain bool load with no init guard).
const bool UseAvx512 = __builtin_cpu_supports("avx512f");

} // namespace
#endif

uint64_t DigestRecorder::mixWindow(const uint64_t *W) {
#if CFED_DIGEST_AVX512
  if (UseAvx512)
    return mixWindowAvx512(W);
#endif
  return mixWindowScalar(W);
}

void DigestRecorder::captureRecord(uint64_t Key, uint64_t TermPC, bool Checked,
                                   const uint64_t *Regs, const double *FpRegs,
                                   unsigned FlagBits) {
  // Capture cost sets the digest_overhead gate, so the fold is built
  // around one rotate-and-XOR pre-mix of the whole 16-word register
  // window (vectorized on AVX-512 hosts) per multiply: two to three
  // multiplies per capture total, versus one per word for a naive
  // FNV-over-words.
  uint64_t R = foldWord(FnvOffset, mixWindow(Regs));
  // The FP file is folded only once it has been written this run (see
  // noteFpWrite): the flag's history is tier-identical, FpActive
  // itself rides in the Misc word so a faulted path that first touches
  // FP state flips the digest, and the integer-only majority of
  // boundaries skips all 16 FP folds.
  if (FpActive) {
    uint64_t FpBits[NumDigestFpRegs];
    std::memcpy(FpBits, FpRegs, sizeof(FpBits));
    R = foldWord(R, mixWindow(FpBits));
  }
  // StoreAcc/OutAcc are already multiply-mixed, and the low-entropy
  // FLAGS/count fields ride on disjoint shifts, so one fold suffices
  // for the whole summary word.
  uint64_t Misc = FlagBits ^ FpActive << 8 ^ StoreCount << 9 ^
                  OutLen << 48 ^ rotl(StoreAcc, 16) ^ rotl(OutAcc, 40);
  uint64_t H = foldWord(R, Misc);
  Staged.push_back(
      StagedRecord{Key | (Checked ? StagedCheckedBit : 0), TermPC, H});
  // The store summary is a per-boundary delta; output is cumulative.
  StoreAcc = FnvOffset;
  StoreCount = 0;
}

void DigestRecorder::materialize() {
  if (Staged.empty())
    return;
  Records.reserve(Records.size() + Staged.size());
  for (const StagedRecord &S : Staged) {
    DigestRecord R;
    R.Key = S.KeyAndChecked & ~StagedCheckedBit;
    R.TermPC = S.TermPC;
    R.Local = S.Local;
    R.Chain = foldWord(PrevChain ^ R.Key ^ rotHalf(R.TermPC), R.Local);
    R.Checked = (S.KeyAndChecked & StagedCheckedBit) != 0;
    PrevChain = R.Chain;
    Records.push_back(R);
  }
  Staged.clear();
}

const char *telemetry::getPropClassName(PropClass C) {
  switch (C) {
  case PropClass::None:
    return "none";
  case PropClass::DetectedClean:
    return "detected-clean";
  case PropClass::DetectedAfterDivergence:
    return "detected-after-divergence";
  case PropClass::SdcExplained:
    return "sdc-explained";
  case PropClass::SdcUnexplained:
    return "sdc-unexplained";
  case PropClass::MaskedClean:
    return "masked-clean";
  case PropClass::MaskedConverged:
    return "masked-converged";
  case PropClass::MaskedLatent:
    return "masked-latent";
  case PropClass::TimeoutClean:
    return "timeout-clean";
  case PropClass::TimeoutAfterDivergence:
    return "timeout-after-divergence";
  }
  return "?";
}

const PropClass telemetry::AllPropClasses[NumPropClasses - 1] = {
    PropClass::DetectedClean,  PropClass::DetectedAfterDivergence,
    PropClass::SdcExplained,   PropClass::SdcUnexplained,
    PropClass::MaskedClean,    PropClass::MaskedConverged,
    PropClass::MaskedLatent,   PropClass::TimeoutClean,
    PropClass::TimeoutAfterDivergence,
};

std::string telemetry::getPropCounterName(const char *CategoryName,
                                          PropClass C) {
  return formatString("prop.cat_%s.%s", CategoryName, getPropClassName(C));
}

std::string telemetry::getPropDistanceHistogramName(const char *CategoryName) {
  return formatString("prop.distance.cat_%s", CategoryName);
}

std::vector<uint64_t> telemetry::propDistanceBounds() {
  std::vector<uint64_t> Bounds;
  for (uint64_t B = 1; B <= (uint64_t(1) << 20); B <<= 1)
    Bounds.push_back(B);
  return Bounds;
}

PropagationReport
telemetry::analyzePropagation(const std::vector<DigestRecord> &Golden,
                              const std::vector<DigestRecord> &Faulted,
                              PropOutcome HowItEnded) {
  PropagationReport R;
  R.Enabled = true;

  // First chain mismatch over the common prefix; a length difference
  // with a clean prefix diverges at the first extra/missing record.
  size_t Common = std::min(Golden.size(), Faulted.size());
  size_t Div = Common;
  for (size_t I = 0; I < Common; ++I) {
    if (Golden[I].Chain != Faulted[I].Chain) {
      Div = I;
      break;
    }
  }
  bool Diverged =
      Div < Common ||
      (Golden.size() != Faulted.size() && Faulted.size() > Golden.size());
  // A faulted run that is a strict prefix of the golden stream stopped
  // early (a check or trap cut it short) without corrupting state: for
  // a detected, masked or timed-out run that is not an architectural
  // divergence. For an SDC the truncation itself is the divergence —
  // the output went wrong precisely because the run left the golden
  // path by ending at this boundary — so the first missing record is
  // its concrete first-divergence point (in golden coordinates; the
  // tail metrics stay zero, nothing executed past it).
  if (!Diverged && HowItEnded == PropOutcome::Sdc &&
      Faulted.size() < Golden.size()) {
    Diverged = true;
    Div = Faulted.size();
  }
  if (Diverged) {
    R.Diverged = true;
    R.DivergenceOrdinal = Div;
    const DigestRecord &At =
        Div < Faulted.size() ? Faulted[Div] : Golden[Div];
    R.DivergenceKey = At.Key;
    R.DivergencePC = At.TermPC;

    // The propagation tail: every faulted boundary from the divergence
    // on (once the chain breaks it never re-matches).
    std::vector<uint64_t> Blocks;
    for (size_t I = Div; I < Faulted.size(); ++I) {
      Blocks.push_back(Faulted[I].TermPC);
      if (Faulted[I].Checked)
        ++R.ChecksCrossed;
    }
    std::sort(Blocks.begin(), Blocks.end());
    R.TaintedBlocks =
        std::unique(Blocks.begin(), Blocks.end()) - Blocks.begin();
    if (!Faulted.empty() && Faulted.back().Key >= R.DivergenceKey)
      R.InsnsCrossed = Faulted.back().Key - R.DivergenceKey;
  }

  bool FinalStateMatches = !Golden.empty() && !Faulted.empty() &&
                           Golden.back().Local == Faulted.back().Local;
  switch (HowItEnded) {
  case PropOutcome::Detected:
    R.Class = R.Diverged ? PropClass::DetectedAfterDivergence
                         : PropClass::DetectedClean;
    break;
  case PropOutcome::Sdc:
    R.Class =
        R.Diverged ? PropClass::SdcExplained : PropClass::SdcUnexplained;
    break;
  case PropOutcome::Masked:
    R.Class = !R.Diverged           ? PropClass::MaskedClean
              : FinalStateMatches   ? PropClass::MaskedConverged
                                    : PropClass::MaskedLatent;
    break;
  case PropOutcome::Timeout:
    R.Class = R.Diverged ? PropClass::TimeoutAfterDivergence
                         : PropClass::TimeoutClean;
    break;
  }
  return R;
}

namespace {

constexpr char GoldenTraceMagic[8] = {'C', 'F', 'E', 'D',
                                      'G', 'T', '0', '1'};

void putU64(FILE *F, uint64_t V) {
  uint8_t Bytes[8];
  for (int I = 0; I < 8; ++I)
    Bytes[I] = static_cast<uint8_t>(V >> (I * 8));
  std::fwrite(Bytes, 1, 8, F);
}

bool getU64(FILE *F, uint64_t &V) {
  uint8_t Bytes[8];
  if (std::fread(Bytes, 1, 8, F) != 8)
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Bytes[I]) << (I * 8);
  return true;
}

bool fail(std::string *Error, std::string Text) {
  if (Error)
    *Error = std::move(Text);
  return false;
}

} // namespace

bool GoldenTrace::save(const std::string &Path, std::string *Error) const {
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return fail(Error, formatString("cannot open '%s' for writing",
                                    Path.c_str()));
  std::fwrite(GoldenTraceMagic, 1, sizeof(GoldenTraceMagic), F);
  putU64(F, ProgramFp);
  putU64(F, ConfigFp);
  putU64(F, Records.size());
  for (const DigestRecord &R : Records) {
    putU64(F, R.Key);
    putU64(F, R.TermPC);
    putU64(F, R.Local);
    putU64(F, R.Chain);
    putU64(F, R.Checked ? 1 : 0);
  }
  bool Ok = std::fflush(F) == 0 && !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    return fail(Error, formatString("short write to '%s'", Path.c_str()));
  return true;
}

bool GoldenTrace::load(const std::string &Path, std::string *Error) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Error,
                formatString("cannot open '%s' for reading", Path.c_str()));
  char Magic[sizeof(GoldenTraceMagic)];
  bool Ok = std::fread(Magic, 1, sizeof(Magic), F) == sizeof(Magic) &&
            std::memcmp(Magic, GoldenTraceMagic, sizeof(Magic)) == 0;
  uint64_t Count = 0;
  Ok = Ok && getU64(F, ProgramFp) && getU64(F, ConfigFp) &&
       getU64(F, Count);
  // Records are fixed-size, so the payload length must match the count
  // exactly; without this a corrupt count could drive a huge reserve.
  constexpr uint64_t RecordBytes = 5 * 8;
  if (Ok) {
    long Here = std::ftell(F);
    Ok = Here >= 0 && std::fseek(F, 0, SEEK_END) == 0;
    long End = Ok ? std::ftell(F) : -1;
    uint64_t Payload = End >= Here ? static_cast<uint64_t>(End - Here) : 0;
    Ok = Ok && End >= Here && Payload % RecordBytes == 0 &&
         Count == Payload / RecordBytes &&
         std::fseek(F, Here, SEEK_SET) == 0;
  }
  Records.clear();
  if (Ok)
    Records.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; Ok && I < Count; ++I) {
    DigestRecord R;
    uint64_t Checked = 0;
    Ok = getU64(F, R.Key) && getU64(F, R.TermPC) && getU64(F, R.Local) &&
         getU64(F, R.Chain) && getU64(F, Checked);
    R.Checked = Checked != 0;
    if (Ok)
      Records.push_back(R);
  }
  std::fclose(F);
  if (!Ok) {
    Records.clear();
    return fail(Error, formatString("'%s' is not a golden-trace file",
                                    Path.c_str()));
  }
  return true;
}
