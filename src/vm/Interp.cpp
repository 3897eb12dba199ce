//===- Interp.cpp - VISA interpreter -----------------------------------------===//

#include "vm/Interp.h"

#include "support/Diagnostics.h"
#include "support/Format.h"
#include "telemetry/BlockProfile.h"
#include "telemetry/Metrics.h"
#include "telemetry/Provenance.h"

#include <cassert>
#include <cmath>

using namespace cfed;

FaultHook::~FaultHook() = default;
PreInsnHook::~PreInsnHook() = default;
BranchObserver::~BranchObserver() = default;
DbtHooks::~DbtHooks() = default;

const char *cfed::getTrapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::IllegalInsn:
    return "illegal-instruction";
  case TrapKind::ExecViolation:
    return "exec-violation";
  case TrapKind::ReadViolation:
    return "read-violation";
  case TrapKind::WriteViolation:
    return "write-violation";
  case TrapKind::DivByZero:
    return "div-by-zero";
  case TrapKind::BreakTrap:
    return "break";
  }
  cfed_unreachable("covered switch");
}

const char *cfed::describeStop(const StopInfo &Stop) {
  switch (Stop.Kind) {
  case StopKind::Halted:
    return "halted";
  case StopKind::InsnLimit:
    return "instruction limit reached";
  case StopKind::Trapped:
    return Stop.Trap == TrapKind::BreakTrap &&
                   Stop.BreakCode == BrkControlFlowError
               ? "control-flow error reported"
               : getTrapKindName(Stop.Trap);
  }
  return "?";
}

uint64_t cfed::hashOutput(const std::string &Data) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char Ch : Data) {
    Hash ^= static_cast<uint8_t>(Ch);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

void Interpreter::resetCounters() {
  Insns = 0;
  Cycles = 0;
  OutputBuffer.clear();
}

void Interpreter::restoreProgress(uint64_t NewInsns, uint64_t NewCycles,
                                  size_t OutputLen) {
  assert(OutputLen <= OutputBuffer.size() &&
         "rollback cannot grow the output");
  Insns = NewInsns;
  Cycles = NewCycles;
  OutputBuffer.resize(OutputLen);
}

void Interpreter::publishMetrics(telemetry::MetricsRegistry &Registry) const {
  Registry.gauge("interp.insns").set(static_cast<double>(Insns));
  Registry.gauge("interp.cycles").set(static_cast<double>(Cycles));
  double Hits = static_cast<double>(Mem.predecodeHitCount());
  double Misses = static_cast<double>(Mem.predecodeMissCount());
  Registry.gauge("vm.predecode_hits").set(Hits);
  Registry.gauge("vm.predecode_misses").set(Misses);
  if (Hits + Misses > 0)
    Registry.gauge("vm.predecode_hit_rate").set(Hits / (Hits + Misses));
}

std::string cfed::formatTrapDiagnostic(const StopInfo &Stop,
                                       const CpuState &State,
                                       uint64_t GuestPC) {
  const char *Kind = Stop.Kind == StopKind::Halted      ? "halted"
                     : Stop.Kind == StopKind::InsnLimit ? "insn-limit"
                                                        : "trap";
  std::string Text = formatString(
      "%s: %s guest-pc=0x%llx", Kind, getTrapKindName(Stop.Trap),
      static_cast<unsigned long long>(GuestPC));
  if (Stop.Trap == TrapKind::ReadViolation ||
      Stop.Trap == TrapKind::WriteViolation ||
      Stop.Trap == TrapKind::ExecViolation)
    Text += formatString(" fault-addr=0x%llx",
                         static_cast<unsigned long long>(Stop.TrapAddr));
  if (Stop.Trap == TrapKind::BreakTrap)
    Text += formatString(" break-code=0x%x",
                         static_cast<unsigned>(Stop.BreakCode));
  Text += formatString(
      " sig[pcp=0x%llx rts=0x%llx aux=0x%llx aux2=0x%llx]",
      static_cast<unsigned long long>(State.Regs[RegPCP]),
      static_cast<unsigned long long>(State.Regs[RegRTS]),
      static_cast<unsigned long long>(State.Regs[RegAUX]),
      static_cast<unsigned long long>(State.Regs[RegAUX2]));
  return Text;
}

namespace {

/// Flag computation helpers matching the IA-32 semantics documented in
/// Opcodes.def.
void setFlagsLogic(Flags &F, uint64_t Result) {
  F.ZF = Result == 0;
  F.SF = static_cast<int64_t>(Result) < 0;
  F.CF = false;
  F.OF = false;
}

void setFlagsAdd(Flags &F, uint64_t A, uint64_t B, uint64_t Result) {
  F.ZF = Result == 0;
  F.SF = static_cast<int64_t>(Result) < 0;
  F.CF = Result < A;
  F.OF = ((~(A ^ B) & (A ^ Result)) >> 63) != 0;
}

void setFlagsSub(Flags &F, uint64_t A, uint64_t B, uint64_t Result) {
  F.ZF = Result == 0;
  F.SF = static_cast<int64_t>(Result) < 0;
  F.CF = A < B;
  F.OF = (((A ^ B) & (A ^ Result)) >> 63) != 0;
}

void setFlagsMul(Flags &F, int64_t A, int64_t B, int64_t Result) {
  __int128 Wide = static_cast<__int128>(A) * B;
  bool Overflow = Wide != static_cast<__int128>(Result);
  F.ZF = Result == 0;
  F.SF = Result < 0;
  F.CF = Overflow;
  F.OF = Overflow;
}

int64_t signedDiv(int64_t A, int64_t B) {
  if (A == INT64_MIN && B == -1)
    return INT64_MIN; // Avoid UB; defined as wrapping in VISA.
  return A / B;
}

int64_t signedRem(int64_t A, int64_t B) {
  if (A == INT64_MIN && B == -1)
    return 0;
  return A % B;
}

} // namespace

// Dispatch strategy. On compilers with labels-as-values (GCC/Clang) the run
// loop is direct-threaded: each opcode body ends with an indexed goto through
// a label table built from Opcodes.def, so the hardware branch predictor sees
// one indirect jump per handler instead of a single shared switch dispatch.
// Other compilers (or -DCFED_NO_COMPUTED_GOTO) fall back to the plain switch;
// both expansions share the same handler bodies via OP_CASE/OP_BREAK.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(CFED_NO_COMPUTED_GOTO)
#define CFED_COMPUTED_GOTO 1
#else
#define CFED_COMPUTED_GOTO 0
#endif

#if CFED_COMPUTED_GOTO
#define OP_CASE(NAME) lbl_##NAME
#else
#define OP_CASE(NAME) case Opcode::NAME
#endif
// Both modes leave the handler body by jumping to the loop tail; the switch
// fallback simply has no fall-out path.
#define OP_BREAK goto next_insn

StopInfo Interpreter::run(uint64_t MaxInsns) {
  StopInfo Stop;
  uint64_t Budget = MaxInsns;

  // Digest capture (DESIGN.md §14). DRec drives the mode-independent
  // store/output summaries and the Digest markers; DXfer is non-null
  // only in Interp mode, where the transfer handlers capture directly.
  telemetry::DigestRecorder *const DRec = DigestRec;
  telemetry::DigestRecorder *const DXfer =
      DRec && DRec->interpMode() ? DRec : nullptr;
  // Every FP-register write marks the FP file live for digest capture;
  // see DigestRecorder::noteFpWrite.
  auto NoteFpWrite = [DRec] {
    if (DRec)
      DRec->noteFpWrite();
  };

  auto MakeTrap = [&](TrapKind Kind, uint64_t TrapAddr,
                      int32_t BreakCode = 0) {
    Stop.Kind = StopKind::Trapped;
    Stop.Trap = Kind;
    Stop.TrapAddr = TrapAddr;
    Stop.BreakCode = BreakCode;
    Stop.PC = State.PC;
    return Stop;
  };

  while (Budget-- > 0) {
    uint64_t PC = State.PC;
    // Fast path: the predecode cache hands back a decoded record for
    // aligned PCs on executable pages without touching the bytes.
    MemResult Fetch = MemResult::Ok;
    const Instruction *Pre = Mem.fetchDecoded(PC, Fetch);
    if (Fetch != MemResult::Ok)
      return MakeTrap(TrapKind::ExecViolation, PC);
    Instruction I;
    if (Pre) {
      I = *Pre;
    } else {
      // Slow path: misaligned PC (may straddle pages) or bytes that do
      // not decode. Reproduces the exact trap semantics of a raw fetch.
      uint8_t Raw[InsnSize];
      Fetch = Mem.fetch(PC, Raw, InsnSize);
      if (Fetch != MemResult::Ok)
        return MakeTrap(TrapKind::ExecViolation, PC);
      auto Decoded = Instruction::decode(Raw);
      if (!Decoded)
        return MakeTrap(TrapKind::IllegalInsn, PC);
      I = *Decoded;
    }

    // Digest markers are handled here, ahead of the opcode dispatch.
    // The marker is transparent to the execution model: it consumes no
    // instruction budget, retires no instruction and has cost 0, and
    // hooks never see it (register-fault injectors count executed
    // instructions to pick their injection instant, and that instant
    // must not shift when digest capture is enabled). With no recorder
    // bound it is a nop.
    if (I.Op == Opcode::Digest) {
      ++Budget;
      if (DRec)
        DRec->onMarker(static_cast<uint32_t>(I.Imm), State.Regs,
                       State.FpRegs, State.F.pack());
      State.PC = PC + InsnSize;
      continue;
    }

    ++Insns;
    Cycles += getOpcodeCost(I.Op);

    if (PreInsn)
      PreInsn->onInsn(PC, I, State);

    uint64_t *Regs = State.Regs;
    double *Fp = State.FpRegs;
    Flags &F = State.F;
    uint64_t NextPC = PC + InsnSize;

    // Fault injection observes the branch at the moment it executes: the
    // hook may flip offset bits (I.Imm) or the flag bits this branch sees
    // (BranchFlags). The architectural FLAGS register is not modified —
    // the model is a transient upset at the branch (Section 2).
    Flags BranchFlags = F;
    if (Fault && hasBranchOffset(I.Op))
      Fault->apply(PC, I, BranchFlags, State);

#if CFED_COMPUTED_GOTO
    // One entry per opcode, in Opcodes.def order — identical to the
    // Opcode enumerator values. Decode has already validated the opcode
    // byte, so the indexed goto cannot escape the table.
    static const void *const OpLabels[] = {
#define HANDLE_OPCODE(ENUM, MNEMONIC, SPEC, COST, WRITES_FLAGS, KIND)          \
  &&lbl_##ENUM,
#include "isa/Opcodes.def"
    };
    goto *OpLabels[static_cast<size_t>(I.Op)];
#else
    switch (I.Op) {
#endif
    OP_CASE(Nop):
      OP_BREAK;
    OP_CASE(Halt):
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      Stop.Kind = StopKind::Halted;
      Stop.PC = PC;
      return Stop;
    OP_CASE(Brk):
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      return MakeTrap(TrapKind::BreakTrap, PC, I.Imm);
    OP_CASE(Out): {
      // Decimal append without the printf round-trip: Out sits inside the
      // run loop of every workload.
      char Buf[24]; // "-9223372036854775808\n" is 21 chars.
      char *End = Buf + sizeof(Buf);
      char *P = End;
      *--P = '\n';
      int64_t V = static_cast<int64_t>(Regs[I.A]);
      uint64_t U = V < 0 ? 0 - static_cast<uint64_t>(V)
                         : static_cast<uint64_t>(V);
      do {
        *--P = static_cast<char>('0' + U % 10);
        U /= 10;
      } while (U != 0);
      if (V < 0)
        *--P = '-';
      OutputBuffer.append(P, static_cast<size_t>(End - P));
      if (DRec)
        DRec->noteOutput(P, static_cast<size_t>(End - P));
      OP_BREAK;
    }
    OP_CASE(OutC): {
      char C = static_cast<char>(Regs[I.A] & 0xff);
      OutputBuffer += C;
      if (DRec)
        DRec->noteOutput(&C, 1);
      OP_BREAK;
    }

    OP_CASE(Add): {
      uint64_t A = Regs[I.B], B = Regs[I.C], R = A + B;
      Regs[I.A] = R;
      setFlagsAdd(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(Sub): {
      uint64_t A = Regs[I.B], B = Regs[I.C], R = A - B;
      Regs[I.A] = R;
      setFlagsSub(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(And):
      Regs[I.A] = Regs[I.B] & Regs[I.C];
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Or):
      Regs[I.A] = Regs[I.B] | Regs[I.C];
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Xor):
      Regs[I.A] = Regs[I.B] ^ Regs[I.C];
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Shl):
      Regs[I.A] = Regs[I.B] << (Regs[I.C] & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Shr):
      Regs[I.A] = Regs[I.B] >> (Regs[I.C] & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Sar):
      Regs[I.A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I.B]) >>
                                        (Regs[I.C] & 63));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Mul): {
      int64_t A = static_cast<int64_t>(Regs[I.B]);
      int64_t B = static_cast<int64_t>(Regs[I.C]);
      int64_t R = static_cast<int64_t>(static_cast<uint64_t>(A) *
                                       static_cast<uint64_t>(B));
      Regs[I.A] = static_cast<uint64_t>(R);
      setFlagsMul(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(Div): {
      int64_t B = static_cast<int64_t>(Regs[I.C]);
      if (B == 0)
        return MakeTrap(TrapKind::DivByZero, PC);
      Regs[I.A] = static_cast<uint64_t>(
          signedDiv(static_cast<int64_t>(Regs[I.B]), B));
      OP_BREAK;
    }
    OP_CASE(Rem): {
      int64_t B = static_cast<int64_t>(Regs[I.C]);
      if (B == 0)
        return MakeTrap(TrapKind::DivByZero, PC);
      Regs[I.A] = static_cast<uint64_t>(
          signedRem(static_cast<int64_t>(Regs[I.B]), B));
      OP_BREAK;
    }

    OP_CASE(AddI): {
      uint64_t A = Regs[I.B];
      uint64_t B = static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      uint64_t R = A + B;
      Regs[I.A] = R;
      setFlagsAdd(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(AndI):
      Regs[I.A] = Regs[I.B] & static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(OrI):
      Regs[I.A] = Regs[I.B] | static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(XorI):
      Regs[I.A] = Regs[I.B] ^ static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(ShlI):
      Regs[I.A] = Regs[I.B] << (I.Imm & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(ShrI):
      Regs[I.A] = Regs[I.B] >> (I.Imm & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(SarI):
      Regs[I.A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I.B]) >>
                                        (I.Imm & 63));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(MulI): {
      int64_t A = static_cast<int64_t>(Regs[I.B]);
      int64_t B = I.Imm;
      int64_t R = static_cast<int64_t>(static_cast<uint64_t>(A) *
                                       static_cast<uint64_t>(B));
      Regs[I.A] = static_cast<uint64_t>(R);
      setFlagsMul(F, A, B, R);
      OP_BREAK;
    }

    OP_CASE(Lea):
      Regs[I.A] = Regs[I.B] + static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      OP_BREAK;
    OP_CASE(LeaR):
      Regs[I.A] = Regs[I.B] + Regs[I.C];
      OP_BREAK;
    OP_CASE(Mov):
      Regs[I.A] = Regs[I.B];
      OP_BREAK;
    OP_CASE(MovI):
      Regs[I.A] = static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      OP_BREAK;
    OP_CASE(MovHi):
      Regs[I.A] = (Regs[I.A] & 0xffffffffULL) |
                  (static_cast<uint64_t>(static_cast<uint32_t>(I.Imm)) << 32);
      OP_BREAK;
    OP_CASE(Neg): {
      uint64_t B = Regs[I.B], R = 0 - B;
      Regs[I.A] = R;
      setFlagsSub(F, 0, B, R);
      OP_BREAK;
    }
    OP_CASE(Not):
      Regs[I.A] = ~Regs[I.B];
      OP_BREAK;

    OP_CASE(Cmp): {
      uint64_t A = Regs[I.A], B = Regs[I.B];
      setFlagsSub(F, A, B, A - B);
      OP_BREAK;
    }
    OP_CASE(CmpI): {
      uint64_t A = Regs[I.A];
      uint64_t B = static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsSub(F, A, B, A - B);
      OP_BREAK;
    }
    OP_CASE(Test):
      setFlagsLogic(F, Regs[I.A] & Regs[I.B]);
      OP_BREAK;
    OP_CASE(SetCC):
      Regs[I.A] = evalCondCode(I.cond(), F) ? 1 : 0;
      OP_BREAK;
    OP_CASE(CMov):
      if (evalCondCode(I.cond(), F))
        Regs[I.A] = Regs[I.B];
      OP_BREAK;

    OP_CASE(Ld): {
      MemResult R = MemResult::Ok;
      uint64_t Addr = Regs[I.B] + static_cast<int64_t>(I.Imm);
      uint64_t Value = Mem.read64(Addr, R);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::ReadViolation, Addr);
      Regs[I.A] = Value;
      OP_BREAK;
    }
    OP_CASE(St): {
      uint64_t Addr = Regs[I.A] + static_cast<int64_t>(I.Imm);
      MemResult R = Mem.write64(Addr, Regs[I.B]);
      if (R == MemResult::NoWrite && Dbt && Dbt->onWriteViolation(Addr)) {
        State.PC = PC; // Retry the store after the DBT handled the fault.
        continue;
      }
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::WriteViolation, Addr);
      // Note the store only after it succeeded: the SMC retry path above
      // re-executes the instruction and must not double-count it.
      if (DRec)
        DRec->noteStore(Addr, Regs[I.B]);
      OP_BREAK;
    }
    OP_CASE(LdB): {
      MemResult R = MemResult::Ok;
      uint64_t Addr = Regs[I.B] + static_cast<int64_t>(I.Imm);
      uint8_t Value = Mem.read8(Addr, R);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::ReadViolation, Addr);
      Regs[I.A] = Value;
      OP_BREAK;
    }
    OP_CASE(StB): {
      uint64_t Addr = Regs[I.A] + static_cast<int64_t>(I.Imm);
      MemResult R = Mem.write8(Addr, static_cast<uint8_t>(Regs[I.B]));
      if (R == MemResult::NoWrite && Dbt && Dbt->onWriteViolation(Addr)) {
        State.PC = PC;
        continue;
      }
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::WriteViolation, Addr);
      if (DRec)
        DRec->noteStore(Addr, Regs[I.B] & 0xff);
      OP_BREAK;
    }
    OP_CASE(Push): {
      Regs[RegSP] -= 8;
      MemResult R = Mem.write64(Regs[RegSP], Regs[I.A]);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::WriteViolation, Regs[RegSP]);
      if (DRec)
        DRec->noteStore(Regs[RegSP], Regs[I.A]);
      OP_BREAK;
    }
    OP_CASE(Pop): {
      MemResult R = MemResult::Ok;
      uint64_t Value = Mem.read64(Regs[RegSP], R);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::ReadViolation, Regs[RegSP]);
      Regs[I.A] = Value;
      Regs[RegSP] += 8;
      OP_BREAK;
    }

    OP_CASE(Jmp):
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      NextPC = I.branchTarget(PC);
      if (Profiler)
        Profiler->onBranch(PC, I, BranchFlags, true, NextPC);
      OP_BREAK;
    OP_CASE(Jcc): {
      // Digest capture sees the architectural flags, not the branch's
      // possibly fault-perturbed view: the error model is a transient
      // upset at the branch, not a FLAGS corruption.
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      bool Taken = evalCondCode(I.cond(), BranchFlags);
      if (Taken)
        NextPC = I.branchTarget(PC);
      if (Profiler)
        Profiler->onBranch(PC, I, BranchFlags, Taken, NextPC);
      OP_BREAK;
    }
    OP_CASE(Jzr): {
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      bool Taken = Regs[I.A] == 0;
      if (Taken)
        NextPC = I.branchTarget(PC);
      if (Profiler)
        Profiler->onBranch(PC, I, BranchFlags, Taken, NextPC);
      OP_BREAK;
    }
    OP_CASE(Jnzr): {
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      bool Taken = Regs[I.A] != 0;
      if (Taken)
        NextPC = I.branchTarget(PC);
      if (Profiler)
        Profiler->onBranch(PC, I, BranchFlags, Taken, NextPC);
      OP_BREAK;
    }
    OP_CASE(Call): {
      // Capture precedes the return-address push, matching the DBT's
      // marker placement (before the translator's MovI/Push lowering).
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      Regs[RegSP] -= 8;
      MemResult R = Mem.write64(Regs[RegSP], PC + InsnSize);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::WriteViolation, Regs[RegSP]);
      if (DRec)
        DRec->noteStore(Regs[RegSP], PC + InsnSize);
      NextPC = I.branchTarget(PC);
      if (Profiler)
        Profiler->onBranch(PC, I, BranchFlags, true, NextPC);
      OP_BREAK;
    }
    OP_CASE(CallR): {
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      Regs[RegSP] -= 8;
      MemResult R = Mem.write64(Regs[RegSP], PC + InsnSize);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::WriteViolation, Regs[RegSP]);
      if (DRec)
        DRec->noteStore(Regs[RegSP], PC + InsnSize);
      NextPC = Regs[I.A];
      OP_BREAK;
    }
    OP_CASE(JmpR):
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      NextPC = Regs[I.A];
      OP_BREAK;
    OP_CASE(Ret): {
      if (DXfer)
        DXfer->onTransfer(Insns - 1, PC, Regs, Fp, F.pack());
      MemResult R = MemResult::Ok;
      uint64_t Target = Mem.read64(Regs[RegSP], R);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::ReadViolation, Regs[RegSP]);
      Regs[RegSP] += 8;
      NextPC = Target;
      OP_BREAK;
    }

    OP_CASE(FAdd):
      Fp[I.A] = Fp[I.B] + Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FSub):
      Fp[I.A] = Fp[I.B] - Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMul):
      Fp[I.A] = Fp[I.B] * Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FDiv):
      Fp[I.A] = Fp[I.B] / Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMA):
      Fp[I.A] = Fp[I.A] + Fp[I.B] * Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FSqrt):
      Fp[I.A] = std::sqrt(Fp[I.B]);
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FAbs):
      Fp[I.A] = std::fabs(Fp[I.B]);
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FNeg):
      Fp[I.A] = -Fp[I.B];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMov):
      Fp[I.A] = Fp[I.B];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMovI):
      Fp[I.A] = static_cast<double>(I.Imm);
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FCmp): {
      double A = Fp[I.A], B = Fp[I.B];
      F.ZF = A == B;
      F.SF = A < B;
      F.CF = A < B;
      F.OF = false;
      OP_BREAK;
    }
    OP_CASE(FLd): {
      MemResult R = MemResult::Ok;
      uint64_t Addr = Regs[I.B] + static_cast<int64_t>(I.Imm);
      uint64_t Bits = Mem.read64(Addr, R);
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::ReadViolation, Addr);
      double Value;
      static_assert(sizeof(Value) == sizeof(Bits));
      __builtin_memcpy(&Value, &Bits, sizeof(Value));
      Fp[I.A] = Value;
      NoteFpWrite();
      OP_BREAK;
    }
    OP_CASE(FSt): {
      uint64_t Addr = Regs[I.A] + static_cast<int64_t>(I.Imm);
      uint64_t Bits;
      __builtin_memcpy(&Bits, &Fp[I.B], sizeof(Bits));
      MemResult R = Mem.write64(Addr, Bits);
      if (R == MemResult::NoWrite && Dbt && Dbt->onWriteViolation(Addr)) {
        State.PC = PC;
        continue;
      }
      if (R != MemResult::Ok)
        return MakeTrap(TrapKind::WriteViolation, Addr);
      if (DRec)
        DRec->noteStore(Addr, Bits);
      OP_BREAK;
    }
    OP_CASE(IToF):
      Fp[I.A] = static_cast<double>(static_cast<int64_t>(Regs[I.B]));
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FToI): {
      double Value = Fp[I.B];
      int64_t Result;
      if (!(Value > -9.2233720368547758e18 && Value < 9.2233720368547758e18))
        Result = Value > 0 ? INT64_MAX : INT64_MIN;
      else
        Result = static_cast<int64_t>(Value);
      Regs[I.A] = static_cast<uint64_t>(Result);
      OP_BREAK;
    }

    OP_CASE(Tramp): {
      if (!Dbt)
        return MakeTrap(TrapKind::IllegalInsn, PC);
      NextPC = Dbt->onDirectExit(PC, static_cast<uint64_t>(
                                         static_cast<int64_t>(I.Imm)));
      OP_BREAK;
    }
    OP_CASE(TrampR): {
      if (!Dbt)
        return MakeTrap(TrapKind::IllegalInsn, PC);
      NextPC = Dbt->onIndirectExit(PC, Regs[I.A]);
      OP_BREAK;
    }
    OP_CASE(Prof): {
      // Attribution bump; acts as a nop when no profile is attached.
      if (BlockProf)
        BlockProf->bump(static_cast<uint32_t>(I.Imm));
      OP_BREAK;
    }
    OP_CASE(Digest):
      cfed_unreachable("Digest markers are handled before dispatch");
#if !CFED_COMPUTED_GOTO
    }
#endif

  next_insn:
    State.PC = NextPC;
  }

  Stop.Kind = StopKind::InsnLimit;
  Stop.PC = State.PC;
  return Stop;
}

#undef OP_CASE
#undef OP_BREAK
