//===- MemoryTest.cpp - Unit tests for paged memory and the loader -------------===//

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "vm/Interp.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "vm/Memory.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <gtest/gtest.h>

using namespace cfed;

TEST(MemoryTest, UnmappedAccessFails) {
  Memory Mem;
  uint8_t Byte;
  EXPECT_EQ(Mem.read(0x1000, &Byte, 1), MemResult::Unmapped);
  EXPECT_EQ(Mem.write(0x1000, &Byte, 1), MemResult::Unmapped);
  EXPECT_EQ(Mem.fetch(0x1000, &Byte, 1), MemResult::Unmapped);
  EXPECT_FALSE(Mem.isMapped(0x1000));
  EXPECT_EQ(Mem.getPerms(0x1000), PermNone);
}

TEST(MemoryTest, PermissionEnforcement) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermR);
  uint8_t Byte = 7;
  EXPECT_EQ(Mem.read(0x1000, &Byte, 1), MemResult::Ok);
  EXPECT_EQ(Mem.write(0x1000, &Byte, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.fetch(0x1000, &Byte, 1), MemResult::NoExec);

  Mem.setPerms(0x1000, PageSize, PermRWX);
  EXPECT_EQ(Mem.write(0x1000, &Byte, 1), MemResult::Ok);
  EXPECT_EQ(Mem.fetch(0x1000, &Byte, 1), MemResult::Ok);
}

TEST(MemoryTest, ReadWriteRoundTrip) {
  Memory Mem;
  Mem.mapRegion(0x2000, PageSize, PermRW);
  EXPECT_EQ(Mem.write64(0x2000, 0x1122334455667788ULL), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(0x2000, R), 0x1122334455667788ULL);
  EXPECT_EQ(R, MemResult::Ok);
  EXPECT_EQ(Mem.read8(0x2000, R), 0x88); // Little-endian.
}

TEST(MemoryTest, CrossPageAccess) {
  Memory Mem;
  Mem.mapRegion(0x3000, 2 * PageSize, PermRW);
  uint64_t Addr = 0x3000 + PageSize - 4; // Straddles the boundary.
  EXPECT_EQ(Mem.write64(Addr, 0xAABBCCDDEEFF0011ULL), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(Addr, R), 0xAABBCCDDEEFF0011ULL);
}

TEST(MemoryTest, CrossPagePartialPermissionFails) {
  Memory Mem;
  Mem.mapRegion(0x3000, PageSize, PermRW);
  Mem.mapRegion(0x3000 + PageSize, PageSize, PermR);
  uint64_t Addr = 0x3000 + PageSize - 4;
  EXPECT_EQ(Mem.write64(Addr, 1), MemResult::NoWrite);
}

TEST(MemoryTest, MapRegionRoundsOutward) {
  Memory Mem;
  Mem.mapRegion(0x5100, 100, PermR); // Mid-page, small.
  EXPECT_TRUE(Mem.isMapped(0x5000));
  EXPECT_TRUE(Mem.isMapped(0x5FFF));
  EXPECT_FALSE(Mem.isMapped(0x6000));
}

TEST(MemoryTest, RemapKeepsContents) {
  Memory Mem;
  Mem.mapRegion(0x7000, PageSize, PermRW);
  ASSERT_EQ(Mem.write64(0x7000, 42), MemResult::Ok);
  Mem.mapRegion(0x7000, PageSize, PermR); // Permission change only.
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(0x7000, R), 42u);
}

TEST(MemoryTest, RawBypassesPermissions) {
  Memory Mem;
  Mem.mapRegion(0x8000, PageSize, PermNone);
  uint64_t Value = 0x55;
  Mem.writeRaw(0x8000, &Value, sizeof(Value));
  uint64_t Back = 0;
  Mem.readRaw(0x8000, &Back, sizeof(Back));
  EXPECT_EQ(Back, 0x55u);
}

namespace {

/// Encodes \p I into memory at \p Addr, bypassing permissions.
void pokeInsn(Memory &Mem, uint64_t Addr, const Instruction &I) {
  uint8_t Buffer[InsnSize];
  I.encode(Buffer);
  Mem.writeRaw(Addr, Buffer, InsnSize);
}

} // namespace

TEST(MemoryTest, FetchDecodedReturnsDecodedInstruction) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 3, 4, 77));
  MemResult R = MemResult::Unmapped;
  const Instruction *I = Mem.fetchDecoded(0x1000, R);
  EXPECT_EQ(R, MemResult::Ok);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Op, Opcode::AddI);
  EXPECT_EQ(I->A, 3);
  EXPECT_EQ(I->B, 4);
  EXPECT_EQ(I->Imm, 77);
  // The second fetch is a pure side-array hit.
  uint64_t Hits = Mem.predecodeHitCount();
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), I);
  EXPECT_EQ(Mem.predecodeHitCount(), Hits + 1);
}

TEST(MemoryTest, FetchDecodedHonorsPermissions) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 1));
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(R, MemResult::NoExec);
  EXPECT_EQ(Mem.fetchDecoded(0x9000, R), nullptr);
  EXPECT_EQ(R, MemResult::Unmapped);
}

TEST(MemoryTest, FetchDecodedMisalignedFallsBack) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  // A misaligned PC is legal input: the caller must take the byte-fetch
  // slow path so trap semantics stay exact.
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.fetchDecoded(0x1004, R), nullptr);
  EXPECT_EQ(R, MemResult::Ok);
}

TEST(MemoryTest, FetchDecodedIllegalSlotFallsBack) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  uint8_t Garbage[InsnSize] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  Mem.writeRaw(0x1000, Garbage, InsnSize);
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(R, MemResult::Ok); // Caller decodes and traps IllegalInsn.
}

TEST(MemoryTest, WriteInvalidatesPredecodedPage) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 10));
  MemResult R = MemResult::Ok;
  const Instruction *I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 10);

  // A permission-checked write through the normal path must invalidate
  // the page's side array (self-modifying code coherence).
  uint8_t Buffer[InsnSize];
  insn::rri(Opcode::AddI, 1, 1, 99).encode(Buffer);
  ASSERT_EQ(Mem.write(0x1000, Buffer, InsnSize), MemResult::Ok);
  I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 99);
}

TEST(MemoryTest, InvalidatePredecodeDropsSideArrays) {
  Memory Mem;
  Mem.mapRegion(0x1000, 2 * PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 5));
  MemResult R = MemResult::Ok;
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  uint64_t DecodesBefore = Mem.predecodeMissCount();
  Mem.invalidatePredecode(0x1000, 2 * PageSize);
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  // The page had to be re-decoded after the explicit invalidation.
  EXPECT_GT(Mem.predecodeMissCount(), DecodesBefore);
}

namespace {

/// Records every onPageDirtied callback: page base plus the first
/// pre-image byte (enough to prove the snapshot predates the write).
class RecordingObserver : public PageWriteObserver {
public:
  struct Event {
    uint64_t PageBase;
    uint8_t FirstOldByte;
    bool OldAllZero;
  };
  std::vector<Event> Events;

  void onPageDirtied(uint64_t PageBase, const uint8_t *OldBytes) override {
    bool AllZero = std::all_of(OldBytes, OldBytes + PageSize,
                               [](uint8_t B) { return B == 0; });
    Events.push_back({PageBase, OldBytes[0], AllZero});
  }
};

} // namespace

TEST(MemoryTest, WriteObserverFiresOncePerPagePerEpoch) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  ASSERT_EQ(Mem.write8(0x1000, 0xAA), MemResult::Ok);

  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write8(0x1001, 0x11), MemResult::Ok);
  ASSERT_EQ(Mem.write8(0x1002, 0x22), MemResult::Ok); // Same page, same epoch.
  ASSERT_EQ(Mem.write8(0x1003, 0x33), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 1u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x1000u);
  // The pre-image is the page *before* the epoch's first write.
  EXPECT_EQ(Observer.Events[0].FirstOldByte, 0xAA);

  Mem.resetWriteEpoch();
  ASSERT_EQ(Mem.write8(0x1004, 0x44), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x1000u);

  Mem.setWriteObserver(nullptr, 0);
  ASSERT_EQ(Mem.write8(0x1005, 0x55), MemResult::Ok);
  EXPECT_EQ(Observer.Events.size(), 2u);
}

TEST(MemoryTest, WriteObserverIgnoresPagesAtOrAboveLimit) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  Mem.mapRegion(CacheBase, PageSize, PermRW);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  // Code-cache churn (installs, chain patching) must not reach the
  // observer — only guest-visible pages below the limit do.
  ASSERT_EQ(Mem.write8(CacheBase, 1), MemResult::Ok);
  EXPECT_TRUE(Observer.Events.empty());
  ASSERT_EQ(Mem.write8(0x1000, 1), MemResult::Ok);
  EXPECT_EQ(Observer.Events.size(), 1u);
}

TEST(MemoryTest, WriteObserverSeesCrossPageWriteOncePerPage) {
  Memory Mem;
  Mem.mapRegion(0x1000, 2 * PageSize, PermRW);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  uint64_t Straddle = 0x1000 + PageSize - 4;
  ASSERT_EQ(Mem.write64(Straddle, ~0ull), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x1000u);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x1000u + PageSize);
}

//===----------------------------------------------------------------------===//
// Soft-TLB coherence: the inline I-side and D-side fast paths must see
// every permission change, epoch change and code write.
//===----------------------------------------------------------------------===//

TEST(MemoryTest, SetPermsDropsCachedCodePage) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 1));
  pokeInsn(Mem, 0x1008, insn::rri(Opcode::AddI, 2, 2, 2));
  MemResult R = MemResult::Unmapped;
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  ASSERT_NE(Mem.fetchDecoded(0x1008, R), nullptr); // I-side hit.

  Mem.setPerms(0x1000, PageSize, PermRW);
  EXPECT_EQ(Mem.fetchDecoded(0x1008, R), nullptr);
  EXPECT_EQ(R, MemResult::NoExec);

  Mem.setPerms(0x1000, PageSize, PermRX);
  const Instruction *I = Mem.fetchDecoded(0x1008, R);
  EXPECT_EQ(R, MemResult::Ok);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 2);
}

TEST(MemoryTest, ConflictingTlbPagesStayCoherent) {
  // 16 pages apart: both pages share one slot of the direct-mapped
  // D-TLB, so every alternate access evicts the other page's entry.
  Memory Mem;
  constexpr uint64_t A = 0x40000;
  constexpr uint64_t B = A + 16 * PageSize;
  Mem.mapRegion(A, PageSize, PermRW);
  Mem.mapRegion(B, PageSize, PermRW);
  MemResult R = MemResult::Unmapped;
  for (uint64_t I = 0; I < 8; ++I) {
    ASSERT_EQ(Mem.write64(A + 8 * I, 0xA000 + I), MemResult::Ok);
    ASSERT_EQ(Mem.write64(B + 8 * I, 0xB000 + I), MemResult::Ok);
    ASSERT_EQ(Mem.write8(A + 100 + I, static_cast<uint8_t>(I)), MemResult::Ok);
    ASSERT_EQ(Mem.write8(B + 100 + I, static_cast<uint8_t>(I + 1)),
              MemResult::Ok);
  }
  for (uint64_t I = 0; I < 8; ++I) {
    EXPECT_EQ(Mem.read64(A + 8 * I, R), 0xA000 + I);
    EXPECT_EQ(R, MemResult::Ok);
    EXPECT_EQ(Mem.read64(B + 8 * I, R), 0xB000 + I);
    EXPECT_EQ(Mem.read8(A + 100 + I, R), I);
    EXPECT_EQ(Mem.read8(B + 100 + I, R), I + 1);
  }

  // Permissions are read from the page on every hit: revoking write on
  // B (while its entry is live) must be seen at once, and A unaffected.
  ASSERT_EQ(Mem.read64(B, R), 0xB000u);
  Mem.setPerms(B, PageSize, PermR);
  EXPECT_EQ(Mem.write64(B, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.write8(B, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.read64(B, R), 0xB000u);
  EXPECT_EQ(R, MemResult::Ok);
  EXPECT_EQ(Mem.write64(A, 7), MemResult::Ok);
  EXPECT_EQ(Mem.read64(A, R), 7u);
  Mem.setPerms(B, PageSize, PermNone);
  Mem.read64(B, R);
  EXPECT_EQ(R, MemResult::NoRead);
  Mem.read8(B, R);
  EXPECT_EQ(R, MemResult::NoRead);
}

TEST(MemoryTest, WriteObserverFiresOncePerEpochThroughInlineStores) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  ASSERT_EQ(Mem.write64(0x1000, 0x11), MemResult::Ok); // Warm the D-TLB.

  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write64(0x1000, 0x22), MemResult::Ok);
  ASSERT_EQ(Mem.write64(0x1008, 0x33), MemResult::Ok);
  ASSERT_EQ(Mem.write8(0x1010, 0x44), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 1u);
  EXPECT_EQ(Observer.Events[0].FirstOldByte, 0x11);

  Mem.resetWriteEpoch();
  ASSERT_EQ(Mem.write64(0x1000, 0x55), MemResult::Ok);
  ASSERT_EQ(Mem.write64(0x1000, 0x66), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[1].FirstOldByte, 0x22);

  // Installing an observer starts a fresh epoch, even the same one.
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write8(0x1001, 0x77), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 3u);
  EXPECT_EQ(Observer.Events[2].FirstOldByte, 0x66);
}

TEST(MemoryTest, PlainStoreIntoDecodedPageServesNewInstruction) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 10));
  pokeInsn(Mem, 0x1008, insn::rri(Opcode::AddI, 2, 2, 20));
  MemResult R = MemResult::Ok;
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  ASSERT_NE(Mem.fetchDecoded(0x1008, R), nullptr);
  uint64_t MissesBefore = Mem.predecodeMissCount();

  // A guest-style 8-byte store (no DBT involved) over the second slot.
  uint8_t Buffer[InsnSize];
  insn::rri(Opcode::AddI, 2, 2, 99).encode(Buffer);
  uint64_t Word = 0;
  std::memcpy(&Word, Buffer, sizeof(Word));
  ASSERT_EQ(Mem.write64(0x1008, Word), MemResult::Ok);

  const Instruction *I = Mem.fetchDecoded(0x1008, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 99);
  // The untouched slot keeps its decode; the patch is one decode event.
  I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 10);
  EXPECT_EQ(Mem.predecodeMissCount(), MissesBefore + 1);

  // A store that turns a slot into garbage makes it take the slow path.
  ASSERT_EQ(Mem.write8(0x1000, 0xFF), MemResult::Ok);
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(R, MemResult::Ok);
}

TEST(MemoryTest, Write64AtPageEndStraddlesAndObservesBoth) {
  Memory Mem;
  Mem.mapRegion(0x1000, 2 * PageSize, PermRW);
  MemResult R = MemResult::Ok;
  // Warm both pages into the D-TLB so a fast path would be tempted.
  Mem.read64(0x1000, R);
  Mem.read64(0x1000 + PageSize, R);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  uint64_t Straddle = 0x1000 + PageSize - 4;
  ASSERT_EQ(Mem.write64(Straddle, 0x8877665544332211ULL), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x1000u);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x1000u + PageSize);
  EXPECT_EQ(Mem.read64(Straddle, R), 0x8877665544332211ULL);
  EXPECT_EQ(Mem.read8(Straddle, R), 0x11);                // Low page.
  EXPECT_EQ(Mem.read8(0x1000 + PageSize, R), 0x55);       // High page.
  EXPECT_EQ(Mem.read64(0x1000 + PageSize, R), 0x88776655u);
}

//===----------------------------------------------------------------------===//
// Demand-zero pages: mapping records a range; a page's storage appears on
// its first access, and untouched pages behave exactly like zero-filled
// resident ones.
//===----------------------------------------------------------------------===//

TEST(MemoryTest, UntouchedPageReadsZeroAndReportsPerms) {
  Memory Mem;
  Mem.mapRegion(0x10000, 64 * PageSize, PermRW);
  // Asking about a page does not allocate it.
  EXPECT_TRUE(Mem.isMapped(0x10000 + 17 * PageSize));
  EXPECT_EQ(Mem.getPerms(0x10000 + 17 * PageSize), PermRW);
  EXPECT_FALSE(Mem.isMapped(0x10000 + 64 * PageSize));
  EXPECT_EQ(Mem.getPerms(0x10000 + 64 * PageSize), PermNone);
  EXPECT_EQ(Mem.residentPageCount(), 0u);

  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.read64(0x10000 + 5 * PageSize + 8, R), 0u);
  EXPECT_EQ(R, MemResult::Ok);
  uint8_t Bytes[64];
  std::memset(Bytes, 0xCC, sizeof(Bytes));
  ASSERT_EQ(Mem.read(0x10000 + 9 * PageSize - 32, Bytes, sizeof(Bytes)),
            MemResult::Ok); // Straddles two untouched pages.
  EXPECT_TRUE(std::all_of(Bytes, Bytes + sizeof(Bytes),
                          [](uint8_t B) { return B == 0; }));
  EXPECT_EQ(Mem.residentPageCount(), 3u);
}

TEST(MemoryTest, SetPermsOnUntouchedRangeAppliesAtFirstTouch) {
  Memory Mem;
  Mem.mapRegion(0x20000, 8 * PageSize, PermRWX);
  Mem.setPerms(0x20000 + 2 * PageSize, 3 * PageSize, PermR);
  EXPECT_EQ(Mem.residentPageCount(), 0u);
  EXPECT_EQ(Mem.getPerms(0x20000 + PageSize), PermRWX);
  EXPECT_EQ(Mem.getPerms(0x20000 + 2 * PageSize), PermR);
  EXPECT_EQ(Mem.getPerms(0x20000 + 4 * PageSize), PermR);
  EXPECT_EQ(Mem.getPerms(0x20000 + 5 * PageSize), PermRWX);

  uint8_t Byte = 0;
  EXPECT_EQ(Mem.write(0x20000 + 3 * PageSize, &Byte, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.fetch(0x20000 + 3 * PageSize, &Byte, 1), MemResult::NoExec);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.fetchDecoded(0x20000 + 4 * PageSize, R), nullptr);
  EXPECT_EQ(R, MemResult::NoExec);
  EXPECT_EQ(Mem.read(0x20000 + 2 * PageSize, &Byte, 1), MemResult::Ok);
  // The pages outside the changed range kept the mapping's perms.
  EXPECT_EQ(Mem.write(0x20000 + 5 * PageSize, &Byte, 1), MemResult::Ok);
  EXPECT_EQ(Mem.write8(0x20000 + PageSize, 1), MemResult::Ok);
}

TEST(MemoryTest, MapRegionOverPartlyResidentRangeUpdatesAllPages) {
  Memory Mem;
  Mem.mapRegion(0x30000, 4 * PageSize, PermRW);
  ASSERT_EQ(Mem.write64(0x30000 + PageSize, 0x1234), MemResult::Ok);
  ASSERT_EQ(Mem.residentPageCount(), 1u);

  // A later mapping takes precedence over the earlier one, for resident
  // and untouched pages alike, and keeps resident contents.
  Mem.mapRegion(0x30000, 3 * PageSize, PermR);
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.write64(0x30000 + PageSize, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.read64(0x30000 + PageSize, R), 0x1234u);
  EXPECT_EQ(Mem.write64(0x30000 + 2 * PageSize, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.getPerms(0x30000), PermR);
  EXPECT_EQ(Mem.write64(0x30000 + 3 * PageSize, 7), MemResult::Ok);

  // Mapping back over the same range with the original perms coalesces
  // with the tail and makes every page writable again.
  Mem.mapRegion(0x30000, 3 * PageSize, PermRW);
  for (uint64_t Page = 0; Page < 4; ++Page)
    EXPECT_EQ(Mem.write64(0x30000 + Page * PageSize + 8, Page), MemResult::Ok);
  EXPECT_EQ(Mem.read64(0x30000 + PageSize, R), 0x1234u);
  EXPECT_EQ(Mem.read64(0x30000 + 3 * PageSize, R), 7u);
}

TEST(MemoryTest, RegionListMatchesPerPageModel) {
  // Random overlapping mapRegion/setPerms calls over 64 pages, with
  // random touches in between, against a per-page reference model:
  // overrides, splits and coalescing must leave every page's answer
  // exactly what eager per-page mapping would give.
  Memory Mem;
  std::map<uint64_t, uint8_t> Model; // Page index -> perms.
  uint64_t State = 12345;
  auto Next = [&State](uint64_t Bound) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return (State >> 33) % Bound;
  };
  const uint8_t PermChoices[] = {PermNone, PermR, PermRW, PermRX, PermRWX};
  for (int Step = 0; Step < 400; ++Step) {
    uint64_t First = Next(64);
    uint64_t Last = std::min<uint64_t>(64, First + 1 + Next(12));
    uint8_t Perms = PermChoices[Next(5)];
    bool Covered = true;
    for (uint64_t Page = First; Page < Last; ++Page)
      Covered &= Model.count(Page) != 0;
    if (Next(2) == 0 || !Covered)
      Mem.mapRegion(First * PageSize, (Last - First) * PageSize, Perms);
    else
      Mem.setPerms(First * PageSize, (Last - First) * PageSize, Perms);
    for (uint64_t Page = First; Page < Last; ++Page)
      Model[Page] = Perms;
    uint8_t Raw = 0;
    if (uint64_t Touch = Next(64); Model.count(Touch))
      Mem.readRaw(Touch * PageSize, &Raw, 1);
    for (uint64_t Page = 0; Page < 64; ++Page) {
      auto It = Model.find(Page);
      ASSERT_EQ(Mem.isMapped(Page * PageSize), It != Model.end())
          << "step " << Step << " page " << Page;
      ASSERT_EQ(Mem.getPerms(Page * PageSize),
                It != Model.end() ? It->second : PermNone)
          << "step " << Step << " page " << Page;
    }
  }
  // Resident pages carry the same perms as the model.
  for (const auto &[Page, Perms] : Model) {
    uint8_t Byte = 0;
    EXPECT_EQ(Mem.write(Page * PageSize, &Byte, 1) == MemResult::NoWrite,
              !(Perms & PermW))
        << "page " << Page;
  }
}

TEST(MemoryDeathTest, SetPermsOnUnmappedPageIsFatal) {
  Memory Mem;
  Mem.mapRegion(0x40000, 2 * PageSize, PermRW);
  Mem.mapRegion(0x40000 + 3 * PageSize, PageSize, PermRW);
  EXPECT_DEATH(Mem.setPerms(0x80000, PageSize, PermR),
               "setPerms on unmapped page 0x80000");
  // A hole inside the range is reported at its first page.
  EXPECT_DEATH(Mem.setPerms(0x40000, 4 * PageSize, PermR),
               "setPerms on unmapped page 0x42000");
}

TEST(MemoryTest, FirstWriteToUntouchedPageObservesZeroPreImage) {
  Memory Mem;
  Mem.mapRegion(0x50000, 4 * PageSize, PermRW);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write64(0x50000 + 2 * PageSize + 16, ~0ULL), MemResult::Ok);
  ASSERT_EQ(Mem.write64(0x50000 + 2 * PageSize + 24, ~0ULL), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 1u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x50000u + 2 * PageSize);
  EXPECT_TRUE(Observer.Events[0].OldAllZero);

  // A page first read (so resident) and then written reports zeros too.
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.read64(0x50000, R), 0u);
  ASSERT_EQ(Mem.write8(0x50000, 5), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_TRUE(Observer.Events[1].OldAllZero);
}

TEST(MemoryTest, Write64StraddlingResidentAndUntouchedObservesBoth) {
  Memory Mem;
  Mem.mapRegion(0x60000, 2 * PageSize, PermRW);
  ASSERT_EQ(Mem.write8(0x60000 + 5, 0xAB), MemResult::Ok); // Low resident.
  ASSERT_EQ(Mem.residentPageCount(), 1u);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  uint64_t Straddle = 0x60000 + PageSize - 4;
  ASSERT_EQ(Mem.write64(Straddle, 0x8877665544332211ULL), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x60000u);
  EXPECT_FALSE(Observer.Events[0].OldAllZero);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x60000u + PageSize);
  EXPECT_TRUE(Observer.Events[1].OldAllZero);
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.read64(Straddle, R), 0x8877665544332211ULL);
  EXPECT_EQ(Mem.read64(0x60000 + PageSize + 8, R), 0u);
}

TEST(MemoryTest, FetchFromUntouchedNonExecPageTraps) {
  Memory Mem;
  Mem.mapRegion(0x70000, 2 * PageSize, PermRW);
  Mem.mapRegion(0x70000 + 2 * PageSize, PageSize, PermRX);
  uint8_t Raw[InsnSize];
  EXPECT_EQ(Mem.fetch(0x70000 + 8, Raw, InsnSize), MemResult::NoExec);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.fetchDecoded(0x70000 + PageSize, R), nullptr);
  EXPECT_EQ(R, MemResult::NoExec);
  // An untouched executable page fetches without a permission trap.
  EXPECT_EQ(Mem.fetch(0x70000 + 2 * PageSize, Raw, InsnSize), MemResult::Ok);
}

TEST(LoaderTest, NativeLayout) {
  AsmResult R = assembleProgram(".data\nv: .word 9\n.code\nmain:\nhalt\n"
                                ".entry main\n");
  ASSERT_TRUE(R.succeeded());
  Memory Mem;
  CpuState State;
  loadProgram(R.Program, LoadMode::Native, Mem, State);
  EXPECT_EQ(State.PC, CodeBase);
  EXPECT_EQ(State.Regs[RegSP], StackTop);
  EXPECT_EQ(Mem.getPerms(CodeBase), PermRX);
  EXPECT_EQ(Mem.getPerms(DataBase), PermRW);
  EXPECT_EQ(Mem.getPerms(StackTop - 8), PermRW);
  MemResult Res = MemResult::Ok;
  EXPECT_EQ(Mem.read64(DataBase, Res), 9u);
}

TEST(LoaderTest, TranslatedLayoutProtectsCode) {
  AsmResult R = assembleProgram("halt\n");
  ASSERT_TRUE(R.succeeded());
  Memory Mem;
  CpuState State;
  loadProgram(R.Program, LoadMode::Translated, Mem, State);
  // Guest code: readable, not executable, not writable — the
  // category-F detector and the self-modification trap.
  EXPECT_EQ(Mem.getPerms(CodeBase), PermR);
}

TEST(LoaderTest, ResetsCpuState) {
  AsmResult R = assembleProgram("halt\n");
  ASSERT_TRUE(R.succeeded());
  Memory Mem;
  CpuState State;
  State.Regs[3] = 999;
  State.F.ZF = true;
  loadProgram(R.Program, LoadMode::Native, Mem, State);
  EXPECT_EQ(State.Regs[3], 0u);
  EXPECT_FALSE(State.F.ZF);
}

namespace {

AsmProgram trivialProgram() {
  AsmResult R = assembleProgram(".data\nv: .word 7\n.code\nmain:\nhalt\n"
                                ".entry main\n");
  EXPECT_TRUE(R.succeeded());
  return R.Program;
}

void patchLE32(std::vector<uint8_t> &Image, size_t Offset, uint32_t Value) {
  ASSERT_LE(Offset + 4, Image.size());
  for (unsigned Byte = 0; Byte < 4; ++Byte)
    Image[Offset + Byte] = static_cast<uint8_t>(Value >> (8 * Byte));
}

void patchLE64(std::vector<uint8_t> &Image, size_t Offset, uint64_t Value) {
  ASSERT_LE(Offset + 8, Image.size());
  for (unsigned Byte = 0; Byte < 8; ++Byte)
    Image[Offset + Byte] = static_cast<uint8_t>(Value >> (8 * Byte));
}

/// Loads \p Image expecting failure; returns the error message and checks
/// that neither memory nor CPU state was touched.
std::string expectImageRejected(const std::vector<uint8_t> &Image) {
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(loadProgramImage(Image.data(), Image.size(),
                                LoadMode::Native, Mem, State, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(Mem.isMapped(CodeBase));
  EXPECT_FALSE(Mem.isMapped(DataBase));
  EXPECT_EQ(State.PC, 0u);
  return Error;
}

} // namespace

TEST(LoaderTest, ImageRoundTrip) {
  AsmProgram Program = trivialProgram();
  std::vector<uint8_t> Image = serializeProgram(Program);
  ASSERT_GE(Image.size(),
            ImageHeaderSize + 2 * ImageSectionHeaderSize);

  Memory Mem;
  CpuState State;
  std::string Error;
  ASSERT_TRUE(loadProgramImage(Image.data(), Image.size(), LoadMode::Native,
                               Mem, State, Error))
      << Error;
  EXPECT_EQ(State.PC, Program.Entry);
  EXPECT_EQ(State.Regs[RegSP], StackTop);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(DataBase, R), 7u);
  uint8_t FirstInsn[InsnSize];
  ASSERT_EQ(Mem.read(CodeBase, FirstInsn, InsnSize), MemResult::Ok);
  EXPECT_EQ(std::memcmp(FirstInsn, Program.Code.data(), InsnSize), 0);
}

TEST(LoaderTest, ImageTruncatedHeaderRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  Image.resize(ImageHeaderSize - 1);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageBadMagicRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE32(Image, 0, 0xDEADBEEF);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageBadVersionRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE32(Image, 4, ImageVersion + 1);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageTruncatedSectionTableRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  Image.resize(ImageHeaderSize + ImageSectionHeaderSize / 2);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("section"), std::string::npos) << Error;
}

TEST(LoaderTest, ImagePayloadPastEndRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  // Point the first section's payload past the end of the file.
  patchLE64(Image, ImageHeaderSize + 16, Image.size());
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("past"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageSectionOutsideRegionRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  // Relocate the code section outside the code region.
  patchLE64(Image, ImageHeaderSize + 8, CodeBase + CodeMaxSize);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("region"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageUnknownSectionKindRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE32(Image, ImageHeaderSize, 7);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("kind"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageOverlappingSectionsRejected) {
  // Two data sections landing on the same guest page.
  AsmProgram Program = trivialProgram();
  std::vector<uint8_t> Image = serializeProgram(Program);
  uint32_t NumSections = 0;
  std::memcpy(&NumSections, Image.data() + 16, sizeof(NumSections));
  ASSERT_EQ(NumSections, 2u);
  // Duplicate the data section header (the second one) verbatim: same
  // LoadAddr, same payload — a page-granular overlap.
  std::vector<uint8_t> DataHeader(
      Image.begin() + ImageHeaderSize + ImageSectionHeaderSize,
      Image.begin() + ImageHeaderSize + 2 * ImageSectionHeaderSize);
  std::vector<uint8_t> Rebuilt;
  Rebuilt.insert(Rebuilt.end(), Image.begin(),
                 Image.begin() + ImageHeaderSize +
                     2 * ImageSectionHeaderSize);
  Rebuilt.insert(Rebuilt.end(), DataHeader.begin(), DataHeader.end());
  Rebuilt.insert(Rebuilt.end(),
                 Image.begin() + ImageHeaderSize + 2 * ImageSectionHeaderSize,
                 Image.end());
  patchLE32(Rebuilt, 16, 3);
  // Payload offsets moved by one section header; fix all three.
  for (unsigned Section = 0; Section < 3; ++Section) {
    size_t HeaderOff = ImageHeaderSize + Section * ImageSectionHeaderSize;
    uint64_t FileOffset = 0;
    std::memcpy(&FileOffset, Rebuilt.data() + HeaderOff + 16,
                sizeof(FileOffset));
    patchLE64(Rebuilt, HeaderOff + 16, FileOffset + ImageSectionHeaderSize);
  }
  std::string Error = expectImageRejected(Rebuilt);
  EXPECT_NE(Error.find("overlap"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageEntryOutsideCodeRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE64(Image, 8, CodeBase - InsnSize);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("entry"), std::string::npos) << Error;
}

TEST(LoaderTest, CheckedLoadRejectsMisalignedCode) {
  AsmProgram Program = trivialProgram();
  Program.Code.resize(Program.Code.size() + 3); // No longer insn-granular.
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(
      loadProgramChecked(Program, LoadMode::Native, Mem, State, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(Mem.isMapped(CodeBase));
}

TEST(LoaderTest, CheckedLoadRejectsMisalignedEntry) {
  AsmProgram Program = trivialProgram();
  Program.Entry = CodeBase + 3;
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(
      loadProgramChecked(Program, LoadMode::Native, Mem, State, Error));
  EXPECT_NE(Error.find("entry"), std::string::npos) << Error;
}

TEST(LoaderTest, CheckedLoadRejectsOversizedCode) {
  AsmProgram Program = trivialProgram();
  Program.Code.resize(CodeMaxSize + InsnSize);
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(
      loadProgramChecked(Program, LoadMode::Native, Mem, State, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(LoaderTest, ValidateProgramAcceptsWellFormed) {
  AsmProgram Program = trivialProgram();
  std::string Error;
  EXPECT_TRUE(validateProgram(Program, Error)) << Error;
}

TEST(LoaderTest, ResidentSetStaysFarBelowMappedSize) {
  // The loader maps a 4 MiB data segment and a 1 MiB stack (1,280+
  // pages); only what the image and the run touch may become resident.
  AsmProgram Program = assembleWorkload("164.gzip");
  Memory Mem;
  Interpreter Interp(Mem);
  loadProgram(Program, LoadMode::Native, Mem, Interp.state());
  uint64_t CodePages = (Program.Code.size() + PageSize - 1) / PageSize;
  uint64_t DataPages = (Program.Data.size() + PageSize - 1) / PageSize;
  EXPECT_TRUE(Mem.isMapped(DataBase + DataDefaultSize - 1));
  EXPECT_TRUE(Mem.isMapped(StackTop - StackSize));
  // Loading touches exactly the image's code and data pages.
  EXPECT_EQ(Mem.residentPageCount(), CodePages + DataPages);

  StopInfo Stop = Interp.run(50000000ULL);
  ASSERT_EQ(Stop.Kind, StopKind::Halted);
  // Measured: 9 resident pages after the run, the image's 1 code and 8
  // data pages (this stand-in never touches its stack).
  // The slack absorbs workload edits, not a return to eager mapping.
  constexpr size_t MeasuredAfterRun = 9, Slack = 16;
  EXPECT_LE(Mem.residentPageCount(), MeasuredAfterRun + Slack);
}

TEST(LoaderTest, TranslatedRunKeepsRegionListShort) {
  // Each translation maps its own page-rounded code-cache range, which
  // partly overlaps the cache's region once the cache spans several
  // pages. Equal-permission neighbours must coalesce, or the region list
  // (which every golden-run snapshot copies) grows with the cache.
  auto RunTranslated = [](const AsmProgram &Program, uint64_t &CachePages) {
    DbtConfig Config;
    Config.Tech = Technique::EdgCf;
    Memory Mem;
    Dbt Translator(Mem, Config);
    Interpreter Interp(Mem);
    EXPECT_TRUE(Translator.load(Program, Interp.state()));
    EXPECT_EQ(Translator.run(Interp, 50000000ULL).Kind, StopKind::Halted);
    uint64_t CacheEnd = CacheBase;
    for (const TranslatedBlock &TB : Translator.blocks())
      CacheEnd = std::max(CacheEnd, TB.CacheAddr + TB.CacheSize);
    CachePages = (CacheEnd - CacheBase + PageSize - 1) / PageSize;
    return Mem.regionCount();
  };
  // Code, data, stack and code cache.
  constexpr size_t Regions = 4;
  uint64_t CachePages = 0;
  EXPECT_EQ(RunTranslated(assembleWorkload("164.gzip"), CachePages), Regions);
  // 164.gzip's cache fits in one page; a long random program's does not.
  RandomProgramOptions Options;
  Options.NumSegments = 80;
  Options.Seed = 3;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(RunTranslated(R.Program, CachePages), Regions);
  EXPECT_GE(CachePages, 6u);
}

