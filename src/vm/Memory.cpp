//===- Memory.cpp - Paged guest memory with permissions --------------------===//

#include "vm/Memory.h"

#include "support/Diagnostics.h"
#include "support/Format.h"

#include <cassert>
#include <cstring>

using namespace cfed;

Memory::Page *Memory::lookup(uint64_t PageIndex) const {
  TlbEntry &E = Tlb[PageIndex % TlbSize];
  if (E.PageIndex == PageIndex)
    return E.P;
  auto It = Pages.find(PageIndex);
  if (It == Pages.end())
    return nullptr; // Not cached: mapRegion may map the page later.
  E.PageIndex = PageIndex;
  E.P = It->second.get();
  return E.P;
}

void Memory::mapRegion(uint64_t Base, uint64_t Size, uint8_t Perms) {
  uint64_t First = Base / PageSize;
  uint64_t Last = (Base + Size + PageSize - 1) / PageSize;
  for (uint64_t Index = First; Index < Last; ++Index) {
    auto &Slot = Pages[Index];
    if (!Slot)
      Slot = std::make_unique<Page>();
    Slot->Perms = Perms;
  }
  dropICache();
}

void Memory::setPerms(uint64_t Base, uint64_t Size, uint8_t Perms) {
  uint64_t First = Base / PageSize;
  uint64_t Last = (Base + Size + PageSize - 1) / PageSize;
  for (uint64_t Index = First; Index < Last; ++Index) {
    Page *P = lookup(Index);
    if (!P)
      reportFatalErrorf("setPerms on unmapped page 0x%llx",
                        static_cast<unsigned long long>(Index * PageSize));
    P->Perms = Perms;
  }
  dropICache();
}

uint8_t Memory::getPerms(uint64_t Addr) const {
  const Page *P = lookup(Addr / PageSize);
  return P ? P->Perms : static_cast<uint8_t>(PermNone);
}

bool Memory::isMapped(uint64_t Addr) const {
  return lookup(Addr / PageSize) != nullptr;
}

MemResult Memory::access(uint64_t Addr, void *Out, const void *In,
                         uint64_t Size, AccessKind Kind) const {
  auto *Self = const_cast<Memory *>(this);
  uint64_t Done = 0;
  while (Done < Size) {
    uint64_t Current = Addr + Done;
    uint64_t PageIndex = Current / PageSize;
    uint64_t PageOffset = Current % PageSize;
    Page *P = lookup(PageIndex);
    if (!P)
      return MemResult::Unmapped;
    switch (Kind) {
    case AccessKind::Read:
      if (!(P->Perms & PermR))
        return MemResult::NoRead;
      break;
    case AccessKind::Write:
      if (!(P->Perms & PermW))
        return MemResult::NoWrite;
      break;
    case AccessKind::Fetch:
      if (!(P->Perms & PermX))
        return MemResult::NoExec;
      break;
    case AccessKind::Raw:
      break;
    }
    uint64_t Chunk = std::min(Size - Done, PageSize - PageOffset);
    if (In) {
      uint64_t PageBase = PageIndex * PageSize;
      if (P->DirtyEpoch != WriteEpoch) {
        if (WriteObserver && PageBase < WriteObserverLimit)
          WriteObserver->onPageDirtied(PageBase, P->Bytes);
        P->DirtyEpoch = WriteEpoch;
      }
      std::memcpy(P->Bytes + PageOffset,
                  static_cast<const uint8_t *>(In) + Done, Chunk);
      // Keep the predecode side array coherent with the bytes: re-decode
      // just the slots the write touched, and send the page's next fetch
      // through fetchDecodedSlow so it counts the decode event.
      if (P->Decoded) {
        for (uint64_t Slot = PageOffset / InsnSize,
                      End = (PageOffset + Chunk - 1) / InsnSize;
             Slot <= End; ++Slot)
          P->Decoded->decodeSlot(P->Bytes, Slot);
        P->Decoded->Patched = true;
        if (ICachedPage == P->Decoded.get())
          Self->dropICache();
      }
    } else
      std::memcpy(static_cast<uint8_t *>(Out) + Done, P->Bytes + PageOffset,
                  Chunk);
    Done += Chunk;
  }
  return MemResult::Ok;
}

MemResult Memory::read(uint64_t Addr, void *Out, uint64_t Size) const {
  return access(Addr, Out, nullptr, Size, AccessKind::Read);
}

MemResult Memory::write(uint64_t Addr, const void *In, uint64_t Size) {
  return access(Addr, nullptr, In, Size, AccessKind::Write);
}

MemResult Memory::fetch(uint64_t Addr, void *Out, uint64_t Size) const {
  return access(Addr, Out, nullptr, Size, AccessKind::Fetch);
}

const Instruction *Memory::fetchDecodedSlow(uint64_t Addr, MemResult &Result) {
  if (Addr % InsnSize != 0) {
    // Misaligned PCs (wild landings) straddle slots and possibly pages:
    // byte-level slow path.
    ++PredecodeSlow;
    Result = MemResult::Ok;
    return nullptr;
  }
  Page *P = lookup(Addr / PageSize);
  if (!P) {
    Result = MemResult::Unmapped;
    return nullptr;
  }
  if (!(P->Perms & PermX)) {
    Result = MemResult::NoExec;
    return nullptr;
  }
  if (!P->Decoded) {
    ++PredecodeDecodes;
    P->Decoded = std::make_unique<DecodedPage>();
    for (uint64_t Slot = 0; Slot < DecodedPage::NumSlots; ++Slot)
      P->Decoded->decodeSlot(P->Bytes, Slot);
  } else if (P->Decoded->Patched) {
    ++PredecodeDecodes;
    P->Decoded->Patched = false;
  }
  ICachedBase = Addr & ~(PageSize - 1);
  ICachedPage = P->Decoded.get();
  Result = MemResult::Ok;
  const Instruction &I = P->Decoded->Insns[(Addr % PageSize) / InsnSize];
  if (I.Op == DecodedPage::IllegalOp) {
    ++PredecodeSlow;
    return nullptr; // Slow path re-decodes and traps IllegalInsn.
  }
  ++PredecodeHits;
  return &I;
}

void Memory::invalidatePredecode(uint64_t Base, uint64_t Size) {
  uint64_t First = Base / PageSize;
  uint64_t Last = (Base + Size + PageSize - 1) / PageSize;
  for (uint64_t Index = First; Index < Last; ++Index)
    if (Page *P = lookup(Index))
      P->Decoded.reset();
  dropICache();
}

void Memory::setWriteObserver(PageWriteObserver *Observer,
                              uint64_t LimitAddr) {
  WriteObserver = Observer;
  WriteObserverLimit = Observer ? LimitAddr : 0;
  ++WriteEpoch;
}

void Memory::writeRaw(uint64_t Addr, const void *In, uint64_t Size) {
  MemResult Result = access(Addr, nullptr, In, Size, AccessKind::Raw);
  if (Result != MemResult::Ok)
    reportFatalErrorf("writeRaw to unmapped address 0x%llx",
                      static_cast<unsigned long long>(Addr));
}

void Memory::readRaw(uint64_t Addr, void *Out, uint64_t Size) const {
  MemResult Result = access(Addr, Out, nullptr, Size, AccessKind::Raw);
  if (Result != MemResult::Ok)
    reportFatalErrorf("readRaw from unmapped address 0x%llx",
                      static_cast<unsigned long long>(Addr));
}
