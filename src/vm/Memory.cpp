//===- Memory.cpp - Paged guest memory with permissions --------------------===//

#include "vm/Memory.h"

#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace cfed;

Memory::Page *Memory::lookup(uint64_t PageIndex) const {
  TlbEntry &E = Tlb[PageIndex % TlbSize];
  if (E.PageIndex == PageIndex)
    return E.P;
  auto It = Pages.find(PageIndex);
  if (It == Pages.end()) {
    // Demand-zero: the first touch of a mapped page allocates it. Not
    // cached when unmapped: mapRegion may map the page later.
    const Region *R = regionOf(PageIndex);
    if (!R)
      return nullptr;
    It = Pages.emplace(PageIndex, std::make_unique<Page>()).first;
    It->second->Perms = R->Perms;
  }
  E.PageIndex = PageIndex;
  E.P = It->second.get();
  return E.P;
}

const Memory::Region *Memory::regionOf(uint64_t PageIndex) const {
  auto It = std::partition_point(
      Regions.begin(), Regions.end(),
      [PageIndex](const Region &R) { return R.Last <= PageIndex; });
  return It != Regions.end() && It->First <= PageIndex ? &*It : nullptr;
}

template <typename FnT>
void Memory::forEachResident(uint64_t First, uint64_t Last, FnT Fn) {
  if (Last - First <= Pages.size()) {
    for (uint64_t Index = First; Index < Last; ++Index)
      if (auto It = Pages.find(Index); It != Pages.end())
        Fn(*It->second);
    return;
  }
  for (auto &[Index, P] : Pages)
    if (Index >= First && Index < Last)
      Fn(*P);
}

void Memory::assignPerms(uint64_t First, uint64_t Last, uint8_t Perms) {
  if (First >= Last)
    return;
  // Regions overlapping or adjacent to [First, Last). Only the first can
  // begin before First and only the last can end after Last; what they
  // keep outside the range survives unless it coalesces with the new
  // region, and everything in between is replaced.
  auto Lo = std::partition_point(
      Regions.begin(), Regions.end(),
      [First](const Region &R) { return R.Last < First; });
  auto Hi = std::partition_point(
      Lo, Regions.end(), [Last](const Region &R) { return R.First <= Last; });
  Region Pieces[3];
  size_t NumPieces = 0;
  Region Merged{First, Last, Perms};
  Region Tail;
  if (Lo != Hi) {
    const Region &Front = *Lo;
    const Region &Back = *(Hi - 1);
    if (Front.First < First) {
      if (Front.Perms == Perms)
        Merged.First = Front.First;
      else
        Pieces[NumPieces++] = {Front.First, First, Front.Perms};
    }
    if (Back.Last > Last) {
      if (Back.Perms == Perms)
        Merged.Last = Back.Last;
      else
        Tail = {Last, Back.Last, Back.Perms};
    }
  }
  Pieces[NumPieces++] = Merged;
  if (Tail.First < Tail.Last)
    Pieces[NumPieces++] = Tail;
  Regions.insert(Regions.erase(Lo, Hi), Pieces, Pieces + NumPieces);

  forEachResident(First, Last, [Perms](Page &P) { P.Perms = Perms; });
  dropICache();
}

void Memory::mapRegion(uint64_t Base, uint64_t Size, uint8_t Perms) {
  assignPerms(Base / PageSize, (Base + Size + PageSize - 1) / PageSize,
              Perms);
}

void Memory::setPerms(uint64_t Base, uint64_t Size, uint8_t Perms) {
  uint64_t First = Base / PageSize;
  uint64_t Last = (Base + Size + PageSize - 1) / PageSize;
  for (uint64_t Next = First; Next < Last;) {
    const Region *R = regionOf(Next);
    if (!R)
      reportFatalErrorf("setPerms on unmapped page 0x%llx",
                        static_cast<unsigned long long>(Next * PageSize));
    Next = R->Last;
  }
  assignPerms(First, Last, Perms);
}

uint8_t Memory::getPerms(uint64_t Addr) const {
  const Region *R = regionOf(Addr / PageSize);
  return R ? R->Perms : static_cast<uint8_t>(PermNone);
}

bool Memory::isMapped(uint64_t Addr) const {
  return regionOf(Addr / PageSize) != nullptr;
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
  forEachResident(First, Last, [](Page &P) { P.Decoded.reset(); });
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

size_t Memory::Snapshot::bytes(std::unordered_set<const void *> &Seen) const {
  size_t Bytes = Regions.size() * sizeof(Region);
  for (const auto &[Index, Copy] : Pages)
    if (Seen.insert(Copy.get()).second)
      Bytes += sizeof(PageBytes);
  return Bytes;
}

Memory::Snapshot Memory::capture(const Snapshot *Prev) const {
  std::vector<std::pair<uint64_t, const Page *>> Resident;
  Resident.reserve(Pages.size());
  for (const auto &[Index, P] : Pages)
    Resident.emplace_back(Index, P.get());
  std::sort(Resident.begin(), Resident.end());
  Snapshot S;
  S.Regions = Regions;
  S.Pages.reserve(Resident.size());
  // Both page lists are sorted: one merge walk finds each page's copy in
  // the previous snapshot.
  size_t Old = 0;
  for (const auto &[Index, P] : Resident) {
    if (Prev) {
      while (Old < Prev->Pages.size() && Prev->Pages[Old].first < Index)
        ++Old;
      if (Old < Prev->Pages.size() && Prev->Pages[Old].first == Index &&
          std::memcmp(Prev->Pages[Old].second->data(), P->Bytes,
                      PageSize) == 0) {
        S.Pages.emplace_back(Index, Prev->Pages[Old].second);
        continue;
      }
    }
    auto Copy = std::make_shared<PageBytes>();
    std::memcpy(Copy->data(), P->Bytes, PageSize);
    S.Pages.emplace_back(Index, std::move(Copy));
  }
  return S;
}

void Memory::restore(const Snapshot &S) {
  Regions = S.Regions;
  Pages.clear();
  for (const auto &[Index, Copy] : S.Pages) {
    auto P = std::make_unique<Page>();
    P->Perms = regionOf(Index)->Perms;
    std::memcpy(P->Bytes, Copy->data(), PageSize);
    Pages.emplace(Index, std::move(P));
  }
  for (TlbEntry &E : Tlb)
    E = TlbEntry{};
  dropICache();
  ++WriteEpoch;
}
