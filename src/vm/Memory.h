//===- Memory.h - Paged guest memory with permissions -----------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse paged guest memory with per-page read/write/execute permissions.
/// Pages are demand-zero: mapRegion and setPerms record page ranges in a
/// short region list, and a page's storage is allocated (zero-filled, with
/// its range's permissions) on the first access that lands on it, so
/// loading a program costs what it touches, not what it maps.
///
/// The execute bit plays the role of the IA-32 execute-disable bit in the
/// paper: wild control transfers into non-executable pages trap, which is
/// the hardware detector for branch-error category F. The write bit
/// implements the write-protection mechanism the DBT uses to catch
/// self-modifying code (Section 5).
///
/// Executable pages additionally carry a predecoded-instruction side array
/// (one Instruction record per aligned 8-byte slot, indexed by PC >> 3)
/// so the interpreter's run loop fetches decoded instructions directly
/// instead of re-decoding bytes on every dynamic instruction. Any byte
/// write to such a page — guest stores, the DBT installing or
/// chain-patching translations, flush unchaining — re-decodes the slots
/// it touched in place, which preserves self-modifying-code semantics.
///
/// The interpreter's hot path never leaves the header on a hit: fetches
/// go through a one-entry I-side cache of the last decoded page, and
/// 1- and 8-byte loads and stores through a small direct-mapped D-side
/// TLB of page pointers (DESIGN.md §6). Anything else — page straddles,
/// unmapped pages, permission failures, the first write to a page in a
/// write epoch, writes to pages with a live side array — takes the
/// byte-granular access() path, so trap kinds and addresses are the same
/// on both paths.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_VM_MEMORY_H
#define CFED_VM_MEMORY_H

#include "isa/Isa.h"
#include "vm/Layout.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cfed {

/// Observer of first-write-per-epoch page dirtying. The recovery subsystem
/// implements this to capture copy-on-write pre-images for its undo log:
/// onPageDirtied fires once per page per epoch, *before* the new bytes
/// land, with the page's current (pre-write) contents.
class PageWriteObserver {
public:
  virtual ~PageWriteObserver() = default;

  /// \p PageBase is the page-aligned guest address; \p OldBytes points at
  /// the page's PageSize bytes as they are about to be overwritten. The
  /// pointer is only valid for the duration of the call.
  virtual void onPageDirtied(uint64_t PageBase, const uint8_t *OldBytes) = 0;
};

/// Page permission bits.
enum PagePerms : uint8_t {
  PermNone = 0,
  PermR = 1,
  PermW = 2,
  PermX = 4,
  PermRW = PermR | PermW,
  PermRX = PermR | PermX,
  PermRWX = PermR | PermW | PermX,
};

/// Result of a memory access.
enum class MemResult : uint8_t {
  Ok,
  Unmapped,    ///< No page mapped at the address.
  NoRead,      ///< Page lacks the read permission.
  NoWrite,     ///< Page lacks the write permission.
  NoExec,      ///< Page lacks the execute permission.
};

/// Sparse paged memory. All accesses are byte-granular; multi-byte
/// accesses may straddle pages.
class Memory {
public:
  /// Maps [Base, Base+Size) with \p Perms, zero-filled. Rounds outward to
  /// page boundaries. Remapping an existing page just updates permissions.
  /// Allocates nothing: untouched pages materialize on first access.
  void mapRegion(uint64_t Base, uint64_t Size, uint8_t Perms);

  /// Changes permissions of all pages overlapping [Base, Base+Size).
  /// The pages must already be mapped (touched or not).
  void setPerms(uint64_t Base, uint64_t Size, uint8_t Perms);

  /// Returns the permissions of the page containing \p Addr, or PermNone
  /// if unmapped.
  uint8_t getPerms(uint64_t Addr) const;

  /// Reads \p Size bytes into \p Out checking the read permission.
  MemResult read(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Writes \p Size bytes from \p In checking the write permission.
  MemResult write(uint64_t Addr, const void *In, uint64_t Size);

  /// Fetches \p Size instruction bytes checking the execute permission.
  MemResult fetch(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Fast instruction fetch through the predecode cache. For an aligned
  /// \p Addr on an executable page, returns the predecoded instruction
  /// (decoding the whole page into the side array on first touch).
  /// Returns nullptr with \p Result == Ok when the caller must take the
  /// byte-level slow path: misaligned \p Addr or undecodable bytes (the
  /// slow path then raises the same illegal-instruction trap a raw decode
  /// would). Permission failures are reported through \p Result exactly
  /// like fetch().
  const Instruction *fetchDecoded(uint64_t Addr, MemResult &Result) {
    // I-side hit: an aligned PC on the page the last slow fetch decoded.
    // The mask keeps the low three bits, so a misaligned PC never matches
    // the page-aligned ICachedBase.
    if ((Addr & (~(PageSize - 1) | (InsnSize - 1))) == ICachedBase) {
      const Instruction &I = ICachedPage->Insns[(Addr % PageSize) / InsnSize];
      if (I.Op != DecodedPage::IllegalOp) {
        ++PredecodeHits;
        Result = MemResult::Ok;
        return &I;
      }
    }
    return fetchDecodedSlow(Addr, Result);
  }

  /// Drops predecoded side arrays for all pages overlapping
  /// [Base, Base+Size). Writes keep the arrays coherent; this is for
  /// callers that change what an address range means without writing it
  /// (e.g. the DBT's flush path, belt and braces).
  void invalidatePredecode(uint64_t Base, uint64_t Size);

  /// Predecode-cache hits: aligned fetches served from a live side array.
  uint64_t predecodeHitCount() const { return PredecodeHits; }
  /// Predecode-cache misses: decode events (whole-page decodes and
  /// in-place re-decodes after a write) plus slow-path fetches
  /// (misaligned or undecodable).
  uint64_t predecodeMissCount() const {
    return PredecodeDecodes + PredecodeSlow;
  }

  /// Installs (or clears, with nullptr) the page-write observer. Only
  /// pages whose base address is below \p LimitAddr are tracked — the
  /// recovery subsystem passes CacheBase so code-cache churn (translation
  /// installs, chain patching) never inflates the undo log. Installing an
  /// observer starts a fresh epoch.
  void setWriteObserver(PageWriteObserver *Observer, uint64_t LimitAddr);

  /// Starts a new write epoch: every tracked page reports its next write
  /// to the observer again. Called after a checkpoint or rollback.
  void resetWriteEpoch() { ++WriteEpoch; }

  /// Permission-less accessors for the loader, the translator and tests.
  /// The pages must be mapped.
  void writeRaw(uint64_t Addr, const void *In, uint64_t Size);
  void readRaw(uint64_t Addr, void *Out, uint64_t Size) const;

  uint64_t read64(uint64_t Addr, MemResult &Result) const {
    return load<uint64_t>(Addr, Result);
  }
  MemResult write64(uint64_t Addr, uint64_t Value) {
    return store<uint64_t>(Addr, Value);
  }
  uint8_t read8(uint64_t Addr, MemResult &Result) const {
    return load<uint8_t>(Addr, Result);
  }
  MemResult write8(uint64_t Addr, uint8_t Value) {
    return store<uint8_t>(Addr, Value);
  }

  /// Returns true if the page containing \p Addr is mapped.
  bool isMapped(uint64_t Addr) const;

  /// Number of pages with allocated storage (touched since mapping).
  size_t residentPageCount() const { return Pages.size(); }
  /// Number of entries in the region list (mapped ranges after adjacent
  /// equal-permission ranges coalesce).
  size_t regionCount() const { return Regions.size(); }

  using PageBytes = std::array<uint8_t, PageSize>;

  /// A copy of the guest-visible memory state (defined below).
  class Snapshot;

  /// Captures the region list and resident page bytes. A page whose bytes
  /// equal its copy in \p Prev shares that copy instead of making a new
  /// one. Predecoded side arrays are not captured.
  Snapshot capture(const Snapshot *Prev = nullptr) const;

  /// Replaces the mapped ranges and every resident page with \p S's.
  /// Pages resident here but not in \p S are dropped (they read zero
  /// again at their next touch), side arrays are rebuilt lazily at the
  /// next fetch, and a new write epoch starts.
  void restore(const Snapshot &S);

private:
  /// Predecoded view of one executable page: Insns[Slot] caches
  /// Instruction::decode of the 8 bytes at Slot * InsnSize, or holds
  /// IllegalOp for slots whose bytes do not decode.
  struct DecodedPage {
    static constexpr uint64_t NumSlots = PageSize / InsnSize;
    /// Never a valid opcode byte: decode rejects anything >= NumOpcodes.
    static constexpr Opcode IllegalOp = static_cast<Opcode>(0xFF);
    static_assert(NumOpcodes <= 0xFF);
    Instruction Insns[NumSlots];
    /// Written (and re-decoded in place) since the last fetch from this
    /// page. The next fetch counts one decode event, the count a drop
    /// and re-decode of the whole page would have produced.
    bool Patched = false;

    void decodeSlot(const uint8_t *PageBytes, uint64_t Slot) {
      auto I = Instruction::decode(PageBytes + Slot * InsnSize);
      Insns[Slot] = I ? *I : Instruction(IllegalOp, 0, 0, 0, 0);
    }
  };

  struct Page {
    uint8_t Perms = PermNone;
    /// WriteEpoch of this page's last write. A store into a page already
    /// written this epoch needs no observer report.
    uint64_t DirtyEpoch = 0;
    std::unique_ptr<DecodedPage> Decoded;
    uint8_t Bytes[PageSize] = {};

    /// A store may skip access(): writable, already reported this epoch,
    /// and no side array to keep coherent.
    bool fastWritable(uint64_t Epoch) const {
      return DirtyEpoch == Epoch && (Perms & PermW) && !Decoded;
    }
  };

  /// A mapped range of page indices [First, Last). The region list is
  /// sorted, disjoint, and adjacent regions differ in permissions; every
  /// resident page lies in a region and carries its permissions.
  struct Region {
    uint64_t First = 0;
    uint64_t Last = 0;
    uint8_t Perms = PermNone;
  };

  /// One D-TLB slot: a resident page and its index. Pages are never
  /// unmapped or moved, so an entry stays valid for the Memory's life;
  /// permissions are read from the page itself on every hit.
  struct TlbEntry {
    uint64_t PageIndex = ~0ULL;
    Page *P = nullptr;
  };
  static constexpr uint64_t TlbSize = 16;

  enum class AccessKind { Read, Write, Fetch, Raw };

  /// The page of an access of \p Size bytes at \p Addr that lies within
  /// one page and hits in the D-TLB; nullptr otherwise.
  Page *tlbPage(uint64_t Addr, uint64_t Size) const {
    if (Addr % PageSize > PageSize - Size)
      return nullptr;
    const TlbEntry &E = Tlb[(Addr / PageSize) % TlbSize];
    return E.PageIndex == Addr / PageSize ? E.P : nullptr;
  }

  template <typename T> T load(uint64_t Addr, MemResult &Result) const {
    T Value = 0;
    if (const Page *P = tlbPage(Addr, sizeof(T)); P && (P->Perms & PermR)) {
      std::memcpy(&Value, P->Bytes + Addr % PageSize, sizeof(T));
      Result = MemResult::Ok;
      return Value;
    }
    Result = read(Addr, &Value, sizeof(T));
    return Value;
  }

  template <typename T> MemResult store(uint64_t Addr, T Value) {
    if (Page *P = tlbPage(Addr, sizeof(T)); P && P->fastWritable(WriteEpoch)) {
      std::memcpy(P->Bytes + Addr % PageSize, &Value, sizeof(T));
      return MemResult::Ok;
    }
    return write(Addr, &Value, sizeof(T));
  }

  /// Looks \p PageIndex up through the D-TLB, filling it on a miss. The
  /// first lookup of an untouched mapped page materializes it.
  Page *lookup(uint64_t PageIndex) const;
  /// The region containing \p PageIndex, or nullptr if it is unmapped.
  const Region *regionOf(uint64_t PageIndex) const;
  /// Records [First, Last) -> \p Perms in the region list (overriding
  /// what was there) and applies \p Perms to the range's resident pages.
  void assignPerms(uint64_t First, uint64_t Last, uint8_t Perms);
  /// Calls \p Fn on every resident page in [First, Last), in time
  /// proportional to the smaller of the range and the resident set.
  template <typename FnT>
  void forEachResident(uint64_t First, uint64_t Last, FnT Fn);
  MemResult access(uint64_t Addr, void *Out, const void *In, uint64_t Size,
                   AccessKind Kind) const;
  const Instruction *fetchDecodedSlow(uint64_t Addr, MemResult &Result);
  /// Drops the I-side entry (permission change, side-array release or
  /// in-place patch of the cached page).
  void dropICache() {
    ICachedBase = ~0ULL;
    ICachedPage = nullptr;
  }

  std::vector<Region> Regions;
  /// Resident pages by index; lookup() adds to it, also for const readers.
  mutable std::unordered_map<uint64_t, std::unique_ptr<Page>> Pages;
  mutable TlbEntry Tlb[TlbSize];
  // I-side entry: base address of the last page fetchDecodedSlow served
  // (executable, side array live) and that array.
  uint64_t ICachedBase = ~0ULL;
  const DecodedPage *ICachedPage = nullptr;
  PageWriteObserver *WriteObserver = nullptr;
  uint64_t WriteObserverLimit = 0;
  // Starts above every page's initial DirtyEpoch of 0.
  uint64_t WriteEpoch = 1;
  uint64_t PredecodeHits = 0;
  uint64_t PredecodeDecodes = 0;
  uint64_t PredecodeSlow = 0;
};

/// A copy of the guest-visible memory state: the region list and the
/// bytes of every resident page, by page index. Page copies are
/// immutable, so snapshots share them, and several threads may restore
/// one snapshot at once.
class Memory::Snapshot {
public:
  /// Heap bytes of the region list and of the page copies not in \p Seen,
  /// which collects the copies counted so far (shared copies count once
  /// across snapshots).
  size_t bytes(std::unordered_set<const void *> &Seen) const;

private:
  friend class Memory;
  std::vector<Region> Regions;
  std::vector<std::pair<uint64_t, std::shared_ptr<const PageBytes>>> Pages;
};

} // namespace cfed

#endif // CFED_VM_MEMORY_H
