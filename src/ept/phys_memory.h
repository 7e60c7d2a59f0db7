// Physical memory byte access used by the EPT walker.
//
// EPT pages live at host physical addresses; hardware page walks read their
// bytes from DRAM. Routing the walker through this interface means a bit
// flip in simulated DRAM genuinely redirects translation — the attack §5.4
// defends against. FlatPhysMemory is the fast store for unit tests and for
// performance-mode simulation; sim::DramBackedMemory routes through the full
// DramDevice fault model.
//
// Concurrency contract: an implementation either lets calls on disjoint
// bytes run concurrently (FlatPhysMemory, lock-free) or is driven from one
// thread at a time by its owner (DramBackedMemory, whose every access
// advances the machine clock). Calls that touch the same bytes are never
// ordered by the store: whoever owns those bytes orders them (the
// hypervisor's socket locks order every access to a socket's EPT pages and
// guest backing). A store calls back into nothing, so it may be called
// under any lock.
#ifndef SILOZ_SRC_EPT_PHYS_MEMORY_H_
#define SILOZ_SRC_EPT_PHYS_MEMORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>

namespace siloz {

class PhysMemory {
 public:
  virtual ~PhysMemory() = default;

  virtual void ReadPhys(uint64_t phys, std::span<uint8_t> out) = 0;
  virtual void WritePhys(uint64_t phys, std::span<const uint8_t> data) = 0;

  // Copies `bytes` from `src` to `dst` (ranges must not overlap). The base
  // implementation streams 4 KiB chunks through ReadPhys/WritePhys, which is
  // correct for any backing but costs O(bytes); sparse stores override it so
  // the cost follows the frames actually materialized — the property VM
  // migration relies on to move multi-GiB backings cheaply.
  virtual void CopyPhys(uint64_t dst, uint64_t src, uint64_t bytes);

  uint64_t ReadU64(uint64_t phys);
  void WriteU64(uint64_t phys, uint64_t value);
};

// Sparse in-memory frame store (4 KiB frames, zero-filled on first touch).
// Frames hang off a four-level, 512-ary radix table indexed by frame number
// — the shape of an x86 page table — whose slots are atomic pointers. A
// lookup is four acquire loads and takes no lock; a missing table or frame
// is installed with a compare-and-swap. So calls on disjoint bytes, even
// inside one frame, run concurrently without blocking each other. Tables
// live as long as the store; a frame is freed only when a CopyPhys
// destination drops it. Addresses must lie below 2^48 (256 TiB).
class FlatPhysMemory final : public PhysMemory {
 public:
  FlatPhysMemory() = default;
  ~FlatPhysMemory() override;

  FlatPhysMemory(const FlatPhysMemory&) = delete;
  FlatPhysMemory& operator=(const FlatPhysMemory&) = delete;

  void ReadPhys(uint64_t phys, std::span<uint8_t> out) override;
  void WritePhys(uint64_t phys, std::span<const uint8_t> data) override;
  // A frame-aligned span costs O(tables under the source and destination
  // spans + frames materialized in them), whatever its length: stale
  // destination frames are dropped, source frames copied, and untouched
  // memory is never materialized. A ragged span falls back to the streaming
  // base copy.
  void CopyPhys(uint64_t dst, uint64_t src, uint64_t bytes) override;

  // Test helper: flip one bit directly (simulates a Rowhammer hit on a
  // flat-backed configuration).
  void FlipBit(uint64_t phys, uint8_t bit);

  size_t frame_count() const { return frames_.load(std::memory_order_relaxed); }

 private:
  static constexpr unsigned kLevelBits = 9;
  static constexpr unsigned kLevels = 4;
  static constexpr size_t kFanout = size_t{1} << kLevelBits;
  static constexpr uint64_t kMaxFrames = uint64_t{1} << (kLevelBits * kLevels);

  using Frame = std::array<uint8_t, 4096>;
  // Level 0 slots hold Frame*, the others Table*.
  struct Table {
    std::array<std::atomic<void*>, kFanout> slots{};
  };

  static size_t SlotIndex(uint64_t frame_index, unsigned level) {
    return static_cast<size_t>(frame_index >> (level * kLevelBits)) & (kFanout - 1);
  }
  // The frame, or nullptr if it was never written.
  const Frame* FindFrame(uint64_t frame_index) const;
  // The frame, installed zero-filled if absent.
  Frame& MaterializeFrame(uint64_t frame_index);
  // Calls fn(frame_index, slot) for every materialized frame in
  // [first, end), ascending; `table` is at `level` and covers frames from
  // `base` on.
  template <typename Fn>
  static void VisitFrames(Table& table, unsigned level, uint64_t base, uint64_t first,
                          uint64_t end, Fn& fn);
  static void FreeTable(Table& table, unsigned level);

  Table root_;  // level kLevels - 1
  std::atomic<size_t> frames_{0};
};

}  // namespace siloz

#endif  // SILOZ_SRC_EPT_PHYS_MEMORY_H_
