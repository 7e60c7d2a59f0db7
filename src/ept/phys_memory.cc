#include "src/ept/phys_memory.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/base/check.h"
#include "src/base/units.h"

namespace siloz {

uint64_t PhysMemory::ReadU64(uint64_t phys) {
  uint64_t value = 0;
  uint8_t bytes[8];
  ReadPhys(phys, bytes);
  std::memcpy(&value, bytes, 8);
  return value;
}

void PhysMemory::WriteU64(uint64_t phys, uint64_t value) {
  uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  WritePhys(phys, bytes);
}


void PhysMemory::CopyPhys(uint64_t dst, uint64_t src, uint64_t bytes) {
  uint8_t buffer[kPage4K];
  while (bytes > 0) {
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(bytes, kPage4K));
    ReadPhys(src, std::span<uint8_t>(buffer, chunk));
    WritePhys(dst, std::span<const uint8_t>(buffer, chunk));
    src += chunk;
    dst += chunk;
    bytes -= chunk;
  }
}

FlatPhysMemory::~FlatPhysMemory() { FreeTable(root_, kLevels - 1); }

// siloz-lint: allow(fault-point-coverage): destructor-only teardown of an
// infallible store; there is no error path to sweep.
void FlatPhysMemory::FreeTable(Table& table, unsigned level) {
  for (std::atomic<void*>& slot : table.slots) {
    void* child = slot.load(std::memory_order_relaxed);
    if (child == nullptr) {
      continue;
    }
    if (level == 0) {
      delete static_cast<Frame*>(child);
    } else {
      FreeTable(*static_cast<Table*>(child), level - 1);
      delete static_cast<Table*>(child);
    }
  }
}

const FlatPhysMemory::Frame* FlatPhysMemory::FindFrame(uint64_t frame_index) const {
  SILOZ_CHECK_LT(frame_index, kMaxFrames) << "address beyond the flat store";
  const Table* table = &root_;
  for (unsigned level = kLevels - 1; level > 0; --level) {
    table = static_cast<const Table*>(
        table->slots[SlotIndex(frame_index, level)].load(std::memory_order_acquire));
    if (table == nullptr) {
      return nullptr;
    }
  }
  return static_cast<const Frame*>(
      table->slots[SlotIndex(frame_index, 0)].load(std::memory_order_acquire));
}

namespace {

// The object in `slot`, installing a value-initialized T first if the slot
// is empty. Racing installers agree on the compare-and-swap winner.
template <typename T>
T* LoadOrInstall(std::atomic<void*>& slot, std::atomic<size_t>* installed) {
  void* current = slot.load(std::memory_order_acquire);
  if (current != nullptr) {
    return static_cast<T*>(current);
  }
  auto fresh = std::make_unique<T>();
  if (slot.compare_exchange_strong(current, fresh.get(), std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    if (installed != nullptr) {
      installed->fetch_add(1, std::memory_order_relaxed);
    }
    return fresh.release();
  }
  return static_cast<T*>(current);  // another caller won; ours is freed
}

}  // namespace

FlatPhysMemory::Frame& FlatPhysMemory::MaterializeFrame(uint64_t frame_index) {
  SILOZ_CHECK_LT(frame_index, kMaxFrames) << "address beyond the flat store";
  Table* table = &root_;
  for (unsigned level = kLevels - 1; level > 0; --level) {
    table = LoadOrInstall<Table>(table->slots[SlotIndex(frame_index, level)], nullptr);
  }
  return *LoadOrInstall<Frame>(table->slots[SlotIndex(frame_index, 0)], &frames_);
}

template <typename Fn>
void FlatPhysMemory::VisitFrames(Table& table, unsigned level, uint64_t base, uint64_t first,
                                 uint64_t end, Fn& fn) {
  const uint64_t span = uint64_t{1} << (level * kLevelBits);  // frames per slot
  const uint64_t lo = first > base ? (first - base) / span : 0;
  const uint64_t hi = std::min<uint64_t>(kFanout, (end - base + span - 1) / span);
  for (uint64_t i = lo; i < hi; ++i) {
    std::atomic<void*>& slot = table.slots[i];
    void* child = slot.load(std::memory_order_acquire);
    if (child == nullptr) {
      continue;
    }
    if (level == 0) {
      fn(base + i, slot);
    } else {
      VisitFrames(*static_cast<Table*>(child), level - 1, base + i * span, first, end, fn);
    }
  }
}

void FlatPhysMemory::ReadPhys(uint64_t phys, std::span<uint8_t> out) {
  uint64_t cursor = phys;
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t offset = cursor % kPage4K;
    const size_t chunk = std::min<size_t>(out.size() - done, kPage4K - offset);
    const Frame* frame = FindFrame(cursor / kPage4K);
    if (frame == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, frame->data() + offset, chunk);
    }
    done += chunk;
    cursor += chunk;
  }
}

void FlatPhysMemory::WritePhys(uint64_t phys, std::span<const uint8_t> data) {
  uint64_t cursor = phys;
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t offset = cursor % kPage4K;
    const size_t chunk = std::min<size_t>(data.size() - done, kPage4K - offset);
    std::memcpy(MaterializeFrame(cursor / kPage4K).data() + offset, data.data() + done, chunk);
    done += chunk;
    cursor += chunk;
  }
}

void FlatPhysMemory::CopyPhys(uint64_t dst, uint64_t src, uint64_t bytes) {
  // Ragged (non-frame-aligned) spans are rare and small; stream them.
  if (dst % kPage4K != 0 || src % kPage4K != 0 || bytes % kPage4K != 0) {
    PhysMemory::CopyPhys(dst, src, bytes);
    return;
  }
  SILOZ_CHECK(dst + bytes <= src || src + bytes <= dst) << "CopyPhys spans overlap";
  const uint64_t src_first = src / kPage4K;
  const uint64_t dst_first = dst / kPage4K;
  const uint64_t frames = bytes / kPage4K;
  SILOZ_CHECK_LE(std::max(src_first, dst_first) + frames, kMaxFrames)
      << "address beyond the flat store";
  // Every destination frame goes: one the source leaves zero must read back
  // zero, which an absent frame already does, and the rest are replaced.
  auto drop = [this](uint64_t, std::atomic<void*>& slot) {
    delete static_cast<Frame*>(slot.exchange(nullptr, std::memory_order_acq_rel));
    frames_.fetch_sub(1, std::memory_order_relaxed);
  };
  VisitFrames(root_, kLevels - 1, 0, dst_first, dst_first + frames, drop);
  auto copy = [this, src_first, dst_first](uint64_t index, std::atomic<void*>& slot) {
    const Frame& from = *static_cast<const Frame*>(slot.load(std::memory_order_acquire));
    MaterializeFrame(dst_first + (index - src_first)) = from;
  };
  VisitFrames(root_, kLevels - 1, 0, src_first, src_first + frames, copy);
}

void FlatPhysMemory::FlipBit(uint64_t phys, uint8_t bit) {
  SILOZ_CHECK_LT(bit, 8);
  MaterializeFrame(phys / kPage4K)[phys % kPage4K] ^= static_cast<uint8_t>(1u << bit);
}

}  // namespace siloz
