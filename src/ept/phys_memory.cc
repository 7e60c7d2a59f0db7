#include "src/ept/phys_memory.h"

#include <cstring>

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

std::vector<uint8_t>& FlatPhysMemory::Frame(uint64_t frame_index) {
  std::vector<uint8_t>& frame = frames_[frame_index];
  if (frame.empty()) {
    frame.assign(kPage4K, 0);
  }
  return frame;
}

void FlatPhysMemory::ReadPhys(uint64_t phys, std::span<uint8_t> out) {
  uint64_t cursor = phys;
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t frame_index = cursor / kPage4K;
    const uint64_t offset = cursor % kPage4K;
    const size_t chunk = std::min<size_t>(out.size() - done, kPage4K - offset);
    auto it = frames_.find(frame_index);
    if (it == frames_.end()) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, it->second.data() + offset, chunk);
    }
    done += chunk;
    cursor += chunk;
  }
}

void FlatPhysMemory::WritePhys(uint64_t phys, std::span<const uint8_t> data) {
  uint64_t cursor = phys;
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t frame_index = cursor / kPage4K;
    const uint64_t offset = cursor % kPage4K;
    const size_t chunk = std::min<size_t>(data.size() - done, kPage4K - offset);
    std::memcpy(Frame(frame_index).data() + offset, data.data() + done, chunk);
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
  // Every destination frame goes: one the source leaves zero must read back
  // zero, which an absent frame already does, and the rest are replaced.
  const auto dst_end = frames_.lower_bound(dst_first + frames);
  frames_.erase(frames_.lower_bound(dst_first), dst_end);
  // Source frames arrive in ascending order and all land just before
  // dst_end, so each insert is amortized O(1); std::map inserts leave `it`
  // valid.
  for (auto it = frames_.lower_bound(src_first);
       it != frames_.end() && it->first < src_first + frames; ++it) {
    frames_.emplace_hint(dst_end, dst_first + (it->first - src_first), it->second);
  }
}

void FlatPhysMemory::FlipBit(uint64_t phys, uint8_t bit) {
  SILOZ_CHECK_LT(bit, 8);
  Frame(phys / kPage4K)[phys % kPage4K] ^= static_cast<uint8_t>(1u << bit);
}

}  // namespace siloz
