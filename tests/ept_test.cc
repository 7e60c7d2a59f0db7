// Tests for the EPT walker and secure-EPT integrity (src/ept).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/base/bitops.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/ept/ept.h"
#include "src/ept/phys_memory.h"

namespace siloz {
namespace {

// Allocator handing out consecutive 4 KiB frames starting at 1 GiB.
EptPageAllocator BumpAllocator(uint64_t* cursor) {
  return [cursor]() -> Result<uint64_t> {
    const uint64_t page = *cursor;
    *cursor += kPage4K;
    return page;
  };
}

TEST(PhysMemoryTest, ReadWriteRoundTrip) {
  FlatPhysMemory memory;
  const uint8_t data[] = {1, 2, 3, 4};
  memory.WritePhys(12345, data);
  uint8_t out[4] = {};
  memory.ReadPhys(12345, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

TEST(PhysMemoryTest, UntouchedReadsZero) {
  FlatPhysMemory memory;
  uint8_t out[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  memory.ReadPhys(77_MiB, out);
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST(PhysMemoryTest, CrossFrameAccess) {
  FlatPhysMemory memory;
  std::vector<uint8_t> data(kPage4K + 100, 0xAB);
  memory.WritePhys(kPage4K - 50, data);
  std::vector<uint8_t> out(data.size());
  memory.ReadPhys(kPage4K - 50, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(memory.frame_count(), 3u);
}

TEST(PhysMemoryTest, U64Helpers) {
  FlatPhysMemory memory;
  memory.WriteU64(640, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(memory.ReadU64(640), 0xDEADBEEFCAFEF00Dull);
}

// The streaming reference: PhysMemory's own chunked CopyPhys over a flat
// store.
class StreamingMemory final : public PhysMemory {
 public:
  void ReadPhys(uint64_t phys, std::span<uint8_t> out) override { store.ReadPhys(phys, out); }
  void WritePhys(uint64_t phys, std::span<const uint8_t> data) override {
    store.WritePhys(phys, data);
  }
  FlatPhysMemory store;
};

std::vector<uint8_t> ReadBack(PhysMemory& memory, uint64_t phys, uint64_t bytes) {
  std::vector<uint8_t> out(bytes);
  memory.ReadPhys(phys, out);
  return out;
}

// FlatPhysMemory's sparse CopyPhys against the streaming copy: random frames
// materialized inside the source, stale ones inside the destination, and
// more outside both spans (including the frames right at their edges) must
// all read back identically afterwards.
TEST(PhysMemoryTest, SparseCopyMatchesStreamingCopy) {
  struct Span {
    uint64_t dst, src, bytes;
  };
  const Span spans[] = {
      {5 * kGiB, 1 * kGiB, 16 * kMiB},             // large, frame-aligned
      {2 * kGiB + 8 * kPage4K, 2 * kGiB, 3 * kPage4K},  // small, adjacent
      {1 * kGiB, 3 * kGiB + 100, 3 * kPage4K + 777},    // ragged
  };
  Rng rng(0xC0B1);
  for (const Span& span : spans) {
    FlatPhysMemory sparse;
    StreamingMemory streaming;
    std::set<uint64_t> probes;  // pages outside both spans worth re-reading
    const auto stamp = [&](uint64_t base, uint64_t bytes) {
      const uint64_t phys = base + rng.NextBelow(bytes - 8);
      const uint64_t value = rng.NextU64() | 1;
      sparse.WriteU64(phys, value);
      streaming.WriteU64(phys, value);
    };
    for (int i = 0; i < 64; ++i) {
      stamp(span.src, span.bytes);  // source frames
      stamp(span.dst, span.bytes);  // stale destination frames
    }
    for (uint64_t edge : {span.src - kPage4K, span.src + span.bytes, span.dst - kPage4K,
                          span.dst + span.bytes}) {
      stamp(edge, kPage4K);
      probes.insert(edge);
    }
    for (int i = 0; i < 16; ++i) {
      const uint64_t page = AlignDown(8 * kGiB + rng.NextBelow(kGiB), kPage4K);
      stamp(page, kPage4K);
      probes.insert(page);
    }

    sparse.CopyPhys(span.dst, span.src, span.bytes);
    streaming.CopyPhys(span.dst, span.src, span.bytes);

    EXPECT_EQ(ReadBack(sparse, span.dst, span.bytes), ReadBack(streaming, span.dst, span.bytes))
        << "destination of span at " << span.src;
    EXPECT_EQ(ReadBack(sparse, span.src, span.bytes), ReadBack(streaming, span.src, span.bytes))
        << "source of span at " << span.src;
    for (uint64_t page : probes) {
      EXPECT_EQ(ReadBack(sparse, page, kPage4K), ReadBack(streaming, page, kPage4K))
          << "page " << page << " outside the span at " << span.src;
    }
  }
}

// Copying untouched memory, however large, materializes nothing, and
// copying it over stale frames drops them.
TEST(PhysMemoryTest, SparseCopyOfUntouchedSpanMaterializesNothing) {
  FlatPhysMemory memory;
  memory.WriteU64(0, 42);  // one frame outside both spans
  memory.CopyPhys(/*dst=*/64 * kGiB, /*src=*/16 * kGiB, 32 * kGiB);
  EXPECT_EQ(memory.frame_count(), 1u);
  memory.WriteU64(64 * kGiB + 5 * kMiB, 7);  // stale destination frame
  memory.CopyPhys(/*dst=*/64 * kGiB, /*src=*/16 * kGiB, 32 * kGiB);
  EXPECT_EQ(memory.frame_count(), 1u);
  EXPECT_EQ(memory.ReadU64(64 * kGiB + 5 * kMiB), 0u);
  EXPECT_EQ(memory.ReadU64(0), 42u);
}

TEST(EptTest, TranslateUnmappedFails) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  EXPECT_FALSE(ept.Translate(0).ok());
}

TEST(EptTest, Map4KAndTranslate) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(0x7000, 0x123456000, PageSize::k4K).ok());
  EXPECT_EQ(*ept.Translate(0x7000), 0x123456000u);
  EXPECT_EQ(*ept.Translate(0x7ABC), 0x123456ABCu);  // offset passes through
  EXPECT_FALSE(ept.Translate(0x8000).ok());
  // 4 table pages: PML4, PDPT, PD, PT.
  EXPECT_EQ(ept.table_page_count(), 4u);
}

TEST(EptTest, Map2MLargePage) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(4_MiB, 512_MiB, PageSize::k2M).ok());
  EXPECT_EQ(*ept.Translate(4_MiB), 512_MiB);
  EXPECT_EQ(*ept.Translate(4_MiB + 123456), 512_MiB + 123456);
  // 3 table pages: PML4, PDPT, PD (leaf at PD level).
  EXPECT_EQ(ept.table_page_count(), 3u);
}

TEST(EptTest, Map1GHugePage) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(2_GiB, 8_GiB, PageSize::k1G).ok());
  EXPECT_EQ(*ept.Translate(2_GiB + 777), 8_GiB + 777);
  EXPECT_EQ(ept.table_page_count(), 2u);  // PML4, PDPT
}

TEST(EptTest, MisalignedMapRejected) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  EXPECT_FALSE(ept.Map(4_KiB, 0, PageSize::k2M).ok());
  EXPECT_FALSE(ept.Map(2_MiB, 4_KiB, PageSize::k2M).ok());
}

TEST(EptTest, DoubleMapRejected) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(0, 2_MiB, PageSize::k2M).ok());
  EXPECT_FALSE(ept.Map(0, 4_MiB, PageSize::k2M).ok());
  EXPECT_FALSE(ept.Map(0, 4_MiB, PageSize::k4K).ok());  // covered by large page
}

TEST(EptTest, SharedIntermediateTables) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  // 512 consecutive 2 MiB mappings share one PD: 3 + 0 extra pages.
  for (uint64_t i = 0; i < 512; ++i) {
    ASSERT_TRUE(ept.Map(i * kPage2M, 8_GiB + i * kPage2M, PageSize::k2M).ok());
  }
  EXPECT_EQ(ept.table_page_count(), 3u);
  EXPECT_EQ(*ept.Translate(511 * kPage2M + 5), 8_GiB + 511 * kPage2M + 5);
}

TEST(EptTest, EptFootprintMatchesPaperBound) {
  // §5.4: with 2 MiB backing and contiguous placement, each last-level EPT
  // page maps ~1 GiB, so a 160 GiB VM needs ~163 table pages (< one row
  // group of 384 pages).
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  const uint64_t vm_bytes = 160_GiB;
  for (uint64_t gpa = 0; gpa < vm_bytes; gpa += kPage2M) {
    ASSERT_TRUE(ept.Map(gpa, 200_GiB + gpa, PageSize::k2M).ok());
  }
  // 160 PDs + 1 PDPT + 1 PML4 = 162.
  EXPECT_EQ(ept.table_page_count(), 162u);
  EXPECT_LT(ept.table_page_count(), 384u);
}

TEST(EptTest, BitFlipRedirectsTranslation) {
  // The §5.4 threat: a flipped EPT bit silently retargets a mapping.
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(0, 16_GiB, PageSize::k2M).ok());
  const uint64_t before = *ept.Translate(0);
  EXPECT_EQ(before, 16_GiB);

  // Flip frame bit 34 of the PD's first entry (byte 4, bit 2). The PD is the
  // 3rd table page allocated.
  const uint64_t pd_page = ept.table_pages()[2];
  memory.FlipBit(pd_page + 4, 2);

  const Result<uint64_t> after = ept.Translate(0);
  ASSERT_TRUE(after.ok());  // no integrity checking: walk "succeeds"
  EXPECT_NE(*after, before);
  EXPECT_EQ(*after, before ^ (1ull << 34));
}

TEST(SecureEptTest, DetectsCorruption) {
  // §5.4 hardware-based protection: TDX/SNP-style checks detect (not
  // prevent) EPT corruption; software cannot use the corrupted mapping.
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor), /*secure=*/true);
  ASSERT_TRUE(ept.Map(0, 16_GiB, PageSize::k2M).ok());
  ASSERT_TRUE(ept.Translate(0).ok());  // clean walk passes checks

  const uint64_t pd_page = ept.table_pages()[2];
  memory.FlipBit(pd_page + 4, 2);
  const Result<uint64_t> after = ept.Translate(0);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, ErrorCode::kIntegrityViolation);
}

TEST(SecureEptTest, LegitimateUpdatesKeepPassing) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor), /*secure=*/true);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(ept.Map(i * kPage2M, 32_GiB + i * kPage2M, PageSize::k2M).ok());
    ASSERT_TRUE(ept.Translate(i * kPage2M).ok());
  }
}

TEST(EptTest, AllocatorFailurePropagates) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  int budget = 2;  // root + one level only
  EptPageAllocator limited = [&]() -> Result<uint64_t> {
    if (budget-- <= 0) {
      return MakeError(ErrorCode::kNoMemory, "pool empty");
    }
    const uint64_t page = cursor;
    cursor += kPage4K;
    return page;
  };
  ExtendedPageTable ept(memory, limited);
  const Status status = ept.Map(0, 0, PageSize::k2M);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNoMemory);
}

}  // namespace
}  // namespace siloz
