#include "src/addr/platform.h"

#include "src/addr/xor_decoder.h"
#include "src/base/check.h"
#include "src/base/units.h"

namespace siloz {

namespace {

// The interleaved skx_edac layout (decoder.h): regions cover 512 rows, so
// the bank must hold a whole number of regions. Pre-checked here so an
// out-of-family geometry is an error, not a SILOZ_CHECK crash.
Result<std::unique_ptr<AddressDecoder>> MakeSkylakeFamily(const DramGeometry& geometry) {
  if (geometry.rows_per_bank % 512 != 0) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "skylake-family decoders need rows_per_bank divisible by 512, got " +
                         std::to_string(geometry.rows_per_bank));
  }
  return Result<std::unique_ptr<AddressDecoder>>(std::make_unique<SkylakeDecoder>(geometry));
}

// Zen's XOR masks are bound to ZenXorSpec()'s bit widths; only the subarray
// size (a Siloz boot parameter, not an address-function input) may vary.
Result<std::unique_ptr<AddressDecoder>> MakeZenFamily(const DramGeometry& geometry) {
  XorMaskSpec spec = ZenXorSpec();
  DramGeometry expected = spec.geometry;
  expected.rows_per_subarray = geometry.rows_per_subarray;
  if (!(geometry == expected)) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "zen's XOR masks are bound to its geometry; only rows_per_subarray "
                     "may vary from the registered default");
  }
  spec.geometry.rows_per_subarray = geometry.rows_per_subarray;
  Result<std::unique_ptr<XorMaskDecoder>> built = XorMaskDecoder::Build(spec);
  SILOZ_RETURN_IF_ERROR(built);
  return Result<std::unique_ptr<AddressDecoder>>(std::move(*built));
}

// Skylake: the paper's evaluation server (Table 2) — dual-socket, 6
// channels/socket, one 2Rx4 32 GiB DIMM per channel, 1024-row subarrays.
PlatformInfo Skylake() {
  PlatformInfo info;
  info.name = "skylake";
  info.description = "Intel Skylake-SP, DDR4, 6ch x 1 DIMM, 192 GiB/socket (Table 2)";
  info.geometry = DramGeometry{};
  info.subarray_sizes = {512, 1024, 2048};
  info.make = &MakeSkylakeFamily;
  return info;
}

// Cascade Lake: same skx_edac translation family as Skylake (the prototype
// runs unchanged on both, §5.3), denser DIMM population — two dual-rank
// DIMMs per channel with 64 Ki-row banks — and parts that ship with 512-row
// subarrays, so the default group is 1.5 GiB over 384 banks.
PlatformInfo CascadeLake() {
  PlatformInfo info;
  info.name = "cascadelake";
  info.description = "Intel Cascade Lake-SP, DDR4, 6ch x 2 DIMMs, 192 GiB/socket";
  DramGeometry g;
  g.sockets = 2;
  g.channels_per_socket = 6;
  g.dimms_per_channel = 2;
  g.ranks_per_dimm = 2;
  g.banks_per_rank = 16;
  g.row_bytes = 8 * kKiB;
  g.rows_per_bank = 65536;
  g.rows_per_subarray = 512;
  info.geometry = g;
  info.subarray_sizes = {512, 1024, 2048};
  info.make = &MakeSkylakeFamily;
  return info;
}

// Zen: XOR-matrix address functions (ZenHammer-style), 2-channel desktop
// part. The decoder is the generic GF(2) engine over ZenXorSpec()'s masks.
PlatformInfo Zen() {
  PlatformInfo info;
  info.name = "zen";
  info.description = "AMD Zen, DDR4, XOR-matrix address functions, 2ch, 32 GiB";
  info.geometry = ZenXorSpec().geometry;
  info.subarray_sizes = {512, 1024, 2048};
  info.make = &MakeZenFamily;
  return info;
}

// DDR5 server: 8 channels/socket, 32 banks/rank (8 bank groups x 4), 256
// GiB/socket. Uniform internal addressing (§8.2) and a same-bank-refresh
// sampler: DDR5 REFsb refreshes one bank per tick instead of the whole
// rank, which multiplies the TRR sampler's per-bank service opportunities —
// modeled as more targets per REF with a lower confidence threshold.
PlatformInfo Ddr5() {
  PlatformInfo info;
  info.name = "ddr5";
  info.description = "DDR5 server, 8ch x 1 DIMM, 32 banks/rank, 256 GiB/socket";
  DramGeometry g;
  g.sockets = 2;
  g.channels_per_socket = 8;
  g.dimms_per_channel = 1;
  g.ranks_per_dimm = 2;
  g.banks_per_rank = 32;
  g.row_bytes = 8 * kKiB;
  g.rows_per_bank = 65536;
  g.rows_per_subarray = 1024;
  info.geometry = g;
  info.subarray_sizes = {512, 1024, 2048};
  info.uniform_internal_addressing = true;
  info.remap = Ddr5RemapConfig();
  info.trr.targets_per_ref = 2;
  info.trr.act_threshold = 256;
  info.make = &MakeSkylakeFamily;
  return info;
}

}  // namespace

const std::map<std::string, PlatformInfo, std::less<>>& PlatformRegistry() {
  // Ordered container on purpose: iteration order feeds test matrices and
  // CI smoke loops, so it must be the names' lexicographic order, never
  // pointer or hash order (raw-nondeterminism lint rule).
  static const auto& registry = *new std::map<std::string, PlatformInfo, std::less<>>([] {
    std::map<std::string, PlatformInfo, std::less<>> platforms;
    for (PlatformInfo info : {Skylake(), CascadeLake(), Zen(), Ddr5()}) {
      const std::string name = info.name;
      platforms.emplace(name, std::move(info));
    }
    return platforms;
  }());
  return registry;
}

std::vector<std::string> PlatformNames() {
  std::vector<std::string> names;
  for (const auto& [name, info] : PlatformRegistry()) {
    names.push_back(name);
  }
  return names;
}

void DeclarePlatform(FlagSet& flags, std::string* platform) {
  flags.String("--platform", platform,
               "registered platform: decoder family, geometry and DDR-generation semantics "
               "(default: the Table 2 Skylake server)",
               PlatformNames());
}

const PlatformInfo* FindPlatform(std::string_view name) {
  const auto& registry = PlatformRegistry();
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : &it->second;
}

Result<std::unique_ptr<AddressDecoder>> MakePlatformDecoder(std::string_view name) {
  const PlatformInfo* info = FindPlatform(name);
  if (info == nullptr) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "unknown platform '" + std::string(name) + "'");
  }
  return info->make(info->geometry);
}

Result<std::unique_ptr<AddressDecoder>> MakePlatformDecoder(std::string_view name,
                                                            const DramGeometry& geometry) {
  const PlatformInfo* info = FindPlatform(name);
  if (info == nullptr) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "unknown platform '" + std::string(name) + "'");
  }
  SILOZ_RETURN_IF_ERROR(geometry.Validate());
  return info->make(geometry);
}

uint64_t ShiftedJumpPeriod(const PlatformInfo& info, const DramGeometry& geometry) {
  if (info.make == &MakeZenFamily) {
    return geometry.subarray_group_bytes() / 2;
  }
  return SkylakeDecoder(geometry).region_bytes();
}

}  // namespace siloz
