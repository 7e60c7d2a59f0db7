// PlatformDecoder registry: the platform matrix behind `--platform`.
//
// Siloz's security argument rests entirely on modeling the physical-to-media
// mapping correctly, and the paper's prototype spans more than one machine
// (Skylake and Cascade Lake, subarray sizes 512/1024/2048). This registry
// turns "the decoder" into a platform matrix: each entry names a machine
// family, carries its default geometry, the decoder factory that models its
// BIOS mapping, the subarray sizes its parts ship with, and the DDR
// generation semantics (remap chain, TRR sampler pressure) the fault model
// needs. Every registered platform is held to the same bar by the
// `platform` ctest label: round-trip invertibility property tests, the full
// four-invariant isolation audit, Table-3 containment, a corrupted-config
// negative control, and a serial-vs-sharded engine differential.
//
// Registration is static and ORDERED (std::map keyed by name): iteration
// order — which the test matrix, --help text, and CI smoke loops all expose
// — must not depend on pointers or hashing (the raw-nondeterminism lint
// rule pins this idiom; see tests/lint).
#ifndef SILOZ_SRC_ADDR_PLATFORM_H_
#define SILOZ_SRC_ADDR_PLATFORM_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/flags.h"
#include "src/base/result.h"
#include "src/dram/geometry.h"
#include "src/dram/remap.h"
#include "src/dram/trr.h"

namespace siloz {

// One platform of the matrix. The factory accepts any geometry inside the
// platform's decoder-family constraints (so tests can sweep
// rows_per_subarray or shrink capacity) and reports kInvalidArgument for
// geometries the family cannot express — never a crash.
struct PlatformInfo {
  std::string name;
  std::string description;
  DramGeometry geometry;                 // the platform's default machine
  std::vector<uint32_t> subarray_sizes;  // rows_per_subarray values parts ship with
  // DDR5 parts undo per-device mirroring/inversion internally (§8.2):
  // media subarray blocks equal internal blocks for any size.
  bool uniform_internal_addressing = false;
  RemapConfig remap;                     // DIMM-internal transform chain
  TrrConfig trr;                         // sampler defaults for the generation
  Result<std::unique_ptr<AddressDecoder>> (*make)(const DramGeometry& geometry) = nullptr;
};

// The registry, keyed by platform name in lexicographic order. Entries:
// cascadelake, ddr5, skylake, zen.
const std::map<std::string, PlatformInfo, std::less<>>& PlatformRegistry();

// Names in registry (= lexicographic) order, for --help text and matrices.
std::vector<std::string> PlatformNames();

// The shared `--platform NAME` flag (src/base/flags.h): one of
// PlatformNames(); empty, the default, keeps the binary's own machine (the
// Table 2 Skylake server). Model configuration: reported numbers depend on
// it, so binaries print it.
void DeclarePlatform(FlagSet& flags, std::string* platform);

// nullptr when `name` is not registered.
const PlatformInfo* FindPlatform(std::string_view name);

// Builds the platform's decoder over its default geometry, or over an
// explicit `geometry` (which must stay inside the platform's decoder-family
// constraints — e.g. power-of-two fields for zen). Unknown names and
// out-of-family geometries return kInvalidArgument.
Result<std::unique_ptr<AddressDecoder>> MakePlatformDecoder(std::string_view name);
Result<std::unique_ptr<AddressDecoder>> MakePlatformDecoder(std::string_view name,
                                                            const DramGeometry& geometry);

// The rotation period a shifted-jump negative control should use for this
// platform over `geometry` (audit::CorruptedDecoder): the skx mapping-jump
// region for skylake-family decoders, half a subarray group for XOR-matrix
// ones. Either way it divides the socket and splits every subarray group's
// page set, so the corrupted machine stays a bijection (invariant 1 passes)
// while domain closure (invariant 2) must fail.
uint64_t ShiftedJumpPeriod(const PlatformInfo& info, const DramGeometry& geometry);

}  // namespace siloz

#endif  // SILOZ_SRC_ADDR_PLATFORM_H_
