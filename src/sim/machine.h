// Machine: composes the substrates into the evaluation platform (Table 2).
//
// A Machine owns the address decoder, per-socket memory controllers (timing
// mode), and — when fault tracking is on — one DramDevice per DIMM plus a
// PhysMemory implementation routed through those devices, so that software
// bytes (including EPT pages) live in hammerable DRAM.
//
// Two fidelities (DESIGN.md §4):
//  - timing mode (fault_tracking=false): workload traces run through the
//    MemoryController model; no per-ACT fault bookkeeping. Used by Figs 4-7.
//  - fault mode (fault_tracking=true): every activation reaches the
//    DramDevice disturbance model. Used by Table 3 / §7.1 experiments.
#ifndef SILOZ_SRC_SIM_MACHINE_H_
#define SILOZ_SRC_SIM_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/addr/subarray_group.h"
#include "src/dram/device.h"
#include "src/ept/phys_memory.h"
#include "src/memctl/controller.h"

namespace siloz {

enum class DecoderKind : uint8_t { kSkylake, kLinear, kSnc2 };

// Fault-model personality of one DIMM model ("A".."F" in Table 3).
struct DimmProfile {
  std::string name = "A";
  RemapConfig remap;
  DisturbanceProfile disturbance;
  TrrConfig trr;
};

struct MachineConfig {
  DramGeometry geometry;
  DecoderKind decoder = DecoderKind::kSkylake;
  // Named platform from the PlatformDecoder registry (src/addr/platform.h).
  // When non-empty it overrides `decoder`: the machine's mapping comes from
  // the platform's decoder family applied to `geometry` (the caller is
  // expected to have seeded `geometry` from the platform's default — see
  // ApplyPlatform in sim/experiment.h).
  std::string platform;
  DdrTimings timings;
  bool fault_tracking = false;
  // One profile per DIMM, channel-major within socket ("DIMM A" in channel 0
  // of both sockets, etc.). Cycled if shorter than the DIMM count.
  std::vector<DimmProfile> dimm_profiles = {DimmProfile{}};
  // Wall-clock cost charged per activation in fault mode (uncached access +
  // flush round trip).
  uint64_t act_cost_ns = 50;
  // Workers for the fault-mode per-DIMM fan-out (RunHammerBursts,
  // PatrolScrubAll): 0 = $SILOZ_THREADS or the hardware concurrency, 1 =
  // serial. Results are identical for every value (DESIGN.md §8). A Machine
  // built on a pool worker pins 1 so pools never nest; a timing-mode
  // Machine ignores the knob and never builds a pool.
  uint32_t threads = 0;
};

// One hammer burst: `schedule` (pre-decoded aggressor rows) replayed
// `rounds` times back to back, one ACT per entry at act_cost_ns apart, then
// `gap_ns` of idle time. Equivalent to ActivatePhys per entry followed by
// AdvanceClock(gap_ns).
struct HammerBurst {
  std::vector<MediaAddress> schedule;
  uint32_t rounds = 0;
  uint64_t gap_ns = 0;
};

// A bit flip resolved to physical-address coordinates.
struct PhysFlip {
  uint64_t phys = 0;
  MediaAddress media;
  FlipRecord record;
  std::string dimm_name;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  const MachineConfig& config() const { return config_; }
  const AddressDecoder& decoder() const { return *decoder_; }
  MemoryController& controller(uint32_t socket) { return *controllers_[socket]; }
  std::vector<MemoryController*> controllers();

  // Physical-byte store: DRAM-backed in fault mode, flat otherwise.
  PhysMemory& phys_memory() { return *phys_memory_; }

  // --- Fault-mode operations ---

  bool fault_tracking() const { return config_.fault_tracking; }
  DramDevice& device(uint32_t socket, uint32_t channel, uint32_t dimm);

  // Activate the row containing `phys` (attacker-style uncached access +
  // flush). Advances the machine clock by act_cost_ns.
  void ActivatePhys(uint64_t phys);
  // Activate and leave the row open for `open_ns` (RowPress-style).
  void ActivatePhysHold(uint64_t phys, uint64_t open_ns);

  uint64_t clock_ns() const { return clock_ns_; }
  void AdvanceClock(uint64_t delta_ns);

  // Runs `bursts` in order and returns the ACT count. Device state, flips
  // and the final clock are exactly those of the serial loop (ActivatePhys
  // per ACT, AdvanceClock(gap_ns) per burst), but each DIMM replays its own
  // ACTs on a pool worker: every burst's start clock is known up front, and
  // each device also takes every burst boundary's AdvanceTo, so its command
  // stream is the serial one with the other devices' ACTs removed.
  uint64_t RunHammerBursts(std::span<const HammerBurst> bursts);

  // Run ECC patrol scrub on every DIMM (the 24-hour check of §7.1), one
  // device per pool task.
  uint64_t PatrolScrubAll();

  // Collect and clear all flips observed so far, resolved to physical
  // addresses via the decoder inverse.
  std::vector<PhysFlip> DrainFlips();

 private:
  class DramBackedMemory;

  size_t DeviceIndex(uint32_t socket, uint32_t channel, uint32_t dimm) const;
  // Runs fn(d) for every device index in `order`, on a pool of at most
  // threads_ workers (never more than there are devices) that lives for
  // this call only, so the machine holds no threads between fan-outs. `order` is a submission order only (heaviest first);
  // each call must touch device d alone.
  void ForEachDevice(std::span<const size_t> order, const std::function<void(uint64_t)>& fn);

  MachineConfig config_;
  std::unique_ptr<AddressDecoder> decoder_;
  std::vector<std::unique_ptr<MemoryController>> controllers_;
  std::vector<std::unique_ptr<DramDevice>> devices_;  // fault mode only
  std::unique_ptr<PhysMemory> phys_memory_;
  uint64_t clock_ns_ = 0;
  uint32_t threads_ = 1;  // resolved config_.threads (fault mode only)
};

}  // namespace siloz

#endif  // SILOZ_SRC_SIM_MACHINE_H_
