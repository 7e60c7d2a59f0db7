#include "src/sim/machine.h"

#include <algorithm>
#include <numeric>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"

namespace siloz {

// Routes byte reads/writes through the decoder to the owning DramDevice, so
// stored software state (EPT pages, guest data) is subject to the DRAM fault
// model.
class Machine::DramBackedMemory final : public PhysMemory {
 public:
  explicit DramBackedMemory(Machine& machine) : machine_(machine) {}

  void ReadPhys(uint64_t phys, std::span<uint8_t> out) override {
    Access(phys, out.size(), [&](DramDevice& device, const MediaAddress& media, size_t offset,
                                 size_t chunk) {
      device.Read(media.rank, media.bank, media.row, media.column,
                  out.subspan(offset, chunk), machine_.clock_ns());
    });
  }

  void WritePhys(uint64_t phys, std::span<const uint8_t> data) override {
    Access(phys, data.size(), [&](DramDevice& device, const MediaAddress& media, size_t offset,
                                  size_t chunk) {
      device.Write(media.rank, media.bank, media.row, media.column,
                   data.subspan(offset, chunk), machine_.clock_ns());
    });
  }

 private:
  // Splits [phys, phys+len) into cache-line pieces that each live in one
  // device row and applies `op`.
  template <typename Op>
  void Access(uint64_t phys, size_t len, Op&& op) {
    size_t done = 0;
    while (done < len) {
      const uint64_t address = phys + done;
      const size_t line_remaining = kCacheLineBytes - (address % kCacheLineBytes);
      const size_t chunk = std::min(len - done, line_remaining);
      const MediaAddress media = *machine_.decoder().PhysToMedia(address);
      DramDevice& device = machine_.device(media.socket, media.channel, media.dimm);
      op(device, media, done, chunk);
      done += chunk;
    }
    machine_.AdvanceClock(machine_.config().act_cost_ns / 2);
  }

  Machine& machine_;
};

Machine::Machine(MachineConfig config) : config_(std::move(config)) {
  SILOZ_CHECK(config_.geometry.Validate().ok());
  if (!config_.platform.empty()) {
    Result<std::unique_ptr<AddressDecoder>> made =
        MakePlatformDecoder(config_.platform, config_.geometry);
    SILOZ_CHECK(made.ok()) << "platform '" << config_.platform
                           << "': " << made.error().ToString();
    decoder_ = std::move(*made);
  } else {
    switch (config_.decoder) {
      case DecoderKind::kSkylake:
        decoder_ = std::make_unique<SkylakeDecoder>(config_.geometry);
        break;
      case DecoderKind::kLinear:
        decoder_ = std::make_unique<LinearDecoder>(config_.geometry);
        break;
      case DecoderKind::kSnc2:
        decoder_ = std::make_unique<SncDecoder>(config_.geometry, 2);
        break;
    }
  }
  for (uint32_t socket = 0; socket < config_.geometry.sockets; ++socket) {
    controllers_.push_back(
        std::make_unique<MemoryController>(config_.geometry, socket, config_.timings));
  }
  if (config_.fault_tracking) {
    SILOZ_CHECK(!config_.dimm_profiles.empty());
    const size_t dimm_count = static_cast<size_t>(config_.geometry.sockets) *
                              config_.geometry.channels_per_socket *
                              config_.geometry.dimms_per_channel;
    for (size_t i = 0; i < dimm_count; ++i) {
      const DimmProfile& profile = config_.dimm_profiles[i % config_.dimm_profiles.size()];
      devices_.push_back(std::make_unique<DramDevice>(config_.geometry, profile.remap,
                                                      profile.disturbance, profile.trr,
                                                      profile.name));
    }
    phys_memory_ = std::make_unique<DramBackedMemory>(*this);
    threads_ = ResolveThreads(config_.threads);
  } else {
    phys_memory_ = std::make_unique<FlatPhysMemory>();
  }
}

std::vector<MemoryController*> Machine::controllers() {
  std::vector<MemoryController*> result;
  for (const auto& controller : controllers_) {
    result.push_back(controller.get());
  }
  return result;
}

size_t Machine::DeviceIndex(uint32_t socket, uint32_t channel, uint32_t dimm) const {
  return (static_cast<size_t>(socket) * config_.geometry.channels_per_socket + channel) *
             config_.geometry.dimms_per_channel +
         dimm;
}

DramDevice& Machine::device(uint32_t socket, uint32_t channel, uint32_t dimm) {
  SILOZ_CHECK(config_.fault_tracking) << "devices exist only in fault mode";
  // siloz-lint: allow(map-bracket-probe): devices_ here is the sim Machine's
  // std::vector (index checked by DeviceIndex), not the hypervisor's map.
  return *devices_[DeviceIndex(socket, channel, dimm)];
}

void Machine::ActivatePhys(uint64_t phys) {
  const MediaAddress media = *decoder_->PhysToMedia(phys);
  device(media.socket, media.channel, media.dimm)
      .Activate(media.rank, media.bank, media.row, clock_ns_);
  clock_ns_ += config_.act_cost_ns;
}

void Machine::ActivatePhysHold(uint64_t phys, uint64_t open_ns) {
  const MediaAddress media = *decoder_->PhysToMedia(phys);
  DramDevice& dram = device(media.socket, media.channel, media.dimm);
  dram.Activate(media.rank, media.bank, media.row, clock_ns_);
  clock_ns_ += open_ns;
  dram.Precharge(media.rank, media.bank, clock_ns_);
  clock_ns_ += config_.act_cost_ns;
}

void Machine::AdvanceClock(uint64_t delta_ns) {
  clock_ns_ += delta_ns;
  for (const auto& device : devices_) {
    device->AdvanceTo(clock_ns_);
  }
}

void Machine::ForEachDevice(std::span<const size_t> order,
                            const std::function<void(uint64_t)>& fn) {
  if (order.empty()) {
    return;  // timing mode: no devices, no pool
  }
  ThreadPool pool(static_cast<uint32_t>(std::min<size_t>(threads_, order.size())));
  pool.ParallelFor(0, order.size(), [&](uint64_t i) { fn(order[i]); });
}

uint64_t Machine::RunHammerBursts(std::span<const HammerBurst> bursts) {
  SILOZ_CHECK(config_.fault_tracking) << "hammering requires a fault-tracking machine";
  const uint64_t act_cost = config_.act_cost_ns;

  // Serial timeline, computed up front: burst b's ACT i (over all rounds)
  // lands at start[b] + i * act_cost, and the burst's gap ends at
  // boundary[b], where the serial AdvanceClock ticks every device.
  // Each device gets, per burst it takes part in, the schedule slots that
  // decode to it.
  struct Slice {
    size_t burst = 0;
    std::vector<uint32_t> slots;
  };
  std::vector<uint64_t> start(bursts.size());
  std::vector<uint64_t> boundary(bursts.size());
  std::vector<std::vector<Slice>> slices(devices_.size());
  std::vector<uint64_t> device_acts(devices_.size(), 0);
  uint64_t clock = clock_ns_;
  uint64_t activations = 0;
  for (size_t b = 0; b < bursts.size(); ++b) {
    const HammerBurst& burst = bursts[b];
    const uint64_t acts = static_cast<uint64_t>(burst.rounds) * burst.schedule.size();
    start[b] = clock;
    clock += acts * act_cost + burst.gap_ns;
    boundary[b] = clock;
    activations += acts;
    for (uint32_t slot = 0; slot < burst.schedule.size(); ++slot) {
      const MediaAddress& media = burst.schedule[slot];
      const size_t d = DeviceIndex(media.socket, media.channel, media.dimm);
      SILOZ_CHECK_LT(d, devices_.size()) << media.ToString();
      if (slices[d].empty() || slices[d].back().burst != b) {
        slices[d].push_back(Slice{b, {}});
      }
      slices[d].back().slots.push_back(slot);
      device_acts[d] += burst.rounds;
    }
  }

  // Heaviest device first, so the longest replay starts earliest; the
  // order never affects results.
  std::vector<size_t> order(devices_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return device_acts[a] > device_acts[b]; });

  // A device's state depends only on its own command stream: its ACTs at
  // their serial clocks, plus an AdvanceTo at every burst boundary — idle
  // devices included, so the REF/TRR catch-up (and AdvanceTo's per-call
  // tick clamp) fires exactly where the serial run fires it.
  ForEachDevice(order, [&](uint64_t d) {
    DramDevice& dram = *devices_.at(d);
    auto slice = slices[d].begin();
    for (size_t b = 0; b < bursts.size(); ++b) {
      if (slice != slices[d].end() && slice->burst == b) {
        const HammerBurst& burst = bursts[b];
        const uint64_t round_ns = burst.schedule.size() * act_cost;
        for (uint32_t round = 0; round < burst.rounds; ++round) {
          const uint64_t round_start = start[b] + round * round_ns;
          for (uint32_t slot : slice->slots) {
            const MediaAddress& media = burst.schedule[slot];
            dram.Activate(media.rank, media.bank, media.row, round_start + slot * act_cost);
          }
        }
        ++slice;
      }
      dram.AdvanceTo(boundary[b]);
    }
  });
  clock_ns_ = clock;
  return activations;
}

uint64_t Machine::PatrolScrubAll() {
  std::vector<uint64_t> corrected(devices_.size(), 0);
  std::vector<size_t> order(devices_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  ForEachDevice(order, [&](uint64_t d) { corrected[d] = devices_.at(d)->PatrolScrub(clock_ns_); });
  return std::accumulate(corrected.begin(), corrected.end(), uint64_t{0});
}

std::vector<PhysFlip> Machine::DrainFlips() {
  std::vector<PhysFlip> flips;
  for (size_t index = 0; index < devices_.size(); ++index) {
    // siloz-lint: allow(map-bracket-probe): std::vector indexing, see device().
  DramDevice& dram = *devices_[index];
    const uint32_t socket =
        static_cast<uint32_t>(index / (config_.geometry.channels_per_socket *
                                       config_.geometry.dimms_per_channel));
    const uint32_t within =
        static_cast<uint32_t>(index % (config_.geometry.channels_per_socket *
                                       config_.geometry.dimms_per_channel));
    const uint32_t channel = within / config_.geometry.dimms_per_channel;
    const uint32_t dimm = within % config_.geometry.dimms_per_channel;
    for (const FlipRecord& record : dram.flip_log()) {
      MediaAddress media;
      media.socket = socket;
      media.channel = channel;
      media.dimm = dimm;
      media.rank = record.rank;
      media.bank = record.bank;
      media.row = record.media_row;
      media.column = record.byte_in_row;
      PhysFlip flip;
      flip.phys = *decoder_->MediaToPhys(media);
      flip.media = media;
      flip.record = record;
      flip.dimm_name = dram.name();
      flips.push_back(flip);
    }
    dram.ClearFlipLog();
  }
  return flips;
}

}  // namespace siloz
