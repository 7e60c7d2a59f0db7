// Hot-path regression benchmark: self-timed microbenchmarks over the four
// engine-critical paths — address decode round-trip, ACT + disturbance
// delivery, read-through-ECC, and the end-to-end closed-loop engine — each
// paired with a deterministic checksum over its observable results.
//
// Two contracts, enforced at different strengths (see
// scripts/check_bench_regression.py):
//  - Checksums are part of the determinism contract: every repetition must
//    produce the same checksum (verified here, exit 1 on mismatch), and the
//    values must match the committed BENCH_hotpath.json exactly (verified by
//    the script, hard failure).
//  - Timings are advisory: the script warns outside a tolerance band but
//    does not fail, since wall-clock depends on the host.
//
// `--json` prints a machine-readable report on stdout; the default is a
// human-readable table.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/addr/decoder.h"
#include "src/dram/device.h"
#include "src/dram/fault_model.h"
#include "src/memctl/controller.h"
#include "src/memctl/engine.h"
#include "src/memctl/sharded_engine.h"

namespace siloz {
namespace {

constexpr int kRepetitions = 3;

// FNV-1a over arbitrary words; the order of Fold calls is part of each
// bench's checksum definition.
struct Checksum {
  uint64_t value = 0xCBF29CE484222325ull;
  void Fold(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value = (value ^ ((word >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  void FoldDouble(double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    Fold(bits);
  }
};

struct BenchResult {
  std::string name;
  uint64_t iters = 0;
  double ns_per_op = 0.0;
  uint64_t checksum = 0;
  bool deterministic = true;
  // Per-shard request counts in shard-plan order (sharded benches only);
  // deterministic, so the regression script gates them exactly.
  std::vector<uint64_t> shard_requests;
};

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

// Runs `body(checksum)` kRepetitions times on fresh state; reports the
// fastest repetition and verifies the checksums agree across repetitions.
template <typename Body>
BenchResult RunBench(const std::string& name, uint64_t iters, Body&& body) {
  BenchResult result;
  result.name = name;
  result.iters = iters;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Checksum checksum;
    const double start = NowNs();
    body(checksum);
    const double elapsed = NowNs() - start;
    const double ns = elapsed / static_cast<double>(iters);
    if (rep == 0) {
      result.ns_per_op = ns;
      result.checksum = checksum.value;
    } else {
      result.ns_per_op = ns < result.ns_per_op ? ns : result.ns_per_op;
      if (checksum.value != result.checksum) {
        result.deterministic = false;
      }
    }
  }
  return result;
}

const DramGeometry& Geometry() {
  static const DramGeometry geometry;
  return geometry;
}

// Deterministic address scrambler for jump targets (split-mix step).
uint64_t NextJump(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// PhysToMedia + MediaToPhys over a mixed sequential/jumping line stream —
// the pattern trace materialization feeds the decoder.
BenchResult BenchDecodeRoundTrip() {
  constexpr uint64_t kIters = 2'000'000;
  return RunBench("decode_roundtrip", kIters, [](Checksum& checksum) {
    const SkylakeDecoder decoder(Geometry());
    const uint64_t lines = Geometry().total_bytes() / kCacheLineBytes;
    uint64_t jump_state = 42;
    uint64_t phys = 0;
    for (uint64_t i = 0; i < kIters; ++i) {
      const MediaAddress media = *decoder.PhysToMedia(phys);
      const uint64_t back = *decoder.MediaToPhys(media);
      checksum.Fold(back ^ (static_cast<uint64_t>(media.row) << 32) ^ media.channel);
      if (i % 17 == 0) {
        phys = (NextJump(jump_state) % lines) * kCacheLineBytes;
      } else {
        phys = (phys + kCacheLineBytes) % Geometry().total_bytes();
      }
    }
  });
}

// Sink-based ACT + disturbance delivery (the device hot path): double-sided
// hammer pairs sweeping several banks, sink reused across ACTs.
BenchResult BenchActDisturb() {
  constexpr uint64_t kIters = 4'000'000;
  return RunBench("act_disturb", kIters, [](Checksum& checksum) {
    DisturbanceModel model(DisturbanceProfile{}, Geometry().rows_per_bank,
                           Geometry().rows_per_subarray, 4096 * 8);
    FlipSink sink;
    uint64_t now = 0;
    for (uint64_t i = 0; i < kIters; ++i) {
      const uint32_t bank_key = static_cast<uint32_t>(i & 7);
      const auto side = static_cast<HalfRowSide>((i >> 3) & 1);
      // Double-sided pair around row 5001, sliding every 64K ACTs.
      const uint32_t base = 5000 + static_cast<uint32_t>((i >> 16) & 31);
      const uint32_t row = (i & 1) != 0 ? base + 2 : base;
      sink.Clear();
      model.OnActivate(bank_key, side, row, now, sink);
      for (const InternalFlip& flip : sink.flips()) {
        checksum.Fold((static_cast<uint64_t>(flip.victim_row) << 32) | flip.bit);
      }
      now += 45;
    }
    checksum.Fold(model.total_flip_events());
    checksum.Fold(model.disturb_probes());
  });
}

// Reads through SEC-DED ECC against the chunked row arena, with periodic
// writes and injected flips so the correction paths run.
BenchResult BenchReadEcc() {
  constexpr uint64_t kIters = 300'000;
  constexpr uint32_t kRows = 64;
  return RunBench("read_ecc", kIters, [](Checksum& checksum) {
    DramDevice device(Geometry(), RemapConfig{}, DisturbanceProfile{}, TrrConfig{}, "bench");
    uint64_t now = 0;
    uint8_t pattern[64];
    for (uint32_t row = 0; row < kRows; ++row) {
      for (uint32_t i = 0; i < 64; ++i) {
        pattern[i] = static_cast<uint8_t>(row * 31 + i);
      }
      for (uint32_t column = 0; column < Geometry().row_bytes; column += 64) {
        device.Write(0, 0, row, column, pattern, now);
      }
      now += 50;
    }
    uint8_t buffer[64];
    for (uint64_t i = 0; i < kIters; ++i) {
      const uint32_t row = static_cast<uint32_t>(i % kRows);
      const uint32_t column = static_cast<uint32_t>((i * 64) % Geometry().row_bytes);
      if (i % 1024 == 0) {
        device.InjectFlip(0, 0, row, column, static_cast<uint8_t>(i % 8), now);
      }
      const ReadResult read = device.Read(0, 0, row, column, buffer, now);
      checksum.Fold(buffer[0] | (static_cast<uint64_t>(buffer[63]) << 8) |
                    (static_cast<uint64_t>(read.corrected_words) << 16) |
                    (static_cast<uint64_t>(read.uncorrectable_words) << 32));
      now += 20;
    }
    checksum.Fold(device.counters().reads);
    checksum.Fold(device.counters().corrected_words);
  });
}

// End-to-end closed-loop engine run: decode a mixed request stream once
// outside the timed section, then time RunClosedLoop serving it through a
// real MemoryController.
BenchResult BenchClosedLoop() {
  constexpr uint64_t kIters = 2'000'000;
  const SkylakeDecoder decoder(Geometry());
  std::vector<MemRequest> requests;
  requests.reserve(kIters);
  const uint64_t socket_lines = Geometry().socket_bytes() / kCacheLineBytes;
  uint64_t jump_state = 7;
  uint64_t phys = 0;
  for (uint64_t i = 0; i < kIters; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(phys);
    request.is_write = (i & 3) == 3;
    requests.push_back(request);
    if (i % 23 == 0) {
      phys = (NextJump(jump_state) % socket_lines) * kCacheLineBytes;
    } else {
      phys = (phys + kCacheLineBytes) % Geometry().socket_bytes();
    }
  }
  return RunBench("closed_loop", kIters, [&requests](Checksum& checksum) {
    MemoryController controller(Geometry(), 0);
    MemoryController* controllers[] = {&controller};
    EngineConfig config;
    config.max_outstanding = 10;
    config.compute_ns_per_access = 10.0;
    const EngineResult result = RunClosedLoop(requests, controllers, config);
    checksum.FoldDouble(result.elapsed_ns);
    checksum.Fold(result.requests);
    checksum.Fold(controller.stats().row_hits);
    checksum.Fold(controller.stats().row_misses);
  });
}

// Sharded end-to-end run: the same decode-once discipline, but over a
// whole-machine (both sockets) stream served through the per-channel shard
// path with per-bank-group command queues (DESIGN.md §15), on the calling
// thread like every sharded run. The per-shard request census is reported
// alongside and gated exactly by the regression script; it depends only on
// the channel partition, never on the bank-group queue split.
BenchResult BenchShardedClosedLoop(uint32_t channels_per_shard,
                                   uint32_t bank_groups_per_queue) {
  constexpr uint64_t kIters = 2'000'000;
  const SkylakeDecoder decoder(Geometry());
  std::vector<MemRequest> requests;
  requests.reserve(kIters);
  const uint64_t lines = Geometry().total_bytes() / kCacheLineBytes;
  uint64_t jump_state = 11;
  uint64_t phys = 0;
  for (uint64_t i = 0; i < kIters; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(phys);
    request.is_write = (i & 3) == 3;
    requests.push_back(request);
    if (i % 23 == 0) {
      phys = (NextJump(jump_state) % lines) * kCacheLineBytes;
    } else {
      phys = (phys + kCacheLineBytes) % Geometry().total_bytes();
    }
  }
  std::vector<uint64_t> shard_requests;
  BenchResult result = RunBench(
      "sharded_closed_loop", kIters,
      [&requests, &shard_requests, channels_per_shard,
       bank_groups_per_queue](Checksum& checksum) {
        std::vector<std::unique_ptr<MemoryController>> owned;
        std::vector<MemoryController*> controllers;
        for (uint32_t socket = 0; socket < Geometry().sockets; ++socket) {
          owned.push_back(std::make_unique<MemoryController>(Geometry(), socket));
          controllers.push_back(owned.back().get());
        }
        ShardedEngineConfig config;
        config.engine.max_outstanding = 10;
        config.engine.compute_ns_per_access = 10.0;
        config.channels_per_shard = channels_per_shard;
        config.bank_groups_per_queue = bank_groups_per_queue;
        const Result<ShardedEngineResult> run =
            RunShardedClosedLoop(requests, controllers, config);
        if (!run.ok()) {
          std::fprintf(stderr, "FATAL: sharded_closed_loop failed: %s\n",
                       run.error().ToString().c_str());
          std::abort();
        }
        checksum.FoldDouble(run->elapsed_ns);
        checksum.Fold(run->requests);
        shard_requests.clear();
        for (const ShardTelemetry& shard : run->shards) {
          shard_requests.push_back(shard.requests);
          checksum.Fold(shard.requests);
          checksum.FoldDouble(shard.elapsed_ns);
        }
        for (const MemoryController* controller : controllers) {
          checksum.Fold(controller->stats().row_hits);
          checksum.Fold(controller->stats().row_misses);
        }
      });
  result.shard_requests = std::move(shard_requests);
  return result;
}

}  // namespace
}  // namespace siloz

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--channels-per-shard" || arg == "--bank-groups-per-queue") {
      ++i;  // the value is parsed (fail closed) below
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--channels-per-shard N] [--bank-groups-per-queue N]\n",
                   argv[0]);
      return 2;
    }
  }
  // Model knobs of the sharded bench; the committed baseline is measured at
  // the shared model defaults (one shard per channel, one bank group per
  // queue).
  const uint32_t channels_per_shard = siloz::bench::ChannelsPerShardFromArgs(argc, argv);
  const uint32_t bank_groups_per_queue = siloz::bench::BankGroupsPerQueueFromArgs(argc, argv);

  const std::vector<siloz::BenchResult> results = {
      siloz::BenchDecodeRoundTrip(),
      siloz::BenchActDisturb(),
      siloz::BenchReadEcc(),
      siloz::BenchClosedLoop(),
      siloz::BenchShardedClosedLoop(channels_per_shard, bank_groups_per_queue),
  };

  bool deterministic = true;
  if (json) {
    std::printf("{\"schema\":1,\"benchmarks\":{");
    for (size_t i = 0; i < results.size(); ++i) {
      const siloz::BenchResult& r = results[i];
      std::printf("%s\"%s\":{\"iters\":%" PRIu64
                  ",\"ns_per_op\":%.3f,\"checksum\":\"%016" PRIx64 "\"",
                  i == 0 ? "" : ",", r.name.c_str(), r.iters, r.ns_per_op, r.checksum);
      if (!r.shard_requests.empty()) {
        std::printf(",\"shard_requests\":[");
        for (size_t s = 0; s < r.shard_requests.size(); ++s) {
          std::printf("%s%" PRIu64, s == 0 ? "" : ",", r.shard_requests[s]);
        }
        std::printf("]");
      }
      std::printf("}");
      deterministic &= r.deterministic;
    }
    std::printf("}}\n");
  } else {
    std::printf("%-18s %12s %12s  %s\n", "benchmark", "iters", "ns/op", "checksum");
    for (const siloz::BenchResult& r : results) {
      std::printf("%-18s %12" PRIu64 " %12.2f  %016" PRIx64 "%s\n", r.name.c_str(), r.iters,
                  r.ns_per_op, r.checksum, r.deterministic ? "" : "  NONDETERMINISTIC");
      deterministic &= r.deterministic;
    }
  }
  if (!deterministic) {
    std::fprintf(stderr, "FATAL: checksum differed across repetitions\n");
    return 1;
  }
  return 0;
}
