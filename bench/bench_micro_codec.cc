// Wall-clock micro-benchmarks of the hot paths (google-benchmark).
//
// Unlike the figure harnesses (simulated time), these measure this implementation's real
// throughput: encoder damage analysis, decoder application, color conversion, CSCS packing,
// message serialization, and raycast rendering.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/apps/content.h"
#include "src/codec/decoder.h"
#include "src/codec/encoder.h"
#include "src/color/yuv.h"
#include "src/protocol/messages.h"
#include "src/quake/raycaster.h"
#include "src/util/rng.h"

namespace slim {
namespace {

void BM_EncodePhotoDamage(benchmark::State& state) {
  const auto edge = static_cast<int32_t>(state.range(0));
  Framebuffer fb(edge, edge);
  Rng rng(1);
  fb.SetPixels(fb.bounds(), MakePhotoBlock(&rng, edge, edge));
  Encoder encoder;
  Region damage(fb.bounds());
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeDamage(fb, damage));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(edge) * edge);
}
BENCHMARK(BM_EncodePhotoDamage)->Arg(128)->Arg(512);

void BM_EncodeTextDamage(benchmark::State& state) {
  const auto edge = static_cast<int32_t>(state.range(0));
  Framebuffer fb(edge, edge, kWhite);
  Rng rng(2);
  for (int32_t y = 0; y < edge; ++y) {
    for (int32_t x = 0; x < edge; ++x) {
      if (rng.NextBool(0.3)) {
        fb.PutPixel(x, y, kBlack);
      }
    }
  }
  Encoder encoder;
  Region damage(fb.bounds());
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeDamage(fb, damage));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(edge) * edge);
}
BENCHMARK(BM_EncodeTextDamage)->Arg(128)->Arg(512);

void BM_DecodeSetCommand(benchmark::State& state) {
  const auto edge = static_cast<int32_t>(state.range(0));
  SetCommand cmd;
  cmd.dst = Rect{0, 0, edge, edge};
  cmd.rgb.assign(static_cast<size_t>(edge) * edge * 3, 0x42);
  const DisplayCommand dc(cmd);
  Framebuffer fb(edge, edge);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyCommand(dc, &fb));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(edge) * edge);
}
BENCHMARK(BM_DecodeSetCommand)->Arg(128)->Arg(512);

void BM_RgbYuvRoundTrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<Pixel> pixels(4096);
  for (Pixel& p : pixels) {
    p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
  }
  for (auto _ : state) {
    for (const Pixel p : pixels) {
      benchmark::DoNotOptimize(YuvToRgb(RgbToYuv(p)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pixels.size()));
}
BENCHMARK(BM_RgbYuvRoundTrip);

void BM_CscsPackUnpack(benchmark::State& state) {
  const auto depth = static_cast<CscsDepth>(state.range(0));
  Rng rng(4);
  YuvImage image(320, 240);
  for (int32_t y = 0; y < 240; ++y) {
    for (int32_t x = 0; x < 320; ++x) {
      image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)),
                          static_cast<uint8_t>(rng.NextBelow(256)),
                          static_cast<uint8_t>(rng.NextBelow(256))});
    }
  }
  for (auto _ : state) {
    const auto payload = PackCscsPayload(image, depth);
    benchmark::DoNotOptimize(UnpackCscsPayload(payload, 320, 240, depth));
  }
  state.SetItemsProcessed(state.iterations() * 320 * 240);
}
BENCHMARK(BM_CscsPackUnpack)
    ->Arg(static_cast<int>(CscsDepth::k16))
    ->Arg(static_cast<int>(CscsDepth::k8))
    ->Arg(static_cast<int>(CscsDepth::k5));

void BM_MessageSerializeParse(benchmark::State& state) {
  SetCommand cmd;
  cmd.dst = Rect{0, 0, 64, 64};
  cmd.rgb.assign(64 * 64 * 3, 7);
  const Message msg{1, 42, cmd};
  for (auto _ : state) {
    const auto bytes = SerializeMessage(msg);
    benchmark::DoNotOptimize(ParseMessage(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(MessageWireSize(msg)));
}
BENCHMARK(BM_MessageSerializeParse);

void BM_RaycastFrame(benchmark::State& state) {
  const auto w = static_cast<int32_t>(state.range(0));
  const auto h = static_cast<int32_t>(state.range(1));
  RaycastEngine engine(w, h);
  int frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RenderFrame(engine.DemoCamera(frame++)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(w) * h);
}
BENCHMARK(BM_RaycastFrame)->Args({320, 240})->Args({640, 480});

void BM_FramebufferDiff(benchmark::State& state) {
  Framebuffer a(1280, 1024);
  Framebuffer b(1280, 1024);
  b.Fill(Rect{500, 400, 200, 150}, kWhite);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DiffWith(b));
  }
  state.SetItemsProcessed(state.iterations() * 1280 * 1024);
}
BENCHMARK(BM_FramebufferDiff);

// Forwards to the normal console output while mirroring each run into the BENCH json
// (per-iteration real time, plus items/s when the benchmark reports throughput).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      out_->Metric(run.benchmark_name() + ".real_time", run.GetAdjustedRealTime(), "ns");
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        out_->Metric(run.benchmark_name() + ".items_per_second",
                     static_cast<double>(items->second.value), "items/s");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReporter* out_;
};

}  // namespace
}  // namespace slim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  slim::BenchReporter report =
      slim::HarnessReport("micro_codec", "Wall-clock micro-benchmarks of the hot paths");
  slim::CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
