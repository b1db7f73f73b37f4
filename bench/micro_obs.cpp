// Span collector micro: one start_span + end_span on a full collector, the
// shape of an RPC hop (the two-part "rpc.call" + "peer.client_get" name and
// a 13-char host), so every measured span evicts the oldest and reuses its
// slot. Recorded in micro_bench's --json output but not gated. It lives in
// its own unit, linked after micro_bench.cpp: code compiled into that file
// shares its inline budget and shifts the gated micros' placement, both of
// which move the gated ratios (ROADMAP item 1).
#include <benchmark/benchmark.h>

#include <string>

#include "obs/trace.h"

namespace wiera {
namespace {

void BM_TracerSpan(benchmark::State& state) {
  // Run-time inputs, so nothing about the name or host is folded away.
  const std::string host = "instance-0001";
  const std::string method = "peer.client_get";
  obs::Tracer tracer(1);
  const TraceContext root = tracer.start_trace("client.get", host);
  // Fill the 16 384-slot ring, then cycle it once more so every slot already
  // holds a name buffer, as it does for the rest of a long run.
  for (int i = 0; i < 2 * 16384; ++i) {
    tracer.end_span(tracer.start_span("rpc.call", host, root, method));
  }
  for (auto _ : state) {
    const TraceContext span =
        tracer.start_span("rpc.call", host, root, method);
    tracer.end_span(span);
    benchmark::DoNotOptimize(span.span_id);
  }
  benchmark::DoNotOptimize(tracer.dropped());
}
BENCHMARK(BM_TracerSpan);

}  // namespace
}  // namespace wiera
