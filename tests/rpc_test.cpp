// Tests for the wire format and RPC layer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "sim/simulation.h"

namespace wiera::rpc {
namespace {

// ------------------------------------------------------------ wire format

TEST(WireTest, RoundTripScalars) {
  WireWriter w;
  w.put_u8(7);
  w.put_bool(true);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_double(3.5);
  Bytes data = w.take();

  WireReader r(data);
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_double(), 3.5);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, RoundTripStringsAndBlobs) {
  WireWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_blob(Blob("payload-bytes"));
  Bytes data = w.take();

  WireReader r(data);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_blob().to_string(), "payload-bytes");
  EXPECT_TRUE(r.ok());
}

TEST(WireTest, TruncatedDataFailsSafely) {
  WireWriter w;
  w.put_u64(1);
  Bytes data = w.take();
  data.resize(3);  // truncate

  WireReader r(data);
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().ok());
  // Further reads keep failing without UB.
  EXPECT_EQ(r.get_string(), "");
}

TEST(WireTest, CorruptLengthPrefixFailsSafely) {
  WireWriter w;
  w.put_u32(0xFFFFFFFF);  // claims a 4 GiB string
  Bytes data = w.take();
  WireReader r(data);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, SizeTracksWrites) {
  WireWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.put_u32(1);
  EXPECT_EQ(w.size(), 4u);
  w.put_string("abc");
  EXPECT_EQ(w.size(), 11u);
}

TEST(WireTest, StatusRoundTrip) {
  const Ack ok_ack{ok_status()};
  const Result<Ack> ok = decode<Ack>(encode(ok_ack));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->status.ok());

  const Ack down_ack{unavailable("node down")};
  const Result<Ack> down = decode<Ack>(encode(down_ack));
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(down->status.message(), "node down");

  // A body cut inside the code field is malformed, not a peer's error.
  const Ack cut_ack{not_found("k")};
  Bytes flat = encode(cut_ack).body.flatten();
  flat.resize(3);
  EXPECT_EQ(decode<Ack>(Message{std::move(flat)}).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ RPC

struct Fixture {
  sim::Simulation sim;
  net::Network network;
  Registry registry;

  Fixture() : network(sim, make_topology()) {}

  static net::Topology make_topology() {
    net::Topology topo;
    topo.add_datacenter("dc-a", net::Provider::kAws, "us-east");
    topo.add_datacenter("dc-b", net::Provider::kAws, "us-west");
    topo.set_rtt("dc-a", "dc-b", msec(70));
    topo.set_jitter_fraction(0.0);
    topo.add_node("client", "dc-a");
    topo.add_node("server", "dc-b");
    return topo;
  }
};

Message make_msg(std::string_view s) {
  WireWriter w;
  w.put_string(s);
  return Message{w.take()};
}

std::string msg_text(const Message& m) {
  WireReader r(m.body);
  return r.get_string();
}

sim::Task<void> run_call(Endpoint& ep, std::string target, std::string method,
                         Message req, Result<Message>& out, int64_t& at_us,
                         sim::Simulation& sim) {
  out = co_await ep.call(std::move(target), std::move(method), std::move(req));
  at_us = sim.now().us();
}

TEST(RpcTest, EchoRoundTripPaysRtt) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  server.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });

  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "server", "echo", make_msg("ping"), out, at_us,
                       f.sim));
  f.sim.run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(msg_text(*out), "ping");
  // One-way 35 ms each direction plus ~1 us serialization per frame.
  EXPECT_NEAR(at_us, 70000, 50);
}

TEST(RpcTest, LoopbackSkipsNetwork) {
  Fixture f;
  Endpoint client(f.network, f.registry, "client");
  client.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "client", "echo", make_msg("x"), out, at_us,
                       f.sim));
  f.sim.run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(at_us, 0);
  EXPECT_EQ(f.network.traffic().total_messages, 0);
}

TEST(RpcTest, UnknownMethodReturnsUnimplemented) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "server", "nope", make_msg(""), out, at_us,
                       f.sim));
  f.sim.run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST(RpcTest, MissingEndpointReturnsUnavailable) {
  Fixture f;
  Endpoint client(f.network, f.registry, "client");
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "server", "echo", make_msg(""), out, at_us,
                       f.sim));
  f.sim.run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
}

TEST(RpcTest, OutageFailsCall) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  server.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });
  f.network.topology().inject_outage("server", TimePoint(0),
                                     TimePoint(100000000));
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "server", "echo", make_msg(""), out, at_us,
                       f.sim));
  f.sim.run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
}

TEST(RpcTest, HandlerCanDoAsyncWork) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  sim::Simulation* simp = &f.sim;
  server.register_handler(
      "slow", [simp](Message req) -> sim::Task<Result<Message>> {
        co_await simp->delay(msec(100));  // storage work
        co_return req;
      });
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "server", "slow", make_msg(""), out, at_us,
                       f.sim));
  f.sim.run();
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(at_us, 170000, 50);  // 35ms + 100ms + 35ms + serialization
}

TEST(RpcTest, CountersTrackTraffic) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  server.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });
  Result<Message> out = internal_error("unset");
  int64_t at_us;
  f.sim.spawn(run_call(client, "server", "echo", make_msg("abc"), out, at_us,
                       f.sim));
  f.sim.run();
  EXPECT_EQ(client.calls_sent(), 1);
  EXPECT_EQ(server.calls_handled(), 1);
  // Request + response crossed the wire with framing overhead.
  EXPECT_EQ(f.network.traffic().total_messages, 2);
  EXPECT_GE(f.network.traffic().total_bytes, 2 * Message::kFrameOverhead);
}

// ------------------------------------------------------------ deadlines

sim::Task<void> run_call_ctx(Endpoint& ep, std::string target,
                             std::string method, Message req, Context ctx,
                             Result<Message>& out, int64_t& at_us,
                             sim::Simulation& sim) {
  out = co_await ep.call(std::move(target), std::move(method), std::move(req),
                         ctx);
  at_us = sim.now().us();
}

TEST(RpcDeadlineTest, ExpiredBeforeSendFailsWithoutTraffic) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  server.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  // Deadline == now: already expired at the call site.
  f.sim.spawn(run_call_ctx(client, "server", "echo", make_msg(""),
                           Context::with_deadline(f.sim.now()), out, at_us,
                           f.sim));
  f.sim.run();
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(at_us, 0);  // failed immediately, no network wait
  EXPECT_EQ(f.network.traffic().total_messages, 0);
  EXPECT_EQ(client.calls_expired(), 1);
}

TEST(RpcDeadlineTest, SlowHandlerCutOffAtDeadline) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  sim::Simulation* simp = &f.sim;
  server.register_handler(
      "slow", [simp](Message req) -> sim::Task<Result<Message>> {
        co_await simp->delay(msec(500));
        co_return req;
      });
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call_ctx(client, "server", "slow", make_msg(""),
                           Context::with_deadline(f.sim.now() + msec(100)),
                           out, at_us, f.sim));
  f.sim.run();
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  // The caller is released exactly at the deadline, not after the handler's
  // 500 ms + response leg.
  EXPECT_NEAR(at_us, 100000, 50);
  EXPECT_EQ(client.calls_expired(), 1);
}

TEST(RpcDeadlineTest, FastCallUnaffectedByDeadline) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  server.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call_ctx(client, "server", "echo", make_msg("ping"),
                           Context::with_deadline(f.sim.now() + sec(1)), out,
                           at_us, f.sim));
  f.sim.run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(msg_text(*out), "ping");
  EXPECT_NEAR(at_us, 70000, 50);
  EXPECT_EQ(client.calls_expired(), 0);
}

// ------------------------------------------------------------ admission

TEST(RpcAdmissionTest, ShedsOldestWaiterWhenQueueOverflows) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  sim::Simulation* simp = &f.sim;
  server.register_handler(
      "slow", [simp](Message req) -> sim::Task<Result<Message>> {
        co_await simp->delay(msec(100));
        co_return req;
      });
  server.set_admission(/*max_inflight=*/1, /*max_queue=*/1);

  Result<Message> out[3] = {internal_error("unset"), internal_error("unset"),
                            internal_error("unset")};
  int64_t at_us[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    f.sim.spawn(run_call(client, "server", "slow", make_msg("x"), out[i],
                         at_us[i], f.sim));
  }
  f.sim.run();

  int ok = 0, shed = 0;
  for (const auto& r : out) {
    if (r.ok()) {
      ok++;
    } else if (r.status().code() == StatusCode::kResourceExhausted) {
      shed++;
    }
  }
  // One runs, one waits, the overflow sheds the oldest waiter (LIFO
  // service favours the freshest request under overload).
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(server.calls_shed(), 1);
  EXPECT_EQ(server.adm_inflight(), 0);  // all slots released
}

TEST(RpcAdmissionTest, ZeroQueueShedsImmediately) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  sim::Simulation* simp = &f.sim;
  server.register_handler(
      "slow", [simp](Message req) -> sim::Task<Result<Message>> {
        co_await simp->delay(msec(100));
        co_return req;
      });
  server.set_admission(/*max_inflight=*/1, /*max_queue=*/0);

  Result<Message> a = internal_error("unset"), b = internal_error("unset");
  int64_t at_a = -1, at_b = -1;
  f.sim.spawn(run_call(client, "server", "slow", make_msg("a"), a, at_a,
                       f.sim));
  f.sim.spawn(run_call(client, "server", "slow", make_msg("b"), b, at_b,
                       f.sim));
  f.sim.run();

  const bool a_ok = a.ok();
  const Result<Message>& failed = a_ok ? b : a;
  EXPECT_TRUE(a_ok || b.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.calls_shed(), 1);
}

TEST(RpcAdmissionTest, AdmittedWaiterIsReportedStuckUnderItsOwnName) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  sim::Simulation* simp = &f.sim;
  sim::Event never(f.sim, "e.never");
  int started = 0;
  // The first call holds the only slot for 10 ms; the second waits in the
  // admission queue, is admitted by the first call's exit, and hangs.
  server.register_handler(
      "hang", [simp, &never, &started](Message req)
                  -> sim::Task<Result<Message>> {
        if (started++ == 0) {
          co_await simp->delay(msec(10));
        } else {
          co_await never.wait();
        }
        co_return req;
      });
  server.set_admission(/*max_inflight=*/1, /*max_queue=*/1);

  Result<Message> out[2] = {internal_error("unset"), internal_error("unset")};
  int64_t at_us[2] = {-1, -1};
  f.sim.spawn(run_call(client, "server", "hang", make_msg("a"), out[0],
                       at_us[0], f.sim),
              "caller-a");
  f.sim.spawn(run_call(client, "server", "hang", make_msg("b"), out[1],
                       at_us[1], f.sim),
              "caller-b");
  f.sim.run();

  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(server.adm_inflight(), 1);  // caller-b holds the slot
  std::vector<const sim::SimDiagnostic*> stuck;
  for (const sim::SimDiagnostic& d : f.sim.checker().diagnostics()) {
    EXPECT_EQ(d.message.find("caller-a"), std::string::npos) << d.message;
    if (d.kind == sim::SimDiagnostic::Kind::kStuckTask) stuck.push_back(&d);
  }
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0]->task, "caller-b");
  EXPECT_EQ(stuck[0]->primitive, "e.never");
  EXPECT_NE(stuck[0]->message.find("Event 'e.never'"), std::string::npos)
      << stuck[0]->message;
}

// ------------------------------------------------------------ typed methods

struct TextRequest {
  std::string text;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.text); }
};

// A request with the frame metadata Endpoint::serve copies in.
struct FramedRequest {
  std::string text;
  TimePoint deadline = TimePoint::max();
  TraceContext trace;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.text); }
};

constexpr Method<TextRequest, Ack> kAckOrFail{"test.ack_or_fail"};
constexpr Method<FramedRequest, Ack> kFramed{"test.framed"};

template <class Req, class Resp>
sim::Task<void> run_typed(Endpoint& ep, std::string target,
                          Method<Req, Resp> method, Req request, Context ctx,
                          Result<Resp>& out, int64_t& at_us,
                          sim::Simulation& sim) {
  out = co_await ep.call(std::move(target), method, request, ctx);
  at_us = sim.now().us();
}

// tiera-us-east calls tiera-us-west on the paper topology, without jitter.
// The handler fails out of band on "fail" and acks an error in band
// otherwise; returns when the caller resumed.
int64_t ack_or_fail_at_us(const std::string& text, Result<Ack>& out) {
  sim::Simulation sim;
  net::Topology topo = net::Topology::paper_default();
  topo.set_jitter_fraction(0.0);
  topo.add_node("tiera-us-east", "aws-us-east");
  topo.add_node("tiera-us-west", "aws-us-west");
  net::Network network(sim, std::move(topo));
  Registry registry;
  Endpoint server(network, registry, "tiera-us-west");
  Endpoint client(network, registry, "tiera-us-east");
  server.serve(kAckOrFail,
               [](const TextRequest& r) -> sim::Task<Result<Ack>> {
                 if (r.text == "fail") co_return not_found("out of band");
                 co_return Ack{not_found("in band")};
               });
  int64_t at_us = -1;
  sim.spawn(run_typed(client, "tiera-us-west", kAckOrFail, TextRequest{text},
                      Context{}, out, at_us, sim));
  sim.run();
  EXPECT_EQ(network.traffic().total_messages, text == "fail" ? 1 : 2);
  return at_us;
}

TEST(TypedRpcTest, HandlerErrorPaysOneLegAndAnAckTwo) {
  const int64_t one_way_us =
      net::Topology::paper_default().base_rtt("aws-us-east", "aws-us-west")
          .us() /
      2;
  Result<Ack> failed = internal_error("unset");
  const int64_t failed_us = ack_or_fail_at_us("fail", failed);
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(failed.status().message(), "out of band");
  EXPECT_NEAR(failed_us, one_way_us, 100);

  Result<Ack> acked_error = internal_error("unset");
  const int64_t acked_us = ack_or_fail_at_us("ack", acked_error);
  ASSERT_TRUE(acked_error.ok());
  EXPECT_EQ(acked_error->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(acked_error->status.message(), "in band");
  EXPECT_EQ(acked(acked_error).code(), StatusCode::kNotFound);
  EXPECT_NEAR(acked_us, 2 * one_way_us, 200);
}

TEST(TypedRpcTest, RequestReceivesTheFramesDeadlineAndTrace) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  FramedRequest seen;
  server.serve(kFramed,
               [&seen](const FramedRequest& r) -> sim::Task<Status> {
                 seen = r;
                 co_return ok_status();
               });
  Context ctx = Context::with_deadline(TimePoint::origin() + sec(5));
  ctx.trace = f.sim.telemetry().tracer().start_trace("test.op", "client");
  Result<Ack> out = internal_error("unset");
  int64_t at_us = -1;
  FramedRequest request;
  request.text = "x";
  f.sim.spawn(run_typed(client, "server", kFramed, request, ctx, out, at_us,
                        f.sim));
  f.sim.run();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok());
  EXPECT_EQ(seen.text, "x");
  EXPECT_EQ(seen.deadline, TimePoint::origin() + sec(5));
  // The handler runs under the server span, a descendant of the caller's.
  EXPECT_EQ(seen.trace.trace_id, ctx.trace.trace_id);
  EXPECT_NE(seen.trace.span_id, 0u);
  EXPECT_NE(seen.trace.span_id, ctx.trace.span_id);
}

TEST(TypedRpcTest, UndecodableBodiesFailWithInvalidArgument) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  int ran = 0;
  server.serve(kAckOrFail, [&ran](const TextRequest&) -> sim::Task<Status> {
    ++ran;
    co_return ok_status();
  });
  // A request whose string claims 100 bytes and carries none: refused out
  // of band, after the request leg only, and the handler never runs.
  WireWriter w;
  w.put_u32(100);
  Result<Message> raw = internal_error("unset");
  int64_t raw_us = -1;
  f.sim.spawn(run_call(client, "server", kAckOrFail.name, Message{w.take()},
                       raw, raw_us, f.sim));
  f.sim.run();
  EXPECT_EQ(raw.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ran, 0);
  EXPECT_NEAR(raw_us, 35000, 50);

  // A response that does not decode fails the typed call the same way.
  server.register_handler(
      "test.garbled", [](Message) -> sim::Task<Result<Message>> {
        co_return make_msg("not an ack");
      });
  constexpr Method<TextRequest, Ack> kGarbled{"test.garbled"};
  Result<Ack> typed = internal_error("unset");
  int64_t typed_us = -1;
  f.sim.spawn(run_typed(client, "server", kGarbled, TextRequest{"x"},
                        Context{}, typed, typed_us, f.sim));
  f.sim.run();
  EXPECT_EQ(typed.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ registry

TEST(RpcRegistryTest, DuplicateEndpointKeepsFirstAndReportsError) {
  Fixture f;
  Endpoint server(f.network, f.registry, "server");
  Endpoint client(f.network, f.registry, "client");
  server.register_handler("echo", [](Message req) -> sim::Task<Result<Message>> {
    co_return req;
  });
  {
    // A second endpoint claiming the same node name must not hijack —
    // or, on destruction, unhook — the first registration.
    Endpoint imposter(f.network, f.registry, "server");
  }
  const sim::SimDiagnostic* d =
      f.sim.checker().find(sim::SimDiagnostic::Kind::kDuplicateEndpoint);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->is_error);
  EXPECT_NE(d->message.find("server"), std::string::npos) << d->message;
  f.sim.checker().clear_diagnostics();

  // The original endpoint still serves traffic.
  Result<Message> out = internal_error("unset");
  int64_t at_us = -1;
  f.sim.spawn(run_call(client, "server", "echo", make_msg("still-here"), out,
                       at_us, f.sim));
  f.sim.run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(msg_text(*out), "still-here");
}

}  // namespace
}  // namespace wiera::rpc
