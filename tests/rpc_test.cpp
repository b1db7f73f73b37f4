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
  EXPECT_TRUE(decode_status(encode_status(ok_status())).ok());

  const Status down = decode_status(encode_status(unavailable("node down")));
  EXPECT_EQ(down.code(), StatusCode::kUnavailable);
  EXPECT_EQ(down.message(), "node down");

  // A body cut inside the code field is malformed, not a peer's error.
  Message cut = encode_status(not_found("k"));
  Bytes flat = cut.body.flatten();
  flat.resize(3);
  EXPECT_EQ(decode_status(Message{std::move(flat)}).code(),
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
