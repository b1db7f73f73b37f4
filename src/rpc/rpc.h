// Typed request/response RPC over the simulated network (Thrift stand-in).
//
// Each node hosts one Endpoint. A method is declared once, as an
// rpc::Method naming its request and response types; `serve` registers a
// coroutine handler for it (it can perform storage work / further RPCs
// before responding) and `call` issues it, both doing the codec. A call
// pays: request transfer -> handler execution -> response transfer.
// Failures (outages) surface as non-OK Status.
//
// Request-lifecycle defenses (see docs/OVERLOAD.md):
//  * Deadlines — a call issued with a Context deadline races the RPC
//    against a sim-clock timer: the caller resumes with kDeadlineExceeded
//    at the deadline even if the peer or the network stalls, and the
//    deadline travels in the message frame so the server sheds work whose
//    caller has already given up.
//  * Admission control — `set_admission` bounds concurrently-executing
//    handlers plus a wait queue. The queue is served LIFO (the newest
//    request is the most likely to still meet its deadline) and sheds the
//    oldest waiter with kResourceExhausted when full.
#pragma once

#include <cassert>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/bytes.h"
#include "common/context.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "rpc/wire.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace wiera::rpc {

// A serialized message body plus a small framing overhead that models
// headers on the wire. The body is a segmented view over ref-counted
// buffers (common/bytes.h): copying a Message shares payload storage, and
// wire_size() reflects the logical byte string exactly as if it were flat.
struct Message {
  BodyView body;
  // Absolute deadline carried in the frame header (gRPC-style metadata, not
  // part of the serialized body). TimePoint::max() = no deadline.
  TimePoint deadline = TimePoint::max();
  // Trace identity, also frame metadata: the caller's span, which becomes
  // the parent of the server-side span. Both zero when untraced. Covered by
  // kFrameOverhead, so tracing never changes transfer times.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  static constexpr int64_t kFrameOverhead = 32;
  int64_t wire_size() const {
    return static_cast<int64_t>(body.size()) + kFrameOverhead;
  }
  TraceContext trace() const {
    TraceContext t;
    t.trace_id = trace_id;
    t.span_id = span_id;
    return t;
  }
};

// A field-list struct (wire.h) as a message body, and back. A truncated or
// malformed body decodes to kInvalidArgument.
template <WireStruct T>
Message encode(const T& m) {
  WireWriter w;
  put_field(w, m);
  return Message{w.take_body()};
}

template <WireStruct T>
Result<T> decode(const Message& msg) {
  WireReader r(msg.body);
  // Decoded in place and returned as one object: no field is moved on the
  // success path.
  Result<T> out = T{};
  get_field(r, *out);
  if (!r.ok()) out = r.status();
  return out;
}

// The response of a method that answers with a Status alone: the body is
// that Status (a bool, the u32 code, then the message string).
struct Ack {
  Status status;

  template <class Self>
  static auto wire_fields(Self& m) { return std::tie(m.status); }
};

// The request of a method that takes no arguments: an empty body.
struct Empty {
  template <class Self>
  static auto wire_fields(Self&) { return std::tie(); }
};

// One RPC method: its name and the types of its request and response.
// Endpoint::serve and Endpoint::call take it, so a handler or a call site
// with the wrong message type does not compile.
template <class Req, class Resp>
struct Method {
  const char* name;
};

// The one Status of an acked call: its out-of-band failure, else the ack.
inline Status acked(const Result<Ack>& r) {
  return r.ok() ? r->status : r.status();
}

// Compiled once, in rpc.cpp.
extern template Message encode(const Ack&);
extern template Result<Ack> decode<Ack>(const Message&);
extern template Message encode(const Empty&);
extern template Result<Empty> decode<Empty>(const Message&);

class Endpoint;

// Name -> endpoint routing; one per simulation.
class Registry {
 public:
  // Registers the endpoint; returns false (keeping the existing entry) when
  // the name is already taken. A duplicate used to be a bare assert, which
  // vanishes under NDEBUG — now it is a structured SimChecker diagnostic.
  bool add(const std::string& node_name, Endpoint* endpoint);
  void remove(const std::string& node_name) { endpoints_.erase(node_name); }
  Endpoint* find(const std::string& node_name) const {
    auto it = endpoints_.find(node_name);
    return it == endpoints_.end() ? nullptr : it->second;
  }

 private:
  std::map<std::string, Endpoint*> endpoints_;
};

class Endpoint {
 public:
  // A handler consumes the request body and produces a response body.
  using Handler = std::function<sim::Task<Result<Message>>(Message)>;

  Endpoint(net::Network& network, Registry& registry, std::string node_name)
      : network_(&network),
        registry_(&registry),
        node_name_(std::move(node_name)) {
    assert(network_->topology().has_node(node_name_) &&
           "endpoint node must exist in the topology");
    node_id_ = network_->topology().node_id(node_name_);
    registered_ = registry_->add(node_name_, this);
    obs::Registry& metrics = network_->sim().telemetry().registry();
    const obs::LabelSet labels{{"node", node_name_}};
    calls_handled_ = metrics.counter("rpc_calls_handled_total", labels);
    calls_sent_ = metrics.counter("rpc_calls_sent_total", labels);
    calls_shed_ = metrics.counter("rpc_calls_shed_total", labels);
    calls_expired_ = metrics.counter("rpc_calls_expired_total", labels);
  }

  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& node_name() const { return node_name_; }

  void register_handler(const std::string& method, Handler handler) {
    handlers_[method] = std::move(handler);
  }

  // Serves `method` with `handler(Req) -> sim::Task<Result<Resp>>`. The
  // request is decoded first (a body that does not decode is refused with
  // kInvalidArgument and the handler never runs); a request with
  // `deadline` / `trace` members receives the frame's. A handler's error
  // goes back out of band: the caller fails at once, no response leg. A
  // response, an Ack included, is an in-band body that pays the return
  // leg. An Ack method's handler may instead return a plain Status, always
  // acked in band.
  template <class Req, class Resp, class Fn>
  void serve(const Method<Req, Resp>& method, Fn handler);

  // Calls `method` on `target_node`: encodes `request` before returning,
  // then decodes the response; a body that does not decode fails the call
  // with kInvalidArgument. Pass the request as a named local: GCC 12
  // destroys an aggregate temporary built inside a co_await twice.
  template <class Req, class Resp>
  sim::Task<Result<Resp>> call(std::string target_node,
                               const Method<Req, Resp>& method,
                               const Req& request, Context ctx = {}) {
    return decoded<Resp>(call(std::move(target_node), method.name,
                              encode(request), std::move(ctx)));
  }

  // Bound concurrent handler execution: at most `max_inflight` handlers run
  // at once and at most `max_queue` requests wait behind them; beyond that
  // the *oldest* waiter is shed with kResourceExhausted (LIFO service).
  // max_inflight <= 0 disables admission control (the default).
  void set_admission(int max_inflight, int max_queue) {
    adm_max_inflight_ = max_inflight;
    adm_max_queue_ = max_queue;
  }

  // Issue an RPC. Completes with the response, or kUnavailable /
  // kUnimplemented / kResourceExhausted on failure. With a Context deadline
  // the call completes no later than the deadline (kDeadlineExceeded); the
  // in-flight work is cancelled cooperatively and remains checker-visible.
  // Calling a method on one's own node skips the network (loopback).
  sim::Task<Result<Message>> call(std::string target_node, std::string method,
                                  Message request, Context ctx = {});

  // Per-endpoint counters: thin views over the sim-wide metrics registry
  // (rpc_calls_*_total{node=...}); the workload monitor and tests read
  // these.
  int64_t calls_handled() const { return calls_handled_->value(); }
  int64_t calls_sent() const { return calls_sent_->value(); }
  int64_t calls_shed() const { return calls_shed_->value(); }
  int64_t calls_expired() const { return calls_expired_->value(); }
  int adm_inflight() const { return adm_inflight_; }

 private:
  struct AdmissionWaiter {
    sim::Waiter entry;  // the queued coroutine and its task
    bool shed = false;
  };
  struct AdmissionAwaiter;

  // The typed call's second half: awaits the raw call, decodes its body.
  template <class Resp>
  static sim::Task<Result<Resp>> decoded(sim::Task<Result<Message>> raw);

  obs::Tracer& tracer() { return network_->sim().telemetry().tracer(); }

  // call() minus the client-span bracket (deadline race / direct path).
  sim::Task<Result<Message>> call_impl(std::string target_node,
                                       std::string method, Message request,
                                       Context ctx);
  // The un-raced call path (request transfer -> dispatch -> response).
  sim::Task<Result<Message>> call_inner(std::string target_node,
                                        std::string method, Message request);
  // Deadline race: `call_body` runs the real call and fulfills the shared
  // promise; `call_timer` fulfills it with kDeadlineExceeded at the
  // deadline and cancels the context so downstream layers stop early.
  sim::Task<void> call_body(
      std::string target_node, std::string method, Message request,
      std::shared_ptr<sim::Promise<Result<Message>>> promise);
  sim::Task<void> call_timer(
      Context ctx, std::string method,
      std::shared_ptr<sim::Promise<Result<Message>>> promise);

  sim::Task<Result<Message>> dispatch(const std::string& method,
                                      Message request);
  // dispatch() minus the server-span bracket.
  sim::Task<Result<Message>> dispatch_inner(const std::string& method,
                                            Message request,
                                            TraceContext span);
  // Chaos duplicate delivery: run the handler a second time with a copy of
  // the request and discard the result — the duplicate's response is lost.
  // Exercises handler idempotency (replication dedup, LWW).
  sim::Task<void> dispatch_discard(std::string method, Message request);

  bool admission_enabled() const { return adm_max_inflight_ > 0; }
  AdmissionAwaiter admission_enter();
  void admission_exit();

  net::Network* network_;
  Registry* registry_;
  std::string node_name_;
  net::NodeId node_id_ = 0;
  bool registered_ = false;
  std::map<std::string, Handler> handlers_;
  obs::Counter* calls_handled_ = nullptr;
  obs::Counter* calls_sent_ = nullptr;
  obs::Counter* calls_shed_ = nullptr;
  obs::Counter* calls_expired_ = nullptr;

  int adm_max_inflight_ = 0;
  int adm_max_queue_ = 0;
  int adm_inflight_ = 0;
  std::deque<AdmissionWaiter*> adm_queue_;  // front = oldest
};

template <class Req, class Resp, class Fn>
void Endpoint::serve(const Method<Req, Resp>& method, Fn handler) {
  using Task = std::invoke_result_t<const Fn&, Req>;
  constexpr bool kAlwaysAcks =
      std::is_same_v<Resp, Ack> && std::is_same_v<Task, sim::Task<Status>>;
  static_assert(kAlwaysAcks || std::is_same_v<Task, sim::Task<Result<Resp>>>,
                "a handler returns sim::Task<Result<Response>>, or "
                "sim::Task<Status> for an Ack method");
  register_handler(
      method.name,
      [fn = std::move(handler)](Message msg) -> sim::Task<Result<Message>> {
        Result<Req> request = decode<Req>(msg);
        if (!request.ok()) co_return request.status();
        if constexpr (requires(Req& r, Message& m) {
                        r.deadline = m.deadline;
                      }) {
          request->deadline = msg.deadline;
        }
        if constexpr (requires(Req& r, Message& m) { r.trace = m.trace(); }) {
          request->trace = msg.trace();
        }
        // The request outlives the handler's task, which may hold a
        // reference to it.
        Task task = fn(std::move(request).value());
        auto out = co_await std::move(task);
        if constexpr (kAlwaysAcks) {
          co_return encode(Ack{std::move(out)});
        } else {
          if (!out.ok()) co_return out.status();
          co_return encode(*out);
        }
      });
}

template <class Resp>
sim::Task<Result<Resp>> Endpoint::decoded(sim::Task<Result<Message>> raw) {
  Result<Message> response = co_await std::move(raw);
  if (!response.ok()) co_return response.status();
  co_return decode<Resp>(*response);
}

}  // namespace wiera::rpc
