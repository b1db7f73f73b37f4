#include "rpc/rpc.h"

#include "rpc/wire.h"
#include "sim/checker.h"
#include "sim/simulation.h"

namespace wiera::rpc {

template Message encode(const Ack&);
template Result<Ack> decode<Ack>(const Message&);
template Message encode(const Empty&);
template Result<Empty> decode<Empty>(const Message&);

bool Registry::add(const std::string& node_name, Endpoint* endpoint) {
  auto [it, inserted] = endpoints_.try_emplace(node_name, endpoint);
  (void)it;
  if (!inserted) {
    if (sim::SimChecker* checker = sim::SimChecker::current()) {
      checker->report_error(
          sim::SimDiagnostic::Kind::kDuplicateEndpoint, node_name.c_str(),
          "Registry::add: endpoint name '" + node_name +
              "' already registered; keeping the existing endpoint");
    }
  }
  return inserted;
}

Endpoint::~Endpoint() {
  // Only the endpoint that owns the registration may remove it: a rejected
  // duplicate must not unhook the original on destruction.
  if (registered_) registry_->remove(node_name_);
  if (!adm_queue_.empty()) {
    network_->sim().checker().on_primitive_destroyed(
        sim::WaitKind::kAdmission, this, "rpc.admission", adm_queue_.size());
  }
}

// ------------------------------------------------------------- call (client)

sim::Task<Result<Message>> Endpoint::call(std::string target_node,
                                          std::string method, Message request,
                                          Context ctx) {
  // Client span: one per call attempt, child of the caller's span. The
  // request frame carries this span's identity so the server span chains
  // under it. Ends with the final status even when the deadline timer wins
  // the race (the span closes here, not in the abandoned body).
  const TraceContext span =
      tracer().start_span("rpc.call", node_name_, ctx.trace, method);
  if (span.active()) {
    request.trace_id = span.trace_id;
    request.span_id = span.span_id;
  }
  Result<Message> response = co_await call_impl(
      std::move(target_node), std::move(method), std::move(request), ctx);
  const std::string_view status =
      response.ok() ? "ok" : status_code_name(response.status().code());
  tracer().end_span(span, status);
  co_return response;
}

sim::Task<Result<Message>> Endpoint::call_impl(std::string target_node,
                                               std::string method,
                                               Message request, Context ctx) {
  if (!ctx.has_deadline()) {
    co_return co_await call_inner(std::move(target_node), std::move(method),
                                  std::move(request));
  }
  if (ctx.cancelled() || ctx.expired(network_->sim().now())) {
    calls_expired_->inc();
    co_return deadline_exceeded("rpc " + method + " to " + target_node +
                                ": deadline expired before send");
  }
  request.deadline = ctx.deadline();
  // Race the real call against a sim-clock timer sharing one promise. The
  // loser keeps running (cooperatively cancelled, SimChecker-visible) but
  // the caller resumes no later than the deadline.
  auto promise = std::make_shared<sim::Promise<Result<Message>>>(
      network_->sim(), "rpc.call-deadline");
  network_->sim().spawn(call_body(std::move(target_node), method,
                                  std::move(request), promise),
                        node_name_ + "/rpc-call-body");
  network_->sim().spawn(call_timer(ctx, std::move(method), promise),
                        node_name_ + "/rpc-call-timer");
  Result<Message> response = co_await promise->future();
  co_return response;
}

sim::Task<void> Endpoint::call_body(
    std::string target_node, std::string method, Message request,
    std::shared_ptr<sim::Promise<Result<Message>>> promise) {
  Result<Message> response = co_await call_inner(
      std::move(target_node), std::move(method), std::move(request));
  if (!promise->fulfilled()) promise->set_value(std::move(response));
}

sim::Task<void> Endpoint::call_timer(
    Context ctx, std::string method,
    std::shared_ptr<sim::Promise<Result<Message>>> promise) {
  co_await network_->sim().delay(ctx.remaining(network_->sim().now()));
  if (promise->fulfilled()) co_return;
  ctx.cancel();
  calls_expired_->inc();
  promise->set_value(deadline_exceeded("rpc " + method + " from " +
                                       node_name_ + ": deadline exceeded"));
}

sim::Task<Result<Message>> Endpoint::call_inner(std::string target_node,
                                                std::string method,
                                                Message request) {
  calls_sent_->inc();

  if (target_node == node_name_) {
    // Loopback: no network hop.
    co_return co_await dispatch(method, std::move(request));
  }

  const net::NodeId target_id = network_->topology().node_id(target_node);
  const int64_t request_size = request.wire_size();
  Status st = co_await network_->transfer(node_id_, target_id, request_size,
                                          request.deadline);
  if (!st.ok()) co_return st;

  Endpoint* target = registry_->find(target_node);
  if (target == nullptr) {
    co_return unavailable("no endpoint registered at " + target_node);
  }

  if (network_->chaos_corrupt(node_name_, target_node) &&
      !request.body.empty()) {
    // The request payload arrives with a flipped byte. The frame itself
    // still parses (headers are modeled out of band), so only end-to-end
    // checksums can catch this. Copy-on-write: the body's storage is shared
    // with the sender, so only this delivery's view may change.
    request.body.flip_byte(request.body.size() / 2);
  }

  if (network_->chaos_duplicate(node_name_, target_node)) {
    // The request packet was duplicated in transit: the handler runs twice,
    // the duplicate's response is discarded. Handlers must be idempotent.
    // The duplicate keeps the original frame's trace identity (it IS the
    // same packet), so its handler span appears as a second child of the
    // same client span — exactly what a duplicated delivery looks like.
    Message duplicate{request.body, request.deadline, request.trace_id,
                      request.span_id};
    network_->sim().spawn(
        target->dispatch_discard(method, std::move(duplicate)),
        "rpc.chaos-duplicate");
  }

  const TimePoint deadline = request.deadline;
  Result<Message> response = co_await target->dispatch(method,
                                                       std::move(request));
  if (!response.ok()) co_return response.status();

  st = co_await network_->transfer(target_id, node_id_, response->wire_size(),
                                   deadline);
  if (!st.ok()) co_return st;

  if (network_->chaos_corrupt(target_node, node_name_) &&
      !response->body.empty()) {
    response->body.flip_byte(response->body.size() / 2);
  }

  co_return std::move(response).value();
}

// ---------------------------------------------------------- admission (server)

struct Endpoint::AdmissionAwaiter {
  Endpoint* ep;
  AdmissionWaiter waiter;

  bool await_ready() {
    if (ep->adm_inflight_ < ep->adm_max_inflight_) {
      ep->adm_inflight_++;
      return true;
    }
    if (ep->adm_max_queue_ <= 0) {
      // No queue configured at all: shed immediately without suspending.
      waiter.shed = true;
      return true;
    }
    return false;
  }

  void await_suspend(std::coroutine_handle<> h) {
    if (static_cast<int>(ep->adm_queue_.size()) >= ep->adm_max_queue_) {
      // Queue full: shed the *oldest* waiter to make room (LIFO shedding —
      // the request that waited longest is the least likely to still meet
      // its caller's deadline, so it is the one to drop).
      AdmissionWaiter* oldest = ep->adm_queue_.front();
      ep->adm_queue_.pop_front();
      oldest->shed = true;
      ep->network_->sim().wake(oldest->entry);
    }
    waiter.entry = ep->network_->sim().checker().on_block(
        h, sim::WaitKind::kAdmission, ep, "rpc.admission");
    ep->adm_queue_.push_back(&waiter);
  }

  // True = admitted (an inflight slot is held); false = shed.
  bool await_resume() const { return !waiter.shed; }
};

Endpoint::AdmissionAwaiter Endpoint::admission_enter() {
  return AdmissionAwaiter{this, {}};
}

void Endpoint::admission_exit() {
  adm_inflight_--;
  if (!adm_queue_.empty()) {
    // LIFO service: admit the newest waiter.
    AdmissionWaiter* next = adm_queue_.back();
    adm_queue_.pop_back();
    adm_inflight_++;
    network_->sim().wake(next->entry);
  }
}

// ----------------------------------------------------------- dispatch (server)

sim::Task<void> Endpoint::dispatch_discard(std::string method,
                                           Message request) {
  Result<Message> discarded = co_await dispatch(method, std::move(request));
  // wiera-lint: allow(status-discipline) chaos-duplicate delivery: the duplicate's response is dropped by design
  (void)discarded;
}

sim::Task<Result<Message>> Endpoint::dispatch(const std::string& method,
                                              Message request) {
  calls_handled_->inc();
  // Server span: child of the frame's (client) span. The request's trace
  // identity is rewritten to this span before the handler runs, so any RPCs
  // the handler issues chain under the server span — that is what turns a
  // fan-out into a tree.
  const TraceContext span = tracer().start_span("rpc.server", node_name_,
                                                request.trace(), method);
  if (span.active()) {
    request.trace_id = span.trace_id;
    request.span_id = span.span_id;
  }
  Result<Message> response =
      co_await dispatch_inner(method, std::move(request), span);
  const std::string_view status =
      response.ok() ? "ok" : status_code_name(response.status().code());
  tracer().end_span(span, status);
  co_return response;
}

sim::Task<Result<Message>> Endpoint::dispatch_inner(const std::string& method,
                                                    Message request,
                                                    TraceContext span) {
  auto it = handlers_.find(method);
  if (it == handlers_.end()) {
    co_return unimplemented("method " + method + " on " + node_name_);
  }
  // A request whose deadline already passed in transit is dead on arrival:
  // the caller's timer has (or will have) fired, so running the handler
  // would be pure wasted work during an overload.
  if (request.deadline != TimePoint::max() &&
      network_->sim().now() >= request.deadline) {
    calls_expired_->inc();
    tracer().annotate(span, "expired=in-transit");
    co_return deadline_exceeded("rpc " + method + " on " + node_name_ +
                                ": expired in transit");
  }
  if (!admission_enabled()) {
    co_return co_await it->second(std::move(request));
  }

  const bool admitted = co_await admission_enter();
  if (!admitted) {
    calls_shed_->inc();
    tracer().annotate(span, "shed=true");
    network_->sim().telemetry().journal()
        .event("rpc", "shed")
        .str("node", node_name_)
        .str("method", method)
        .trace(span);
    co_return resource_exhausted("rpc " + method + " on " + node_name_ +
                                 ": shed by admission control");
  }
  // Re-check the deadline: it may have expired while queued.
  if (request.deadline != TimePoint::max() &&
      network_->sim().now() >= request.deadline) {
    calls_expired_->inc();
    admission_exit();
    tracer().annotate(span, "expired=in-queue");
    co_return deadline_exceeded("rpc " + method + " on " + node_name_ +
                                ": expired in admission queue");
  }
  // wiera-lint: allow(await-hazard) handlers_ is a setup-time-only std::map; never mutated during dispatch
  Result<Message> response = co_await it->second(std::move(request));
  admission_exit();
  co_return response;
}

}  // namespace wiera::rpc
