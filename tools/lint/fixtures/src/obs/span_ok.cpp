// Fixture: span-pairing negatives — closed in-function, returned to the
// caller, and handed to a callee that owns the close. annotate() is neither
// a close nor an escape.
namespace fx {

struct TraceContext {
  int id = 0;
};

struct Tracer {
  TraceContext start_trace(const char* name);
  TraceContext start_span(const TraceContext& parent, const char* name);
  TraceContext start_span(const char* name, const char* host,
                          const TraceContext& parent, const char* detail);
  void end_span(const TraceContext& ctx, int status);
  void annotate(const TraceContext& ctx, const char* note);
};

Tracer& tracer();
void do_work(const TraceContext& ctx);

void closed_span() {
  TraceContext ctx = tracer().start_trace("op");
  tracer().annotate(ctx, "phase");
  tracer().end_span(ctx, 0);
}

void closed_rpc_span(const char* host, const TraceContext& parent,
                     const char* method) {
  TraceContext ctx = tracer().start_span("rpc.call", host, parent, method);
  tracer().end_span(ctx, 0);
}

TraceContext returned_span() {
  TraceContext ctx = tracer().start_trace("op");
  return ctx;
}

void passed_span() {
  TraceContext ctx = tracer().start_span(returned_span(), "sub");
  do_work(ctx);
}

}  // namespace fx
