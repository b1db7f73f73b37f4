// Fixture: span-pairing positives — a context that neither closes nor
// escapes (from start_trace() and from the four-argument start_span()), and
// a start_trace() whose result is dropped on the floor.
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

int leaked_span() {
  TraceContext ctx = tracer().start_trace("op");
  int work = ctx.id;
  return work;
}

int leaked_rpc_span(const char* host, const TraceContext& parent,
                    const char* method) {
  TraceContext ctx = tracer().start_span("rpc.call", host, parent, method);
  int work = ctx.id;
  return work;
}

void dropped_trace() {
  tracer().start_trace("op");
}

}  // namespace fx
