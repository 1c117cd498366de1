package telemetry

import "context"

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	registryKey
	emitterKey
)

// WithTracer returns a context carrying the tracer. Instrumented code
// retrieves it implicitly through StartSpan.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithRegistry returns a context carrying the metrics registry.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey, r)
}

// RegistryFrom returns the context's metrics registry, or nil (whose
// instrument constructors return nil no-op instruments).
func RegistryFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey).(*Registry)
	return r
}

// WithEmitter returns a context carrying the event emitter. Instrumented
// code retrieves it with EmitterFrom and emits unconditionally — a nil
// emitter's Emit is a no-op.
func WithEmitter(ctx context.Context, e *Emitter) context.Context {
	if e == nil {
		return ctx
	}
	return context.WithValue(ctx, emitterKey, e)
}

// EmitterFrom returns the context's event emitter, or nil.
func EmitterFrom(ctx context.Context) *Emitter {
	e, _ := ctx.Value(emitterKey).(*Emitter)
	return e
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span
// (root if none) and returns a derived context in which the new span is
// current. Without a tracer in ctx it returns (ctx, nil) — and a nil
// span's methods are all no-ops — so call sites need no telemetry
// conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.StartSpan(name, SpanFrom(ctx))
	return context.WithValue(ctx, spanKey, sp), sp
}

// StartStage is StartSpan for a pipeline stage: the span's End also
// observes its duration on the context registry's cpr_stage_seconds
// histogram, labelled by stage. Stage latency is thus read off the
// trace's own clock; without a tracer in ctx nothing is observed.
func StartStage(ctx context.Context, stage string) (context.Context, *Span) {
	ctx, sp := StartSpan(ctx, stage)
	if sp != nil {
		sp.stage = RegistryFrom(ctx).Histogram("cpr_stage_seconds", "Wall-clock time per pipeline stage.",
			DefSecondsBuckets, L("stage", stage))
	}
	return ctx, sp
}
