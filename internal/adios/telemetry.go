package adios

import (
	"nekrs-sensei/internal/telemetry"
)

// sstTelemetry is one reader's slice of the process telemetry plane.
// The zero value is the disabled plane: every handle is nil and all
// stamps/increments no-op, so a stream without telemetry keeps the
// zero-allocation steady state untouched.
type sstTelemetry struct {
	trace *telemetry.StepTracer
	steps *telemetry.Counter
	bytes *telemetry.Counter
	// credits counts flow-control round trips.
	credits *telemetry.Counter
	// reconnects counts mid-stream reconnect + resume cycles — the
	// self-healing plane's visible heartbeat.
	reconnects *telemetry.Counter
	// events is the process recovery journal; subject names this
	// stream in emitted events (the consumer name, or the dialed
	// address when anonymous).
	events  *telemetry.EventJournal
	subject string
}

// SetTelemetry attaches the reader to a telemetry plane: deliver and
// decode stamps keyed by the step ordinal carried in each frame, plus
// received-step/byte/credit counters. Call from the reader's single
// goroutine before the first BeginStep.
func (r *Reader) SetTelemetry(tel *telemetry.Telemetry, labels ...string) {
	if tel == nil {
		return
	}
	reg := tel.Registry()
	subject := r.opts.Consumer
	if subject == "" {
		subject = r.addr
	}
	r.tel = sstTelemetry{
		trace:      tel.Tracer(),
		steps:      reg.Counter("sst_reader_steps_total", labels...),
		bytes:      reg.Counter("sst_reader_bytes_total", labels...),
		credits:    reg.Counter("sst_reader_credits_total", labels...),
		reconnects: reg.Counter("sst_reader_reconnects_total", labels...),
		events:     tel.Events(),
		subject:    subject,
	}
}
