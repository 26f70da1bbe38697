package staging

import (
	"fmt"
	"sort"

	"nekrs-sensei/internal/telemetry"
)

// SetTelemetry attaches the hub to a process telemetry plane under the
// given label (one hub per simulated rank: labels like "rank-0" keep
// their series apart). It installs:
//
//   - lock-free counters mirroring the hub totals (published, dropped,
//     spilled, wire bytes), incremented on the hot path;
//   - marshal/publish/deliver stamps into the process step-trace ring;
//   - a scrape-time sampler exporting per-consumer gauges (lag,
//     cursor, spill-queue depth, resident steps, producer-blocked
//     time, delivered, wire bytes) — pull-based,
//     so the steady-state loop never pays for them;
//   - a /statusz section ("staging-hub/<label>") carrying the full
//     HubStatus snapshot.
//
// Call before streaming starts; a nil tel is a no-op.
func (h *Hub) SetTelemetry(tel *telemetry.Telemetry, label string) {
	if tel == nil {
		return
	}
	reg := tel.Registry()
	h.mu.Lock()
	h.tel = hubTelemetry{
		trace:      tel.Tracer(),
		published:  reg.Counter("staging_published_steps_total", "hub", label),
		dropped:    reg.Counter("staging_dropped_steps_total", "hub", label),
		spilled:    reg.Counter("staging_spilled_steps_total", "hub", label),
		wireBytes:  reg.Counter("staging_wire_bytes_total", "hub", label),
		suppressed: reg.Counter("staging_suppressed_steps_total", "hub", label),
		events:     tel.Events(),
	}
	h.mu.Unlock()
	reg.RegisterSampler(func(s *telemetry.Sample) {
		st := h.Status()
		s.Gauge("staging_ring_steps", float64(st.Ring), "hub", label)
		for _, c := range st.Consumers {
			if c.Closed {
				continue
			}
			kv := []string{"hub", label, "consumer", c.Name}
			s.Gauge("staging_consumer_lag_steps", float64(c.Lag), kv...)
			s.Gauge("staging_consumer_cursor", float64(c.Cursor), kv...)
			s.Gauge("staging_consumer_spill_queue", float64(c.SpillQueue), kv...)
			s.Gauge("staging_consumer_resident_steps", float64(c.Resident), kv...)
			s.Counter("staging_consumer_blocked_seconds_total", float64(c.BlockedNs)/1e9, kv...)
			s.Counter("staging_consumer_delivered_total", float64(c.Delivered), kv...)
			s.Counter("staging_consumer_wire_bytes_total", float64(c.WireBytes), kv...)
		}
		for _, cs := range st.CodecStreams {
			kv := []string{"hub", label, "form", cs.Form}
			s.Counter("staging_codec_raw_bytes_total", float64(cs.RawBytes), kv...)
			s.Counter("staging_codec_encoded_bytes_total", float64(cs.EncodedBytes), kv...)
		}
	})
	tel.RegisterStatus("staging-hub/"+label, func() any { return h.Status() })
}

// HubStatus is the hub's /statusz snapshot: producer totals, ring
// occupancy, and every consumer's position and policy.
type HubStatus struct {
	Published int64           `json:"published"`
	Dropped   int64           `json:"dropped"`
	Spilled   int64           `json:"spilled"`
	Ring      int             `json:"ring_steps"`
	Closed    bool            `json:"closed"`
	Consumers []ConsumerStats `json:"consumers"`

	// CodecStreams reports each shared wire-codec encode chain's
	// compression record (empty when no consumer negotiated codecs).
	CodecStreams []CodecStreamStatus `json:"codec_streams,omitempty"`
}

// CodecStreamStatus is one shared (subset, codec spec) encode chain's
// compression accounting.
type CodecStreamStatus struct {
	// Form is the chain's canonical key, "<arrays>|<codec entries>".
	Form string `json:"form"`
	// RawBytes / EncodedBytes total the codec-eligible payload volume
	// before and after coding, across every step this chain encoded.
	RawBytes     int64 `json:"raw_bytes"`
	EncodedBytes int64 `json:"encoded_bytes"`
	// Ratio is EncodedBytes/RawBytes (1 until something was coded).
	Ratio float64 `json:"ratio"`
}

// Status snapshots the hub for /statusz and shutdown reporting.
func (h *Hub) Status() HubStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStatus{
		Published: h.published, Dropped: h.dropped, Spilled: h.spilled,
		Ring: len(h.ring), Closed: h.closed,
	}
	st.Consumers = make([]ConsumerStats, len(h.consumers))
	for i, c := range h.consumers {
		st.Consumers[i] = h.statsLocked(c)
	}
	st.CodecStreams = h.codecStreamStatusLocked()
	return st
}

// codecStreamStatusLocked snapshots the shared encode chains, sorted
// by form key. Caller holds h.mu; the encoder counters are atomics,
// so in-flight encodes on other goroutines are safe to read through.
func (h *Hub) codecStreamStatusLocked() []CodecStreamStatus {
	if len(h.codecStreams) == 0 {
		return nil
	}
	out := make([]CodecStreamStatus, 0, len(h.codecStreams))
	for form, cs := range h.codecStreams {
		out = append(out, CodecStreamStatus{
			Form:     form,
			RawBytes: cs.enc.BytesRaw(), EncodedBytes: cs.enc.BytesEncoded(),
			Ratio: cs.enc.Ratio(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Form < out[j].Form })
	return out
}

// label helper for per-rank hubs.
func RankLabel(rank int) string { return fmt.Sprintf("rank-%d", rank) }
