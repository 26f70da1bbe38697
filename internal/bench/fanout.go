package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"
)

// FanoutConfig parameterizes one fan-out transport measurement: one
// producer streaming synthetic timesteps to N consumers, either over
// N independent single-consumer streams (direct — each step marshaled
// and queued once per consumer) or through one staging hub (staged —
// marshaled once, shared by every consumer).
type FanoutConfig struct {
	Consumers  int
	Policy     staging.Policy // staged mode only; direct is always Block
	Depth      int            // queue depth / consumer window (default 2)
	Steps      int            // timesteps to stream (default 40)
	PayloadF64 int            // float64s per step (default 16384 = 128 KiB)

	// ConsumerDelay models endpoint processing time per step. With a
	// slow consumer the policies separate: block throttles the
	// producer to the slowest consumer, drop-oldest and latest-only
	// keep it at full rate and shed steps instead.
	ConsumerDelay time.Duration

	// LinkMBps emulates a bandwidth-limited consumer link: each
	// consumer sleeps wire_bytes/LinkMBps per received step (0 = no
	// limit). The wire-compression comparison uses it to model the
	// interconnect a real fan-out crosses — on raw loopback the
	// transport is never the bottleneck, so smaller frames could
	// never pay for their encode cost.
	LinkMBps float64

	// Field selects the synthetic payload: "" keeps the original
	// integer-ramp shape, any codecField name ("smooth", "linear",
	// "random") swaps in the wire-compression benchmark's fields.
	Field string

	// Codecs is the wire-compression request every staged consumer
	// makes (codec.ParseSpec grammar); nil streams plain BP05. The
	// direct arm ignores it — per-consumer codecs are a staging
	// feature.
	Codecs []string
}

func (c *FanoutConfig) withDefaults() FanoutConfig {
	out := *c
	if out.Consumers == 0 {
		out.Consumers = 1
	}
	if out.Depth == 0 {
		out.Depth = 2
	}
	if out.Steps == 0 {
		out.Steps = 40
	}
	if out.PayloadF64 == 0 {
		out.PayloadF64 = 16384
	}
	return out
}

// FanoutResult is one row of the fan-out comparison.
type FanoutResult struct {
	Mode      string // "direct" or "staged"
	Policy    staging.Policy
	Consumers int
	Steps     int

	// ProducerWall is the wall time the producer spent streaming all
	// steps — the simulation-side cost the paper's Figure 5 metric
	// cares about.
	ProducerWall time.Duration
	// ProducerMBps is payload throughput from the producer's view
	// (payload counted once, independent of consumer count).
	ProducerMBps float64

	Delivered int64 // steps received across all consumers
	Dropped   int64 // steps shed by drop policies

	// WireRatio is encoded/raw bytes over the staged run's shared
	// codec chains — 1 when the wire is plain (no codecs negotiated,
	// or direct mode).
	WireRatio float64
}

// fanoutStep builds one synthetic timestep of n float64s. An empty
// field keeps the original integer ramp; otherwise the payload comes
// from the codec benchmark's field generators.
func fanoutStep(seq, n int, field string) *adios.Step {
	data := make([]float64, n)
	if field == "" {
		for i := range data {
			data[i] = float64(seq*n + i)
		}
	} else {
		codecField(field, seq, data)
	}
	return &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq),
		Attrs: map[string]string{},
		Vars:  []adios.Variable{adios.NewF64("array/payload", data)},
	}
}

func mbps(bytes int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(bytes) / wall.Seconds() / (1 << 20)
}

// linkPace sleeps for the time an emulated link of rate MB/s would
// take to carry n wire bytes.
func linkPace(n int64, rate float64) {
	if rate <= 0 || n <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(n) / (rate * (1 << 20)) * float64(time.Second)))
}

// RunFanoutDirect streams through N single-consumer hubs, which is
// what N direct streams are and the only fan-out shape a
// one-producer/one-consumer transport supports: the producer stages
// every step once per consumer, each stream marshals its own frame, and
// the producer blocks on the slowest queue (SST semantics).
func RunFanoutDirect(cfg FanoutConfig) (FanoutResult, error) {
	c := cfg.withDefaults()
	c.Policy, c.Codecs = staging.Block, nil
	return runFanout(c, "direct", c.Consumers, nil)
}

// RunFanoutStaged streams through one staging hub serving N network
// consumers under the configured backpressure policy: each step is
// marshaled once and the frame shared by every connection.
func RunFanoutStaged(cfg FanoutConfig) (FanoutResult, error) {
	return runFanoutStaged(cfg, nil)
}

// runFanoutStaged is RunFanoutStaged with an optional telemetry plane
// attached to the hub and every reader — the instrumented arm of the
// telemetry-overhead measurement. tel == nil runs bare.
func runFanoutStaged(cfg FanoutConfig, tel *telemetry.Telemetry) (FanoutResult, error) {
	return runFanout(cfg.withDefaults(), "staged", 1, tel)
}

// runFanout streams c.Steps steps to c.Consumers network readers
// spread round-robin over nHubs hubs, each behind its own server.
func runFanout(c FanoutConfig, mode string, nHubs int, tel *telemetry.Telemetry) (FanoutResult, error) {
	hubs := make([]*staging.Hub, nHubs)
	srvs := make([]*staging.Server, nHubs)
	for i := range hubs {
		hubs[i] = staging.NewHub(nil)
		hubs[i].SetTelemetry(tel, "bench")
		srv, err := staging.Serve(hubs[i], "127.0.0.1:0", nil)
		if err != nil {
			return FanoutResult{}, err
		}
		srvs[i] = srv
	}
	errs := make([]error, c.Consumers)
	var wg sync.WaitGroup
	for i := 0; i < c.Consumers; i++ {
		r, err := adios.OpenReaderWith(srvs[i%nHubs].Addr(), adios.ReaderOptions{
			Consumer: fmt.Sprintf("bench-%d", i),
			Policy:   c.Policy.String(),
			Depth:    c.Depth,
			Codecs:   c.Codecs,
		})
		if err != nil {
			return FanoutResult{}, err
		}
		r.SetTelemetry(tel, "consumer", fmt.Sprintf("bench-%d", i))
		wg.Add(1)
		go func(i int, r *adios.Reader) {
			defer wg.Done()
			defer r.Close()
			var seen int64
			for {
				if _, err := r.BeginStep(); err != nil {
					if !errors.Is(err, io.EOF) {
						errs[i] = err
					}
					return
				}
				linkPace(r.BytesReceived()-seen, c.LinkMBps)
				seen = r.BytesReceived()
				if c.ConsumerDelay > 0 {
					time.Sleep(c.ConsumerDelay)
				}
			}
		}(i, r)
	}
	// Every consumer is already subscribed: the server binds the hub
	// consumer before replying to the handshake OpenReaderWith blocks
	// on, so Block consumers cannot miss early steps.

	var payload int64
	start := time.Now()
	for s := 0; s < c.Steps; s++ {
		step := fanoutStep(s, c.PayloadF64, c.Field)
		payload += step.Bytes()
		for _, hub := range hubs {
			if err := hub.Publish(step); err != nil {
				return FanoutResult{}, err
			}
		}
	}
	wall := time.Since(start)
	for i, hub := range hubs {
		if err := hub.Close(); err != nil {
			return FanoutResult{}, err
		}
		if err := srvs[i].Close(); err != nil {
			return FanoutResult{}, err
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return FanoutResult{}, err
		}
	}
	res := FanoutResult{
		Mode: mode, Policy: c.Policy, Consumers: c.Consumers,
		Steps: c.Steps, ProducerWall: wall, ProducerMBps: mbps(payload, wall),
		WireRatio: 1,
	}
	var raw, enc int64
	for _, hub := range hubs {
		for _, s := range hub.Stats() {
			res.Delivered += s.Delivered
			res.Dropped += s.Dropped
		}
		for _, s := range hub.Status().CodecStreams {
			raw += s.RawBytes
			enc += s.EncodedBytes
		}
	}
	if raw > 0 {
		res.WireRatio = float64(enc) / float64(raw)
	}
	return res, nil
}

// RunFanoutMatrix sweeps consumer counts: per count, a direct-SST
// baseline plus one staged run per backpressure policy.
func RunFanoutMatrix(consumerCounts []int, policies []staging.Policy, base FanoutConfig) ([]FanoutResult, error) {
	var out []FanoutResult
	for _, n := range consumerCounts {
		cfg := base
		cfg.Consumers = n
		res, err := RunFanoutDirect(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: direct x%d: %w", n, err)
		}
		out = append(out, res)
		for _, p := range policies {
			cfg.Policy = p
			res, err := RunFanoutStaged(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: staged %s x%d: %w", p, n, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// FanoutTable renders the fan-out comparison.
func FanoutTable(results []FanoutResult) *metrics.Table {
	t := metrics.NewTable("Fan-out: direct SST vs staging hub",
		"mode", "policy", "consumers", "producer wall [ms]", "producer MB/s", "delivered", "dropped")
	for _, r := range results {
		policy := "-"
		if r.Mode == "staged" {
			policy = r.Policy.String()
		}
		t.AddRow(r.Mode, policy, r.Consumers,
			fmt.Sprintf("%.1f", float64(r.ProducerWall.Microseconds())/1000),
			fmt.Sprintf("%.1f", r.ProducerMBps), r.Delivered, r.Dropped)
	}
	return t
}
