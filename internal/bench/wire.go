package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"
)

// WireConfig parameterizes the wire/alloc measurement. The shape
// mirrors the subset matrix (RunSubsetMatrix): steps of Arrays
// equal-sized float64 payloads, the hub's dominant steady-state
// traffic.
type WireConfig struct {
	Arrays     int // arrays per step (default 6)
	Steps      int // steps in the steady-state loop (default 40)
	PayloadF64 int // float64s per array (default 8192 = 64 KiB)
	Repeat     int // marshal-throughput timing repetitions (default 64)
}

func (c *WireConfig) withDefaults() WireConfig {
	out := *c
	if out.Arrays == 0 {
		out.Arrays = 6
	}
	if out.Steps == 0 {
		out.Steps = 40
	}
	if out.PayloadF64 == 0 {
		out.PayloadF64 = 8192
	}
	if out.Repeat == 0 {
		out.Repeat = 64
	}
	return out
}

// WireResult is the wire/alloc comparison: producer-side encode
// throughput pre-PR vs pooled, decode throughput fresh vs into-reuse,
// and the steady-state allocator cost of the hub publish→consume loop.
type WireResult struct {
	Config WireConfig

	FrameBytes int64 // wire size of one steady-state step

	// Producer publish throughput: marshaling one step into its wire
	// frame, the per-step encode cost of the hub pump.
	PrePRMarshalMBps  float64 // bytes.Buffer reference encode (pre-PR)
	PooledMarshalMBps float64 // exact-size single-pass into a pooled frame
	MarshalSpeedup    float64

	// Decode throughput: fresh Unmarshal vs UnmarshalInto recycled
	// storage.
	UnmarshalMBps     float64
	UnmarshalIntoMBps float64
	UnmarshalSpeedup  float64

	// Steady-state hub publish→consume loop (in-process consumer,
	// wire frame marshaled per step), measured after warmup.
	Steady metrics.AllocWindow
	// HubStepsPerSec is the steady loop's step rate.
	HubStepsPerSec float64

	// SteadyTelemetry repeats the steady loop on a hub attached to a
	// live telemetry plane (hot-path counters + trace stamps): the
	// same per-step allocation budget must hold with telemetry on,
	// which CI gates alongside Steady.
	SteadyTelemetry metrics.AllocWindow
}

// marshalPrePR is the pre-PR adios.Marshal, kept verbatim as the
// benchmark baseline: a growing bytes.Buffer, one 8-byte Write per
// header word, and a temporary raw slice per array. Its output is
// byte-identical to the current encoder (RunWireAlloc asserts this),
// so the comparison isolates encode cost, not format changes.
func marshalPrePR(s *adios.Step) []byte {
	var buf bytes.Buffer
	buf.WriteString("BP05")
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	putString := func(str string) {
		putU64(uint64(len(str)))
		buf.WriteString(str)
	}
	putU64(uint64(s.Step))
	putU64(math.Float64bits(s.Time))
	putU64(uint64(len(s.Attrs)))
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		putString(k)
		putString(s.Attrs[k])
	}
	putU64(uint64(len(s.Vars)))
	for i := range s.Vars {
		v := &s.Vars[i]
		putString(v.Name)
		buf.WriteByte(byte(v.Kind))
		putU64(uint64(len(v.Shape)))
		for _, d := range v.Shape {
			putU64(uint64(d))
		}
		putU64(uint64(v.Len()))
		switch v.Kind {
		case adios.KindFloat64:
			raw := make([]byte, 8*len(v.F64))
			for j, x := range v.F64 {
				binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(x))
			}
			buf.Write(raw)
		case adios.KindInt64:
			raw := make([]byte, 8*len(v.I64))
			for j, x := range v.I64 {
				binary.LittleEndian.PutUint64(raw[8*j:], uint64(x))
			}
			buf.Write(raw)
		case adios.KindUint8:
			buf.Write(v.U8)
		}
	}
	return buf.Bytes()
}

// wireStep builds one steady-state step of the wire matrix (no
// structure payload: the steady state starts after step 1).
func wireStep(seq int, arrays, width int) *adios.Step {
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq),
		Attrs: map[string]string{"mesh": "mesh"},
	}
	for _, n := range subsetArrayNames(arrays) {
		data := make([]float64, width)
		for i := range data {
			data[i] = float64(seq*width + i)
		}
		s.Vars = append(s.Vars, adios.NewF64("array/"+n, data))
	}
	return s
}

// RunWireAlloc measures the data plane's steady-state wire costs for
// one configuration and asserts the pooled encoder is byte-identical
// to the pre-PR one.
func RunWireAlloc(cfg WireConfig) (WireResult, error) {
	c := cfg.withDefaults()
	res := WireResult{Config: c}
	step := wireStep(2, c.Arrays, c.PayloadF64)

	// Byte-identical frames: the whole subset-matrix comparison (and
	// every reader in the fleet) depends on the format not moving.
	ref := marshalPrePR(step)
	now := adios.Marshal(step)
	if !bytes.Equal(ref, now) {
		return res, fmt.Errorf("bench: pooled marshal output differs from pre-PR marshal (%d vs %d bytes)", len(now), len(ref))
	}
	res.FrameBytes = int64(len(now))

	// Producer publish throughput: one step's encode, repeated.
	start := time.Now()
	for i := 0; i < c.Repeat; i++ {
		_ = marshalPrePR(step)
	}
	prePR := time.Since(start)

	pool := adios.NewFramePool()
	start = time.Now()
	for i := 0; i < c.Repeat; i++ {
		f := adios.MarshalFrame(step, pool)
		f.Release()
	}
	pooled := time.Since(start)

	payload := int64(len(now)) * int64(c.Repeat)
	res.PrePRMarshalMBps = mbps(payload, prePR)
	res.PooledMarshalMBps = mbps(payload, pooled)
	if pooled > 0 {
		res.MarshalSpeedup = float64(prePR) / float64(pooled)
	}

	// Decode throughput: fresh storage vs decode-into-reuse.
	start = time.Now()
	for i := 0; i < c.Repeat; i++ {
		if _, err := adios.Unmarshal(now); err != nil {
			return res, err
		}
	}
	fresh := time.Since(start)
	dst := &adios.Step{}
	start = time.Now()
	for i := 0; i < c.Repeat; i++ {
		if err := adios.UnmarshalInto(now, dst); err != nil {
			return res, err
		}
	}
	into := time.Since(start)
	res.UnmarshalMBps = mbps(payload, fresh)
	res.UnmarshalIntoMBps = mbps(payload, into)
	if into > 0 {
		res.UnmarshalSpeedup = float64(fresh) / float64(into)
	}

	// Steady-state hub publish→consume: one consumer, the wire frame
	// marshaled per step (as the network pump would), allocator deltas
	// sampled after a warmup that fills the pools and the ring.
	hub := staging.NewHub(nil)
	cons, err := hub.Subscribe("wire", staging.Block, 4)
	if err != nil {
		return res, err
	}
	loop := func(n int, publish *adios.Step) error {
		for i := 0; i < n; i++ {
			publish.Step = int64(i + 2)
			if err := hub.Publish(publish); err != nil {
				return err
			}
			ref, err := cons.Next()
			if err != nil {
				return err
			}
			_ = ref.Frame()
			ref.Release()
		}
		return nil
	}
	if err := loop(4, step); err != nil { // warmup: pools, ring, cond paths
		return res, err
	}
	alloc := metrics.NewAllocStats()
	start = time.Now()
	if err := loop(c.Steps, step); err != nil {
		return res, err
	}
	wall := time.Since(start)
	res.Steady = alloc.Window(c.Steps)
	if wall > 0 {
		res.HubStepsPerSec = float64(c.Steps) / wall.Seconds()
	}
	if err := hub.Close(); err != nil {
		return res, err
	}

	// The same steady loop with the telemetry plane attached: counter
	// increments and trace stamps ride the hot path, so the per-step
	// allocation budget must survive them (samplers are scrape-time
	// only and never fire here).
	hub = staging.NewHub(nil)
	hub.SetTelemetry(telemetry.New("bench-wire"), "bench")
	if cons, err = hub.Subscribe("wire", staging.Block, 4); err != nil {
		return res, err
	}
	if err := loop(4, step); err != nil {
		return res, err
	}
	alloc = metrics.NewAllocStats()
	if err := loop(c.Steps, step); err != nil {
		return res, err
	}
	res.SteadyTelemetry = alloc.Window(c.Steps)
	if err := hub.Close(); err != nil {
		return res, err
	}
	return res, nil
}

// WireTable renders the wire/alloc comparison.
func WireTable(r WireResult) *metrics.Table {
	t := metrics.NewTable("Zero-allocation data plane: wire encode/decode and steady-state allocs",
		"path", "MB/s", "vs pre-PR", "allocs/step", "GC pause [ms]")
	t.AddRow("marshal (pre-PR bytes.Buffer)", fmt.Sprintf("%.1f", r.PrePRMarshalMBps), "1.00x", "—", "—")
	t.AddRow("marshal (pooled single-pass)", fmt.Sprintf("%.1f", r.PooledMarshalMBps),
		fmt.Sprintf("%.2fx", r.MarshalSpeedup), "—", "—")
	t.AddRow("unmarshal (fresh)", fmt.Sprintf("%.1f", r.UnmarshalMBps), "1.00x", "—", "—")
	t.AddRow("unmarshal (into reuse)", fmt.Sprintf("%.1f", r.UnmarshalIntoMBps),
		fmt.Sprintf("%.2fx", r.UnmarshalSpeedup), "—", "—")
	t.AddRow("hub publish→consume (steady)", "—", "—",
		fmt.Sprintf("%.1f", r.Steady.AllocsPerStep()),
		fmt.Sprintf("%.2f", float64(r.Steady.GCPause.Microseconds())/1000))
	t.AddRow("hub publish→consume (telemetry on)", "—", "—",
		fmt.Sprintf("%.1f", r.SteadyTelemetry.AllocsPerStep()),
		fmt.Sprintf("%.2f", float64(r.SteadyTelemetry.GCPause.Microseconds())/1000))
	return t
}

// WriteWireJSON emits the measurement as the BENCH_wire.json artifact.
func WriteWireJSON(w io.Writer, r WireResult) error {
	doc := struct {
		Figure string `json:"figure"`
		Config struct {
			Arrays     int `json:"arrays"`
			Steps      int `json:"steps"`
			PayloadF64 int `json:"payload_f64_per_array"`
			Repeat     int `json:"repeat"`
		} `json:"config"`
		FrameBytes int64 `json:"frame_bytes"`
		Marshal    struct {
			PrePRMBps  float64 `json:"prepr_mbps"`
			PooledMBps float64 `json:"pooled_mbps"`
			Speedup    float64 `json:"speedup"`
		} `json:"marshal"`
		Unmarshal struct {
			FreshMBps float64 `json:"fresh_mbps"`
			IntoMBps  float64 `json:"into_mbps"`
			Speedup   float64 `json:"speedup"`
		} `json:"unmarshal"`
		Steady struct {
			Steps         int     `json:"steps"`
			AllocsPerStep float64 `json:"allocs_per_step"`
			BytesPerStep  float64 `json:"bytes_per_step"`
			GCs           uint32  `json:"gc_cycles"`
			GCPauseMs     float64 `json:"gc_pause_ms"`
			StepsPerSec   float64 `json:"steps_per_sec"`
		} `json:"steady"`
		SteadyTelemetry struct {
			Steps         int     `json:"steps"`
			AllocsPerStep float64 `json:"allocs_per_step"`
			BytesPerStep  float64 `json:"bytes_per_step"`
			GCs           uint32  `json:"gc_cycles"`
		} `json:"steady_telemetry"`
	}{Figure: "wire"}
	doc.Config.Arrays = r.Config.Arrays
	doc.Config.Steps = r.Config.Steps
	doc.Config.PayloadF64 = r.Config.PayloadF64
	doc.Config.Repeat = r.Config.Repeat
	doc.FrameBytes = r.FrameBytes
	doc.Marshal.PrePRMBps = r.PrePRMarshalMBps
	doc.Marshal.PooledMBps = r.PooledMarshalMBps
	doc.Marshal.Speedup = r.MarshalSpeedup
	doc.Unmarshal.FreshMBps = r.UnmarshalMBps
	doc.Unmarshal.IntoMBps = r.UnmarshalIntoMBps
	doc.Unmarshal.Speedup = r.UnmarshalSpeedup
	doc.Steady.Steps = r.Steady.Steps
	doc.Steady.AllocsPerStep = r.Steady.AllocsPerStep()
	doc.Steady.BytesPerStep = r.Steady.BytesPerStep()
	doc.Steady.GCs = r.Steady.GCs
	doc.Steady.GCPauseMs = float64(r.Steady.GCPause.Microseconds()) / 1000
	doc.Steady.StepsPerSec = r.HubStepsPerSec
	doc.SteadyTelemetry.Steps = r.SteadyTelemetry.Steps
	doc.SteadyTelemetry.AllocsPerStep = r.SteadyTelemetry.AllocsPerStep()
	doc.SteadyTelemetry.BytesPerStep = r.SteadyTelemetry.BytesPerStep()
	doc.SteadyTelemetry.GCs = r.SteadyTelemetry.GCs
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
