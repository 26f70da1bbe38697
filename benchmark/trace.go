package main

import (
	"sort"
	"sync"
	"time"

	"nekrs-sensei/internal/telemetry"
)

// snapshotEvery is how many leaf steps pass between snapshots of the
// telemetry trace rings, which hold the last 64 steps each.
const snapshotEvery = 32

// tierTrace is the traced pass's view of the existing 8-stage step
// tracer: one Telemetry per tier of the mesh (all tiers are goroutines
// of this process), snapshotted while the run is going because the
// rings are short, and merged with telemetry.MergeTraces at the end.
type tierTrace struct {
	tiers []string
	tels  map[string]*telemetry.Telemetry

	mu     sync.Mutex
	traces map[string]map[int64]telemetry.StepTrace // tier -> ordinal -> latest stamps
}

// newTierTrace attaches a telemetry plane per tier, or none at all
// when the pass is untraced (every handle is then nil and no-ops).
func newTierTrace(traced bool, tiers ...string) *tierTrace {
	t := &tierTrace{tiers: tiers, tels: map[string]*telemetry.Telemetry{},
		traces: map[string]map[int64]telemetry.StepTrace{}}
	if traced {
		for _, name := range tiers {
			t.tels[name] = telemetry.New(name)
			t.traces[name] = map[int64]telemetry.StepTrace{}
		}
	}
	return t
}

// tel returns a tier's telemetry plane (nil when untraced).
func (t *tierTrace) tel(tier string) *telemetry.Telemetry { return t.tels[tier] }

// onLeafStep is a markSink.every callback: snapshot now and then.
func (t *tierTrace) onLeafStep(n int) {
	if n%snapshotEvery == 0 {
		t.snapshot()
	}
}

// snapshot folds every tier's current ring into the accumulated set.
func (t *tierTrace) snapshot() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, tel := range t.tels {
		for _, tr := range tel.Tracer().Snapshot() {
			if old, ok := t.traces[name][tr.Step]; !ok || len(tr.Stamps) >= len(old.Stamps) {
				t.traces[name][tr.Step] = tr
			}
		}
	}
}

// stageMetrics merges the tiers' stamps for the timed ordinals and
// attributes every interval between consecutive stamps of a step to
// the LATER stamp's stage (and tier), the rule of
// telemetry.AttributeLatency, but keeps the per-step values so the
// result is a median. telemetry.stage_ms.<stage> is the median time
// charged to that stage over all tiers; relay.hop_ms_p50 the median
// time charged to the relay tier.
func (t *tierTrace) stageMetrics(firstOrd, lastOrd int64, into map[string]float64) {
	if len(t.tels) == 0 {
		return
	}
	t.snapshot()
	var rings []telemetry.ProcessRing
	for _, name := range t.tiers {
		ring := telemetry.ProcessRing{Process: name}
		for ord, tr := range t.traces[name] {
			if ord >= firstOrd && ord <= lastOrd {
				ring.Traces = append(ring.Traces, tr)
			}
		}
		rings = append(rings, ring)
	}
	type stamp struct {
		tier, stage string
		ns          int64
	}
	perStage := map[string][]float64{}
	var relayHop []float64
	for _, m := range telemetry.MergeTraces(rings...) {
		var seq []stamp
		for _, p := range m.Procs {
			for stage, ns := range p.Stamps {
				seq = append(seq, stamp{p.Process, stage, ns})
			}
		}
		if len(seq) < 2 {
			continue
		}
		sort.Slice(seq, func(i, j int) bool { return seq[i].ns < seq[j].ns })
		stageMs := map[string]float64{}
		var hop float64
		for i := 1; i < len(seq); i++ {
			d := ms(time.Duration(seq[i].ns - seq[i-1].ns))
			stageMs[seq[i].stage] += d
			if seq[i].tier == "relay" {
				hop += d
			}
		}
		for stage, v := range stageMs {
			perStage[stage] = append(perStage[stage], v)
		}
		relayHop = append(relayHop, hop)
	}
	for stage, v := range perStage {
		into["telemetry.stage_ms."+stage] = median(v)
	}
	into["relay.hop_ms_p50"] = median(relayHop)
}
