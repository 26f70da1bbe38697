package meshobs

import (
	"encoding/json"
	"errors"
	"maps"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/telemetry"
)

func rawSection(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// meshNodes builds a synthetic 3-tier crawl: producer hub feeding a
// relay, the relay's output hub feeding an endpoint whose observer
// entry carries only a telemetry address.
func meshNodes(t *testing.T) []Node {
	t.Helper()
	prod := &telemetry.Statusz{
		Process: "nekrs", PID: 100, UptimeSec: 12,
		Status: map[string]json.RawMessage{
			"staging-hub/rank-0": rawSection(t, HubInfo{
				Published: 9,
				Consumers: []HubConsumer{{
					Name: "relay", Policy: "block", Depth: 4,
					Delivered: 9, Lag: 2, WireBytes: 4096,
				}},
			}),
		},
		Traces: []telemetry.StepTrace{
			{Step: 7, Stamps: map[string]int64{"compute": 100, "marshal": 110, "publish": 120}},
		},
	}
	rel := &telemetry.Statusz{
		Process: "relay", PID: 101, UptimeSec: 11,
		Status: map[string]json.RawMessage{
			"relay/relay": rawSection(t, RelayInfo{Name: "relay", Upstream: 1, OutRanks: 1, Steps: 9}),
			"staging-hub/relay-out0": rawSection(t, HubInfo{
				Published: 9,
				Consumers: []HubConsumer{{
					Name: "smoke", Policy: "block", Depth: 4,
					Delivered: 8, Lag: 1, SpillQueue: 3, Parked: true,
					Codecs: []string{"transpose-delta"},
				}},
				CodecStreams: []CodecStream{{Form: "transpose-delta", RawBytes: 4096, EncodedBytes: 1024, Ratio: 4}},
			}),
		},
		Traces: []telemetry.StepTrace{
			{Step: 7, Stamps: map[string]int64{"deliver": 130, "publish": 140}},
		},
	}
	ep := &telemetry.Statusz{
		Process: "sensei-endpoint", PID: 102, UptimeSec: 10,
		Traces: []telemetry.StepTrace{
			{Step: 7, Stamps: map[string]int64{"deliver": 150, "decode": 160, "analyze": 170}},
		},
	}
	return []Node{
		{Entry: adios.ContactEntry{Name: "sim", Addrs: []string{"127.0.0.1:9000"}, Telemetry: "127.0.0.1:9150", Alive: true}, Status: prod},
		{
			Entry:  adios.ContactEntry{Name: "tier1", Addrs: []string{"127.0.0.1:9100"}, Telemetry: "127.0.0.1:9151", Alive: true},
			Status: rel,
			Events: &telemetry.Eventz{Process: "relay", Total: 1, Events: []telemetry.Event{
				{TimeUnixNs: 500, Kind: telemetry.EventSessionParked, Subject: "smoke", Step: 8},
			}},
		},
		{Entry: adios.ContactEntry{Name: "smoke", Telemetry: "127.0.0.1:9152", Alive: true}, Status: ep},
	}
}

func TestAssembleTopologyAndEdges(t *testing.T) {
	snap := Assemble("run/mesh", meshNodes(t), 0)
	if len(snap.Processes) != 3 {
		t.Fatalf("assembled %d processes, want 3", len(snap.Processes))
	}
	if snap.Processes[1].Relay == nil || snap.Processes[1].Relay.Tier != 0 {
		t.Errorf("relay section not decoded: %+v", snap.Processes[1])
	}
	if len(snap.Processes[0].Hubs) != 1 || snap.Processes[0].Hubs[0].Label != "rank-0" {
		t.Errorf("producer hub section = %+v", snap.Processes[0].Hubs)
	}

	if len(snap.Edges) != 2 {
		t.Fatalf("assembled %d edges, want 2: %+v", len(snap.Edges), snap.Edges)
	}
	trunk := snap.Edges[0]
	if trunk.From != "sim" || trunk.Consumer != "relay" || trunk.To != "tier1" {
		t.Errorf("trunk edge = %+v, want sim -> tier1 via consumer relay", trunk)
	}
	if trunk.Lag != 2 || trunk.WireBytes != 4096 {
		t.Errorf("trunk edge state = %+v", trunk)
	}
	leaf := snap.Edges[1]
	if leaf.From != "tier1" || leaf.Consumer != "smoke" || leaf.To != "smoke" {
		t.Errorf("leaf edge = %+v, want tier1 -> smoke (observer entry)", leaf)
	}
	if !leaf.Parked || leaf.SpillQueue != 3 || leaf.CodecRatio != 4 {
		t.Errorf("leaf edge state = %+v", leaf)
	}
}

func TestAssembleCrossTierTimeline(t *testing.T) {
	snap := Assemble("", meshNodes(t), 0)
	if len(snap.Steps) != 1 {
		t.Fatalf("assembled %d steps, want 1", len(snap.Steps))
	}
	m := snap.Steps[0]
	if m.Step != 7 || m.Processes != 3 || m.Stages != 8 {
		t.Errorf("timeline = step %d, %d processes, %d stages; want 7/3/8", m.Step, m.Processes, m.Stages)
	}
	if snap.Bottleneck == "" {
		t.Error("no bottleneck verdict on a multi-stage mesh")
	}
	if len(snap.Latency) == 0 {
		t.Error("no latency attribution rows")
	}
}

func TestAssembleEventsTagged(t *testing.T) {
	snap := Assemble("", meshNodes(t), 0)
	if len(snap.Events) != 1 {
		t.Fatalf("assembled %d events, want 1", len(snap.Events))
	}
	ev := snap.Events[0]
	if ev.Process != "tier1" || ev.Kind != telemetry.EventSessionParked || ev.Step != 8 {
		t.Errorf("mesh event = %+v", ev)
	}
}

// TestAssembleScrapeFailure: an unreachable exporter degrades to a
// topology-only node carrying the error, not a missing process.
func TestAssembleScrapeFailure(t *testing.T) {
	nodes := []Node{{
		Entry: adios.ContactEntry{Name: "sim", Addrs: []string{"127.0.0.1:9000"}, Telemetry: "127.0.0.1:1", Alive: true},
		Err:   errors.New("connection refused"),
	}}
	snap := Assemble("", nodes, 0)
	if len(snap.Processes) != 1 {
		t.Fatalf("processes = %+v", snap.Processes)
	}
	p := snap.Processes[0]
	if p.Err == "" || p.PID != 0 || len(snap.Steps) != 0 {
		t.Errorf("failed scrape not degraded: %+v, %d steps", p, len(snap.Steps))
	}
}

// TestAssembleAliasFolding: two directory entries resolved to one
// exporter crawl as one node whose hub sections merge under one entry
// name, so the consumer-name claim map still resolves both.
func TestAssembleAliasFolding(t *testing.T) {
	st := &telemetry.Statusz{
		Process: "relay",
		Status: map[string]json.RawMessage{
			"staging-hub/out0": rawSection(t, HubInfo{Consumers: []HubConsumer{{Name: "tier2-a", Policy: "block"}}}),
		},
	}
	nodes := []Node{
		{Entry: adios.ContactEntry{Name: "tier1", Telemetry: "t", Alive: true}, Aliases: []string{"tier1-alt"}, Status: st},
		{Entry: adios.ContactEntry{Name: "tier2-a", Telemetry: "t2", Alive: true}},
	}
	snap := Assemble("", nodes, 0)
	if len(snap.Processes) != 2 || len(snap.Processes[0].Aliases) != 1 {
		t.Fatalf("aliases lost: %+v", snap.Processes)
	}
	if len(snap.Edges) != 1 || snap.Edges[0].To != "tier2-a" {
		t.Errorf("edge resolution through aliases = %+v", snap.Edges)
	}
}

// TestAssembleDerivesTiers: a relay's tier is read off the edges into
// it — 0 below a producer or an archive replay, one more per relay
// above it — and a cyclic (stale) directory still assembles.
func TestAssembleDerivesTiers(t *testing.T) {
	// node is a crawled process serving one hub to the named consumers;
	// relay, when non-empty, is the consumer name it announces upstream.
	node := func(entry, relay string, consumers ...string) Node {
		st := &telemetry.Statusz{Status: map[string]json.RawMessage{}}
		var h HubInfo
		for _, c := range consumers {
			h.Consumers = append(h.Consumers, HubConsumer{Name: c, Policy: "block"})
		}
		st.Status["staging-hub/out0"] = rawSection(t, h)
		if relay != "" {
			st.Status["relay/"+relay] = rawSection(t, RelayInfo{Name: relay})
		}
		return Node{Entry: adios.ContactEntry{Name: entry, Telemetry: entry, Alive: true}, Status: st}
	}
	tiers := func(nodes ...Node) map[string]int {
		out := map[string]int{}
		for _, p := range Assemble("", nodes, 0).Processes {
			if p.Relay != nil {
				out[p.Entry] = p.Relay.Tier
			}
		}
		return out
	}
	got := tiers(
		node("sim", "", "r0"),
		node("tier0", "r0", "r1"),
		node("tier1", "r1", "leaf"),
		Node{Entry: adios.ContactEntry{Name: "leaf", Telemetry: "leaf", Alive: true}},
		node("replay", "", "rr"),
		node("below-replay", "rr", "x"),
	)
	if want := map[string]int{"tier0": 0, "tier1": 1, "below-replay": 0}; !maps.Equal(got, want) {
		t.Errorf("tiers = %v, want %v", got, want)
	}
	// a -> b -> a with nothing feeding either, then the same loop below
	// a producer: the walk ends, and the fed relay is the loop's tier 0.
	if got := tiers(node("a", "a", "b"), node("b", "b", "a")); !maps.Equal(got, map[string]int{"a": 0, "b": 0}) {
		t.Errorf("unfed cycle tiers = %v, want both 0", got)
	}
	if got := tiers(node("sim", "", "a"), node("a", "a", "b"), node("b", "b", "a")); !maps.Equal(got, map[string]int{"a": 0, "b": 1}) {
		t.Errorf("fed cycle tiers = %v, want a 0, b 1", got)
	}
}
