// Package meshobs is the tree-wide observability layer: it discovers
// a staging mesh's topology from a contact directory (every entry may
// advertise its telemetry exporter via the "#telemetry=" stamp),
// scrapes each process's /statusz and /eventz, and assembles one
// answer to "where is step N stuck?": the mesh graph with per-edge
// lag/policy/spill/codec state, cross-tier per-step timelines with a
// bottleneck verdict, and the merged recovery-event journal.
//
// The package deliberately imports only adios and telemetry; the
// staging-hub, relay, and session /statusz sections are decoded into
// local mirrors of their JSON shapes. That keeps the dependency
// arrow pointing up — staging's XML adaptor can mount /meshz without
// a cycle — and means the crawler sees exactly what an operator's
// curl sees, no more.
package meshobs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/telemetry"
)

// unmarshalLoose decodes a status section, reporting success; a
// section that fails to decode is simply not part of the graph.
func unmarshalLoose(raw json.RawMessage, v any) bool {
	return json.Unmarshal(raw, v) == nil
}

// HubConsumer mirrors staging.ConsumerStats as serialized in
// /statusz (fields the graph needs; unknown fields are ignored).
type HubConsumer struct {
	Name       string   `json:"name"`
	Policy     string   `json:"policy"`
	Depth      int      `json:"depth"`
	Codecs     []string `json:"codecs,omitempty"`
	Delivered  int64    `json:"delivered"`
	Dropped    int64    `json:"dropped"`
	Spilled    int64    `json:"spilled"`
	WireBytes  int64    `json:"wire_bytes"`
	Lag        int64    `json:"lag"`
	SpillQueue int      `json:"spill_queue"`
	Resident   int64    `json:"resident"`
	Blocking   bool     `json:"blocking,omitempty"`
	BlockedNs  int64    `json:"blocked_ns"`
	Closed     bool     `json:"closed"`
	Parked     bool     `json:"parked,omitempty"`
	Suppressed int64    `json:"suppressed,omitempty"`
}

// CodecStream mirrors staging.CodecStreamStatus.
type CodecStream struct {
	Form         string  `json:"form"`
	RawBytes     int64   `json:"raw_bytes"`
	EncodedBytes int64   `json:"encoded_bytes"`
	Ratio        float64 `json:"ratio"`
}

// HubInfo is one "staging-hub/<label>" section: the hub totals plus
// its consumer table — the mesh graph's out-edges.
type HubInfo struct {
	Label        string        `json:"label"`
	Published    int64         `json:"published"`
	Dropped      int64         `json:"dropped"`
	Spilled      int64         `json:"spilled"`
	Ring         int           `json:"ring_steps"`
	Closed       bool          `json:"closed"`
	Consumers    []HubConsumer `json:"consumers"`
	CodecStreams []CodecStream `json:"codec_streams,omitempty"`
}

// SessionRow / SessionTable mirror staging.SessionStats and
// staging.SessionStatus.
type SessionRow struct {
	Token      string `json:"token"`
	Name       string `json:"name,omitempty"`
	Parked     bool   `json:"parked"`
	NextNeeded int64  `json:"next_needed"`
}

type SessionTable struct {
	Label    string       `json:"label,omitempty"`
	Issued   int64        `json:"issued"`
	Resumed  int64        `json:"resumed"`
	Adopted  int64        `json:"adopted"`
	Expired  int64        `json:"expired"`
	Sessions []SessionRow `json:"sessions,omitempty"`
}

// RelayInfo mirrors relay.Status, plus the relay's Tier in the tree,
// which Assemble derives from the edges (relayTiers).
type RelayInfo struct {
	Name               string         `json:"name"`
	Tier               int            `json:"tier"`
	Upstream           int            `json:"upstream_streams"`
	OutRanks           int            `json:"out_ranks"`
	Mode               string         `json:"mode"`
	Steps              int64          `json:"steps_relayed"`
	Skipped            int64          `json:"steps_skipped"`
	BytesIn            int64          `json:"trunk_bytes_in"`
	BytesOut           int64          `json:"bytes_out"`
	UpstreamReconnects int64          `json:"upstream_reconnects,omitempty"`
	CreditsSent        int64          `json:"credits_sent,omitempty"`
	CreditsPending     int            `json:"credits_pending,omitempty"`
	Sessions           []SessionTable `json:"sessions,omitempty"`
}

// Process is one crawled mesh node: its contact-directory identity,
// liveness, and what its /statusz reported. Aliases lists further
// entries that resolved to the same telemetry exporter (one process
// publishing several entries). Err records a scrape failure — the
// node stays in the topology with its directory-level facts.
type Process struct {
	Entry     string   `json:"entry"`
	Aliases   []string `json:"aliases,omitempty"`
	Addrs     []string `json:"addrs,omitempty"`
	Telemetry string   `json:"telemetry,omitempty"`
	Alive     bool     `json:"alive"`
	Err       string   `json:"error,omitempty"`

	Process   string         `json:"process,omitempty"`
	PID       int            `json:"pid,omitempty"`
	UptimeSec float64        `json:"uptime_sec,omitempty"`
	Relay     *RelayInfo     `json:"relay,omitempty"`
	Hubs      []HubInfo      `json:"hubs,omitempty"`
	Sessions  []SessionTable `json:"sessions,omitempty"`
}

// Edge is one hub→consumer attachment in the mesh graph, with the
// state an operator triages by: policy, lag, spill depth, the steps
// the hub holds for it (Resident, what a block edge's depth bounds) and
// how long its full window has stalled the producer (BlockedMs), park
// state, shipped volume, and the trunk codec ratio when determinable.
type Edge struct {
	From       string  `json:"from"` // entry of the serving process
	Hub        string  `json:"hub"`
	Consumer   string  `json:"consumer"`
	To         string  `json:"to,omitempty"` // entry of the attached process, when identifiable
	Policy     string  `json:"policy"`
	Depth      int     `json:"depth"`
	Delivered  int64   `json:"delivered"`
	Lag        int64   `json:"lag"`
	SpillQueue int     `json:"spill_queue"`
	Resident   int64   `json:"resident"`
	Blocking   bool    `json:"blocking,omitempty"` // the producer is waiting on this edge now
	BlockedMs  float64 `json:"blocked_ms"`
	Parked     bool    `json:"parked,omitempty"`
	Closed     bool    `json:"closed,omitempty"`
	WireBytes  int64   `json:"wire_bytes"`
	CodecRatio float64 `json:"codec_ratio,omitempty"`
}

// MeshEvent is one recovery-journal entry tagged with the process it
// was scraped from.
type MeshEvent struct {
	Process string `json:"process"`
	telemetry.Event
}

// Snapshot is the /meshz document: the assembled mesh.
type Snapshot struct {
	CrawledUnixNs int64                    `json:"crawled_unix_ns"`
	Dir           string                   `json:"dir,omitempty"`
	Processes     []Process                `json:"processes"`
	Edges         []Edge                   `json:"edges"`
	Steps         []telemetry.MeshTrace    `json:"steps"`
	Latency       []telemetry.StageLatency `json:"latency,omitempty"`
	Bottleneck    string                   `json:"bottleneck,omitempty"`
	Events        []MeshEvent              `json:"events,omitempty"`
}

// Node is one crawl result handed to Assemble: the directory entry
// (plus aliases folded onto the same exporter) and the scraped
// documents, either of which may be missing.
type Node struct {
	Entry   adios.ContactEntry
	Aliases []string
	Status  *telemetry.Statusz
	Events  *telemetry.Eventz
	Err     error
}

// sectionPrefixes are the /statusz section families the graph decodes.
const (
	hubSectionPrefix     = "staging-hub/"
	relaySectionPrefix   = "relay/"
	sessionSectionPrefix = "staging-sessions/"
)

// Assemble builds the mesh snapshot from crawled nodes — the pure
// half of Crawl, directly testable with synthetic documents. lastK
// bounds the latency-attribution window (<= 0 selects 16).
func Assemble(dir string, nodes []Node, lastK int) *Snapshot {
	if lastK <= 0 {
		lastK = 16
	}
	snap := &Snapshot{Dir: dir, Processes: make([]Process, 0, len(nodes))}
	var rings []telemetry.ProcessRing
	for _, n := range nodes {
		p := Process{
			Entry:     n.Entry.Name,
			Aliases:   n.Aliases,
			Addrs:     n.Entry.Addrs,
			Telemetry: n.Entry.Telemetry,
			Alive:     n.Entry.Alive,
		}
		if n.Err != nil {
			p.Err = n.Err.Error()
		}
		if n.Status != nil {
			p.Process = n.Status.Process
			p.PID = n.Status.PID
			p.UptimeSec = n.Status.UptimeSec
			decodeSections(&p, n.Status)
			rings = append(rings, telemetry.ProcessRing{Process: p.Entry, Traces: n.Status.Traces})
		}
		if n.Events != nil {
			for _, ev := range n.Events.Events {
				snap.Events = append(snap.Events, MeshEvent{Process: p.Entry, Event: ev})
			}
		}
		snap.Processes = append(snap.Processes, p)
	}
	snap.Edges = buildEdges(snap.Processes)
	relayTiers(snap.Processes, snap.Edges)
	snap.Steps = telemetry.MergeTraces(rings...)
	snap.Latency = telemetry.AttributeLatency(snap.Steps, lastK)
	if b, ok := telemetry.FindBottleneck(snap.Steps, lastK); ok {
		snap.Bottleneck = b.Verdict() + blockedOn(snap.Edges, b.Process)
	}
	sort.SliceStable(snap.Events, func(i, j int) bool {
		return snap.Events[i].TimeUnixNs < snap.Events[j].TimeUnixNs
	})
	return snap
}

// blockedOn names the cause behind a bottleneck verdict when a hub
// recorded one: of the edges into or out of the verdict's process, the
// consumer whose full window stalled its producer the longest.
func blockedOn(edges []Edge, process string) string {
	var worst *Edge
	for i := range edges {
		e := &edges[i]
		if (e.From == process || e.To == process) && e.BlockedMs > 0 && (worst == nil || e.BlockedMs > worst.BlockedMs) {
			worst = e
		}
	}
	if worst == nil {
		return ""
	}
	return fmt.Sprintf("; producer %s blocked %.1f ms on consumer %q (%s, %d/%d resident)",
		worst.From, worst.BlockedMs, worst.Consumer, worst.Policy, worst.Resident, worst.Depth)
}

// decodeSections fills p from the status document's known section
// families. Unknown sections (and undecodable ones) are skipped — a
// mesh of mixed versions still crawls.
func decodeSections(p *Process, doc *telemetry.Statusz) {
	names := make([]string, 0, len(doc.Status))
	for name := range doc.Status {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		raw := doc.Status[name]
		switch {
		case strings.HasPrefix(name, hubSectionPrefix):
			var h HubInfo
			if unmarshalLoose(raw, &h) {
				h.Label = strings.TrimPrefix(name, hubSectionPrefix)
				p.Hubs = append(p.Hubs, h)
			}
		case strings.HasPrefix(name, relaySectionPrefix):
			var r RelayInfo
			if unmarshalLoose(raw, &r) {
				p.Relay = &r
			}
		case strings.HasPrefix(name, sessionSectionPrefix):
			var s SessionTable
			if unmarshalLoose(raw, &s) {
				s.Label = strings.TrimPrefix(name, sessionSectionPrefix)
				p.Sessions = append(p.Sessions, s)
			}
		}
	}
}

// buildEdges derives the hub→consumer attachment rows and resolves
// each consumer name to a crawled process where possible: a relay
// announces its Name upstream, and a leaf endpoint's observer entry
// is written under its consumer name.
func buildEdges(procs []Process) []Edge {
	claim := make(map[string]string) // consumer name -> entry
	for _, p := range procs {
		claim[p.Entry] = p.Entry
		for _, a := range p.Aliases {
			claim[a] = p.Entry
		}
		if p.Relay != nil && p.Relay.Name != "" {
			claim[p.Relay.Name] = p.Entry
		}
	}
	var edges []Edge
	for _, p := range procs {
		for _, h := range p.Hubs {
			for _, c := range h.Consumers {
				e := Edge{
					From: p.Entry, Hub: h.Label, Consumer: c.Name,
					To:     claim[c.Name],
					Policy: c.Policy, Depth: c.Depth,
					Delivered: c.Delivered, Lag: c.Lag,
					SpillQueue: c.SpillQueue, Parked: c.Parked,
					Resident: c.Resident, Blocking: c.Blocking, BlockedMs: float64(c.BlockedNs) / 1e6,
					Closed: c.Closed, WireBytes: c.WireBytes,
				}
				if e.To == e.From {
					e.To = "" // a hub cannot feed its own process
				}
				if len(c.Codecs) > 0 && len(h.CodecStreams) == 1 {
					e.CodecRatio = h.CodecStreams[0].Ratio
				}
				edges = append(edges, e)
			}
		}
	}
	return edges
}

// relayTiers sets each relay's tier from the edges into it: 0 when a
// process that is not a relay feeds it (a producer, an archive replay),
// otherwise one more than the tier of the relay feeding it. The walk
// goes breadth-first from the non-relay feeders and places each relay
// once, so a cycle in a stale contact directory ends it; a relay that
// no crawled process feeds stays at 0.
func relayTiers(procs []Process, edges []Edge) {
	relays := make(map[string]*RelayInfo) // entry -> relay section
	for i := range procs {
		if r := procs[i].Relay; r != nil {
			r.Tier = 0
			relays[procs[i].Entry] = r
		}
	}
	placed := make(map[string]bool)
	feeds := func(from string) bool { return relays[from] == nil }
	for tier := 0; ; tier++ {
		level := make(map[string]bool)
		for _, e := range edges {
			if r := relays[e.To]; r != nil && !placed[e.To] && feeds(e.From) {
				r.Tier, level[e.To] = tier, true
			}
		}
		if len(level) == 0 {
			return
		}
		for entry := range level {
			placed[entry] = true
		}
		feeds = func(from string) bool { return level[from] }
	}
}
