package staging

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/meshobs"
	"nekrs-sensei/internal/sensei"
)

// ConsumerSpec is one pre-declared consumer from the XML consumers
// attribute: "name[:policy[:depth[:arrays[:codecs]]]]" where arrays
// is a `+`-separated subset of the published arrays (e.g.
// "render:drop-oldest:1:pressure+velocity_x") and codecs a
// `+`-separated wire-codec request in codec.ParseSpec grammar (e.g.
// "probe:block:2::transpose-delta" or
// "render:drop-oldest:1:pressure:quantize;1e-3" — a quantizer bound
// uses `;` in place of `:` inside the spec field). An empty arrays
// field means every published array; an empty codecs field means
// plain frames.
type ConsumerSpec struct {
	Name   string
	Policy Policy
	Depth  int
	Arrays []string // declared subset, nil = all
	Codecs []string // wire-codec entries (codec.ParseSpec), nil = identity
}

// ParseConsumers parses a comma-separated consumer list, e.g.
// "hist:block:2,probe:drop-oldest:4,render:drop-oldest:1:pressure+velocity_x".
func ParseConsumers(s string) ([]ConsumerSpec, error) {
	var out []ConsumerSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) > 5 {
			return nil, fmt.Errorf("staging: consumer spec %q: want name[:policy[:depth[:arrays[:codecs]]]]", part)
		}
		spec := ConsumerSpec{Name: strings.TrimSpace(fields[0])}
		if spec.Name == "" {
			return nil, fmt.Errorf("staging: consumer spec %q: empty name", part)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("staging: duplicate consumer %q", spec.Name)
		}
		seen[spec.Name] = true
		if len(fields) > 1 {
			p, err := ParsePolicy(strings.TrimSpace(fields[1]))
			if err != nil {
				return nil, fmt.Errorf("staging: consumer %q: %w", spec.Name, err)
			}
			spec.Policy = p
		}
		if len(fields) > 2 {
			d, err := strconv.Atoi(strings.TrimSpace(fields[2]))
			if err != nil || d < 1 {
				return nil, fmt.Errorf("staging: consumer %q: bad depth %q", spec.Name, fields[2])
			}
			spec.Depth = d
		}
		if len(fields) > 3 {
			for _, a := range strings.Split(fields[3], "+") {
				if a = strings.TrimSpace(a); a != "" {
					spec.Arrays = append(spec.Arrays, a)
				}
			}
			if len(spec.Arrays) == 0 && len(fields) == 4 {
				// An empty arrays field is only meaningful as a
				// placeholder before a codecs field ("name:::codecs"
				// keeps every array).
				return nil, fmt.Errorf("staging: consumer %q: empty arrays field", spec.Name)
			}
		}
		if len(fields) > 4 {
			for _, c := range strings.Split(fields[4], "+") {
				if c = strings.TrimSpace(c); c != "" {
					// `;` stands in for the quantizer bound's `:`
					// (":" separates the spec's own fields).
					spec.Codecs = append(spec.Codecs, strings.ReplaceAll(c, ";", ":"))
				}
			}
			if len(spec.Codecs) == 0 {
				return nil, fmt.Errorf("staging: consumer %q: empty codecs field", spec.Name)
			}
			if _, err := codec.ParseSpec(spec.Codecs); err != nil {
				return nil, fmt.Errorf("staging: consumer %q: %w", spec.Name, err)
			}
		}
		out = append(out, spec)
	}
	return out, nil
}

// Adaptor is the simulation-side staging analysis (SENSEI's "ADIOS2
// analysis adaptor"): Execute publishes the requested arrays — and,
// once, the grid structure — into the hub. Its two analysis types
// differ only in who may attach. "staging" serves an open consumer
// set: any number fan out, pre-declared or dynamic. "adios" is the
// paper's direct stream, a closed set of one pre-declared block
// consumer of depth `queue`: the first reader claims it whatever name
// its hello announces, a second concurrent one is rejected "already
// attached", the producer pulls only the arrays that reader asked for,
// and Finalize gives a reader yet to dial closeWait to collect what is
// staged. A dynamic reader's policy, window, arrays and codecs, its
// session and its heartbeats are what its hello asks for. XML
// attributes (any other is refused, naming it; consumers and spill
// are "staging" only, queue "adios" only):
//
//	address   server listen address (default 127.0.0.1:0)
//	contact   contact file for the rendezvous (rank 0 writes it); with
//	          contact-dir set, the entry name instead
//	contact-dir
//	          contact directory of a multi-hub topology: the rendezvous
//	          is written as <dir>/<contact>.contact so several hubs and
//	          relay tiers share one directory without colliding
//	mesh      mesh name (default "mesh")
//	arrays    comma-separated array names ("" = all advertised); also
//	          the advertisement consumer subset requests are validated
//	          against
//	spill     directory for spill-policy consumers' disk tiers (one
//	          store per rank and consumer, under rank-NNNN/; enables
//	          policy "spill"). Requires a registered spill opener —
//	          importing internal/archive registers the archive-backed
//	          one
//	consumers pre-declared consumers,
//	          "name[:policy[:depth[:arrays[:codecs]]]],..." with
//	          +-separated arrays (e.g.
//	          "render:drop-oldest:1:pressure+velocity_x") — subscribed
//	          at initialization so no step is missed while endpoints
//	          attach; the arrays field subsets what is shipped to that
//	          consumer, the codecs field compresses its wire frames
//	queue     the direct stream's queue depth (default 2)
//	liveness  credit-wait liveness bound (Go duration; "" disables): a
//	          reader that neither credits nor keepalives within the
//	          window is declared dead (its session, if any, parks)
type Adaptor struct {
	ctx      *sensei.Context
	hub      *Hub
	server   *Server
	meshName string
	arrays   []string

	binder    *Binder // resolves reader handshakes, built at serve time
	closeWait time.Duration

	structureSent bool
}

// New builds a staging adaptor over an existing hub (programmatic
// use; no network server).
func New(ctx *sensei.Context, hub *Hub, meshName string, arrays []string) *Adaptor {
	if meshName == "" {
		meshName = "mesh"
	}
	return &Adaptor{ctx: ctx, hub: hub, meshName: meshName, arrays: arrays}
}

// closeWait bounds how long a direct stream's Finalize waits for its
// reader to attach before discarding what is staged.
const closeWait = 5 * time.Second

func init() {
	sensei.Register("staging", xmlFactory("staging"))
	sensei.Register("adios", xmlFactory("adios"))
}

// retired names what replaced the producer attributes a config may
// still carry: the reader side sets each of them now.
var retired = map[string]string{
	"policy":            "a reader's hello picks its policy (sensei-endpoint -consumer name:policy:depth)",
	"depth":             "a reader's hello picks its window (sensei-endpoint -consumer name:policy:depth)",
	"codecs":            "a reader's hello picks its codecs, and any implemented codec is served",
	"session-ttl":       "a reader asks for its session with -retry and its park grace with -session-ttl",
	"heartbeat":         "a reader's -liveness paces the heartbeats it gets",
	"handshake-timeout": "a hello has a fixed 10s to arrive",
}

// checkAttrs refuses an attribute the factory would not read, naming
// it, and names what replaced a retired one.
func checkAttrs(typ string, attrs map[string]string) error {
	for _, k := range slices.Sorted(maps.Keys(attrs)) {
		if why, ok := retired[k]; ok {
			return fmt.Errorf("staging: attribute %q is gone: %s", k, why)
		}
	}
	if typ == "adios" {
		return sensei.CheckAttrs("adios", attrs, "address", "contact", "contact-dir", "mesh", "arrays", "liveness", "queue")
	}
	return sensei.CheckAttrs("staging", attrs, "address", "contact", "contact-dir", "mesh", "arrays", "liveness", "spill", "consumers")
}

// xmlFactory is the XML-configured adaptor: hub, binder, network server
// and contact-file rendezvous. Analysis type "adios" closes the
// consumer set.
func xmlFactory(typ string) sensei.Factory {
	direct := typ == "adios"
	return func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		if err := checkAttrs(typ, attrs); err != nil {
			return nil, err
		}
		hub := NewHub(ctx.Acct)
		var arrays []string
		if a := strings.TrimSpace(attrs["arrays"]); a != "" {
			for _, s := range strings.Split(a, ",") {
				arrays = append(arrays, strings.TrimSpace(s))
			}
		}
		// A configured array set is the advertisement consumer subset
		// requests are validated against (handshake rejection).
		hub.SetAdvertised(arrays)
		// One hub per simulated rank: attach each to the process
		// telemetry plane under its rank label (no-op when disabled).
		hub.SetTelemetry(ctx.Telemetry, RankLabel(ctx.Comm.Rank()))
		if dir := strings.TrimSpace(attrs["spill"]); dir != "" {
			// Every rank runs its own hub; namespace the spill stores
			// per rank (the recording layout's rank-NNNN convention) so
			// same-named consumers on different ranks never share — and
			// corrupt — one on-disk store.
			rankDir := filepath.Join(dir, fmt.Sprintf("rank-%04d", ctx.Comm.Rank()))
			if err := hub.SetSpillDir(rankDir); err != nil {
				return nil, err
			}
		}
		ad := New(ctx, hub, attrs["mesh"], arrays)
		specs, err := ParseConsumers(attrs["consumers"])
		if err != nil {
			return nil, err
		}
		ad.binder = NewBinder(hub)
		if direct {
			sole := ConsumerSpec{Name: soleName, Policy: Block}
			if q := attrs["queue"]; q != "" {
				if sole.Depth, err = strconv.Atoi(q); err != nil || sole.Depth < 1 {
					return nil, fmt.Errorf("staging: bad queue %q", q)
				}
			}
			specs = []ConsumerSpec{sole}
			ad.binder.sole, ad.closeWait = true, closeWait
		}
		for _, spec := range specs {
			if _, err := ad.binder.Declare(spec); err != nil {
				return nil, err
			}
		}
		var liveness time.Duration
		if v := strings.TrimSpace(attrs["liveness"]); v != "" && v != "off" {
			if liveness, err = time.ParseDuration(v); err != nil {
				return nil, fmt.Errorf("staging: bad liveness %q: %w", v, err)
			}
		}
		if ctx.Telemetry != nil {
			binder := ad.binder
			ctx.Telemetry.RegisterStatus("staging-sessions/"+RankLabel(ctx.Comm.Rank()),
				func() any { return binder.SessionStatus() })
		}
		addr := attrs["address"]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		srv, err := ServeWith(hub, addr, ad.binder.Resolve, liveness)
		if err != nil {
			return nil, err
		}
		ad.server = srv
		// Rendezvous: gather every rank's server address; rank 0
		// publishes the contact file readers poll, addresses in rank
		// order. When a telemetry exporter is live its
		// address rides along as a "#telemetry=" stamp so the mesh
		// observatory can find this process, and the contact directory
		// itself gets a /meshz mount (any process that knows the
		// directory can serve the whole tree's view).
		if contact := attrs["contact"]; contact != "" {
			all := ctx.Comm.GatherBytes(0, []byte(srv.Addr()))
			if ctx.Comm.Rank() == 0 {
				addrs := make([]string, len(all))
				for i, b := range all {
					addrs[i] = string(b)
				}
				dir := strings.TrimSpace(attrs["contact-dir"])
				if err := (adios.Contact{Dir: dir, Name: contact}).Write(addrs, ctx.Telemetry.ServeAddr()); err != nil {
					return nil, err
				}
				if dir != "" {
					meshobs.Install(ctx.Telemetry, dir)
				}
			}
		}
		return ad, nil
	}
}

// Hub exposes the staging hub (stats, programmatic subscription).
func (a *Adaptor) Hub() *Hub { return a.hub }

// Server exposes the network server, nil for programmatic adaptors.
func (a *Adaptor) Server() *Server { return a.server }

// sendSet is the arrays a step must carry: the configured set (nil =
// every advertised array), shrunk on a closed consumer set to the one
// reader's declared subset.
func (a *Adaptor) sendSet() []string {
	if a.binder != nil {
		if sub := a.binder.soleArrays(); sub != nil {
			return sub
		}
	}
	return a.arrays
}

// Describe implements sensei.Analysis: the configured arrays, or
// every advertised array when none were configured. An open hub stages
// the full published set — per-consumer subsets are applied on
// delivery (Consumer arrays / the hello's arrays field), because
// consumers attach and detach dynamically and late subscribers must
// still be able to request anything published. A closed set has no
// late subscribers, so its one reader's subset reaches all the way
// into the simulation-side pull.
func (a *Adaptor) Describe() sensei.Requirements {
	if set := a.sendSet(); len(set) > 0 {
		return sensei.RequireArrays(a.meshName, sensei.AssocPoint, set...)
	}
	return sensei.RequireAllArrays(a.meshName)
}

// Execute implements sensei.Analysis: one step is marshaled into the
// hub regardless of how many consumers fan out of it.
func (a *Adaptor) Execute(st *sensei.Step) (bool, error) {
	arrays := a.sendSet()
	if len(arrays) == 0 {
		md, err := st.Metadata(a.meshName)
		if err != nil {
			return false, err
		}
		arrays = md.ArrayNames
	}
	g, err := st.Mesh(a.meshName)
	if err != nil {
		return false, err
	}
	step := &adios.Step{
		Step:  int64(st.TimeStep()),
		Time:  st.Time(),
		Attrs: map[string]string{"mesh": a.meshName},
	}
	if !a.structureSent {
		step.Attrs["structure"] = "1"
		step.Vars = append(step.Vars,
			adios.NewF64("points", g.Points, int64(g.NumPoints()), 3),
			adios.NewI64("connectivity", g.Connectivity),
			adios.NewI64("offsets", g.Offsets),
			adios.NewU8("types", g.CellTypes),
		)
		a.structureSent = true
	}
	for _, name := range arrays {
		arr := g.FindPointData(name)
		if arr == nil {
			return false, fmt.Errorf("staging: array %q not attached", name)
		}
		// Publish marshals the step before it returns, so the data
		// adaptor may recycle this storage for the next step.
		step.Vars = append(step.Vars, adios.NewF64("array/"+name, arr.Data))
	}
	return false, a.hub.Publish(step)
}

// Finalize closes the hub and then drains the network server
// (Server.Close): every reader that keeps returning credits receives
// its remaining steps and then the end-of-stream marker, however slow
// it is; one that makes no progress for the liveness bound is cut
// without the marker and fails as truncated. A direct stream first
// gives an unattached reader closeWait to claim what is staged.
func (a *Adaptor) Finalize() error {
	if a.binder != nil {
		a.binder.awaitSole(a.closeWait)
	}
	err := a.hub.Close()
	if a.binder != nil {
		// Parked sessions would otherwise hold their backpressure claims
		// (and step references) until their TTLs fire mid-shutdown.
		a.binder.Shutdown()
	}
	if a.server != nil {
		if serr := a.server.Close(); err == nil {
			err = serr
		}
	}
	return err
}
