// Command sensei-endpoint is the in transit data consumer: it waits
// for the simulation's SST contact file, connects its readers (the
// paper's 4:1 simulation:endpoint ratio by default), and runs a SENSEI
// ConfigurableAnalysis on every received step:
//
//	sensei-endpoint -contact run/contact.txt -config endpoint.xml -ranks 2
//
// Pair it with `nekrs -sensei adios.xml` where adios.xml enables the
// "adios" analysis with the same contact path.
//
// With a staging policy set — via -policy, or a -consumer
// "name[:policy[:depth]]" spec — the endpoint instead attaches to a
// staging hub published by the "staging" analysis type (or to a relay's
// outputs), announcing a consumer name. Either way the process runs one
// endpoint runtime (intransit.Group) under one attach rule: a rank
// dials its own ShardRange of the contact addresses, each as a plain
// consumer (intransit.ShardSources).
//
//	flags          replicas  ranks  addresses per rank  staged hello
//	-ranks R          1        R    its ShardRange      name
//	-consumers N      N        1    all                 name-i, own window
//
// Replicas are independent consumers of the configured analysis, each
// with its own backpressure window and output subdirectory; the ranks
// of one replica cooperate — reductions merge across them, rendering
// binary-swap composites into one image per step. There is one rank per
// stream at most: to run R ranks against P > R producers exactly, put
// `relay -out-ranks R` in front.
//
//	sensei-endpoint -contact run/contact.txt -config endpoint.xml \
//	-consumer render:block:2 -ranks 4
//
// In every mode, -arrays (or the 4th, +-separated field of a
// -consumer spec) declares the array subset this endpoint needs: the
// producer ships only those arrays — the requirements-driven data
// plane's wire savings — and rejects the handshake if one of them is
// not advertised.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/meshobs"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/catalyst"   // analysis type "catalyst"
	_ "nekrs-sensei/internal/checkpoint" // analysis type "checkpoint"
	_ "nekrs-sensei/internal/probe"      // analysis type "probe"
)

// options carries the parsed, validated command line.
type options struct {
	contact    string
	contactDir string
	config     string
	ranks      int
	timeout    time.Duration
	out        string
	policy     string
	depth      int
	consumers  int
	name       string
	arrays     []string // array subset declared in the reader hello
	codecs     []string // wire-codec request declared in the reader hello
	record     string   // directory for per-source archives of the received streams

	retry      int           // reconnect attempts after dial/mid-stream failures
	sessionTTL time.Duration // resumable-session grace period requested from the hub
	liveness   time.Duration // declare a silent producer dead after this long

	telemetry  string        // exporter listen address ("" = off)
	peerStatus string        // producer /statusz base URL for the shutdown report
	stepDelay  time.Duration // artificial per-step processing time

	staged bool // a staging policy or consumer spec was given
}

// hello is what replica's readers announce to contact address src: the
// array and codec requests always; in staged mode the consumer name
// (one per replica) and its backpressure window. The resilience flags
// fold in last: with -retry the reader redials through backoff,
// re-resolving the contact (a restarted hub republishes fresh
// addresses), and announces a resumable session so the hub parks its
// cursor and queue across the outage.
func (o *options) hello(replica, src int) adios.ReaderOptions {
	h := adios.ReaderOptions{Arrays: o.arrays, Codecs: o.codecs, LivenessTimeout: o.liveness}
	if o.staged {
		h.Consumer, h.Policy, h.Depth = o.name, o.policy, o.depth
		if o.consumers > 1 {
			h.Consumer = fmt.Sprintf("%s-%d", o.name, replica)
		}
	}
	if o.retry > 0 {
		h.Retry = adios.DefaultRetryPolicy(o.retry)
		h.Redial = func() (string, error) {
			addrs, err := o.readContact()
			if err != nil || src >= len(addrs) {
				return "", err
			}
			return addrs[src], nil
		}
		if o.sessionTTL > 0 {
			h.Session, h.SessionTTL = true, o.sessionTTL
		}
	}
	return h
}

// parseArgs parses argv (without the program name) into options; the
// consumer-spec grammar and cross-flag rules are checked here so the
// whole surface is unit-testable.
func parseArgs(argv []string) (*options, error) {
	fs := flag.NewFlagSet("sensei-endpoint", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.contact, "contact", "contact.txt", "SST contact file published by the simulation (with -contact-dir: the entry name)")
	fs.StringVar(&o.contactDir, "contact-dir", "", "contact directory of a multi-hub topology: -contact then names an entry (<dir>/<name>.contact) instead of a file path")
	fs.StringVar(&o.config, "config", "", "SENSEI XML configuration for the endpoint analyses")
	fs.IntVar(&o.ranks, "ranks", 1, "cooperating endpoint ranks; each dials its own share of the contact's streams (at most one rank per stream)")
	fs.DurationVar(&o.timeout, "timeout", 60*time.Second, "how long to wait for the contact file")
	fs.StringVar(&o.out, "out", "endpoint-out", "output directory")
	fs.StringVar(&o.policy, "policy", "", "staging backpressure policy: block, drop-oldest or latest-only (enables staged mode)")
	fs.IntVar(&o.depth, "depth", 0, "staging queue depth per consumer (0 = hub default)")
	fs.IntVar(&o.consumers, "consumers", 1, "independent consumer replicas (staged fan-out mode)")
	fs.StringVar(&o.name, "name", "endpoint", "consumer name announced to the hub")
	arraysFlag := fs.String("arrays", "", "comma-separated array subset to request in the reader hello (empty = every published array)")
	codecsFlag := fs.String("codecs", "", "comma-separated wire codec request, e.g. transpose-delta or pressure=quantize:1e-3 (empty = plain frames, or a quantize bound derived from the config's maxerror attributes)")
	fs.StringVar(&o.record, "record", "", "record the received streams into per-source archives under this directory, one per contact address")
	spec := fs.String("consumer", "", `consumer spec "name[:policy[:depth[:arrays[:codecs]]]]" (shorthand for -name/-policy/-depth/-arrays/-codecs with +-separated fields, enables staged mode)`)
	fs.IntVar(&o.retry, "retry", 0, "reconnect attempts after a dial or mid-stream failure (0 = fail fast); exponential backoff with jitter")
	fs.DurationVar(&o.sessionTTL, "session-ttl", 30*time.Second, "with -retry: ask the hub to park this consumer's cursor and queue for this long across a disconnect (0 = plain reconnect)")
	fs.DurationVar(&o.liveness, "liveness", 0, "declare a silent producer dead after this long without frames or keepalives (0 = wait forever)")
	fs.StringVar(&o.telemetry, "telemetry", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:9151; empty = off)")
	fs.StringVar(&o.peerStatus, "peer-status", "", "producer telemetry base URL (e.g. 127.0.0.1:9150); fetched at shutdown to report hub consumer lag and the merged cross-process step trace")
	fs.DurationVar(&o.stepDelay, "step-delay", 0, "artificial processing time added per step (models a slow analysis)")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *arraysFlag != "" {
		for _, a := range strings.Split(*arraysFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				o.arrays = append(o.arrays, a)
			}
		}
	}
	if *codecsFlag != "" {
		for _, c := range strings.Split(*codecsFlag, ",") {
			if c = strings.TrimSpace(c); c != "" {
				o.codecs = append(o.codecs, c)
			}
		}
		if _, err := codec.ParseSpec(o.codecs); err != nil {
			return nil, err
		}
	}
	if *spec != "" {
		if set["policy"] || set["depth"] || set["name"] || set["arrays"] || set["codecs"] {
			return nil, fmt.Errorf("-consumer replaces -name/-policy/-depth/-arrays/-codecs; do not combine them")
		}
		specs, err := staging.ParseConsumers(*spec)
		if err != nil {
			return nil, err
		}
		if len(specs) != 1 {
			return nil, fmt.Errorf("-consumer wants exactly one spec, got %d", len(specs))
		}
		o.name = specs[0].Name
		o.policy = specs[0].Policy.String()
		o.depth = specs[0].Depth
		o.arrays = specs[0].Arrays
		o.codecs = specs[0].Codecs
		o.staged = true
	}
	if o.policy != "" {
		if _, err := staging.ParsePolicy(o.policy); err != nil {
			return nil, err
		}
		o.staged = true
	}

	switch {
	case o.ranks < 1:
		return nil, fmt.Errorf("-ranks must be positive (got %d)", o.ranks)
	case o.depth < 0:
		return nil, fmt.Errorf("-depth must be non-negative (got %d)", o.depth)
	case o.stepDelay < 0:
		return nil, fmt.Errorf("-step-delay must be non-negative (got %v)", o.stepDelay)
	case o.retry < 0:
		return nil, fmt.Errorf("-retry must be non-negative (got %d)", o.retry)
	case o.sessionTTL < 0:
		return nil, fmt.Errorf("-session-ttl must be non-negative (got %v)", o.sessionTTL)
	case o.liveness < 0:
		return nil, fmt.Errorf("-liveness must be non-negative (got %v)", o.liveness)
	case o.consumers < 1:
		return nil, fmt.Errorf("-consumers must be positive (got %d)", o.consumers)
	case o.consumers > 1 && !o.staged:
		return nil, fmt.Errorf("-consumers > 1 needs staged mode: give -policy or -consumer")
	case o.consumers > 1 && o.record != "":
		return nil, fmt.Errorf("-record captures one consumer's stream; drop -consumers (replicas would record duplicates)")
	}
	return o, nil
}

// recorder wires per-source archives onto readers and closes them
// when the run ends. The recorded frames are the exact received wire
// bytes (adios.Reader.SetRecord), one archive per source so the
// layout replays like the live topology.
type recorder struct {
	dir      string
	mu       sync.Mutex
	archives []*archive.Archive
}

// attach starts recording the stream of contact address src (no-op
// without a dir).
func (rec *recorder) attach(src int, r *adios.Reader) error {
	if rec == nil || rec.dir == "" {
		return nil
	}
	a, err := archive.Open(archive.RankDir(rec.dir, src), archive.Options{})
	if err != nil {
		return err
	}
	rec.mu.Lock()
	rec.archives = append(rec.archives, a)
	rec.mu.Unlock()
	r.SetRecord(a)
	return nil
}

// close seals every archive, reporting what was captured.
func (rec *recorder) close() error {
	if rec == nil || rec.dir == "" {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var steps, bytes int64
	var first error
	for _, a := range rec.archives {
		steps += int64(a.Len())
		bytes += a.Bytes()
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first == nil && len(rec.archives) > 0 {
		fmt.Printf("recorded %d step(s), %s across %d source archive(s) in %s\n",
			steps, metrics.HumanBytes(bytes), len(rec.archives), rec.dir)
	}
	rec.archives = nil
	return first
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	var tel *telemetry.Telemetry
	if err == nil && o.telemetry != "" {
		tel = telemetry.New("sensei-endpoint")
		telemetry.RegisterRuntime(tel.Registry())
		var exp *telemetry.Exporter
		if exp, err = tel.Serve(o.telemetry); err == nil {
			defer exp.Close()
			fmt.Printf("telemetry: %s/metrics %s/statusz %s/debug/pprof\n",
				exp.URL(), exp.URL(), exp.URL())
		}
		// In a contact-directory mesh the endpoint publishes a
		// telemetry-only observer entry under its consumer name — no
		// data addresses, just the exporter — so the mesh observatory
		// can scrape this process's trace ring and resolve hub
		// consumer rows to it. It also mounts /meshz locally.
		if err == nil && o.contactDir != "" {
			err = adios.WriteContactEntry(o.contactDir, o.name, nil, tel.ServeAddr())
			meshobs.Install(tel, o.contactDir)
		}
	}
	if err == nil {
		err = run(o, tel)
	}
	if err == nil && tel != nil {
		reportTraces(o.peerStatus, tel)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensei-endpoint:", err)
		os.Exit(1)
	}
}

// reportTraces renders the shutdown observability report. With a
// -peer-status URL it pulls the producer's /statusz and joins the two
// halves of the pipeline as a process-keyed mesh timeline:
// producer-side stamps (compute/marshal/publish) from the peer's ring
// alongside this process's stamps (deliver/decode/pull/analyze/
// render), keyed by (process, step ordinal), plus the hub's
// per-consumer backlog table and a bottleneck verdict. The local
// trace ring is rendered even when the producer is already gone.
func reportTraces(peerBase string, tel *telemetry.Telemetry) {
	local := tel.Tracer().Snapshot()
	if peerBase != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		peer, err := telemetry.FetchStatusz(ctx, peerBase)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sensei-endpoint: peer status:", err)
		} else {
			for name, raw := range peer.Status {
				if !strings.HasPrefix(name, "staging-hub") {
					continue
				}
				var hs staging.HubStatus
				if err := json.Unmarshal(raw, &hs); err != nil {
					fmt.Fprintf(os.Stderr, "sensei-endpoint: decoding %s: %v\n", name, err)
					continue
				}
				staging.ConsumerTable("producer "+name, hs.Consumers).Render(os.Stdout)
			}
			peerName := peer.Process
			if peerName == "" || peerName == tel.Process() {
				peerName = "producer"
			}
			mesh := telemetry.MergeTraces(
				telemetry.ProcessRing{Process: peerName, Traces: peer.Traces},
				telemetry.ProcessRing{Process: tel.Process(), Traces: local},
			)
			if len(mesh) > 0 {
				telemetry.MeshTraceTable("step trace (producer + endpoint, ms offsets)", mesh).Render(os.Stdout)
				if b, ok := telemetry.FindBottleneck(mesh, 16); ok {
					fmt.Printf("bottleneck: %s\n", b.Verdict())
				}
			}
			return
		}
	}
	if len(local) > 0 {
		telemetry.TraceTable("step trace (endpoint stages, ms offsets)", local).Render(os.Stdout)
	}
}

func readConfig(config string) ([]byte, error) {
	if config == "" {
		return nil, nil
	}
	return os.ReadFile(config)
}

// deriveCodecs fills an absent -codecs request from the analysis
// configuration: when every enabled analysis declares a maxerror
// tolerance, the endpoint asks the producer to quantize at the
// strictest bound — lossy wire compression negotiated the same way
// the requirements-driven array subset is.
func deriveCodecs(o *options, cfgXML []byte) {
	if len(o.codecs) > 0 || len(cfgXML) == 0 {
		return
	}
	if bound, ok := sensei.ConfigMaxError(cfgXML); ok {
		o.codecs = []string{"quantize:" + strconv.FormatFloat(bound, 'g', -1, 64)}
		fmt.Printf("derived codec request %q from the config's maxerror attributes\n", o.codecs[0])
	}
}

// readContact resolves the rendezvous: a plain contact file, or — in
// -contact-dir mode — the named entry of a shared contact directory
// (one entry per hub/relay of a staging mesh).
func (o *options) readContact() ([]string, error) {
	return adios.ReadContactAt(o.contactDir, o.contact, o.timeout)
}

// run attaches the replicas — each one intransit.Group whose ranks dial
// their shard of the contact addresses — and feeds one summary from all
// of them.
func run(o *options, tel *telemetry.Telemetry) error {
	cfgXML, err := readConfig(o.config)
	if err != nil {
		return err
	}
	deriveCodecs(o, cfgXML)
	addrs, err := o.readContact()
	if err != nil {
		return err
	}
	fmt.Printf("attaching %d endpoint(s) of %d rank(s) to %d stream(s)\n", o.consumers, o.ranks, len(addrs))

	// The allocator window opens when the first rank attaches its
	// sources, so flag parsing and contact-file polling stay out of the
	// per-step numbers (reader dialing is part of the run and counted).
	alloc := metrics.NewAllocStats()
	var allocBegin sync.Once
	rec := &recorder{dir: o.record}
	stats := make([]intransit.GroupStats, o.consumers)
	dirs := make([]string, o.consumers)
	errs := make([]error, o.consumers)
	var wg sync.WaitGroup
	for i := 0; i < o.consumers; i++ {
		consumer := o.hello(i, 0).Consumer // "" on a direct stream
		dirs[i] = o.out
		if o.consumers > 1 {
			dirs[i] = filepath.Join(o.out, consumer)
		}
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return err
		}
		dial := intransit.ShardSources(addrs, func(_, src int) adios.ReaderOptions { return o.hello(i, src) })
		group, err := intransit.NewGroup(intransit.GroupConfig{
			Ranks:     o.ranks,
			ConfigXML: cfgXML,
			OutputDir: dirs[i],
			StepDelay: o.stepDelay,
			Telemetry: tel,
			Sources: func(rank, ranks int) ([]intransit.StepSource, func(), error) {
				allocBegin.Do(alloc.Begin)
				sources, cleanup, err := dial(rank, ranks)
				if err != nil {
					return nil, nil, err
				}
				// Every address is dialed by exactly one rank, which also
				// records it and labels its series.
				lo, _ := intransit.ShardRange(len(addrs), ranks, rank)
				for k, s := range sources {
					r, src := s.(*adios.Reader), lo+k
					if err := rec.attach(src, r); err != nil {
						cleanup()
						return nil, nil, err
					}
					labels := []string{"rank", fmt.Sprint(rank), "source", fmt.Sprint(src)}
					if consumer != "" {
						labels = append(labels, "consumer", consumer)
					}
					r.SetTelemetry(tel, labels...)
				}
				return sources, cleanup, nil
			},
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = group.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := rec.close(); err != nil {
		return err
	}
	for i, st := range stats {
		skipped := 0
		for _, s := range st.Skipped {
			skipped += s
		}
		fmt.Printf("endpoint %d done: %d steps, %.2f ms mean time-to-result, %d skipped, %s in %d file(s) written to %s\n",
			i, st.Steps, float64(st.MeanStepWall().Microseconds())/1000, skipped,
			metrics.HumanBytes(st.Bytes), st.Files, dirs[i])
		if o.ranks > 1 {
			st.Straggler.Render(os.Stdout)
		}
	}
	alloc.Window(stats[0].Steps).Table().Render(os.Stdout)
	return nil
}
