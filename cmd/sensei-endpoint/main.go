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
// With a -consumer "name[:policy[:depth[:arrays[:codecs]]]]" spec the
// endpoint instead attaches to a staging hub published by the "staging"
// analysis type (or to a relay's outputs), announcing that consumer
// name and backpressure window. Either way the process runs one
// endpoint runtime (intransit.Group) under one attach rule: each of
// its -ranks R ranks dials its own ShardRange of the contact
// addresses, each as a plain consumer (intransit.ShardSources). The
// ranks cooperate — reductions merge across them, rendering
// binary-swap composites into one image per step. There is one rank
// per stream at most: to run R ranks against P > R producers exactly,
// put `relay -out-ranks R` in front. To run N independent consumers,
// run N endpoints, each with its own -consumer name.
//
//	sensei-endpoint -contact run/contact.txt -config endpoint.xml \
//	-consumer render:block:2 -ranks 4
//
// On either kind of stream, -arrays (or the 4th, +-separated field of
// a -consumer spec) declares the array subset this endpoint needs: the
// producer ships only those arrays — the requirements-driven data
// plane's wire savings — and rejects the handshake if one of them is
// not advertised.
//
// With -record DIR and no -config the endpoint is a pure sink that
// archives every source's frames, replayable by `archive replay`:
//
//	sensei-endpoint -contact run/contact.txt -record run-archive -consumer archive:block:8
//
// A run that succeeds writes <-out>/summary.json: the processed steps
// and the bytes and files the ranks wrote.
package main

import (
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
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/catalyst"   // analysis type "catalyst"
	_ "nekrs-sensei/internal/checkpoint" // analysis type "checkpoint"
	_ "nekrs-sensei/internal/probe"      // analysis type "probe"
)

// options carries the parsed, validated command line.
type options struct {
	contact   string
	config    string
	ranks     int
	out       string
	arrays    []string // array subset declared in the reader hello
	codecs    []string // wire-codec request declared in the reader hello
	record    string   // directory for per-source archives of the received streams
	stepDelay time.Duration

	// spec is the staged consumer -consumer names; nil on a direct stream.
	spec *staging.ConsumerSpec

	// -contact-dir, -timeout, -retry, -session-ttl, -liveness, -telemetry
	shell.Flags
}

// name is what this endpoint is called: its hub consumer when staged,
// and its observer entry in a contact directory either way.
func (o *options) name() string {
	if o.spec != nil {
		return o.spec.Name
	}
	return "endpoint"
}

// from is the rendezvous the -contact-dir/-contact flags name.
func (o *options) from() adios.Contact {
	return adios.Contact{Dir: o.ContactDir, Name: o.contact}
}

// hello is what the reader of contact address src announces: the
// array and codec requests always; when staged the consumer name and
// its backpressure window; the resilience flags last.
func (o *options) hello(src int) adios.ReaderOptions {
	h := adios.ReaderOptions{Arrays: o.arrays, Codecs: o.codecs}
	if o.spec != nil {
		h.Consumer, h.Policy, h.Depth = o.spec.Name, o.spec.Policy.String(), o.spec.Depth
	}
	return o.Reader(h, o.from(), src)
}

// parseArgs parses argv (without the program name) into options; the
// consumer-spec grammar and cross-flag rules are checked here so the
// whole surface is unit-testable.
func parseArgs(argv []string) (*options, error) {
	fs := flag.NewFlagSet("sensei-endpoint", flag.ContinueOnError)
	o := &options{Flags: shell.Flags{Timeout: 60 * time.Second, SessionTTL: 30 * time.Second}}
	fs.StringVar(&o.contact, "contact", "contact.txt", "SST contact file published by the simulation (with -contact-dir: the entry name)")
	fs.StringVar(&o.config, "config", "", "SENSEI XML configuration for the endpoint analyses (empty = pure sink, for -record)")
	fs.IntVar(&o.ranks, "ranks", 1, "cooperating endpoint ranks; each dials its own share of the contact's streams (at most one rank per stream)")
	fs.StringVar(&o.out, "out", "endpoint-out", "output directory")
	arraysFlag := fs.String("arrays", "", "comma-separated array subset to request in the reader hello (empty = every published array)")
	codecsFlag := fs.String("codecs", "", "comma-separated wire codec request, each coded frame decoding alone: transpose-delta (lossless) or quantize:BOUND for every array, or ARRAY=CODEC for one, e.g. pressure=quantize:1e-3 (empty = plain frames, or a quantize bound derived from the config's maxerror attributes)")
	fs.StringVar(&o.record, "record", "", "record the received streams into per-source archives under this directory, one per contact address")
	spec := fs.String("consumer", "", `staged consumer "name[:policy[:depth[:arrays[:codecs]]]]" to attach to a staging hub as (+-separated array and codec fields; empty = a direct stream)`)
	fs.DurationVar(&o.stepDelay, "step-delay", 0, "artificial processing time added per step (models a slow analysis)")
	o.Register(fs, "contact-dir", "timeout", "retry", "session-ttl", "liveness", "telemetry")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	o.arrays = splitList(*arraysFlag)
	o.codecs = splitList(*codecsFlag)
	if _, err := codec.ParseSpec(o.codecs); err != nil {
		return nil, err
	}
	if *spec != "" {
		specs, err := staging.ParseConsumers(*spec)
		if err != nil {
			return nil, err
		}
		if len(specs) != 1 {
			return nil, fmt.Errorf("-consumer wants exactly one spec, got %d", len(specs))
		}
		o.spec = &specs[0]
		// -arrays/-codecs apply to either kind of stream; a request
		// made in both places has no one answer.
		switch {
		case len(o.arrays) > 0 && len(o.spec.Arrays) > 0:
			return nil, fmt.Errorf("arrays given twice: in -consumer and -arrays")
		case len(o.codecs) > 0 && len(o.spec.Codecs) > 0:
			return nil, fmt.Errorf("codecs given twice: in -consumer and -codecs")
		}
		if len(o.spec.Arrays) > 0 {
			o.arrays = o.spec.Arrays
		}
		if len(o.spec.Codecs) > 0 {
			o.codecs = o.spec.Codecs
		}
	}

	switch {
	case o.ranks < 1:
		return nil, fmt.Errorf("-ranks must be positive (got %d)", o.ranks)
	case o.stepDelay < 0:
		return nil, fmt.Errorf("-step-delay must be non-negative (got %v)", o.stepDelay)
	}
	return o, o.Check()
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(v string) []string {
	var out []string
	for _, f := range strings.Split(v, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// recorder wires per-source archives onto readers and closes them
// when the run ends. The recorded frames are the exact received wire
// bytes (adios.Reader.SetRecord), one archive per source so the
// layout replays like the live topology.
type recorder struct {
	dir      string
	tel      *telemetry.Telemetry // each archive gets an "archive/rank-N" section
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
	a.RegisterTelemetry(rec.tel, fmt.Sprintf("rank-%d", src))
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
	if err == nil {
		var tel *telemetry.Telemetry
		var stopTel func()
		if tel, stopTel, err = shell.Start("sensei-endpoint", o.Telemetry, adios.Contact{Dir: o.ContactDir, Name: o.name()}); err == nil {
			err = run(o, tel)
			stopTel()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensei-endpoint:", err)
		os.Exit(1)
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

// run attaches the endpoint — one intransit.Group whose ranks dial
// their shard of the contact addresses — and writes its summary.
func run(o *options, tel *telemetry.Telemetry) error {
	cfgXML, err := readConfig(o.config)
	if err != nil {
		return err
	}
	deriveCodecs(o, cfgXML)
	addrs, err := o.from().Read(o.Timeout)
	if err != nil {
		return err
	}
	fmt.Printf("attaching %d endpoint rank(s) to %d stream(s)\n", o.ranks, len(addrs))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	// The allocator window opens when the first rank attaches its
	// sources, so flag parsing and contact-file polling stay out of the
	// per-step numbers (reader dialing is part of the run and counted).
	alloc := metrics.NewAllocStats()
	var allocBegin sync.Once
	rec := &recorder{dir: o.record, tel: tel}
	consumer := o.hello(0).Consumer // "" on a direct stream
	dial := intransit.ShardSources(addrs, func(_, src int) adios.ReaderOptions { return o.hello(src) })
	group, err := intransit.NewGroup(intransit.GroupConfig{
		Ranks:     o.ranks,
		ConfigXML: cfgXML,
		OutputDir: o.out,
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
	st, err := group.Run()
	if err != nil {
		return err
	}
	if err := rec.close(); err != nil {
		return err
	}
	skipped := 0
	for _, s := range st.Skipped {
		skipped += s
	}
	fmt.Printf("endpoint done: %d steps, %.2f ms mean time-to-result, %d skipped, %s in %d file(s) written to %s\n",
		st.Steps, float64(st.MeanStepWall().Microseconds())/1000, skipped,
		metrics.HumanBytes(st.Bytes), st.Files, o.out)
	if o.ranks > 1 {
		st.Straggler.Render(os.Stdout)
	}
	alloc.Window(st.Steps).Table().Render(os.Stdout)
	js, err := json.Marshal(struct {
		Steps int   `json:"steps"`
		Bytes int64 `json:"bytes"`
		Files int   `json:"files"`
	}{st.Steps, st.Bytes, st.Files})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "summary.json"), append(js, '\n'), 0o644)
}
