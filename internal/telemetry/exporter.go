package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"
)

// Telemetry bundles a process's registry, trace ring, and named
// status sections behind one handle. A nil *Telemetry is the disabled
// plane: Registry()/Tracer() return nil (whose methods no-op), so a
// process without -telemetry pays nothing and branches nowhere.
type Telemetry struct {
	process string
	start   time.Time
	reg     *Registry
	trace   *StepTracer
	events  *EventJournal

	mu       sync.Mutex
	addr     string
	names    []string
	sections map[string]func() any
	handlers map[string]http.Handler
}

// New returns an enabled telemetry plane for the named process
// ("nekrs", "sensei-endpoint", ...).
func New(process string) *Telemetry {
	return &Telemetry{
		process:  process,
		start:    time.Now(),
		reg:      NewRegistry(),
		trace:    NewStepTracer(DefaultTraceRing),
		events:   NewEventJournal(DefaultEventRing),
		sections: make(map[string]func() any),
		handlers: make(map[string]http.Handler),
	}
}

// Registry returns the process registry (nil when disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the process step-trace ring (nil when disabled).
func (t *Telemetry) Tracer() *StepTracer {
	if t == nil {
		return nil
	}
	return t.trace
}

// Events returns the process recovery-event journal (nil when
// disabled; a nil journal's methods no-op).
func (t *Telemetry) Events() *EventJournal {
	if t == nil {
		return nil
	}
	return t.events
}

// ServeAddr reports the exporter address Serve bound ("" when
// unserved or disabled) — what a process advertises in its contact
// entry so the mesh crawler can find it.
func (t *Telemetry) ServeAddr() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addr
}

// corePath reports whether path belongs to the exporter's fixed
// surface, which dynamic registrations must not shadow.
func corePath(path string) bool {
	switch path {
	case "/", "/metrics", "/statusz", "/eventz":
		return true
	}
	return strings.HasPrefix(path, "/debug/pprof")
}

// RegisterHandler mounts an extra HTTP handler on the exporter at
// path (e.g. "/meshz"). Registration is dynamic: it takes effect on
// the next request even if Serve already started — command wiring
// typically serves telemetry first and discovers the contact
// directory later. Core paths cannot be shadowed; registrations on
// them are ignored.
func (t *Telemetry) RegisterHandler(path string, h http.Handler) {
	if t == nil || path == "" || h == nil || corePath(path) {
		return
	}
	t.mu.Lock()
	t.handlers[path] = h
	t.mu.Unlock()
}

// extraHandler resolves a dynamically registered handler.
func (t *Telemetry) extraHandler(path string) http.Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handlers[path]
}

// RegisterStatus adds a named /statusz section; f runs per request and
// must return a JSON-marshalable value. Duplicate names (e.g. one hub
// per simulated rank registering under the same label) get a #N
// suffix instead of clobbering each other.
func (t *Telemetry) RegisterStatus(name string, f func() any) {
	if t == nil || f == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := name
	for n := 2; ; n++ {
		if _, taken := t.sections[key]; !taken {
			break
		}
		key = fmt.Sprintf("%s#%d", name, n)
	}
	t.sections[key] = f
	t.names = append(t.names, key)
}

// Statusz is the /statusz document: process identity, every
// registered status section, the step-trace ring, and a flattened
// metric snapshot. Status sections are raw JSON so callers can decode
// the ones they know (e.g. a staging.HubStatus) with their own types.
type Statusz struct {
	Process   string                     `json:"process"`
	PID       int                        `json:"pid"`
	UptimeSec float64                    `json:"uptime_sec"`
	Status    map[string]json.RawMessage `json:"status"`
	Traces    []StepTrace                `json:"traces"`
	Metrics   []MetricPoint              `json:"metrics"`
}

// statusz builds the document (sections marshaled eagerly so one bad
// section degrades to an error string instead of failing the scrape).
func (t *Telemetry) statusz() *Statusz {
	doc := &Statusz{
		Process:   t.process,
		PID:       os.Getpid(),
		UptimeSec: time.Since(t.start).Seconds(),
		Status:    make(map[string]json.RawMessage),
		Traces:    t.trace.Snapshot(),
		Metrics:   t.reg.Snapshot(),
	}
	t.mu.Lock()
	names := append([]string(nil), t.names...)
	sections := make([]func() any, len(names))
	for i, n := range names {
		sections[i] = t.sections[n]
	}
	t.mu.Unlock()
	for i, name := range names {
		b, err := json.Marshal(sections[i]())
		if err != nil {
			b, _ = json.Marshal(map[string]string{"error": err.Error()})
		}
		doc.Status[name] = b
	}
	return doc
}

// Eventz is the /eventz document: process identity plus the retained
// recovery-event ring (oldest first) and the all-time emit count.
type Eventz struct {
	Process string  `json:"process"`
	PID     int     `json:"pid"`
	Total   int64   `json:"total_events"`
	Events  []Event `json:"events"`
}

// EventzSnapshot builds the /eventz document in-process — the same
// view a remote scrape gets, without HTTP.
func (t *Telemetry) EventzSnapshot() *Eventz {
	if t == nil {
		return nil
	}
	return &Eventz{
		Process: t.process,
		PID:     os.Getpid(),
		Total:   t.events.Total(),
		Events:  t.events.Snapshot(),
	}
}

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// Handler returns the exporter's HTTP mux: /metrics, /statusz,
// /eventz, the /debug/pprof family, and any RegisterHandler mounts
// (resolved per request, so late registration works). Usable directly
// in tests via httptest.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.reg.WritePrometheus(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, t.statusz())
	})
	mux.HandleFunc("/eventz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, t.EventzSnapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "%s telemetry\n/metrics\n/statusz\n/eventz\n/debug/pprof/\n", t.process)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := t.extraHandler(r.URL.Path); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// Exporter is a running telemetry HTTP server.
type Exporter struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the exporter on addr ("host:port"; ":0" picks an
// ephemeral port). An empty addr or nil receiver returns (nil, nil):
// telemetry stays queryable in-process but unserved.
func (t *Telemetry) Serve(addr string) (*Exporter, error) {
	if t == nil || addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	e := &Exporter{ln: ln, srv: &http.Server{Handler: t.Handler()}}
	t.mu.Lock()
	t.addr = ln.Addr().String()
	t.mu.Unlock()
	go e.srv.Serve(ln) //nolint:errcheck // reported via Close
	return e, nil
}

// Addr reports the bound address ("" for a nil exporter).
func (e *Exporter) Addr() string {
	if e == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// URL reports the exporter's base URL ("" for a nil exporter).
func (e *Exporter) URL() string {
	if e == nil {
		return ""
	}
	return "http://" + e.Addr()
}

// Close stops the exporter. Safe on nil.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	return e.srv.Close()
}

// peerURL normalizes a peer base (bare host:port or full http:// URL,
// with or without the endpoint path) to one exporter endpoint URL.
func peerURL(base, endpoint string) string {
	url := strings.TrimSuffix(base, "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, endpoint) {
		url += endpoint
	}
	return url
}

// fetchPeerJSON GETs url under ctx and decodes the JSON body into v.
// Cancellation and deadline come from the caller's context, so a
// crawler sweeping many peers shares one budget and can abandon a
// hung scrape cleanly.
func fetchPeerJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("telemetry: fetch %s: %w", url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("telemetry: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("telemetry: fetch %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("telemetry: decode %s: %w", url, err)
	}
	return nil
}

// FetchJSON fetches a peer exporter's endpoint (e.g. "/meshz") under
// the caller's context and decodes the JSON body into v — the generic
// form behind FetchStatusz/FetchEventz, exported for endpoints other
// packages mount via RegisterHandler.
func FetchJSON(ctx context.Context, base, endpoint string, v any) error {
	return fetchPeerJSON(ctx, peerURL(base, endpoint), v)
}

// FetchStatusz fetches and decodes a peer's /statusz under the
// caller's context — the cross-process half of trace assembly.
func FetchStatusz(ctx context.Context, base string) (*Statusz, error) {
	var doc Statusz
	if err := fetchPeerJSON(ctx, peerURL(base, "/statusz"), &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// FetchEventz fetches and decodes a peer's /eventz under the caller's
// context.
func FetchEventz(ctx context.Context, base string) (*Eventz, error) {
	var doc Eventz
	if err := fetchPeerJSON(ctx, peerURL(base, "/eventz"), &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}
