package sensei

import (
	"encoding/xml"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/telemetry"
)

// ConfigurableAnalysis multiplexes several analysis adaptors selected
// and configured at runtime from an XML document of the form
//
//	<sensei>
//	  <analysis type="catalyst" pipeline="script" filename="analysis.xml"
//	            frequency="100" enabled="1"/>
//	</sensei>
//
// mirroring the paper's Listing 1: enabling a different back end is an
// XML edit, not a recompilation.
//
// Beyond multiplexing, it is the data-movement planner of the
// requirements-driven data plane: at initialization it caches every
// analysis' declared Requirements and their union; per step it pulls
// each declared mesh and array from the DataAdaptor exactly once into
// a shared read-only Step and fans that out to every triggered
// analysis, so N analyses over one mesh cost one Mesh and one AddArray
// per distinct array — not N. Bytes pulled are accounted per analysis
// (PullStats/PullTable).
type ConfigurableAnalysis struct {
	ctx     *Context
	entries []configEntry

	// scratch is the recycled Step handed to PullInto: no analysis
	// holds a step past Execute (Analysis), so each pull reuses the
	// last one's bookkeeping.
	scratch *Step

	pullHist    *telemetry.Histogram // planner pull timing, cached handle
	telResolved bool                 // histogram handles resolved (once, first Execute)
}

type configEntry struct {
	typeName  string
	frequency int // the XML frequency
	adaptor   Analysis
	reqs      Requirements // cached Describe() from initialization

	executions  int
	bytesPulled int64
	stopped     bool

	execHist *telemetry.Histogram // per-analysis execute timing, cached handle
}

// xml parse targets.
type xSensei struct {
	XMLName  xml.Name    `xml:"sensei"`
	Analyses []xAnalysis `xml:"analysis"`
}

type xAnalysis struct {
	Attrs []xml.Attr `xml:",any,attr"`
}

// NewConfigurableAnalysis returns an empty multiplexer.
func NewConfigurableAnalysis(ctx *Context) *ConfigurableAnalysis {
	return &ConfigurableAnalysis{ctx: ctx}
}

// InitializeXML parses the configuration document and instantiates the
// enabled analyses.
func (ca *ConfigurableAnalysis) InitializeXML(doc []byte) error {
	var cfg xSensei
	if err := xml.Unmarshal(doc, &cfg); err != nil {
		return fmt.Errorf("sensei: config parse: %w", err)
	}
	for i, an := range cfg.Analyses {
		attrs := make(map[string]string, len(an.Attrs))
		for _, a := range an.Attrs {
			attrs[a.Name.Local] = a.Value
		}
		typeName := attrs["type"]
		if typeName == "" {
			return fmt.Errorf("sensei: analysis %d: missing type attribute", i)
		}
		if en, ok := attrs["enabled"]; ok && (en == "0" || en == "false") {
			continue
		}
		freq := 1
		if f, ok := attrs["frequency"]; ok {
			v, err := strconv.Atoi(f)
			if err != nil || v < 1 {
				return fmt.Errorf("sensei: analysis %d: bad frequency %q", i, f)
			}
			freq = v
		}
		// maxerror shapes the wire request (ConfigMaxError), not the
		// pull; a bad one still fails configuration here.
		if me, ok := attrs["maxerror"]; ok {
			if v, err := strconv.ParseFloat(me, 64); err != nil || !(v > 0) {
				return fmt.Errorf("sensei: analysis %d: bad maxerror %q (want a positive absolute error bound)", i, me)
			}
		}
		adaptor, err := NewAnalysisAdaptor(typeName, ca.ctx, attrs)
		if err != nil {
			return err
		}
		ca.AddAnalysis(typeName, freq, adaptor)
	}
	return nil
}

// InitializeFile loads the configuration from an XML file, the call
// shape of the paper's bridge pseudocode (Listing 3).
func (ca *ConfigurableAnalysis) InitializeFile(path string) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sensei: read config: %w", err)
	}
	return ca.InitializeXML(doc)
}

// AddAnalysis appends a constructed analysis with the given trigger
// frequency, caching its declaration.
func (ca *ConfigurableAnalysis) AddAnalysis(typeName string, freq int, a Analysis) {
	ca.entries = append(ca.entries, configEntry{
		typeName:  typeName,
		frequency: max(freq, 1),
		adaptor:   a,
		reqs:      a.Describe(),
	})
}

// NumAnalyses reports the number of enabled analyses.
func (ca *ConfigurableAnalysis) NumAnalyses() int { return len(ca.entries) }

// Types lists the enabled analysis type names in order.
func (ca *ConfigurableAnalysis) Types() []string {
	out := make([]string, len(ca.entries))
	for i, e := range ca.entries {
		out[i] = e.typeName
	}
	return out
}

// FindAdaptor returns the first enabled analysis of the given type,
// nil if none — the handle XML-configured drivers use to reach an
// adaptor's extra API (e.g. the staging hub's stats) after
// InitializeXML instantiated it.
func (ca *ConfigurableAnalysis) FindAdaptor(typeName string) any {
	for _, e := range ca.entries {
		if e.typeName == typeName {
			return e.adaptor
		}
	}
	return nil
}

// Requirements returns the union of every enabled analysis' declared
// requirements — the full data plan, as computed at initialization.
// In-transit senders consult the per-consumer subset instead; this
// union is what one simulation step must be able to supply.
func (ca *ConfigurableAnalysis) Requirements() Requirements {
	var u Requirements
	for _, e := range ca.entries {
		u = u.Union(e.reqs)
	}
	return u
}

// ConfigMaxError inspects a configuration document WITHOUT
// instantiating its analyses and reports the wire error bound it
// tolerates: the smallest maxerror attribute, and only when every
// enabled analysis declares one — a single lossless analysis makes the
// configuration lossless. Endpoints call this before dialing to derive
// a quantize codec request when the user gave none; it constructs no
// adaptor (and so none of their side effects).
func ConfigMaxError(doc []byte) (bound float64, ok bool) {
	var cfg xSensei
	if err := xml.Unmarshal(doc, &cfg); err != nil {
		return 0, false
	}
	for _, an := range cfg.Analyses {
		attrs := make(map[string]string, len(an.Attrs))
		for _, a := range an.Attrs {
			attrs[a.Name.Local] = a.Value
		}
		if en, okEn := attrs["enabled"]; okEn && (en == "0" || en == "false") {
			continue
		}
		v, err := strconv.ParseFloat(attrs["maxerror"], 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return 0, false
		}
		if !ok || v < bound {
			bound, ok = v, true
		}
	}
	return bound, ok
}

// Execute runs every enabled analysis whose frequency divides the
// adaptor's current timestep: the union of the triggered analyses'
// requirements is pulled ONCE into a shared Step (each mesh fetched
// once, each distinct array attached once) and fanned out. The
// returned stop is true when any analysis requested a clean stop of
// the simulation/endpoint loop.
func (ca *ConfigurableAnalysis) Execute(da DataAdaptor) (stop bool, err error) {
	step := da.TimeStep()
	var triggered []*configEntry
	union := NoRequirements()
	for i := range ca.entries {
		e := &ca.entries[i]
		if step%e.frequency != 0 {
			continue
		}
		// Re-Describe per step: adaptors with dynamic needs (an
		// in-transit sender whose reader announced an array subset
		// mid-run) shrink the pull as soon as they know less is needed.
		e.reqs = e.adaptor.Describe()
		triggered = append(triggered, e)
		union = union.Union(e.reqs)
	}
	if len(triggered) == 0 {
		return false, nil
	}
	tel := ca.ctx.Telemetry
	if !ca.telResolved {
		// Resolve registry handles once (nil handles when telemetry is
		// disabled — every Observe below then no-ops).
		ca.pullHist = tel.Registry().Histogram("sensei_pull_seconds")
		for i := range ca.entries {
			e := &ca.entries[i]
			e.execHist = tel.Registry().Histogram("sensei_execute_seconds", "analysis", e.typeName)
		}
		ca.telResolved = true
	}
	pullBegin := time.Now()
	st, err := PullInto(da, union, ca.ctx.Shard, ca.scratch)
	ca.scratch = nil
	pullDur := time.Since(pullBegin)
	ca.ctx.Timer.Add("sensei:pull", pullDur)
	ca.pullHist.Observe(pullDur)
	tel.Tracer().Stamp(int64(step), telemetry.StagePull)
	if err != nil {
		return false, err
	}
	for _, e := range triggered {
		execBegin := time.Now()
		reqStop, err := e.adaptor.Execute(st)
		execDur := time.Since(execBegin)
		ca.ctx.Timer.Add("sensei:"+e.typeName, execDur)
		e.execHist.Observe(execDur)
		if e.typeName == "catalyst" {
			// Composite/render finished: the last stop of the trace.
			tel.Tracer().Stamp(int64(step), telemetry.StageRender)
		}
		if err != nil {
			return false, fmt.Errorf("sensei: analysis %s: %w", e.typeName, err)
		}
		e.executions++
		for i := range e.reqs.Meshes() {
			e.bytesPulled += st.bytesPulled(&e.reqs.Meshes()[i])
		}
		if reqStop {
			e.stopped = true
			stop = true
		}
	}
	tel.Tracer().Stamp(int64(step), telemetry.StageAnalyze)
	// Recycle the step's bookkeeping for the next pull once every
	// triggered analysis has run.
	ca.scratch = st
	return stop, nil
}

// Finalize finalizes all analyses, returning the first error.
func (ca *ConfigurableAnalysis) Finalize() error {
	var first error
	for _, e := range ca.entries {
		if err := e.adaptor.Finalize(); err != nil && first == nil {
			first = fmt.Errorf("sensei: finalize %s: %w", e.typeName, err)
		}
	}
	return first
}

// PullStat is one analysis' data-movement accounting record.
type PullStat struct {
	Type string
	// Frequency is the effective trigger cadence.
	Frequency int
	// Requirements is the analysis' declaration, rendered.
	Requirements string
	// Executions counts Execute calls.
	Executions int
	// BytesPulled is the payload volume attributable to this analysis'
	// declaration across all executions. Shared arrays are charged to
	// every analysis that declared them (the planner pulled them only
	// once; compare the sum against the "sensei:pull" timer to see the
	// dedup win).
	BytesPulled int64
	// Stopped reports whether this analysis requested a stop.
	Stopped bool
}

// PullStats snapshots the per-analysis data-movement accounting.
func (ca *ConfigurableAnalysis) PullStats() []PullStat {
	out := make([]PullStat, len(ca.entries))
	for i, e := range ca.entries {
		out[i] = PullStat{
			Type: e.typeName, Frequency: e.frequency,
			Requirements: e.reqs.String(),
			Executions:   e.executions, BytesPulled: e.bytesPulled,
			Stopped: e.stopped,
		}
	}
	return out
}

// PullTable renders the per-analysis data-movement accounting: what
// each analysis declared, how often it ran, and the bytes its
// declaration pulled (deduplicated across analyses by the planner).
func (ca *ConfigurableAnalysis) PullTable() *metrics.Table {
	t := metrics.NewTable("Requirements plan: bytes pulled per analysis",
		"analysis", "requirements", "freq", "executions", "bytes pulled")
	for _, s := range ca.PullStats() {
		t.AddRow(s.Type, s.Requirements, s.Frequency, s.Executions,
			metrics.HumanBytes(s.BytesPulled))
	}
	return t
}
