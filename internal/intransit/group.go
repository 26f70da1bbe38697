package intransit

import (
	"errors"
	"fmt"
	"io"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/telemetry"
)

// Group is the endpoint runtime on R ranks: R cooperative Endpoints on
// one communicator consume one logical in-transit stream and shard the
// analysis work across themselves, so endpoint-side cost no longer
// caps producer throughput (the serial-endpoint ceiling of the paper's
// Figures 5/6). Each rank's sources are its own contiguous block
// (source) range of the stream (ShardSources) — histogram and probe
// reductions merge the shards through the group's mpirt collectives
// exactly as the simulation-side ranks would, and rendering rasterizes
// each shard locally before depth-compositing across the endpoint ranks
// via binary swap into a single image per step.
//
// Every stream is read by one rank only, and hubs shed steps
// independently under drop policies, so ranks can surface different
// step numbers: the step loop (runRank) realigns them with a cross-rank
// step agreement and resynchronizes at a per-step barrier whose waits
// are charged to a metrics.Straggler.
type Group struct {
	cfg GroupConfig

	eps []*Endpoint // one per rank, set by Run
}

// GroupConfig configures a parallel endpoint group.
type GroupConfig struct {
	// Ranks is the number of cooperative endpoint ranks R.
	Ranks int
	// ConfigXML is the SENSEI analysis configuration every rank runs
	// (empty = pure sink).
	ConfigXML []byte
	// OutputDir is where file-producing analyses write (Catalyst
	// pipeline i's image on rank i mod Ranks, probe series on rank 0).
	OutputDir string
	// Sources supplies one rank's step sources, which are that rank's
	// own block range and nobody else's (ShardSources builds it from a
	// contact's addresses). Called inside the rank's goroutine; the
	// returned cleanup (may be nil) runs when the rank finishes.
	Sources func(rank, ranks int) ([]StepSource, func(), error)
	// Presharded is vestigial: a rank analyzing every one of its sources
	// is the only behaviour. The field is read nowhere and stays declared
	// only because benchmark/, which this tree may not edit, still sets
	// it; it goes in the next change allowed to.
	Presharded bool
	// StepDelay adds artificial processing time per rank per step
	// (skew and slow-consumer experiments).
	StepDelay time.Duration
	// Telemetry, when non-nil, attaches the group to the process
	// observability plane: per-rank straggler waits are exported as
	// metrics and a /statusz section, and every rank's analysis
	// multiplexer stamps pull/analyze/render stages into the shared
	// step-trace ring.
	Telemetry *telemetry.Telemetry
}

// GroupStats summarizes one Run.
type GroupStats struct {
	Ranks int
	// Steps is the number of steps every rank processed (analyses
	// executed, image composited).
	Steps int
	// Skipped counts steps each rank discarded while realigning
	// skewed streams.
	Skipped []int
	// Straggler is the per-rank barrier-wait accounting.
	Straggler metrics.StragglerStats
	// StepWall is rank 0's total wall time from aligned step to
	// barrier exit — ingest, shard analysis, compositing, and the wait
	// for the slowest peer; producer idle time is excluded.
	StepWall time.Duration
	// Bytes/Files total the output written across ranks.
	Bytes int64
	Files int
}

// MeanStepWall is the mean time-to-result per processed step — for a
// rendering endpoint, the time-to-image.
func (s GroupStats) MeanStepWall() time.Duration {
	if s.Steps == 0 {
		return 0
	}
	return s.StepWall / time.Duration(s.Steps)
}

// NewGroup validates the configuration.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("intransit: group needs at least 1 rank (got %d)", cfg.Ranks)
	}
	if cfg.Sources == nil {
		return nil, fmt.Errorf("intransit: group needs a Sources factory")
	}
	return &Group{cfg: cfg, eps: make([]*Endpoint, cfg.Ranks)}, nil
}

// Analysis returns rank's analysis multiplexer; valid after Run (for
// inspecting reduced results, which every rank holds identically).
func (g *Group) Analysis(rank int) *sensei.ConfigurableAnalysis { return g.eps[rank].ca }

// Per-rank stream status for the cross-rank agreement, ordered so the
// max-reduction picks the most severe outcome: an error beats a stop
// request beats end-of-stream beats OK.
const (
	stOK   = 0 // a step is aligned locally
	stEOF  = 1 // every source reached end-of-stream
	stStop = 2 // an analysis requested a clean stop
	stErr  = 3 // a source failed (or ended early)
)

// rankStream is one rank's half of the step loop: its sources, the
// step each currently holds, the adaptor they merge into, and what the
// run counted.
type rankStream struct {
	sources []StepSource
	steps   []*adios.Step
	da      *StreamDataAdaptor
	agree   [4]int64 // the step agreement's allreduce operand
	err     error

	processed, skipped int
	stopped            bool
	stepWall           time.Duration // aligned step to barrier exit, summed
}

// next returns source src's next step with its structure, if it carries
// one, already cached, so a step skipped in realignment never loses it.
// A step that is the grid alone (a structure record replayed from before
// the requested range) is cached and passed over, never analysed.
func (rs *rankStream) next(src int) (s *adios.Step, err error) {
	for bare := true; bare && err == nil; {
		if s, err = rs.sources[src].BeginStep(); err == nil {
			bare, err = rs.da.IngestStructure(src, s)
		}
	}
	return s, err
}

// pull fills every empty source slot. Returns stOK/stEOF/stErr.
func (rs *rankStream) pull() int64 {
	eofs := 0
	for src, s := range rs.steps {
		if s != nil {
			continue
		}
		next, err := rs.next(src)
		if errors.Is(err, io.EOF) {
			eofs++
			continue
		}
		if err != nil {
			rs.err = fmt.Errorf("intransit: source %d: %w", src, err)
			return stErr
		}
		rs.steps[src] = next
	}
	if eofs == len(rs.sources) {
		return stEOF
	}
	if eofs != 0 {
		rs.err = fmt.Errorf("intransit: %d of %d sources ended early", eofs, len(rs.sources))
		return stErr
	}
	return stOK
}

// advance moves every source to at least target, skipping (and
// structure-capturing) intermediate steps, then realigns locally to
// the maximum step across this rank's sources: staging-hub sources can
// deliver different step subsequences — drop policies shed steps
// independently per hub, and consumers attaching mid-stream start at
// each hub's current step — but each stream is monotonic, so advancing
// the lagging ones realigns them. Lossless consumers that need zero
// skips subscribe before the first publish (pre-declared consumers in
// the staging XML). Returns stOK and the aligned step, or stErr: a
// source that ends on the way lost data (see StepSource).
func (rs *rankStream) advance(target int64) (int64, int64) {
	for {
		local := target
		for _, s := range rs.steps {
			if s.Step > local {
				local = s.Step
			}
		}
		aligned := true
		for src, s := range rs.steps {
			for s.Step < local {
				rs.skipped++
				// Skipped steps are consumed here; hand their storage
				// back for decode-into-reuse (structure steps refused).
				recycleStep(rs.sources[src], s)
				next, err := rs.next(src)
				if err != nil {
					rs.err = fmt.Errorf("intransit: source %d ended during resync at step %d: %w", src, local, err)
					return stErr, 0
				}
				s = next
				rs.steps[src] = s
			}
			if s.Step != local {
				aligned = false
			}
		}
		if aligned {
			return stOK, local
		}
	}
}

// Run spawns the R endpoint ranks, consumes the streams to
// end-of-stream, and executes the sharded analyses per step. Source
// setup and initialization, like every stage of the step loop, end in
// a cross-rank agreement, so a failure on one rank stops the whole
// group cleanly instead of stranding the peers in a collective.
func (g *Group) Run() (GroupStats, error) {
	R := g.cfg.Ranks
	straggler := metrics.NewStraggler(R)
	// A group of one has no peer to wait for; exporting its zeros
	// would only collide across the groups of one process.
	if tel := g.cfg.Telemetry; tel != nil && R > 1 {
		telemetry.RegisterStraggler(tel.Registry(), straggler)
		tel.RegisterStatus("intransit-group", func() any { return straggler.Stats() })
	}
	stats := GroupStats{Ranks: R, Skipped: make([]int, R)}

	err := mpirt.RunErr(R, func(comm *mpirt.Comm) error {
		rank := comm.Rank()
		sources, cleanup, err := g.cfg.Sources(rank, R)
		if cleanup != nil {
			defer cleanup()
		}
		if comm.AllreduceI64Scalar(boolStatus(err != nil), mpirt.OpMax) != stOK {
			return err
		}

		ctx := &sensei.Context{
			Comm: comm, Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
			Storage: metrics.NewStorageCounter(), OutputDir: g.cfg.OutputDir,
			Shard:     &sensei.Shard{Rank: rank, Ranks: R, BlockHi: len(sources)},
			Telemetry: g.cfg.Telemetry,
		}
		ep, err := NewEndpoint(ctx, sources, g.cfg.ConfigXML)
		if comm.AllreduceI64Scalar(boolStatus(err != nil), mpirt.OpMax) != stOK {
			return err
		}
		ep.StepDelay, ep.straggler = g.cfg.StepDelay, straggler
		g.eps[rank] = ep
		_, err = ep.Run()
		return err
	})

	for rank, ep := range g.eps {
		if ep == nil {
			continue // the group stopped before this rank was built
		}
		stats.Skipped[rank] = ep.rs.skipped
		stats.Bytes += ep.ctx.Storage.Bytes()
		stats.Files += ep.ctx.Storage.Files()
		if rank == 0 {
			stats.Steps, stats.StepWall = ep.rs.processed, ep.rs.stepWall
		}
	}
	stats.Straggler = straggler.Stats()
	return stats, err
}

func boolStatus(failed bool) int64 {
	if failed {
		return stErr
	}
	return stOK
}

// runRank is the endpoint step loop, one rank's side of it: pull,
// agree on a global target step, realign, ingest, execute, barrier,
// release. Every stage that can fail on a single rank — a dropped
// connection, a shard-shaped ingest error, an image write — ends in an
// agreement rather than a bare return, which would leave the peers
// blocked in their next collective forever. The one remaining hazard is
// a rank failing between the matched collectives *inside* one analysis'
// Execute (not Catalyst's: it writes after its last composite); mpirt's
// kind checking turns that into a panic rather than a silent deadlock
// where the collective kinds differ. The error is nil on ranks that
// stopped for a failed peer. On a one-rank communicator every agreement
// is an uncontended lock and allocates nothing.
func runRank(comm *mpirt.Comm, rs *rankStream, ca *sensei.ConfigurableAnalysis,
	delay time.Duration, straggler *metrics.Straggler) error {
	rank, da := comm.Rank(), rs.da
	for {
		status := rs.pull()
		var local int64
		if status == stOK {
			status, local = rs.advance(0)
		}
		// Cross-rank resynchronization: hubs shed steps independently
		// under drop policies, so ranks can surface different step
		// numbers. One max-reduction carries the worst and (negated) the
		// best status and the highest and lowest step: advance to the
		// highest and repeat until every rank holds it (or any ends).
		for {
			rs.agree = [4]int64{status, -status, local, -local}
			comm.AllreduceI64InPlace(rs.agree[:], mpirt.OpMax)
			worst, best, target := rs.agree[0], -rs.agree[1], rs.agree[2]
			if worst == stErr {
				return rs.err
			}
			if worst == stEOF {
				if status == stEOF && best != stEOF {
					return fmt.Errorf("intransit: rank %d's sources ended while peer ranks still deliver", rank)
				}
				return nil
			}
			if target == -rs.agree[3] {
				break
			}
			status, local = rs.advance(target)
		}

		stepStart := time.Now()
		var stepErr error
		for src, s := range rs.steps {
			if stepErr = da.Ingest(src, s); stepErr != nil {
				break
			}
		}
		if stepErr == nil {
			stepErr = da.Seal()
		}
		if comm.AllreduceI64Scalar(boolStatus(stepErr != nil), mpirt.OpMax) != stOK {
			return stepErr
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		var stopReq bool
		stopReq, stepErr = ca.Execute(da)
		execStatus := int64(stOK)
		switch {
		case stepErr != nil:
			execStatus = stErr
		case stopReq:
			execStatus = stStop
		}
		// The post-execute agreement doubles as the per-step barrier
		// whose waits the straggler tracker accounts.
		barrierStart := time.Now()
		agreed := comm.AllreduceI64Scalar(execStatus, mpirt.OpMax)
		straggler.Record(rank, time.Since(barrierStart))
		rs.stepWall += time.Since(stepStart)
		if agreed == stErr {
			return stepErr
		}
		if err := da.ReleaseData(); err != nil {
			return err
		}
		rs.processed++
		if agreed == stStop {
			// An analysis requested a stop: the agreement makes every
			// rank leave after the same completed step, keeping the
			// collectives matched, without draining the remaining stream
			// (the producer sees a dropped connection and unblocks
			// through its error path, or keeps publishing to its other
			// consumers).
			rs.stopped = true
			return nil
		}
		// This step's data is consumed: hand each decoded step back to
		// its source for decode-into-reuse.
		for i, s := range rs.steps {
			recycleStep(rs.sources[i], s)
			rs.steps[i] = nil
		}
	}
}
