package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/occa"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/vtkdata"
)

// solverArrays are the five solver fields the mesh workloads record
// and the probes run on.
var solverArrays = []string{"velocity_x", "velocity_y", "velocity_z", "pressure", "temperature"}

// perturbAmplitude is the size of the seeded initial-condition
// perturbation: small enough to leave each case's physics alone,
// large enough that two seeds give different inputs.
const perturbAmplitude = 1e-3

// perturbCase wraps the case's initial conditions with smooth seeded
// modes (three per field, wavenumbers 1..3, seeded phases). Each mode
// vanishes on non-periodic walls, so Dirichlet data stay consistent.
// The program only ever sees the generated case.
func perturbCase(c cases.Case, seed int64) cases.Case {
	rng := rand.New(rand.NewSource(seed))
	L := [3]float64{c.Mesh.Lx, c.Mesh.Ly, c.Mesh.Lz}
	type mode struct {
		k     [3]float64
		phase [3]float64
	}
	field := func() func(x, y, z float64) float64 {
		modes := make([]mode, 3)
		for i := range modes {
			for d := 0; d < 3; d++ {
				modes[i].k[d] = float64(1 + rng.Intn(3))
				modes[i].phase[d] = 2 * math.Pi * rng.Float64()
			}
		}
		return func(x, y, z float64) float64 {
			p := [3]float64{x, y, z}
			var sum float64
			for _, m := range modes {
				v := 1.0
				for d := 0; d < 3; d++ {
					if c.Mesh.Periodic[d] {
						v *= math.Sin(2*math.Pi*m.k[d]*p[d]/L[d] + m.phase[d])
					} else {
						v *= math.Sin(math.Pi * m.k[d] * p[d] / L[d])
					}
				}
				sum += v
			}
			return perturbAmplitude * sum / float64(len(modes))
		}
	}
	du, dv, dw, dT := field(), field(), field(), field()
	baseVel, baseTemp := c.InitialVelocity, c.InitialTemperature
	c.InitialVelocity = func(x, y, z float64) (float64, float64, float64) {
		var u, v, w float64
		if baseVel != nil {
			u, v, w = baseVel(x, y, z)
		}
		return u + du(x, y, z), v + dv(x, y, z), w + dw(x, y, z)
	}
	if c.Temperature {
		c.InitialTemperature = func(x, y, z float64) float64 {
			var t float64
			if baseTemp != nil {
				t = baseTemp(x, y, z)
			}
			return t + dT(x, y, z)
		}
	}
	return c
}

// diagnostics are the four solver integrals the correctness check
// pins.
type diagnostics struct {
	KineticEnergy float64 `json:"kinetic_energy"`
	DivergenceL2  float64 `json:"divergence_l2"`
	MaxVelocity   float64 `json:"max_velocity"`
	ScalarFlux    float64 `json:"scalar_flux"`
}

// readDiagnostics reduces the four integrals. Collective.
func readDiagnostics(s *fluid.Solver) diagnostics {
	return diagnostics{
		KineticEnergy: s.KineticEnergy(), DivergenceL2: s.DivergenceL2(),
		MaxVelocity: s.MaxVelocity(), ScalarFlux: s.ScalarFlux(),
	}
}

func (d diagnostics) finite() bool {
	for _, v := range []float64{d.KineticEnergy, d.DivergenceL2, d.MaxVelocity, d.ScalarFlux} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// simRun drives the solver ranks of one pass under the closed-loop
// stop rule and keeps what they observed. Rank goroutines write only
// their own slots; everything is read after mpirt.Run returns.
type simRun struct {
	cfg     *runConfig
	ranks   int
	warm    int
	seconds float64

	entry, exit [][]time.Time // [rank][ordinal-1]: step-hook entry and return
	// calib is the reference kernel's time (ms) the rank sampled after
	// that ordinal's hook, 0 where none was taken (calibrate.go).
	calib      [][]float64
	stats      []fluid.StepStats
	timerStart map[string]metrics.PhaseStat // rank 0, at the start of the timed phase
	timerEnd   map[string]metrics.PhaseStat
	memStart   runtime.MemStats
	memEnd     runtime.MemStats
}

func newSimRun(cfg *runConfig, ranks, warm int, seconds float64) *simRun {
	return &simRun{
		cfg: cfg, ranks: ranks, warm: warm, seconds: seconds,
		entry: make([][]time.Time, ranks), exit: make([][]time.Time, ranks),
		calib: make([][]float64, ranks),
	}
}

// loop is one producer rank's time loop: advance (the solver step, or
// the replay cursor), hook, agree whether to stop. Warm-up ordinals
// 1..warm precede the timed phase, which lasts until rank 0 sees
// `seconds` of wall time pass (0 = set-up only). Every rank leaves
// after the same ordinal. Collective.
func (r *simRun) loop(comm *mpirt.Comm, timer *metrics.Timer, advance func() fluid.StepStats, hook func(fluid.StepStats) error) error {
	rank := comm.Rank()
	var timedStart, lastSample time.Time
	var hookErr error
	for ord := 1; ; ord++ {
		st := advance()
		enter := time.Now()
		r.entry[rank] = append(r.entry[rank], enter)
		if hook != nil && hookErr == nil {
			hookErr = hook(st)
		}
		r.exit[rank] = append(r.exit[rank], time.Now())

		// Rank 0 decides whether the run stops here and whether the
		// ranks sample the reference kernel; everyone agrees.
		flags := []int64{0, 0}
		if rank == 0 {
			r.stats = append(r.stats, st)
			if ord == r.warm {
				timedStart = enter
				r.timerStart = timer.Snapshot()
				r.memStart = readMem()
			}
			if ord >= r.warm && time.Since(timedStart).Seconds() >= r.seconds {
				flags[0] = 1
			}
			if enter.Sub(lastSample) >= calibEvery {
				flags[1], lastSample = 1, enter
			}
		}
		if hookErr != nil {
			flags[0] = 1
		}
		flags = comm.AllreduceI64(flags, mpirt.OpMax)
		var sample float64
		if flags[1] != 0 {
			sample = calibSample(rank)
		}
		r.calib[rank] = append(r.calib[rank], sample)
		if flags[0] != 0 {
			break
		}
	}
	if rank == 0 {
		r.timerEnd = timer.Snapshot()
		r.memEnd = readMem()
	}
	return hookErr
}

// newPass starts the record of a pass from what the producer ranks
// observed: their timestamps, and one attempted operation per step.
func (r *simRun) newPass() *pass {
	p := &pass{layer: map[string]float64{}}
	r.fill(p)
	p.attempted = p.warm + p.timed
	return p
}

// fill copies the producer-side timestamps into p. The result of an
// ordinal starts when the LAST rank enters the hook.
func (r *simRun) fill(p *pass) {
	n := len(r.entry[0])
	p.warm, p.timed = r.warm, n-r.warm
	p.stepStart = r.entry[0]
	p.resultStart = make([]time.Time, n)
	for i := 0; i < n; i++ {
		for rank := 0; rank < r.ranks; rank++ {
			if t := r.entry[rank][i]; t.After(p.resultStart[i]) {
				p.resultStart[i] = t
			}
		}
	}
	p.mem = memBetween(r.memStart, r.memEnd)

	// The reference kernel's time around each ordinal: the slowest
	// rank's sample, carried forward to ordinals without one (and back
	// to those before the first). The samples taken up to the last
	// warm-up ordinal are kept as taken, for setup_s.
	p.calib = make([]float64, n)
	var last float64
	for i := range p.calib {
		var s float64
		for rank := range r.calib {
			s = max(s, r.calib[rank][i])
		}
		if s > 0 {
			last = s
			if i < r.warm {
				p.warmCalib = append(p.warmCalib, s)
			}
		}
		p.calib[i] = last
	}
	for i := n - 2; i >= 0; i-- {
		if p.calib[i] == 0 {
			p.calib[i] = p.calib[i+1]
		}
	}
}

// timerMean is the mean duration (ms) of a named phase of rank 0's
// timer over the timed phase — for layers only their own timer sees,
// like the planner's pull on a mesh producer.
func (r *simRun) timerMean(name string) float64 {
	a, b := r.timerStart[name], r.timerEnd[name]
	if b.Count == a.Count {
		return 0
	}
	return ms(b.Total-a.Total) / float64(b.Count-a.Count)
}

// lastExit is when the slowest rank's hook for ordinal i+1 returned.
func (r *simRun) lastExit(i int) time.Time {
	var t time.Time
	for rank := 0; rank < r.ranks; rank++ {
		if e := r.exit[rank][i]; e.After(t) {
			t = e
		}
	}
	return t
}

// countWindow is how many timed steps the count-like layer metrics
// (iterations, bytes per trigger) average over. It is fixed so the
// counts repeat exactly between runs whose time-based step totals
// differ.
const countWindow = 16

// countD2H, called after every trigger, leaves in *out the bytes the
// device staged to the host over the count window's triggers.
func countD2H(step, warm int, dev *occa.Device, start, out *int64) {
	switch step {
	case warm:
		*start = dev.D2HBytes()
	case warm + countWindow:
		*out = dev.D2HBytes() - *start
	}
}

// fluidLayer derives the fluid.* and krylov.* metrics of rank 0 from
// the solver's own timer and step statistics.
func (r *simRun) fluidLayer(into map[string]float64) {
	timed := len(r.stats) - r.warm
	if timed <= 0 {
		return
	}
	var solve []float64
	for i := r.warm; i < len(r.stats); i++ {
		solve = append(solve, ms(r.entry[0][i].Sub(r.exit[0][i-1])))
	}
	into["fluid.solve_ms_p50"] = median(solve)
	// The timer window holds the steps after ordinal warm.
	phase := func(name string) float64 {
		return ms(r.timerEnd[name].Total-r.timerStart[name].Total) / float64(timed)
	}
	into["fluid.advection_ms_per_step"] = phase("advection")
	into["fluid.pressure_ms_per_step"] = phase("pressure")
	into["fluid.viscous_ms_per_step"] = phase("viscous")
	into["fluid.scalar_ms_per_step"] = phase("scalar")

	window := countWindow
	if window > timed {
		window = timed
	}
	var pIters, vIters, sIters, allP float64
	for i := r.warm; i < len(r.stats); i++ {
		st := r.stats[i]
		allP += float64(st.PressureIters)
		if i < r.warm+window {
			pIters += float64(st.PressureIters)
			vIters += float64(st.ViscousIters[0] + st.ViscousIters[1] + st.ViscousIters[2])
			sIters += float64(st.ScalarIters)
		}
	}
	into["fluid.pressure_iters_per_step"] = pIters / float64(window)
	into["fluid.viscous_iters_per_step"] = vIters / float64(window)
	into["fluid.scalar_iters_per_step"] = sIters / float64(window)
	if allP > 0 {
		into["krylov.pressure_ms_per_iter"] = phase("pressure") * float64(timed) / allP
	}
}

// solveSpans emits the producer-side spans of rank 0. The step span
// of ordinal k runs from its hook entry to the next hook entry — one
// step period — and is tiled by its children: the hook itself
// ("update", under SENSEI; the bare solver's hook is empty and gets no
// span) and the solve that follows, which starts with the ranks
// agreeing whether to go on and, about ten times a second, the ~2 ms
// reference-kernel sample.
func (r *simRun) solveSpans(p *pass, update bool) {
	for i := r.warm - 1; i+1 < len(r.entry[0]); i++ {
		ord := int64(i + 1)
		p.spans = append(p.spans,
			r.cfg.span("step", "", ord, 0, r.entry[0][i], r.entry[0][i+1]),
			r.cfg.span("solve", "step", ord, 0, r.exit[0][i], r.entry[0][i+1]))
		if update {
			p.spans = append(p.spans, r.cfg.span("update", "step", ord, 0, r.entry[0][i], r.exit[0][i]))
		}
	}
}

// stepFromGrid packs a pulled grid the way the staging analysis
// publishes it: the structure variables when asked, then one
// "array/<name>" variable per point array.
func stepFromGrid(g *vtkdata.UnstructuredGrid, arrays []string, ordinal int64, t float64, structure bool) (*adios.Step, error) {
	s := &adios.Step{Step: ordinal, Time: t, Attrs: map[string]string{"mesh": core.MeshName}}
	if structure {
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", g.Points, int64(g.NumPoints()), 3),
			adios.NewI64("connectivity", g.Connectivity),
			adios.NewI64("offsets", g.Offsets),
			adios.NewU8("types", g.CellTypes))
	}
	for _, name := range arrays {
		arr := g.FindPointData(name)
		if arr == nil {
			return nil, fmt.Errorf("array %q not attached", name)
		}
		s.Vars = append(s.Vars, adios.NewF64("array/"+name, arr.Data))
	}
	return s, nil
}

// captured is the probe dataset of one pass: per producer rank, two
// consecutive steps of the five solver arrays (the first carries the
// grid structure), plus what staging them device-to-host cost.
type captured struct {
	mu       sync.Mutex
	steps    [][]*adios.Step // [rank][0..1]
	d2hBytes int64
	d2hTime  time.Duration
}

func newCaptured(ranks int) *captured { return &captured{steps: make([][]*adios.Step, ranks)} }

// captureState pulls the solver's current fields through a fresh
// NekDataAdaptor — the same Mesh/AddArray path the bridge takes —
// and keeps them as one step of the probe dataset.
func (c *captured) captureState(sim *nekrs.Sim, rank int) error {
	da := core.NewNekDataAdaptor(sim.Solver, sim.Acct)
	da.SetStep(sim.Solver.StepCount(), sim.Solver.Time())
	dev := sim.Solver.Device()
	before := dev.D2HBytes()
	begin := time.Now()
	st, err := sensei.Pull(da, sensei.RequireArrays(core.MeshName, sensei.AssocPoint, solverArrays...), nil)
	took := time.Since(begin)
	if err != nil {
		return err
	}
	g, err := st.Mesh(core.MeshName)
	if err != nil {
		return err
	}
	s, err := stepFromGrid(g, solverArrays, int64(sim.Solver.StepCount()), sim.Solver.Time(), len(c.steps[rank]) == 0)
	if err != nil {
		return err
	}
	c.steps[rank] = append(c.steps[rank], s)
	c.mu.Lock()
	c.d2hBytes += dev.D2HBytes() - before
	c.d2hTime += took
	c.mu.Unlock()
	return nil
}

// captureAt, called from the step hook of a traced pass, captures the
// two ordinals that close the count window — fixed ordinals, so the
// probes see the same data on every run of a seed. A nil receiver (an
// untraced pass) does nothing.
func (c *captured) captureAt(step, warm int, sim *nekrs.Sim, rank int) error {
	if c == nil || (step != warm+countWindow && step != warm+countWindow+1) {
		return nil
	}
	return c.captureState(sim, rank)
}

// captureLate is the fallback for a pass too short to reach those
// ordinals: the state it ended in and the one a step later.
// Collective (the extra step is).
func (c *captured) captureLate(sim *nekrs.Sim, rank int) error {
	if c == nil || len(c.steps[rank]) == 2 {
		return nil
	}
	c.steps[rank] = nil
	if err := c.captureState(sim, rank); err != nil {
		return err
	}
	sim.Solver.Step()
	return c.captureState(sim, rank)
}
