package nekrs

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/checkpoint"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// ErrStop is the sentinel a step hook returns to request a clean early
// stop of the run — the path a SENSEI analysis' stop signal takes to
// reach the time loop (every rank's hook must return it on the same
// step, which holds for the deterministic SENSEI triggers). Run
// treats it as success: no further steps are taken and no error is
// reported.
var ErrStop = errors.New("nekrs: stop requested")

// Sim is one rank's assembled simulation: the case, its solver, and
// the rank-local instrumentation.
type Sim struct {
	Case   cases.Case
	Solver *fluid.Solver

	Acct    *metrics.Accountant
	Timer   *metrics.Timer
	Storage *metrics.StorageCounter

	// Checkpoint, when non-nil together with CheckpointEvery > 0,
	// enables NekRS-style built-in field dumps — the paper's in situ
	// "Checkpointing" configuration.
	Checkpoint      *checkpoint.FldWriter
	CheckpointEvery int
}

// StepHook observes each completed step; the SENSEI bridge's Update is
// attached here.
type StepHook func(stats fluid.StepStats) error

// NewSim builds the case's solver on this rank with fresh
// instrumentation. Collective over comm.
func NewSim(comm *mpirt.Comm, dev *occa.Device, c cases.Case) (*Sim, error) {
	acct := metrics.NewAccountant()
	timer := metrics.NewTimer()
	if dev == nil {
		dev = occa.NewDevice(occa.CUDA, acct)
	}
	s, err := c.NewSolver(comm, dev, acct, timer)
	if err != nil {
		return nil, fmt.Errorf("nekrs: %s setup: %w", c.Name, err)
	}
	return &Sim{
		Case: c, Solver: s,
		Acct: acct, Timer: timer, Storage: metrics.NewStorageCounter(),
	}, nil
}

// ApplyPar overrides case parameters from a parsed parameter file:
// [GENERAL] dt, [PRESSURE]/[VELOCITY]/[TEMPERATURE] residualTol.
// Called before NewSim.
func ApplyPar(c *cases.Case, p *Par) error {
	var err error
	if c.Dt, err = p.GetFloat("general", "dt", c.Dt); err != nil {
		return err
	}
	if c.PressureTol, err = p.GetFloat("pressure", "residualtol", c.PressureTol); err != nil {
		return err
	}
	if c.VelocityTol, err = p.GetFloat("velocity", "residualtol", c.VelocityTol); err != nil {
		return err
	}
	if c.ScalarTol, err = p.GetFloat("temperature", "residualtol", c.ScalarTol); err != nil {
		return err
	}
	if c.Nu, err = p.GetFloat("velocity", "viscosity", c.Nu); err != nil {
		return err
	}
	return nil
}

// CaseByName builds a named case at the given refinement and order,
// with RBC parameters from the parameter file's [CASEDATA] section
// when present: rayleigh, prandtl, gamma (the aspect ratio Lx = Ly)
// and gammax, which widens the box along x alone at the same element
// size (the in transit weak-scaling box) and defaults to gamma.
func CaseByName(name string, refine, order int, p *Par) (cases.Case, error) {
	switch name {
	case "pb146":
		return cases.PB146(refine, order), nil
	case "rbc":
		ra, pr, gamma := 1e5, 0.71, 2.0
		nx, nz := 4*refine, 3*refine
		gammaX := gamma
		if p != nil {
			var err error
			if ra, err = p.GetFloat("casedata", "rayleigh", ra); err != nil {
				return cases.Case{}, err
			}
			if pr, err = p.GetFloat("casedata", "prandtl", pr); err != nil {
				return cases.Case{}, err
			}
			if gamma, err = p.GetFloat("casedata", "gamma", gamma); err != nil {
				return cases.Case{}, err
			}
			if gammaX, err = p.GetFloat("casedata", "gammax", gamma); err != nil {
				return cases.Case{}, err
			}
		}
		c := cases.RBC(ra, pr, gamma, nx, nz, order)
		h := gamma / float64(nx) // the element size, kept along x
		ex := math.Round(gammaX / h)
		if !(ex >= 1 && math.Abs(gammaX-ex*h) <= 1e-9*gammaX) {
			return cases.Case{}, fmt.Errorf("nekrs: [casedata] gammax = %g is not a whole number of elements of size %g", gammaX, h)
		}
		c.Mesh.Nx, c.Mesh.Lx = int(ex), gammaX
		return c, nil
	case "tgv":
		return cases.TaylorGreen(0.1, 3*refine, order), nil
	case "cavity":
		return cases.LidCavity(400, 2*refine, order), nil
	}
	return cases.Case{}, fmt.Errorf("nekrs: unknown case %q", name)
}

// Run advances n steps, invoking the built-in checkpointer at its
// cadence and hook (if non-nil) after every step. Step indices are
// 1-based in hooks, matching NekRS's istep counter. A hook returning
// ErrStop ends the run cleanly after the current step (an analysis
// requested the simulation stop); any other error aborts.
func (s *Sim) Run(n int, hook StepHook) error {
	for i := 0; i < n; i++ {
		stats := s.Solver.Step()
		if s.Checkpoint != nil && s.CheckpointEvery > 0 && stats.Step%s.CheckpointEvery == 0 {
			if _, err := s.Checkpoint.Write(s.Solver, stats.Step); err != nil {
				return fmt.Errorf("nekrs: checkpoint at step %d: %w", stats.Step, err)
			}
		}
		if hook != nil {
			if err := hook(stats); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return fmt.Errorf("nekrs: step hook at %d: %w", stats.Step, err)
			}
		}
	}
	return nil
}

// Restart loads this rank's checkpoint (written by the built-in
// FldWriter) for the given step and resumes the solver from it, the
// way `nekrs --restart` resumes from a field file.
func (s *Sim) Restart(dir, prefix string, step int) error {
	if prefix == "" {
		prefix = "field"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.f%05d.r%04d", prefix, step, s.Solver.Comm().Rank()))
	fld, err := checkpoint.ReadFld(path)
	if err != nil {
		return fmt.Errorf("nekrs: restart: %w", err)
	}
	return s.Solver.LoadFields(fld.Fields, fld.Header.Time, int(fld.Header.Step))
}
