package nekrs

import (
	"math"
	"path/filepath"
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/checkpoint"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
)

const samplePar = `
# pb146 parameter file
[GENERAL]
dt = 1e-3
numSteps = 3000
writeInterval = 100

[PRESSURE]
residualTol = 1e-5

[VELOCITY]
residualTol = 1e-7
viscosity = 0.005

[TEMPERATURE]
residualTol = 1e-7

[CASEDATA]
rayleigh = 2e5
prandtl = 0.9
gamma = 4
enabled = yes
`

func TestParsePar(t *testing.T) {
	p, err := ParsePar(samplePar)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.GetString("general", "numsteps", ""); got != "3000" {
		t.Errorf("numSteps = %q", got)
	}
	// Case-insensitive section and key lookups.
	if got := p.GetString("GENERAL", "NumSteps", ""); got != "3000" {
		t.Errorf("case-insensitive lookup failed: %q", got)
	}
	f, err := p.GetFloat("pressure", "residualtol", 0)
	if err != nil || f != 1e-5 {
		t.Errorf("residualTol = %v, %v", f, err)
	}
	i, err := p.GetInt("general", "numsteps", 0)
	if err != nil || i != 3000 {
		t.Errorf("numSteps int = %v, %v", i, err)
	}
	bv, err := p.GetBool("casedata", "enabled", false)
	if err != nil || !bv {
		t.Errorf("enabled = %v, %v", bv, err)
	}
	// Defaults for missing keys.
	if got := p.GetString("general", "missing", "fallback"); got != "fallback" {
		t.Errorf("default = %q", got)
	}
	f, err = p.GetFloat("nosection", "nokey", 2.5)
	if err != nil || f != 2.5 {
		t.Errorf("missing section default = %v, %v", f, err)
	}
	secs := p.Sections()
	if len(secs) != 5 {
		t.Errorf("sections = %v", secs)
	}
}

func TestParseParErrors(t *testing.T) {
	if _, err := ParsePar("[unclosed\nkey = 1"); err == nil {
		t.Error("expected malformed-section error")
	}
	if _, err := ParsePar("keywithoutvalue"); err == nil {
		t.Error("expected key=value error")
	}
	if _, err := ParsePar("= value"); err == nil {
		t.Error("expected empty-key error")
	}
	p, _ := ParsePar("[a]\nx = notafloat")
	if _, err := p.GetFloat("a", "x", 0); err == nil {
		t.Error("expected float error")
	}
	if _, err := p.GetInt("a", "x", 0); err == nil {
		t.Error("expected int error")
	}
	if _, err := p.GetBool("a", "x", false); err == nil {
		t.Error("expected bool error")
	}
}

func TestApplyPar(t *testing.T) {
	p, err := ParsePar(samplePar)
	if err != nil {
		t.Fatal(err)
	}
	c := cases.PB146(1, 3)
	if err := ApplyPar(&c, p); err != nil {
		t.Fatal(err)
	}
	if c.Dt != 1e-3 {
		t.Errorf("dt = %v", c.Dt)
	}
	if c.PressureTol != 1e-5 || c.VelocityTol != 1e-7 || c.ScalarTol != 1e-7 {
		t.Errorf("tols = %v %v %v", c.PressureTol, c.VelocityTol, c.ScalarTol)
	}
	if c.Nu != 0.005 {
		t.Errorf("nu = %v", c.Nu)
	}
}

func TestCaseByName(t *testing.T) {
	for _, name := range []string{"pb146", "rbc", "tgv", "cavity"} {
		c, err := CaseByName(name, 1, 3, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.Name != name {
			t.Errorf("name = %q, want %q", c.Name, name)
		}
	}
	if _, err := CaseByName("unknown", 1, 3, nil); err == nil {
		t.Error("expected unknown-case error")
	}
}

func TestCaseByNameRBCFromPar(t *testing.T) {
	p, err := ParsePar(samplePar)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CaseByName("rbc", 1, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	// Ra=2e5, Pr=0.9 from [CASEDATA].
	if ra := 1 / (c.Nu * c.Kappa); math.Abs(ra-2e5) > 1 {
		t.Errorf("Ra = %v", ra)
	}
	if pr := c.Nu / c.Kappa; math.Abs(pr-0.9) > 1e-12 {
		t.Errorf("Pr = %v", pr)
	}
	if c.Mesh.Lx != 4 || c.Mesh.Ly != 4 || c.Mesh.Nx != 4 {
		t.Errorf("gamma = %v: box %v x %v, %d elements along x", 4, c.Mesh.Lx, c.Mesh.Ly, c.Mesh.Nx)
	}
	// gammax widens x alone at the same element size (1 here); a width
	// that is not a whole number of elements is refused.
	for _, tc := range []struct {
		gammaX string
		nx     int // 0 = refused
	}{{"12", 12}, {"1", 1}, {"4.5", 0}, {"0", 0}, {"inf", 0}} {
		p, err := ParsePar(samplePar + "gammax = " + tc.gammaX + "\n")
		if err != nil {
			t.Fatal(err)
		}
		c, err := CaseByName("rbc", 1, 3, p)
		switch {
		case tc.nx == 0 && err == nil:
			t.Errorf("gammax = %s accepted: %d elements", tc.gammaX, c.Mesh.Nx)
		case tc.nx != 0 && err != nil:
			t.Errorf("gammax = %s: %v", tc.gammaX, err)
		case tc.nx != 0 && (c.Mesh.Nx != tc.nx || c.Mesh.Lx != float64(tc.nx) || c.Mesh.Ly != 4 || c.Mesh.Ny != 4):
			t.Errorf("gammax = %s: box %v x %v with %d x %d elements", tc.gammaX, c.Mesh.Lx, c.Mesh.Ly, c.Mesh.Nx, c.Mesh.Ny)
		}
	}
}

func TestSimRunWithHookAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	comm := mpirt.NewWorld(1).Comm(0)
	sim, err := NewSim(comm, nil, cases.TaylorGreen(0.1, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	sim.Checkpoint = &checkpoint.FldWriter{Dir: dir, Prefix: "tgv", Acct: sim.Acct, Storage: sim.Storage}
	sim.CheckpointEvery = 2
	var seen []int
	err = sim.Run(5, func(st fluid.StepStats) error {
		seen = append(seen, st.Step)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 || seen[0] != 1 || seen[4] != 5 {
		t.Errorf("hook steps = %v", seen)
	}
	// Checkpoints at steps 2 and 4.
	matches, _ := filepath.Glob(filepath.Join(dir, "tgv.f*"))
	if len(matches) != 2 {
		t.Errorf("checkpoints = %v", matches)
	}
	if sim.Storage.Files() != 2 {
		t.Errorf("storage files = %d", sim.Storage.Files())
	}
	if sim.Acct.Peak() == 0 {
		t.Error("no memory accounted")
	}
	if sim.Timer.Total("step") == 0 {
		t.Error("no step time recorded")
	}
}

func TestSimHookErrorPropagates(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	sim, err := NewSim(comm, nil, cases.TaylorGreen(0.1, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantErr := func(st fluid.StepStats) error {
		if st.Step == 2 {
			return errSentinel
		}
		return nil
	}
	if err := sim.Run(5, wantErr); err == nil {
		t.Error("hook error not propagated")
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestNewSimBadCase(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	bad := cases.TaylorGreen(0.1, 3, 2)
	bad.Dt = -1
	if _, err := NewSim(comm, nil, bad); err == nil {
		t.Error("expected setup error")
	}
}

func TestSimInstrumentationIndependentAcrossRanks(t *testing.T) {
	const ranks = 2
	peaks := make([]int64, ranks)
	mpirt.Run(ranks, func(comm *mpirt.Comm) {
		sim, err := NewSim(comm, nil, cases.TaylorGreen(0.1, 3, 2))
		if err != nil {
			t.Error(err)
			return
		}
		if err := sim.Run(2, nil); err != nil {
			t.Error(err)
			return
		}
		peaks[comm.Rank()] = sim.Acct.Peak()
	})
	if peaks[0] == 0 || peaks[1] == 0 {
		t.Errorf("peaks = %v", peaks)
	}
	_ = metrics.HumanBytes(peaks[0]) // formatting smoke test
}
