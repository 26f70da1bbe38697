package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"

	_ "nekrs-sensei/internal/staging" // register "adios" analysis (the direct SST stream)
)

// InTransitMode selects the RBC measurement point of Section 4.2.
type InTransitMode int

// The paper's three in transit measurement points.
const (
	// NoTransport: SENSEI runs with no analysis adaptor enabled.
	NoTransport InTransitMode = iota
	// EndpointCheckpoint: the SENSEI endpoint writes pressure and
	// velocity as VTU files.
	EndpointCheckpoint
	// EndpointCatalyst: the endpoint renders two images per trigger.
	EndpointCatalyst
)

func (m InTransitMode) String() string {
	return [...]string{"NoTransport", "Checkpointing", "Catalyst"}[m]
}

// InTransitConfig parameterizes one weak-scaling RBC run. The
// simulation-to-endpoint rank ratio is the paper's 4:1. Weak scaling
// widens the convection cell: the box and its element count grow along
// x proportionally to SimRanks, keeping both the load per rank and the
// mesh resolution (hence solver conditioning) constant — the mesoscale
// wide-aspect-ratio setup the paper cites.
type InTransitConfig struct {
	SimRanks int
	// ElemsPerRankZ sets the wall-normal element count (fixed across
	// the sweep); per-rank load is ElemsPerRankX x NxNy x ElemsPerRankZ
	// elements.
	ElemsPerRankZ int
	// ElemsPerRankX elements along x per sim rank (default 4).
	ElemsPerRankX int
	NxNy          int // transverse (y) element count
	Order         int
	Steps         int
	Interval      int
	QueueLimit    int // SST staging depth
	ImagePx       int
	Ra, Pr        float64

	// EndpointDelay adds artificial per-step processing time at the
	// endpoint, modelling a slow consumer (e.g. a parallel filesystem
	// absorbing large VTU checkpoints). Used by the Figure 6 mechanism
	// demo: a slow endpoint backs up the SST queue and raises
	// simulation-side memory.
	EndpointDelay time.Duration

	OutputDir string
}

func (c *InTransitConfig) withDefaults() InTransitConfig {
	out := *c
	if out.SimRanks == 0 {
		out.SimRanks = 4
	}
	if out.ElemsPerRankZ == 0 {
		out.ElemsPerRankZ = 3
	}
	if out.ElemsPerRankX == 0 {
		out.ElemsPerRankX = 4
	}
	if out.NxNy == 0 {
		out.NxNy = 4
	}
	if out.Order == 0 {
		out.Order = 4
	}
	if out.Steps == 0 {
		out.Steps = 20
	}
	if out.Interval == 0 {
		out.Interval = 5
	}
	if out.QueueLimit == 0 {
		out.QueueLimit = 2
	}
	if out.ImagePx == 0 {
		out.ImagePx = 128
	}
	if out.Ra == 0 {
		out.Ra = 1e5
	}
	if out.Pr == 0 {
		out.Pr = 0.71
	}
	return out
}

// InTransitResult is one row of the Figure 5/6 data.
type InTransitResult struct {
	Mode     InTransitMode
	SimRanks int

	// MeanStepTime is the paper's Figure 5 metric: mean wall time per
	// timestep on the simulation ranks (max over ranks).
	MeanStepTime time.Duration
	// MemPerNode is the Figure 6 metric: simulation-rank memory
	// high-water mark (max over ranks), including the SST staging
	// queue.
	MemPerNode int64

	// Triggers is how many steps trigger the analysis; EndpointSteps is
	// what the endpoint group processed (every rank the same steps),
	// EndpointBytes what its ranks wrote in total.
	Triggers      int
	EndpointSteps int
	EndpointBytes int64
}

// rbcEndpointScript renders the paper's two RBC images: a side-view
// temperature slice (Figure 4) and a vertical-velocity isosurface.
func rbcEndpointScript(px int, gamma float64) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="rbc_side_%%06d.png" colormap="coolwarm"
         camera="0,-1,0.12" field="temperature">
    <slice normal="0,1,0" offset="%g"/>
  </image>
  <image width="%d" height="%d" output="rbc_w_%%06d.png" colormap="viridis"
         camera="1,1,1" field="velocity_z">
    <contour field="temperature" iso="0.5"/>
  </image>
</catalyst>`, px, px, gamma/2, px, px)
}

// RunInTransit executes one weak-scaling RBC configuration: SimRanks
// simulation ranks stream through SST to SimRanks/4 endpoint ranks
// running the configured analysis.
func RunInTransit(mode InTransitMode, cfg InTransitConfig) (InTransitResult, error) {
	c := cfg.withDefaults()
	if c.OutputDir == "" {
		return InTransitResult{}, fmt.Errorf("bench: in transit runs need OutputDir")
	}
	if err := os.MkdirAll(c.OutputDir, 0o755); err != nil {
		return InTransitResult{}, err
	}
	epRanks := c.SimRanks / 4
	if epRanks < 1 {
		epRanks = 1
	}

	// Wide-box weak scaling: x grows with the rank count at fixed
	// element size h=0.5, y and z stay fixed.
	nx := c.ElemsPerRankX * c.SimRanks
	gammaX := 0.5 * float64(nx)
	gammaY := 0.5 * float64(c.NxNy)
	rbc := cases.RBC(c.Ra, c.Pr, gammaY, c.NxNy, c.ElemsPerRankZ, c.Order)
	rbc.Mesh.Nx = nx
	rbc.Mesh.Lx = gammaX
	gamma := gammaY

	stepTimes := make([]time.Duration, c.SimRanks)
	memPeaks := make([]int64, c.SimRanks)
	simErrs := make([]error, c.SimRanks)

	// Endpoint group (its own world), except for NoTransport where no
	// data leaves the simulation.
	var epStats intransit.GroupStats
	var epErr error
	var wg sync.WaitGroup
	contact := filepath.Join(c.OutputDir, "contact.txt")
	os.Remove(contact) //nolint:errcheck // stale rendezvous from a prior run

	if mode != NoTransport {
		var endpointXML string
		switch mode {
		case EndpointCheckpoint:
			// The paper's endpoint writes the pressure and velocity
			// fields as VTU files.
			endpointXML = `<sensei>
  <analysis type="checkpoint" mesh="mesh" arrays="pressure,velocity_x,velocity_y,velocity_z" prefix="rbc" frequency="1"/>
</sensei>`
		case EndpointCatalyst:
			scriptPath := filepath.Join(c.OutputDir, "endpoint_analysis.xml")
			if err := os.WriteFile(scriptPath, []byte(rbcEndpointScript(c.ImagePx, gamma)), 0o644); err != nil {
				return InTransitResult{}, err
			}
			endpointXML = fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/>
</sensei>`, scriptPath)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			addrs, err := adios.Contact{Name: contact}.Read(30 * time.Second)
			if err != nil {
				epErr = err
				return
			}
			// Each endpoint rank reads its share of the writers' streams.
			group, err := intransit.NewGroup(intransit.GroupConfig{
				Ranks: epRanks, ConfigXML: []byte(endpointXML), OutputDir: c.OutputDir,
				StepDelay: c.EndpointDelay,
				Sources:   intransit.ShardSources(addrs, func(_, _ int) adios.ReaderOptions { return adios.ReaderOptions{} }),
			})
			if err == nil {
				epStats, err = group.Run()
			}
			epErr = err
		}()
	}

	// Simulation group.
	mpirt.Run(c.SimRanks, func(comm *mpirt.Comm) {
		rank := comm.Rank()
		sim, err := nekrs.NewSim(comm, nil, rbc)
		if err != nil {
			simErrs[rank] = err
			return
		}
		ctx := &sensei.Context{
			Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
			Storage: sim.Storage, OutputDir: c.OutputDir,
		}
		var senseiXML string
		if mode == NoTransport {
			// SENSEI active, no analysis adaptor enabled (the paper's
			// reference measurement).
			senseiXML = `<sensei></sensei>`
		} else {
			senseiXML = fmt.Sprintf(`<sensei>
  <analysis type="adios" frequency="%d" contact="%s" queue="%d" arrays=""/>
</sensei>`, c.Interval, contact, c.QueueLimit)
		}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(senseiXML))
		if err != nil {
			simErrs[rank] = err
			return
		}
		start := time.Now()
		err = sim.Run(c.Steps, func(st fluid.StepStats) error {
			_, err := bridge.Update(st.Step, st.Time)
			return err
		})
		stepTimes[rank] = time.Since(start) / time.Duration(c.Steps)
		if err != nil {
			simErrs[rank] = err
			return
		}
		if err := bridge.Finalize(); err != nil {
			simErrs[rank] = err
			return
		}
		memPeaks[rank] = sim.Acct.Peak()
	})
	wg.Wait()

	for _, err := range simErrs {
		if err != nil {
			return InTransitResult{}, fmt.Errorf("bench: simulation: %w", err)
		}
	}
	if epErr != nil {
		return InTransitResult{}, fmt.Errorf("bench: endpoint: %w", epErr)
	}
	res := InTransitResult{Mode: mode, SimRanks: c.SimRanks, Triggers: c.Steps / c.Interval}
	for r := 0; r < c.SimRanks; r++ {
		res.MeanStepTime = max(res.MeanStepTime, stepTimes[r])
		res.MemPerNode = max(res.MemPerNode, memPeaks[r])
	}
	res.EndpointSteps, res.EndpointBytes = epStats.Steps, epStats.Bytes
	return res, nil
}
