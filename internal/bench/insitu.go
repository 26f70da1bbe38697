// Package bench is the paper's evaluation at laptop scale: the in situ
// pb146 study (Figures 2 and 3 plus the storage-economy comparison) and
// the in transit RBC weak-scaling study (Figures 5 and 6), each with
// its tables and its shape as a check. Rank counts are scaled down but
// keep the paper's ratios (1:2:4 for the strong-scaling sweep,
// sim:endpoint = 4:1 for in transit). How fast each layer runs is the
// end-to-end benchmark's to say (benchmark/README.md), not this
// package's.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/checkpoint"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"

	_ "nekrs-sensei/internal/catalyst" // register "catalyst" analysis
)

// InSituMode selects the pb146 configuration of Section 4.1.
type InSituMode int

// The paper's three in situ configurations.
const (
	// Original: NekRS without the SENSEI interface (baseline).
	Original InSituMode = iota
	// Checkpointing: built-in raw field dumps every n steps.
	Checkpointing
	// Catalyst: SENSEI + Catalyst rendering every n steps (GPU->CPU
	// staging included).
	Catalyst
)

func (m InSituMode) String() string {
	return [...]string{"Original", "Checkpointing", "Catalyst"}[m]
}

// InSituConfig parameterizes one pb146 run.
type InSituConfig struct {
	Ranks    int
	Steps    int // paper: 3000
	Interval int // paper: 100
	Refine   int // mesh scale (refine=1 -> 4x4x8 elements)
	Order    int // polynomial order
	ImagePx  int // Catalyst image resolution

	// OutputDir receives checkpoints and images; required for the
	// Checkpointing and Catalyst modes.
	OutputDir string
}

func (c *InSituConfig) withDefaults() InSituConfig {
	out := *c
	if out.Ranks == 0 {
		out.Ranks = 4
	}
	if out.Steps == 0 {
		out.Steps = 30
	}
	if out.Interval == 0 {
		out.Interval = 10
	}
	if out.Refine == 0 {
		out.Refine = 1
	}
	if out.Order == 0 {
		out.Order = 4
	}
	if out.ImagePx == 0 {
		out.ImagePx = 128
	}
	return out
}

// InSituResult is one row of the Figure 2/3 data.
type InSituResult struct {
	Mode  InSituMode
	Ranks int

	// WallTime is the time-to-solution: the slowest rank's sim.Run,
	// set-up excluded.
	WallTime time.Duration
	// AggMemPeak is the aggregate memory high-water mark across all
	// ranks (the paper's Figure 3 metric); MaxRankMemPeak is the
	// per-rank maximum.
	AggMemPeak     int64
	MaxRankMemPeak int64

	BytesWritten int64
	FilesWritten int
}

// catalystScript is the pb146 rendering pipeline: the two images the
// Catalyst configuration produces per trigger (a velocity slice down
// the bed and a temperature isosurface).
func catalystScript(px int) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="pb146_slice_%%06d.png" colormap="viridis"
         camera="0,-1,0.3" field="velocity_z">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
  <image width="%d" height="%d" output="pb146_temp_%%06d.png" colormap="coolwarm"
         camera="1,1,0.5" field="temperature">
    <contour field="temperature" iso="0.05"/>
  </image>
</catalyst>`, px, px, px, px)
}

// RunInSitu executes one pb146 configuration and reports the paper's
// metrics for it.
func RunInSitu(mode InSituMode, cfg InSituConfig) (InSituResult, error) {
	c := cfg.withDefaults()
	if mode != Original && c.OutputDir == "" {
		return InSituResult{}, fmt.Errorf("bench: %s mode needs OutputDir", mode)
	}

	var scriptPath string
	if mode == Catalyst {
		if err := os.MkdirAll(c.OutputDir, 0o755); err != nil {
			return InSituResult{}, err
		}
		scriptPath = filepath.Join(c.OutputDir, "analysis.xml")
		if err := os.WriteFile(scriptPath, []byte(catalystScript(c.ImagePx)), 0o644); err != nil {
			return InSituResult{}, err
		}
	}

	perRank := make([]InSituResult, c.Ranks) // one rank's share each; AggMemPeak holds that rank's peak
	errs := make([]error, c.Ranks)

	pb := cases.PB146(c.Refine, c.Order)
	mpirt.Run(c.Ranks, func(comm *mpirt.Comm) {
		rank := comm.Rank()
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			errs[rank] = err
			return
		}
		var hook nekrs.StepHook
		finalize := func() error { return nil }
		switch mode {
		case Original:
			// No SENSEI interface at all.
		case Checkpointing:
			sim.Checkpoint = &checkpoint.FldWriter{
				Dir: c.OutputDir, Prefix: "pb146",
				Acct: sim.Acct, Storage: sim.Storage,
			}
			sim.CheckpointEvery = c.Interval
		case Catalyst:
			ctx := &sensei.Context{
				Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
				Storage: sim.Storage, OutputDir: c.OutputDir,
			}
			senseiXML := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="%d"/>
</sensei>`, scriptPath, c.Interval)
			bridge, err := core.Initialize(ctx, sim.Solver, []byte(senseiXML))
			if err != nil {
				errs[rank] = err
				return
			}
			hook = func(st fluid.StepStats) error {
				_, err := bridge.Update(st.Step, st.Time)
				return err
			}
			finalize = bridge.Finalize
		}
		start := time.Now()
		err = sim.Run(c.Steps, hook)
		perRank[rank] = InSituResult{
			WallTime: time.Since(start), AggMemPeak: sim.Acct.Peak(),
			BytesWritten: sim.Storage.Bytes(), FilesWritten: sim.Storage.Files(),
		}
		// Finalized on every path, outside the measured window; a run
		// that only fails here has still failed.
		if ferr := finalize(); err == nil {
			err = ferr
		}
		errs[rank] = err
	})
	for _, err := range errs {
		if err != nil {
			return InSituResult{}, err
		}
	}
	res := InSituResult{Mode: mode, Ranks: c.Ranks}
	for _, r := range perRank {
		res.WallTime = max(res.WallTime, r.WallTime)
		res.MaxRankMemPeak = max(res.MaxRankMemPeak, r.AggMemPeak)
		res.AggMemPeak += r.AggMemPeak
		res.BytesWritten += r.BytesWritten
		res.FilesWritten += r.FilesWritten
	}
	return res, nil
}
