package bench

import (
	"fmt"
	"time"

	"nekrs-sensei/internal/metrics"
)

// RunFig2And3 executes the Figure 2/3 matrix: every in situ mode at
// every rank count (one shared set of runs feeds both figures, as in
// the paper).
func RunFig2And3(rankCounts []int, base InSituConfig) ([]InSituResult, error) {
	var out []InSituResult
	for _, ranks := range rankCounts {
		for _, mode := range []InSituMode{Original, Checkpointing, Catalyst} {
			cfg := base
			cfg.Ranks = ranks
			res, err := RunInSitu(mode, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at %d ranks: %w", mode, ranks, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// Fig2Table formats the time-to-solution comparison (paper Figure 2).
// The "vs Original" column makes the paper's configuration ordering
// explicit independent of the host's core count: the simulated ranks
// share physical cores, so absolute wall-clock does not show hardware
// strong scaling — the per-rank-count overhead ratios are the
// reproduced shape.
func Fig2Table(results []InSituResult) *metrics.Table {
	base := map[int]float64{}
	for _, r := range results {
		if r.Mode == Original {
			base[r.Ranks] = r.WallTime.Seconds()
		}
	}
	t := metrics.NewTable(
		"Figure 2: pb146 time-to-solution (in situ, scaled ranks)",
		"ranks", "config", "wall time [s]", "vs Original")
	for _, r := range results {
		rel := "—"
		if b := base[r.Ranks]; b > 0 {
			rel = fmt.Sprintf("%.3fx", r.WallTime.Seconds()/b)
		}
		t.AddRow(r.Ranks, r.Mode.String(), r.WallTime.Seconds(), rel)
	}
	return t
}

// Fig3Table formats the aggregate memory comparison (paper Figure 3;
// the paper plots Catalyst and Checkpointing).
func Fig3Table(results []InSituResult) *metrics.Table {
	t := metrics.NewTable(
		"Figure 3: pb146 aggregate memory high-water mark (in situ)",
		"ranks", "config", "aggregate peak", "per-rank peak")
	for _, r := range results {
		if r.Mode == Original {
			continue
		}
		t.AddRow(r.Ranks, r.Mode.String(),
			metrics.HumanBytes(r.AggMemPeak), metrics.HumanBytes(r.MaxRankMemPeak))
	}
	return t
}

// StorageTable formats the Section 4.1 storage-economy comparison
// (6.5 MB of images vs 19 GB of checkpoints in the paper).
func StorageTable(results []InSituResult) *metrics.Table {
	t := metrics.NewTable(
		"Section 4.1: storage footprint per run (Catalyst vs Checkpointing)",
		"ranks", "config", "bytes written", "files")
	for _, r := range results {
		if r.Mode == Original {
			continue
		}
		t.AddRow(r.Ranks, r.Mode.String(), metrics.HumanBytes(r.BytesWritten), r.FilesWritten)
	}
	return t
}

// StorageRatio returns Checkpointing bytes / Catalyst bytes at the
// largest common rank count, the paper's "three orders of magnitude"
// claim.
func StorageRatio(results []InSituResult) float64 {
	var ck, cat int64
	for _, r := range results {
		switch r.Mode {
		case Checkpointing:
			ck = r.BytesWritten
		case Catalyst:
			cat = r.BytesWritten
		}
	}
	if cat == 0 {
		return 0
	}
	return float64(ck) / float64(cat)
}

// RunFig5And6 executes the Figure 5/6 weak-scaling matrix: every
// in transit measurement point at every simulation rank count.
func RunFig5And6(rankCounts []int, base InTransitConfig) ([]InTransitResult, error) {
	var out []InTransitResult
	for _, ranks := range rankCounts {
		for _, mode := range []InTransitMode{NoTransport, EndpointCheckpoint, EndpointCatalyst} {
			cfg := base
			cfg.SimRanks = ranks
			res, err := RunInTransit(mode, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at %d sim ranks: %w", mode, ranks, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// Fig5Table formats the mean time per timestep on simulation ranks
// under weak scaling (paper Figure 5). The "vs NoTransport" column is
// the paper's finding — Catalyst and Checkpointing stay close to the
// reference — which is core-count independent; absolute step times
// grow once simulated ranks oversubscribe physical cores.
func Fig5Table(results []InTransitResult) *metrics.Table {
	base := map[int]float64{}
	for _, r := range results {
		if r.Mode == NoTransport {
			base[r.SimRanks] = float64(r.MeanStepTime.Microseconds())
		}
	}
	t := metrics.NewTable(
		"Figure 5: RBC mean time per timestep on simulation ranks (in transit, weak scaling)",
		"sim ranks", "measurement", "mean step time [ms]", "vs NoTransport")
	for _, r := range results {
		us := float64(r.MeanStepTime.Microseconds())
		rel := "—"
		if b := base[r.SimRanks]; b > 0 {
			rel = fmt.Sprintf("%.3fx", us/b)
		}
		t.AddRow(r.SimRanks, r.Mode.String(), us/1000, rel)
	}
	return t
}

// Fig6Table formats the simulation-rank memory footprint (paper
// Figure 6).
func Fig6Table(results []InTransitResult) *metrics.Table {
	t := metrics.NewTable(
		"Figure 6: RBC memory footprint per simulation rank (in transit, weak scaling)",
		"sim ranks", "measurement", "per-rank peak")
	for _, r := range results {
		t.AddRow(r.SimRanks, r.Mode.String(), metrics.HumanBytes(r.MemPerNode))
	}
	return t
}

// QueueGrowthDemo demonstrates the Figure 6 mechanism in isolation: a
// slow endpoint (delay per step) backs up the producer-side SST
// staging queue, raising simulation-rank memory, while a fast endpoint
// leaves it near the NoTransport baseline. Returns (fast, slow)
// results for one checkpointing configuration.
func QueueGrowthDemo(cfg InTransitConfig, delay time.Duration) (fast, slow InTransitResult, err error) {
	fastCfg := cfg
	fastCfg.EndpointDelay = 0
	// Make the producer's trigger period exceed the fast endpoint's
	// processing time (heavier solver steps — order 6 since the
	// solver's hot path got ~3x faster; order 4 left the fast run so
	// short that one scheduling stall of the endpoint could back its
	// queue up like the slow one's — trigger every other step), and
	// keep the staging queue deeper than the trigger count,
	// so occupancy reflects consumption lag rather than the cap: the
	// fast endpoint keeps one or two frames staged, the slow one
	// accumulates nearly every trigger.
	fastCfg.Interval = 2
	if fastCfg.Order < 6 {
		fastCfg.Order = 6
	}
	if fastCfg.Steps == 0 {
		fastCfg.Steps = 12
	}
	triggers := fastCfg.Steps / fastCfg.Interval
	if fastCfg.QueueLimit < triggers+2 {
		fastCfg.QueueLimit = triggers + 2
	}
	fast, err = RunInTransit(EndpointCheckpoint, fastCfg)
	if err != nil {
		return fast, slow, err
	}
	slowCfg := fastCfg
	slowCfg.EndpointDelay = delay
	slow, err = RunInTransit(EndpointCheckpoint, slowCfg)
	return fast, slow, err
}

// QueueGrowthTable formats the mechanism demo.
func QueueGrowthTable(fast, slow InTransitResult, delay time.Duration) *metrics.Table {
	t := metrics.NewTable(
		"Figure 6 mechanism: sim-rank memory vs endpoint speed (SST queue back-pressure)",
		"endpoint", "per-rank mem peak")
	t.AddRow("fast (no delay)", metrics.HumanBytes(fast.MemPerNode))
	t.AddRow(fmt.Sprintf("slow (+%v/step)", delay), metrics.HumanBytes(slow.MemPerNode))
	return t
}
