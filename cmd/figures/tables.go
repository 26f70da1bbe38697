package main

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"nekrs-sensei/internal/metrics"
)

// InSituMode selects the pb146 configuration of Section 4.1.
type InSituMode string

// The paper's three in situ configurations.
const (
	// Original: nekrs without the SENSEI interface (baseline).
	Original InSituMode = "Original"
	// Checkpointing: built-in raw field dumps every n steps.
	Checkpointing InSituMode = "Checkpointing"
	// Catalyst: SENSEI + Catalyst rendering every n steps (GPU->CPU
	// staging included).
	Catalyst InSituMode = "Catalyst"
)

// InSituResult is one row of the Figure 2/3 data.
type InSituResult struct {
	Mode  InSituMode
	Ranks int

	// WallTime is the time-to-solution: the slowest rank's stepping
	// loop, set-up excluded.
	WallTime time.Duration
	// AggMemPeak is the aggregate memory high-water mark across all
	// ranks (the paper's Figure 3 metric); MaxRankMemPeak is the
	// per-rank maximum.
	AggMemPeak     int64
	MaxRankMemPeak int64

	BytesWritten int64
	FilesWritten int
}

// InTransitMode selects the RBC measurement point of Section 4.2.
type InTransitMode string

// The paper's three in transit measurement points.
const (
	// NoTransport: SENSEI runs with no analysis adaptor enabled.
	NoTransport InTransitMode = "NoTransport"
	// EndpointCheckpoint: the SENSEI endpoint writes pressure and
	// velocity as VTU files.
	EndpointCheckpoint InTransitMode = "Checkpointing"
	// EndpointCatalyst: the endpoint renders two images per trigger.
	EndpointCatalyst InTransitMode = "Catalyst"
)

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

// rounds is how often the matrix runners measure each mode. The
// machine's speed wanders by tens of percent between runs that differ
// by a few, so one run per mode orders nothing.
const rounds = 3

// interleaved measures the three modes of one rank count in interleaved
// rounds (a, b, c, a, b, c, ...), where a drift of the machine lands on
// all of them alike, and returns one result per mode, its wall (the
// field wall points at) the median over the rounds; memory and bytes do
// not depend on the clock and are the last round's. One run is
// discarded first: the first run after the machine idled is up to 2.8x
// slower than the same run repeated, and it would be the baseline's.
func interleaved[M ~string, R any](modes [3]M, run func(M) (R, error), wall func(*R) *time.Duration) ([]R, error) {
	if _, err := run(modes[0]); err != nil {
		return nil, fmt.Errorf("%s: %w", modes[0], err)
	}
	out := make([]R, len(modes))
	walls := make([][]time.Duration, len(modes))
	for round := 0; round < rounds; round++ {
		for i, mode := range modes {
			res, err := run(mode)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
			out[i] = res
			walls[i] = append(walls[i], *wall(&res))
		}
	}
	for i := range out {
		slices.Sort(walls[i])
		*wall(&out[i]) = walls[i][rounds/2]
	}
	return out, nil
}

// inSituAt returns one mode's result at one rank count.
func inSituAt(results []InSituResult, mode InSituMode, ranks int) (out InSituResult) {
	for _, r := range results {
		if r.Mode == mode && r.Ranks == ranks {
			out = r
		}
	}
	return out
}

// Fig2Table formats the time-to-solution comparison (paper Figure 2).
// The "vs Original" column makes the paper's configuration ordering
// explicit independent of the host's core count: the simulated ranks
// share physical cores, so absolute wall-clock does not show hardware
// strong scaling — the per-rank-count overhead ratios are the
// reproduced shape.
func Fig2Table(results []InSituResult) *metrics.Table {
	t := metrics.NewTable(
		"Figure 2: pb146 time-to-solution (in situ, scaled ranks)",
		"ranks", "config", "wall time [s]", "vs Original")
	for _, r := range results {
		rel := "—"
		if b := inSituAt(results, Original, r.Ranks).WallTime.Seconds(); b > 0 {
			rel = fmt.Sprintf("%.3fx", r.WallTime.Seconds()/b)
		}
		t.AddRow(r.Ranks, r.Mode, r.WallTime.Seconds(), rel)
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
		t.AddRow(r.Ranks, r.Mode,
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
		t.AddRow(r.Ranks, r.Mode, metrics.HumanBytes(r.BytesWritten), r.FilesWritten)
	}
	return t
}

// StorageRatio returns Checkpointing bytes / Catalyst bytes at the
// last rank count, the paper's "three orders of magnitude" claim.
func StorageRatio(results []InSituResult) float64 {
	ranks := results[len(results)-1].Ranks
	return float64(inSituAt(results, Checkpointing, ranks).BytesWritten) /
		float64(inSituAt(results, Catalyst, ranks).BytesWritten)
}

// Fig2Verdict states the measured time ordering per rank count next
// to the paper's. It is a sentence and not a check: the walls are
// medians of a few runs that differ by less than the machine wanders.
func Fig2Verdict(results []InSituResult) string {
	var b strings.Builder
	for _, orig := range results {
		if orig.Mode != Original {
			continue
		}
		o := []InSituResult{orig, inSituAt(results, Checkpointing, orig.Ranks), inSituAt(results, Catalyst, orig.Ranks)}
		slices.SortStableFunc(o, func(a, b InSituResult) int { return cmp.Compare(a.WallTime, b.WallTime) })
		fmt.Fprintf(&b, "  time at %d ranks: %s < %s < %s (paper: Original < Catalyst < Checkpointing)\n",
			orig.Ranks, o[0].Mode, o[1].Mode, o[2].Mode)
	}
	return b.String()
}

// CheckFig2And3 is the in situ matrix's shape, the part of it that
// does not depend on the clock: at every rank count Catalyst, which
// stages device mirrors and VTK copies, peaks above Checkpointing's
// single staging buffer (Figure 3), and its images are at least 10x
// smaller than the checkpoints even at the smallest scale (the paper
// reports ~3000x at full scale).
func CheckFig2And3(results []InSituResult) error {
	for _, cat := range results {
		if cat.Mode != Catalyst {
			continue
		}
		ck := inSituAt(results, Checkpointing, cat.Ranks)
		if cat.AggMemPeak <= ck.AggMemPeak {
			return fmt.Errorf("figure 3: %d ranks: Catalyst memory %d <= Checkpointing %d",
				cat.Ranks, cat.AggMemPeak, ck.AggMemPeak)
		}
		if cat.BytesWritten*10 > ck.BytesWritten {
			return fmt.Errorf("storage: %d ranks: Catalyst wrote %d bytes, not << Checkpointing's %d",
				cat.Ranks, cat.BytesWritten, ck.BytesWritten)
		}
	}
	return nil
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
		t.AddRow(r.SimRanks, r.Mode, us/1000, rel)
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
		t.AddRow(r.SimRanks, r.Mode, metrics.HumanBytes(r.MemPerNode))
	}
	return t
}

// CheckFig5And6 is the in transit matrix's shape: every endpoint
// processed every step the simulation sent, so Figure 5 compares
// complete workflows, and transport costs simulation-side memory (the
// SST staging queue) over the NoTransport reference (Figure 6). The
// step times are Figure 5's "vs NoTransport" column and not a check,
// for Fig2Verdict's reason.
func CheckFig5And6(results []InTransitResult) error {
	base := map[int]int64{}
	for _, r := range results {
		if r.Mode == NoTransport {
			base[r.SimRanks] = r.MemPerNode
		}
	}
	for _, r := range results {
		if r.Mode == NoTransport {
			continue
		}
		if r.EndpointSteps != r.Triggers {
			return fmt.Errorf("figure 5: %d sim ranks: %s endpoint processed %d of %d triggers",
				r.SimRanks, r.Mode, r.EndpointSteps, r.Triggers)
		}
		if r.MemPerNode <= base[r.SimRanks] {
			return fmt.Errorf("figure 6: %d sim ranks: %s added no memory: %d vs %d",
				r.SimRanks, r.Mode, r.MemPerNode, base[r.SimRanks])
		}
	}
	return nil
}

// QueueGrowth is the Figure 6 mechanism in isolation: the same
// checkpointing workflow with an endpoint that keeps up and with one
// that takes Delay per step.
type QueueGrowth struct {
	Fast, Slow InTransitResult
	Delay      time.Duration
}

// Check is the mechanism's shape: both endpoints processed every
// trigger, and the slow one raised simulation-side memory.
func (q QueueGrowth) Check() error {
	if q.Fast.EndpointSteps != q.Fast.Triggers || q.Slow.EndpointSteps != q.Slow.Triggers {
		return fmt.Errorf("figure 6 mechanism: the fast endpoint processed %d of %d triggers, the slow one %d of %d",
			q.Fast.EndpointSteps, q.Fast.Triggers, q.Slow.EndpointSteps, q.Slow.Triggers)
	}
	if q.Slow.MemPerNode <= q.Fast.MemPerNode {
		return fmt.Errorf("figure 6 mechanism: slow endpoint (+%v/step) did not raise sim memory: fast %d, slow %d",
			q.Delay, q.Fast.MemPerNode, q.Slow.MemPerNode)
	}
	return nil
}

// QueueGrowthTable formats the mechanism demo.
func QueueGrowthTable(q QueueGrowth) *metrics.Table {
	t := metrics.NewTable(
		"Figure 6 mechanism: sim-rank memory vs endpoint speed (SST queue back-pressure)",
		"endpoint", "per-rank mem peak")
	t.AddRow("fast (no delay)", metrics.HumanBytes(q.Fast.MemPerNode))
	t.AddRow(fmt.Sprintf("slow (+%v/step)", q.Delay.Round(time.Millisecond)), metrics.HumanBytes(q.Slow.MemPerNode))
	return t
}
