// Command figures regenerates the paper's evaluation at laptop scale —
// Figures 2 and 3 and the storage comparison (pb146 in situ), Figures
// 5 and 6 (RBC in transit) — prints each as aligned text, writes a CSV
// per table, and exits non-zero when a figure's shape is not the
// paper's. Every run is the binaries a user runs: figures builds nekrs
// and sensei-endpoint once (it needs the go toolchain, as go run does),
// launches them as processes meeting at a contact file, and reads the
// summary.json each writes into its -out:
//
//	figures -fig all -out results/
//	figures -fig 2 -ranks 1,2,4 -steps 60 -interval 10
//	figures -fig 5 -ranks 4,8,16
//
// Rank counts keep the paper's ratios: the in situ sweep doubles ranks
// twice (the paper's 280/560/1120) and the in transit sweep keeps the
// 4:1 simulation:endpoint split. How fast each layer runs is measured
// by the end-to-end benchmark (benchmark/README.md), not here.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nekrs-sensei/internal/metrics"
)

// options is one invocation: which figure, where to write, and the
// scale of the runs (0 = the matrix's default).
type options struct {
	fig, out, ranks        string
	steps, interval        int
	refine, order, imagePx int

	bin string // holds nekrs and sensei-endpoint; "" = run builds them
}

// matrices holds the runs the figures share, as in the paper: Figures
// 2 and 3 and the storage comparison read one pb146 matrix, Figures 5
// and 6 one RBC matrix. Each is run at most once per invocation.
type matrices struct {
	opts   options
	insitu []InSituResult
	rbc    []InTransitResult
	queue  QueueGrowth
}

// table is one printed table and the CSV file it is written to.
type table struct {
	csv string
	t   *metrics.Table
}

// figure is one row of the registry: run fills the matrix the figure
// reads, tables formats it, and check is the shape of that matrix — a
// verdict that is printed (wall-clock orderings are only ever that),
// and an error when the part of the shape that does not depend on the
// clock is not the paper's.
type figure struct {
	name   string
	run    func(*matrices) error
	tables func(*matrices) []table
	check  func(*matrices) (verdict string, err error)
}

var registry = []figure{
	{"2", (*matrices).runInSitu,
		func(m *matrices) []table { return []table{{"fig2.csv", Fig2Table(m.insitu)}} },
		func(m *matrices) (string, error) { return Fig2Verdict(m.insitu), nil }},
	{"3", (*matrices).runInSitu,
		func(m *matrices) []table { return []table{{"fig3.csv", Fig3Table(m.insitu)}} },
		func(m *matrices) (string, error) { return "", CheckFig2And3(m.insitu) }},
	{"storage", (*matrices).runInSitu,
		func(m *matrices) []table { return []table{{"storage.csv", StorageTable(m.insitu)}} },
		func(m *matrices) (string, error) {
			return fmt.Sprintf("  Checkpointing/Catalyst storage ratio: %.0fx (paper: ~3000x at full scale)\n",
				StorageRatio(m.insitu)), CheckFig2And3(m.insitu)
		}},
	{"5", (*matrices).runRBC,
		func(m *matrices) []table { return []table{{"fig5.csv", Fig5Table(m.rbc)}} },
		func(m *matrices) (string, error) { return "", CheckFig5And6(m.rbc) }},
	{"6", (*matrices).runRBCAndQueue,
		func(m *matrices) []table {
			return []table{{"fig6.csv", Fig6Table(m.rbc)}, {"fig6_mechanism.csv", QueueGrowthTable(m.queue)}}
		},
		func(m *matrices) (string, error) {
			if err := CheckFig5And6(m.rbc); err != nil {
				return "", err
			}
			return "", m.queue.Check()
		}},
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "which figure to regenerate: "+strings.Join(names(), ", ")+", all")
	flag.StringVar(&o.out, "out", "figures-out", "output directory (images, checkpoints, CSVs)")
	flag.StringVar(&o.ranks, "ranks", "", "comma-separated rank counts (default 1,2,4 in situ; 4,8,16 in transit)")
	flag.IntVar(&o.steps, "steps", 0, "timesteps per run (default 30 in situ, 20 in transit)")
	flag.IntVar(&o.interval, "interval", 0, "trigger cadence in steps (default 10 in situ, 5 in transit)")
	flag.IntVar(&o.refine, "refine", 1, "mesh refinement factor")
	flag.IntVar(&o.order, "order", 4, "polynomial order")
	flag.IntVar(&o.imagePx, "imagepx", 128, "rendered image resolution")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func names() []string {
	out := make([]string, len(registry))
	for i, f := range registry {
		out[i] = f.name
	}
	return out
}

// run regenerates the selected figure (or all of them), printing and
// writing every table before it reports the first failed shape check.
func run(o options) error {
	var selected []figure
	for _, f := range registry {
		if o.fig == "all" || o.fig == f.name {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown figure %q (have %s, all)", o.fig, strings.Join(names(), ", "))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.bin == "" {
		bin, err := buildBinaries()
		if err != nil {
			return err
		}
		defer os.RemoveAll(bin)
		o.bin = bin
	}
	m := &matrices{opts: o}
	var failed error
	for _, f := range selected {
		if err := f.run(m); err != nil {
			return err
		}
		for _, tb := range f.tables(m) {
			tb.t.Render(os.Stdout)
			if err := writeCSV(filepath.Join(o.out, tb.csv), tb.t); err != nil {
				return err
			}
			fmt.Println()
		}
		verdict, err := f.check(m)
		if verdict != "" {
			fmt.Println(verdict)
		}
		if err != nil {
			fmt.Printf("  SHAPE CHECK FAILED: %v\n\n", err)
			if failed == nil {
				failed = err
			}
		}
	}
	fmt.Printf("artifacts in %s\n", o.out)
	return failed
}

func (m *matrices) runInSitu() error {
	if m.insitu != nil {
		return nil
	}
	ranks, err := parseRanks(m.opts.ranks, []int{1, 2, 4})
	if err != nil {
		return err
	}
	fmt.Printf("running in situ pb146 matrix (ranks %v)...\n\n", ranks)
	for _, r := range ranks {
		res, err := interleaved([3]InSituMode{Original, Checkpointing, Catalyst},
			func(mode InSituMode) (InSituResult, error) { return m.inSitu(mode, r) },
			func(r *InSituResult) *time.Duration { return &r.WallTime })
		if err != nil {
			return fmt.Errorf("%d ranks: %w", r, err)
		}
		m.insitu = append(m.insitu, res...)
	}
	return nil
}

// transit is the in transit matrix's scale at simRanks.
func (m *matrices) transit(simRanks int) transit {
	return transit{simRanks: simRanks, steps: cmp.Or(m.opts.steps, 20),
		interval: cmp.Or(m.opts.interval, 5), order: m.opts.order, queue: 2}
}

func (m *matrices) runRBC() error {
	if m.rbc != nil {
		return nil
	}
	ranks, err := parseRanks(m.opts.ranks, []int{4, 8, 16})
	if err != nil {
		return err
	}
	fmt.Printf("running in transit RBC weak-scaling matrix (sim ranks %v, endpoints 4:1)...\n\n", ranks)
	for _, r := range ranks {
		res, err := interleaved([3]InTransitMode{NoTransport, EndpointCheckpoint, EndpointCatalyst},
			func(mode InTransitMode) (InTransitResult, error) {
				return m.inTransit(filepath.Join(m.opts.out, "intransit", fmt.Sprintf("%s-%d", mode, r)), mode, m.transit(r))
			},
			func(r *InTransitResult) *time.Duration { return &r.MeanStepTime })
		if err != nil {
			return fmt.Errorf("%d sim ranks: %w", r, err)
		}
		m.rbc = append(m.rbc, res...)
	}
	return nil
}

// runRBCAndQueue adds the Figure 6 mechanism in isolation to the in
// transit matrix.
func (m *matrices) runRBCAndQueue() error {
	err := m.runRBC()
	if err == nil {
		err = m.runQueue()
	}
	return err
}

// runQueue is the Figure 6 mechanism: the same checkpointing workflow
// with an endpoint that keeps up and with one that takes four of the
// trigger periods the fast arm measured per step (-step-delay), which
// backs up the producer's SST queue and raises sim-side memory. Four
// periods keep it behind while the machine runs the slow arm up to 4x
// slower than the fast one (a concurrent go test ./... has made it
// 2.3x slower, past a two-period delay). The fast arm's
// trigger period must exceed its endpoint's processing time — heavier
// steps (order 6 at least: at order 4 one scheduling stall of the
// endpoint backs its queue up like the slow one's) and a trigger every
// other step — and the queue is deeper than the trigger count, so
// occupancy shows consumption lag rather than the cap: the fast
// endpoint keeps one or two frames staged, the slow one nearly every
// trigger.
func (m *matrices) runQueue() error {
	t := transit{simRanks: 4, steps: cmp.Or(m.opts.steps, 12), interval: 2, order: max(m.opts.order, 6)}
	t.queue = t.steps/t.interval + 2
	dir := filepath.Join(m.opts.out, "intransit", "mechanism")
	fast, err := m.inTransit(dir, EndpointCheckpoint, t)
	if err != nil {
		return err
	}
	t.delay = 4 * time.Duration(t.interval) * fast.MeanStepTime
	slow, err := m.inTransit(dir, EndpointCheckpoint, t)
	m.queue = QueueGrowth{Fast: fast, Slow: slow, Delay: t.delay}
	return err
}

func parseRanks(s string, def []int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad rank count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeCSV(path string, t *metrics.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.RenderCSV(f)
	return f.Close()
}
