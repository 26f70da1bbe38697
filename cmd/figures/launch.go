package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// cellTimeout bounds one cell's processes: a process that dies leaves
// its peer waiting on the rendezvous at most this long.
const cellTimeout = 5 * time.Minute

// buildBinaries builds nekrs and sensei-endpoint into a new temporary
// directory, which the caller removes.
func buildBinaries() (string, error) {
	dir, err := os.MkdirTemp("", "figures-bin-")
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", dir,
		"nekrs-sensei/cmd/nekrs", "nekrs-sensei/cmd/sensei-endpoint").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("building the binaries: %w\n%s", err, out)
	}
	return dir, nil
}

// launch runs the processes of one cell side by side. The first to
// fail stops the others (an endpoint that died would leave nekrs
// blocked on its stream) and is the error, with its output.
func launch(cmds ...[]string) error {
	ctx, cancel := context.WithTimeout(context.Background(), cellTimeout)
	defer cancel()
	var first error
	var once sync.Once
	var wg sync.WaitGroup
	for _, argv := range cmds {
		cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cmd.Run(); err != nil {
				once.Do(func() {
					first = fmt.Errorf("%s: %w\n%s", strings.Join(argv, " "), err, out.Bytes())
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// readSummary decodes the summary.json a binary wrote into dir.
func readSummary(dir string, v any) error {
	js, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		return err
	}
	return json.Unmarshal(js, v)
}

// writeFiles writes each name's content into dir, creating dir.
func writeFiles(dir string, files map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// nekrsSummary is the summary.json nekrs writes.
type nekrsSummary struct {
	LoopSeconds  float64 `json:"loop_s"`
	PeakBytes    []int64 `json:"peak_bytes"`
	StorageBytes int64   `json:"storage_bytes"`
	StorageFiles int     `json:"storage_files"`
}

// loop is the slowest rank's stepping loop.
func (s nekrsSummary) loop() time.Duration {
	return time.Duration(s.LoopSeconds * float64(time.Second))
}

// endpointSummary is what the figures read of the summary.json
// sensei-endpoint writes.
type endpointSummary struct {
	Steps int   `json:"steps"`
	Bytes int64 `json:"bytes"`
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

// inSitu runs nekrs once in one pb146 configuration: Original with no
// -sensei, Checkpointing with -checkpoint-every, Catalyst with -sensei.
func (m *matrices) inSitu(mode InSituMode, ranks int) (InSituResult, error) {
	o := m.opts
	dir := filepath.Join(o.out, "insitu", fmt.Sprintf("%s-%d", mode, ranks))
	interval := cmp.Or(o.interval, 10)
	argv := []string{filepath.Join(o.bin, "nekrs"), "-case", "pb146", "-ranks", fmt.Sprint(ranks),
		"-steps", fmt.Sprint(cmp.Or(o.steps, 30)), "-refine", fmt.Sprint(o.refine), "-order", fmt.Sprint(o.order),
		"-out", dir, "-log-every", "0"}
	switch mode {
	case Checkpointing:
		argv = append(argv, "-checkpoint-every", fmt.Sprint(interval))
	case Catalyst:
		script := filepath.Join(dir, "pipeline.xml")
		if err := writeFiles(dir, map[string]string{
			"pipeline.xml": catalystScript(o.imagePx),
			"sensei.xml": fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="%d"/>
</sensei>`, script, interval),
		}); err != nil {
			return InSituResult{}, err
		}
		argv = append(argv, "-sensei", filepath.Join(dir, "sensei.xml"))
	}
	var s nekrsSummary
	if err := launch(argv); err != nil {
		return InSituResult{}, err
	}
	if err := readSummary(dir, &s); err != nil {
		return InSituResult{}, err
	}
	res := InSituResult{Mode: mode, Ranks: ranks, WallTime: s.loop(),
		BytesWritten: s.StorageBytes, FilesWritten: s.StorageFiles}
	for _, p := range s.PeakBytes {
		res.AggMemPeak += p
		res.MaxRankMemPeak = max(res.MaxRankMemPeak, p)
	}
	return res, nil
}

// transit is the scale of one in transit run.
type transit struct {
	simRanks, steps, interval, order int
	queue                            int           // SST staging depth
	delay                            time.Duration // the endpoint's -step-delay
}

// rbcEndpointScript renders the paper's two RBC images: a side-view
// temperature slice (Figure 4) through the middle of the box's depth
// (y = 1 of 2) and a vertical-velocity isosurface.
func rbcEndpointScript(px int) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="rbc_side_%%06d.png" colormap="coolwarm"
         camera="0,-1,0.12" field="temperature">
    <slice normal="0,1,0" offset="1"/>
  </image>
  <image width="%d" height="%d" output="rbc_w_%%06d.png" colormap="viridis"
         camera="1,1,1" field="velocity_z">
    <contour field="temperature" iso="0.5"/>
  </image>
</catalyst>`, px, px, px, px)
}

// inTransit runs one weak-scaling RBC cell in dir: nekrs on t.simRanks
// ranks streaming over SST, through the contact file, to a
// sensei-endpoint of t.simRanks/4 ranks (none for NoTransport). The
// box is 4·S × 4 × 3 elements of size 0.5, so x grows with the rank
// count S (the [CASEDATA] gammax key) and the load per rank stays.
func (m *matrices) inTransit(dir string, mode InTransitMode, t transit) (InTransitResult, error) {
	contact := filepath.Join(dir, "contact.txt")
	os.Remove(contact) //nolint:errcheck // stale rendezvous from a prior run
	files := map[string]string{
		"rbc.par":    fmt.Sprintf("[CASEDATA]\ngammax = %d\n", 2*t.simRanks),
		"sim.xml":    "<sensei></sensei>", // SENSEI on, no analysis: the paper's reference
		"script.xml": rbcEndpointScript(m.opts.imagePx),
		"endpoint.xml": fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/>
</sensei>`, filepath.Join(dir, "script.xml")),
	}
	if mode != NoTransport {
		files["sim.xml"] = fmt.Sprintf(`<sensei>
  <analysis type="adios" frequency="%d" contact="%s" queue="%d" arrays=""/>
</sensei>`, t.interval, contact, t.queue)
	}
	if mode == EndpointCheckpoint {
		// The paper's endpoint writes the pressure and velocity fields
		// as VTU files.
		files["endpoint.xml"] = `<sensei>
  <analysis type="checkpoint" mesh="mesh" arrays="pressure,velocity_x,velocity_y,velocity_z" prefix="rbc" frequency="1"/>
</sensei>`
	}
	if err := writeFiles(dir, files); err != nil {
		return InTransitResult{}, err
	}
	simDir, epDir := filepath.Join(dir, "sim"), filepath.Join(dir, "endpoint")
	cmds := [][]string{{filepath.Join(m.opts.bin, "nekrs"), "-case", "rbc", "-par", filepath.Join(dir, "rbc.par"),
		"-ranks", fmt.Sprint(t.simRanks), "-steps", fmt.Sprint(t.steps), "-order", fmt.Sprint(t.order),
		"-sensei", filepath.Join(dir, "sim.xml"), "-out", simDir, "-log-every", "0"}}
	if mode != NoTransport {
		cmds = append(cmds, []string{filepath.Join(m.opts.bin, "sensei-endpoint"), "-contact", contact,
			"-config", filepath.Join(dir, "endpoint.xml"), "-ranks", fmt.Sprint(max(t.simRanks/4, 1)),
			"-step-delay", t.delay.String(), "-out", epDir})
	}
	if err := launch(cmds...); err != nil {
		return InTransitResult{}, err
	}
	var s nekrsSummary
	if err := readSummary(simDir, &s); err != nil {
		return InTransitResult{}, err
	}
	res := InTransitResult{Mode: mode, SimRanks: t.simRanks, Triggers: t.steps / t.interval,
		MeanStepTime: s.loop() / time.Duration(t.steps)}
	for _, p := range s.PeakBytes {
		res.MemPerNode = max(res.MemPerNode, p)
	}
	if mode != NoTransport {
		var ep endpointSummary
		if err := readSummary(epDir, &ep); err != nil {
			return InTransitResult{}, err
		}
		res.EndpointSteps, res.EndpointBytes = ep.Steps, ep.Bytes
	}
	return res, nil
}
