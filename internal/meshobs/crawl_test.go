package meshobs

import (
	"context"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/telemetry"
)

// liveMesh serves two real telemetry exporters and registers them in a
// contact directory: "sim" with data addresses, "probe" as a
// telemetry-only observer, plus a "dark" entry with no exporter.
func liveMesh(t *testing.T) (dir string, simTel *telemetry.Telemetry) {
	t.Helper()
	dir = t.TempDir()
	simTel = telemetry.New("sim-proc")
	simExp, err := simTel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { simExp.Close() })
	probeTel := telemetry.New("probe-proc")
	probeExp, err := probeTel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probeExp.Close() })

	simTel.Tracer().Stamp(3, telemetry.StagePublish)
	probeTel.Tracer().Stamp(3, telemetry.StageDeliver)
	probeTel.Events().Emit(telemetry.EventReconnect, "probe", 3, "redialed")

	if err := (adios.Contact{Dir: dir, Name: "sim"}).Write([]string{"127.0.0.1:9000"}, simTel.ServeAddr()); err != nil {
		t.Fatal(err)
	}
	if err := (adios.Contact{Dir: dir, Name: "probe"}).Write(nil, probeTel.ServeAddr()); err != nil {
		t.Fatal(err)
	}
	if err := (adios.Contact{Dir: dir, Name: "dark"}).Write([]string{"127.0.0.1:9300"}, ""); err != nil {
		t.Fatal(err)
	}
	return dir, simTel
}

func TestCrawlLiveExporters(t *testing.T) {
	dir, _ := liveMesh(t)
	snap, err := Crawl(context.Background(), dir, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if snap.CrawledUnixNs == 0 || snap.Dir != dir {
		t.Errorf("snapshot identity = %d, %q", snap.CrawledUnixNs, snap.Dir)
	}
	if len(snap.Processes) != 3 {
		t.Fatalf("crawled %d processes, want 3", len(snap.Processes))
	}
	byEntry := map[string]Process{}
	for _, p := range snap.Processes {
		byEntry[p.Entry] = p
	}
	if sim := byEntry["sim"]; sim.Process != "sim-proc" || sim.Err != "" {
		t.Errorf("sim scrape = %+v", sim)
	}
	if dark := byEntry["dark"]; dark.Process != "" || dark.Telemetry != "" {
		t.Errorf("dark node scraped from nowhere: %+v", dark)
	}
	// Both scraped rings merged into one step-3 timeline.
	if len(snap.Steps) != 1 || snap.Steps[0].Step != 3 || snap.Steps[0].Processes != 2 {
		t.Errorf("steps = %+v", snap.Steps)
	}
	// The observer's journal entry is tagged with its entry name.
	if len(snap.Events) != 1 || snap.Events[0].Process != "probe" || snap.Events[0].Kind != telemetry.EventReconnect {
		t.Errorf("events = %+v", snap.Events)
	}
}

// TestCrawlDeadExporter: an entry whose exporter is gone degrades to a
// topology node with the scrape error recorded.
func TestCrawlDeadExporter(t *testing.T) {
	dir := t.TempDir()
	if err := (adios.Contact{Dir: dir, Name: "gone"}).Write([]string{"127.0.0.1:9000"}, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	snap, err := Crawl(context.Background(), dir, Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Processes) != 1 || snap.Processes[0].Err == "" {
		t.Fatalf("dead exporter not recorded: %+v", snap.Processes)
	}
}

func TestInstallServesMeshz(t *testing.T) {
	dir, simTel := liveMesh(t)
	Install(simTel, dir)
	snap, err := FetchMeshz(context.Background(), simTel.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Processes) != 3 {
		t.Errorf("/meshz reported %d processes, want 3", len(snap.Processes))
	}
	if len(snap.Steps) != 1 || snap.Steps[0].Processes != 2 {
		t.Errorf("/meshz steps = %+v", snap.Steps)
	}
}

func TestCrawlMissingDir(t *testing.T) {
	if _, err := Crawl(context.Background(), t.TempDir()+"/nope", Options{}); err == nil {
		t.Fatal("want error for a missing contact directory")
	}
}
