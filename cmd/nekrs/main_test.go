package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
)

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want string // substring of the expected error, "" = ok
	}{
		{nil, ""},
		{[]string{"-case", "rbc", "-sensei", "conf.xml", "-record", "rec", "-telemetry", "127.0.0.1:9150"}, ""},
		{[]string{"-ranks", "0"}, "-ranks must be positive"},
		{[]string{"-steps", "-3"}, "-steps must be positive"},
		{[]string{"-order", "0"}, "-order must be at least 1"},
		{[]string{"-record", "rec"}, "-record needs -sensei"},
		// A reader's hello asks for its session: the producer has no knob.
		{[]string{"-session-ttl", "10s"}, "flag provided but not defined: -session-ttl"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		o, err := parseArgs(tc.argv)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("parseArgs(%v): %v", tc.argv, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("parseArgs(%v) = %+v, %v, want error containing %q", tc.argv, o, err, tc.want)
		}
	}
}

// TestRunRecords drives run in-process: pb146 on 2 ranks staging every
// step to a pre-declared block consumer, which a reader per rank
// drains, with -record on. Each rank's archive must hold one step per
// timestep, the first of them carrying the mesh structure.
func TestRunRecords(t *testing.T) {
	const ranks, steps = 2, 3
	dir := t.TempDir()
	contact, rec := filepath.Join(dir, "contact.txt"), filepath.Join(dir, "rec")
	config := filepath.Join(dir, "staging.xml")
	xml := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="1" contact="%s" consumers="drain:block:2" arrays="pressure"/>
</sensei>`, contact)
	if err := os.WriteFile(config, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{"-case", "pb146", "-ranks", fmt.Sprint(ranks), "-order", "2", "-steps", fmt.Sprint(steps),
		"-sensei", config, "-record", rec, "-out", filepath.Join(dir, "out"), "-log-every", "0"})
	if err != nil {
		t.Fatal(err)
	}

	// The producer blocks on its declared consumer until it attaches and
	// then on its window, so the drain runs beside it.
	drained := make([]int, ranks)
	drainErrs := make([]error, ranks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs, err := adios.Contact{Name: contact}.Read(30 * time.Second)
		if err != nil || len(addrs) != ranks {
			drainErrs[0] = fmt.Errorf("contact: %v, %v", addrs, err)
			return
		}
		for i, addr := range addrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Consumer: "drain"})
				if err != nil {
					drainErrs[i] = err
					return
				}
				defer r.Close()
				for {
					s, err := r.BeginStep()
					if errors.Is(err, io.EOF) {
						return
					}
					if err != nil {
						drainErrs[i] = err
						return
					}
					drained[i]++
					r.Recycle(s)
				}
			}()
		}
	}()
	if err := run(o, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range drainErrs {
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}

	dirs, err := archive.RankDirs(rec)
	if err != nil || len(dirs) != ranks {
		t.Fatalf("recorded %v (%v), want %d rank archives", dirs, err, ranks)
	}
	for rank, d := range dirs {
		a, err := archive.Open(d, archive.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		index := a.Steps()
		if len(index) != steps {
			t.Fatalf("rank %d: %d archived steps, want %d", rank, len(index), steps)
		}
		for i, si := range index {
			if si.Structure != (i == 0) {
				t.Errorf("rank %d: archived step %d has structure %v; only the first carries it", rank, si.Step, si.Structure)
			}
		}
		if drained[rank] != len(index) {
			t.Errorf("rank %d: reader drained %d steps, archive holds %d", rank, drained[rank], len(index))
		}
		a.Close()
	}
}

// TestSummaryCountsEveryRank: on 2 ranks each rank writes its own
// checkpoints, and summary.json's storage totals are the whole run's —
// what a walk of -out finds besides the summary itself — with one
// memory peak per rank.
func TestSummaryCountsEveryRank(t *testing.T) {
	out := t.TempDir()
	o, err := parseArgs([]string{"-case", "pb146", "-ranks", "2", "-order", "2", "-steps", "4",
		"-checkpoint-every", "2", "-out", out, "-log-every", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, nil); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(filepath.Join(out, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(js, &sum); err != nil {
		t.Fatal(err)
	}
	var bytes int64
	files := 0
	err = filepath.WalkDir(out, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "summary.json" {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
			files++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != 4 || sum.StorageFiles != files || sum.StorageBytes != bytes {
		t.Errorf("summary says %d B in %d files; -out holds %d B in %d files (want 4: 2 ranks x 2 dumps)",
			sum.StorageBytes, sum.StorageFiles, bytes, files)
	}
	if len(sum.PeakBytes) != 2 || sum.PeakBytes[0] <= 0 || sum.PeakBytes[1] <= 0 || sum.LoopSeconds <= 0 {
		t.Errorf("summary = %+v, want a peak per rank and the loop's time", sum)
	}
}
