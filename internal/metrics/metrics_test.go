package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAccountantPeakTracking(t *testing.T) {
	a := NewAccountant()
	a.Alloc("fields", 100)
	a.Alloc("mirror", 50)
	if got := a.InUse(); got != 150 {
		t.Errorf("InUse = %d, want 150", got)
	}
	a.Free("mirror", 50)
	if got := a.InUse(); got != 100 {
		t.Errorf("InUse after free = %d, want 100", got)
	}
	if got := a.Peak(); got != 150 {
		t.Errorf("Peak = %d, want 150", got)
	}
	if got := a.CategoryPeak("mirror"); got != 50 {
		t.Errorf("CategoryPeak(mirror) = %d, want 50", got)
	}
	if got := a.CategoryInUse("mirror"); got != 0 {
		t.Errorf("CategoryInUse(mirror) = %d, want 0", got)
	}
}

func TestAccountantCategories(t *testing.T) {
	a := NewAccountant()
	a.Alloc("z", 1)
	a.Alloc("a", 1)
	a.Alloc("m", 1)
	got := a.Categories()
	want := []string{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("Categories = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Categories[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Alloc("x", 10)
				a.Free("x", 10)
			}
		}()
	}
	wg.Wait()
	if got := a.InUse(); got != 0 {
		t.Errorf("InUse = %d, want 0", got)
	}
	if a.Peak() < 10 {
		t.Errorf("Peak = %d, want >= 10", a.Peak())
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var a *Accountant
	a.Alloc("x", 10) // must not panic
	if a.Peak() != 0 || a.InUse() != 0 {
		t.Error("nil accountant should report zero")
	}
}

// TestAccountantPeakInvariant: peak >= in-use at all times, and peak is
// the max prefix sum of the allocation sequence.
func TestAccountantPeakInvariant(t *testing.T) {
	f := func(deltas []int16) bool {
		a := NewAccountant()
		var cur, peak int64
		for _, d := range deltas {
			a.Alloc("c", int64(d))
			cur += int64(d)
			if cur > peak {
				peak = cur
			}
		}
		return a.InUse() == cur && a.Peak() == peak
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimerAccumulates(t *testing.T) {
	tm := NewTimer()
	tm.Add("solve", 10*time.Millisecond)
	tm.Add("solve", 30*time.Millisecond)
	tm.Add("render", 5*time.Millisecond)
	snap := tm.Snapshot()
	if snap["solve"].Count != 2 || snap["solve"].Total != 40*time.Millisecond {
		t.Errorf("solve = %+v", snap["solve"])
	}
	if snap["solve"].Mean() != 20*time.Millisecond {
		t.Errorf("mean = %v", snap["solve"].Mean())
	}
	if tm.Total("render") != 5*time.Millisecond {
		t.Errorf("render total = %v", tm.Total("render"))
	}
	if tm.Total("missing") != 0 {
		t.Error("missing phase should be zero")
	}
}

func TestStorageCounter(t *testing.T) {
	s := NewStorageCounter()
	s.AddFile(1000)
	s.AddFile(500)
	if s.Bytes() != 1500 || s.Files() != 2 {
		t.Errorf("bytes=%d files=%d", s.Bytes(), s.Files())
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{6815744, "6.5 MiB"},
		{20401094656, "19.0 GiB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig 2", "ranks", "config", "time [s]")
	tb.AddRow(280, "Original", 123.4)
	tb.AddRow(560, "Catalyst", 78.9)
	out := tb.String()
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "Original") {
		t.Errorf("render missing content:\n%s", out)
	}
	var csv strings.Builder
	tb.RenderCSV(&csv)
	if !strings.HasPrefix(csv.String(), "ranks,config,time [s]\n") {
		t.Errorf("csv header wrong:\n%s", csv.String())
	}
	if !strings.Contains(csv.String(), "280,Original,123.4") {
		t.Errorf("csv row wrong:\n%s", csv.String())
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `q"z`)
	var csv strings.Builder
	tb.RenderCSV(&csv)
	if !strings.Contains(csv.String(), `"x,y","q""z"`) {
		t.Errorf("csv escaping wrong: %s", csv.String())
	}
}
