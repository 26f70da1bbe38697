package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same series.
	if r.Counter("steps_total") != c {
		t.Error("re-lookup returned a different counter")
	}

	g := r.Gauge("depth", "consumer", "hist")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if r.Gauge("depth", "consumer", "hist") != g {
		t.Error("re-lookup returned a different gauge")
	}
	// Different labels are a different series.
	if r.Gauge("depth", "consumer", "probe") == g {
		t.Error("different labels returned the same gauge")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z")
	reg.RegisterSampler(func(*Sample) { t.Error("sampler ran on nil registry") })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	ran := false
	h.Time(func() { ran = true })
	if !ran {
		t.Error("nil histogram Time did not run f")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles accumulated state")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if pts := reg.Snapshot(); pts != nil {
		t.Errorf("nil Snapshot = %v, want nil", pts)
	}

	var tel *Telemetry
	if tel.Registry() != nil || tel.Tracer() != nil {
		t.Error("nil Telemetry handed out non-nil handles")
	}
	tel.RegisterStatus("s", func() any { return nil })
	if exp, err := tel.Serve("127.0.0.1:0"); exp != nil || err != nil {
		t.Errorf("nil Serve = (%v, %v), want (nil, nil)", exp, err)
	}
}

func TestKindRedeclarationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("metric")
	defer func() {
		if recover() == nil {
			t.Error("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("metric")
}

func TestOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	r.Counter("metric", "keyonly")
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Nanosecond, 0},  // ceils to 1µs
		{time.Microsecond, 0}, // exactly 2^0 µs
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10}, // 1024µs > 2^9, <= 2^10
		{time.Second, 20},      // 1e6µs <= 2^20
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every index must observe d <= bound (the defining property).
	for _, c := range cases {
		if c.d <= 0 {
			continue
		}
		if bound := bucketBound(bucketIndex(c.d)); c.d.Seconds() > bound {
			t.Errorf("%v landed in bucket with bound %gs", c.d, bound)
		}
	}
	if bucketBound(histBuckets-1) != inf {
		t.Error("last bucket bound is not +Inf")
	}

	h := NewRegistry().Histogram("lat")
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if want := 2*3*time.Microsecond + time.Millisecond; h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "code", "200").Add(3)
	r.Gauge("queue_depth").Set(2)
	r.Histogram("latency_seconds").Observe(3 * time.Microsecond)
	r.RegisterSampler(func(s *Sample) {
		s.Gauge("sampled_gauge", 1.5, "k", "v")
		s.Counter("sampled_total", 9)
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter\n",
		`requests_total{code="200"} 3` + "\n",
		"# TYPE queue_depth gauge\nqueue_depth 2\n",
		"# TYPE latency_seconds histogram\n",
		`latency_seconds_bucket{le="1e-06"} 0` + "\n",
		`latency_seconds_bucket{le="4e-06"} 1` + "\n",
		`latency_seconds_bucket{le="+Inf"} 1` + "\n",
		"latency_seconds_count 1\n",
		`sampled_gauge{k="v"} 1.5` + "\n",
		"sampled_total 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative ladder: +Inf count must equal _count.
	if !strings.Contains(out, "latency_seconds_sum 3e-06\n") {
		t.Errorf("exposition missing histogram sum:\n%s", out)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	// Label order must not matter; values get escaped.
	if renderLabels([]string{"b", "2", "a", "1"}) != `{a="1",b="2"}` {
		t.Errorf("labels not sorted: %s", renderLabels([]string{"b", "2", "a", "1"}))
	}
	if got := renderLabels([]string{"k", "a\"b\\c\nd"}); got != `{k="a\"b\\c\nd"}` {
		t.Errorf("escaping = %s", got)
	}
	r := NewRegistry()
	if r.Counter("m", "a", "1", "b", "2") != r.Counter("m", "b", "2", "a", "1") {
		t.Error("label order created distinct series")
	}
}

// TestRegistryConcurrent hammers handle creation, hot-path updates and
// scrapes from many goroutines — run under -race this is the
// registry's locking-contract check.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.RegisterSampler(func(s *Sample) { s.Gauge("sampled", 1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				r.Counter("hot_total").Inc()
				r.Gauge("hot_gauge", "g", "x").Set(int64(i))
				r.Histogram("hot_hist").Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("hot_total").Value(); got != 8*300 {
		t.Errorf("hot_total = %d, want %d", got, 8*300)
	}
	if got := r.Histogram("hot_hist").Count(); got != 8*300 {
		t.Errorf("hot_hist count = %d, want %d", got, 8*300)
	}
}
