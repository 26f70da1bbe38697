package main

import (
	"strings"
	"testing"

	"nekrs-sensei/internal/staging"
)

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.upstream != "contact.txt" || o.trunk.Name != "relay" || o.trunk.Policy != staging.Block || o.trunk.Depth != 2 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.outRanks != 0 || len(o.consumers) != 0 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestParseArgsConsumersAndCodecs(t *testing.T) {
	o, err := parseArgs([]string{
		"-contact-dir", "run/mesh", "-upstream", "sim", "-publish", "tier1",
		"-out-ranks", "2",
		"-consumers", "hist:block:2:pressure,render:drop-oldest:1:pressure+velocity_x:quantize;1e-3",
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := o.consumers
	if len(ds) != 2 || ds[0].Spec.Name != "hist" || ds[1].Spec.Name != "render" {
		t.Fatalf("consumers = %+v", ds)
	}
	if len(ds) != 2 || ds[1].Spec.Arrays[1] != "velocity_x" || len(ds[1].Spec.Codecs) != 1 {
		t.Fatalf("downstream = %+v", ds)
	}
	// The trunk is always plain: codecs are a leaf edge's business, and
	// the flags that once asked for a coded trunk are gone.
	for _, gone := range []string{"-trunk-codecs", "-maxerror"} {
		if _, err := parseArgs([]string{gone, "1e-3"}); err == nil {
			t.Errorf("%s still parses", gone)
		}
	}
}

func TestParseArgsRejects(t *testing.T) {
	cases := []struct {
		argv []string
		want string
	}{
		{[]string{"extra"}, "unexpected arguments"},
		{[]string{"-consumer", "t1:bogus"}, "unknown policy"},
		{[]string{"-consumer", "t1:block:0"}, "bad depth"},
		{[]string{"-consumer", "t1,t2"}, "exactly one spec"},
		// The trunk request is the union of -consumers, in plain frames.
		{[]string{"-consumer", "t1:block:2:pressure"}, "arrays and codecs fields are refused"},
		{[]string{"-consumer", "t1:block:2::quantize;1e-3"}, "arrays and codecs fields are refused"},
		// -name, -policy and -depth are one -consumer spec.
		{[]string{"-name", "t1"}, "flag provided but not defined: -name"},
		{[]string{"-policy", "block"}, "flag provided but not defined: -policy"},
		{[]string{"-depth", "2"}, "flag provided but not defined: -depth"},
		{[]string{"-out-ranks", "-1"}, "-out-ranks"},
		{[]string{"-consumers", "a:block:2,a:block:2"}, "duplicate"},
		{[]string{"-consumers", "a:block:2:pressure:nonsense"}, "nonsense"},
		{[]string{"-contact-dir", "d", "-upstream", ""}, "-upstream"},
		// The shell's one validation: every negative duration or count is
		// an error, and -wait-downstream needs the side that redials.
		{[]string{"-retry", "-1"}, "-retry must be non-negative"},
		{[]string{"-session-ttl", "-1s"}, "-session-ttl must be non-negative"},
		// Heartbeats are paced by each reader's hello, not by the relay.
		{[]string{"-heartbeat", "1s"}, "flag provided but not defined: -heartbeat"},
		{[]string{"-liveness", "-1s"}, "-liveness must be non-negative"},
		{[]string{"-liveness", "5ms"}, "-liveness must be 0 or at least 30ms"},
		// A relay's tier and the union's mesh are not settable: meshtop
		// derives the tier from the crawled edges, and the union is of
		// array names alone.
		{[]string{"-tier", "1"}, "flag provided but not defined: -tier"},
		{[]string{"-mesh", "mesh"}, "flag provided but not defined: -mesh"},
		{[]string{"-timeout", "-1s"}, "-timeout must be non-negative"},
		{[]string{"-retry", "3", "-wait-downstream", "-1s"}, "-wait-downstream must be non-negative"},
		{[]string{"-wait-downstream", "5s"}, "-wait-downstream needs -retry"},
	}
	for _, c := range cases {
		if _, err := parseArgs(c.argv); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseArgs(%v) = %v, want error containing %q", c.argv, err, c.want)
		}
	}
}

// TestParseArgsTrunkConsumer: the -consumer spec names the relay's
// upstream edge; the fields it leaves out keep their defaults.
func TestParseArgsTrunkConsumer(t *testing.T) {
	o, err := parseArgs([]string{"-consumer", "tier1:drop-oldest"})
	if err != nil {
		t.Fatal(err)
	}
	if o.trunk.Name != "tier1" || o.trunk.Policy != staging.DropOldest || o.trunk.Depth != 0 {
		t.Fatalf("trunk = %+v, want tier1, drop-oldest, the relay's default depth", o.trunk)
	}
}
