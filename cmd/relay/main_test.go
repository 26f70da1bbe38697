package main

import (
	"strings"
	"testing"
)

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.upstream != "contact.txt" || o.policy != "block" || o.depth != 2 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.outRanks != 0 || len(o.consumers) != 0 || len(o.trunkCodecs) != 0 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestParseArgsConsumersAndCodecs(t *testing.T) {
	o, err := parseArgs([]string{
		"-contact-dir", "run/mesh", "-upstream", "sim", "-publish", "tier1",
		"-out-ranks", "2", "-maxerror", "1e-3",
		"-consumers", "hist:block:2:pressure,render:latest-only:1:pressure+velocity_x",
		"-trunk-codecs", "transpose-delta",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.consumers) != 2 || o.consumers[0].Name != "hist" || o.consumers[1].Name != "render" {
		t.Fatalf("consumers = %+v", o.consumers)
	}
	ds := o.downstream()
	if len(ds) != 2 || ds[0].MaxError != 1e-3 || ds[1].Spec.Arrays[1] != "velocity_x" {
		t.Fatalf("downstream = %+v", ds)
	}
	if len(o.trunkCodecs) != 1 || o.trunkCodecs[0] != "transpose-delta" {
		t.Fatalf("trunkCodecs = %v", o.trunkCodecs)
	}
}

func TestParseArgsRejects(t *testing.T) {
	cases := []struct {
		argv []string
		want string
	}{
		{[]string{"extra"}, "unexpected arguments"},
		{[]string{"-policy", "bogus"}, "policy"},
		{[]string{"-depth", "0"}, "-depth"},
		{[]string{"-out-ranks", "-1"}, "-out-ranks"},
		{[]string{"-maxerror", "-0.5"}, "-maxerror"},
		{[]string{"-consumers", "a:block:2,a:block:2"}, "duplicate"},
		{[]string{"-trunk-codecs", "nonsense"}, "nonsense"},
		{[]string{"-contact-dir", "d", "-upstream", ""}, "-upstream"},
		// The shell's one validation: every negative duration or count is
		// an error, and -wait-downstream needs the side that redials.
		{[]string{"-retry", "-1"}, "-retry must be non-negative"},
		{[]string{"-session-ttl", "-1s"}, "-session-ttl must be non-negative"},
		{[]string{"-heartbeat", "-1s"}, "-heartbeat must be non-negative"},
		{[]string{"-liveness", "-1s"}, "-liveness must be non-negative"},
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
