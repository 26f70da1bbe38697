package main

import (
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		ok   bool
		chk  func(*command) bool
	}{
		{"no args", nil, false, nil},
		{"bad mode", []string{"rewind"}, false, nil},
		{"replay arrays", []string{"replay", "-arrays", "pressure, temperature"}, true, func(c *command) bool {
			return len(c.arrays) == 2 && c.arrays[1] == "temperature"
		}},
		{"replay defaults", []string{"replay"}, true, func(c *command) bool {
			return c.mode == "replay" && c.pace.Mode == "max" && c.from == -1 && c.to == -1 && c.wait == 1
		}},
		{"replay realtime scaled", []string{"replay", "-pace", "realtime:4x"}, true, func(c *command) bool {
			return c.pace.Mode == "realtime" && c.pace.Speed == 4
		}},
		{"replay fixed", []string{"replay", "-pace", "2.5/s"}, true, func(c *command) bool {
			return c.pace.Mode == "fixed" && c.pace.PerSec == 2.5
		}},
		{"replay bad pace", []string{"replay", "-pace", "ludicrous"}, false, nil},
		{"replay range", []string{"replay", "-from", "10", "-to", "20"}, true, func(c *command) bool {
			return c.from == 10 && c.to == 20
		}},
		{"replay inverted range", []string{"replay", "-from", "20", "-to", "10"}, false, nil},
		{"replay consumers", []string{"replay", "-consumers", "render:drop-oldest:1,hist:block:2"}, true, func(c *command) bool {
			return len(c.consumers) == 2 && c.consumers[0].Name == "render"
		}},
		{"replay bad consumers", []string{"replay", "-consumers", "a:warp"}, false, nil},
		{"replay bad wait", []string{"replay", "-wait", "0"}, false, nil},
		{"inspect", []string{"inspect", "-dir", "x"}, true, func(c *command) bool {
			return c.mode == "inspect" && c.dir == "x"
		}},
		{"trailing args", []string{"inspect", "x"}, false, nil},
	}
	// The deleted subcommand is refused by naming its replacement.
	if _, err := parseArgs([]string{"record", "-contact", "c.txt"}); err == nil || !strings.Contains(err.Error(), "sensei-endpoint -record") {
		t.Errorf("archive record: err = %v, want a refusal naming sensei-endpoint -record", err)
	}
	for _, tc := range cases {
		c, err := parseArgs(tc.argv)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v", tc.name, err)
			continue
		}
		if tc.ok && tc.chk != nil && !tc.chk(c) {
			t.Errorf("%s: parsed %+v", tc.name, c)
		}
	}
}
