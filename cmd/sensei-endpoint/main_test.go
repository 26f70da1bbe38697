package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseArgs covers the flag surface and the consumer-spec grammar
// ("name[:policy[:depth]]") including invalid specs and cross-flag
// rules.
func TestParseArgs(t *testing.T) {
	tests := []struct {
		name    string
		argv    []string
		wantErr string                // substring of the expected error, "" = ok
		check   func(*options) string // extra assertion, returns "" if ok
	}{
		{
			name: "defaults are direct mode",
			argv: nil,
			check: func(o *options) string {
				if o.staged || o.ranks != 1 || o.contact != "contact.txt" {
					return "want direct mode with 1 rank and default contact"
				}
				return ""
			},
		},
		{
			name: "policy flag enables staged mode",
			argv: []string{"-policy", "latest-only", "-depth", "1", "-consumers", "4"},
			check: func(o *options) string {
				if !o.staged || o.policy != "latest-only" || o.depth != 1 || o.consumers != 4 {
					return "want staged latest-only depth 1 with 4 replicas"
				}
				return ""
			},
		},
		{
			name: "full consumer spec",
			argv: []string{"-consumer", "render:block:2", "-ranks", "4"},
			check: func(o *options) string {
				if !o.staged || o.name != "render" || o.policy != "block" || o.depth != 2 || o.ranks != 4 {
					return "want 4 staged ranks claiming render:block:2"
				}
				return ""
			},
		},
		{
			name: "spec with name only keeps defaults",
			argv: []string{"-consumer", "hist"},
			check: func(o *options) string {
				if !o.staged || o.name != "hist" || o.policy != "block" || o.depth != 0 {
					return "want name hist, default block policy, hub-default depth"
				}
				return ""
			},
		},
		{
			name: "spec with policy alias",
			argv: []string{"-consumer", "viz:latest_only"},
			check: func(o *options) string {
				if o.policy != "latest-only" {
					return "want normalized latest-only policy"
				}
				return ""
			},
		},
		{
			name: "timeout and out pass through",
			argv: []string{"-timeout", "5s", "-out", "results"},
			check: func(o *options) string {
				if o.timeout != 5*time.Second || o.out != "results" {
					return "want timeout 5s, out results"
				}
				return ""
			},
		},
		{name: "unknown policy", argv: []string{"-policy", "warp"}, wantErr: "unknown policy"},
		{name: "spec with bad policy", argv: []string{"-consumer", "a:warp"}, wantErr: "unknown policy"},
		{name: "spec with bad depth", argv: []string{"-consumer", "a:block:zero"}, wantErr: "bad depth"},
		{name: "spec with negative depth", argv: []string{"-consumer", "a:block:-1"}, wantErr: "bad depth"},
		{
			name: "spec with arrays subset",
			argv: []string{"-consumer", "viz:latest-only:1:pressure+velocity_x"},
			check: func(o *options) string {
				if len(o.arrays) != 2 || o.arrays[0] != "pressure" || o.arrays[1] != "velocity_x" {
					return "want arrays [pressure velocity_x]"
				}
				return ""
			},
		},
		{
			name: "arrays flag",
			argv: []string{"-policy", "block", "-arrays", "pressure, temperature"},
			check: func(o *options) string {
				if len(o.arrays) != 2 || o.arrays[1] != "temperature" {
					return "want arrays [pressure temperature]"
				}
				return ""
			},
		},
		{name: "spec with too many fields", argv: []string{"-consumer", "a:block:2:x:quantize;1e-3:z"}, wantErr: "want name[:policy[:depth[:arrays[:codecs]]]]"},
		{name: "spec with unknown codec", argv: []string{"-consumer", "a:block:2:x:y"}, wantErr: `unknown codec "y"`},
		{
			name: "spec with codecs field",
			argv: []string{"-consumer", "viz:block:2:pressure:quantize;1e-3+velocity_x=transpose-delta"},
			check: func(o *options) string {
				if len(o.codecs) != 2 || o.codecs[0] != "quantize:1e-3" || o.codecs[1] != "velocity_x=transpose-delta" {
					return "want codecs [quantize:1e-3 velocity_x=transpose-delta]"
				}
				return ""
			},
		},
		{
			name: "codecs flag",
			argv: []string{"-policy", "block", "-codecs", "temporal-delta, pressure=quantize:1e-6"},
			check: func(o *options) string {
				if len(o.codecs) != 2 || o.codecs[0] != "temporal-delta" || o.codecs[1] != "pressure=quantize:1e-6" {
					return "want codecs [temporal-delta pressure=quantize:1e-6]"
				}
				return ""
			},
		},
		{name: "bad codecs flag", argv: []string{"-policy", "block", "-codecs", "lzma"}, wantErr: `unknown codec "lzma"`},
		{name: "spec conflicts with codecs flag", argv: []string{"-consumer", "a:block", "-codecs", "transpose-delta"}, wantErr: "do not combine"},
		{name: "spec conflicts with arrays flag", argv: []string{"-consumer", "a:block:2:x", "-arrays", "y"}, wantErr: "do not combine"},
		{name: "spec with empty name", argv: []string{"-consumer", ":block"}, wantErr: "empty name"},
		{name: "two specs", argv: []string{"-consumer", "a:block,b:block"}, wantErr: "exactly one spec"},
		{name: "spec conflicts with policy flag", argv: []string{"-consumer", "a:block", "-policy", "block"}, wantErr: "do not combine"},
		{name: "spec conflicts with name flag", argv: []string{"-consumer", "a", "-name", "b"}, wantErr: "do not combine"},
		{name: "spec conflicts even with explicit defaults", argv: []string{"-consumer", "a", "-name", "endpoint"}, wantErr: "do not combine"},
		{name: "spec conflicts with explicit zero depth", argv: []string{"-consumer", "a", "-depth", "0"}, wantErr: "do not combine"},
		{name: "zero ranks", argv: []string{"-ranks", "0"}, wantErr: "-ranks must be positive"},
		{name: "negative depth flag", argv: []string{"-policy", "block", "-depth", "-2"}, wantErr: "-depth must be non-negative"},
		{name: "zero consumers", argv: []string{"-policy", "block", "-consumers", "0"}, wantErr: "-consumers must be positive"},
		{name: "group flag is gone", argv: []string{"-policy", "block", "-group", "2"}, wantErr: "flag provided but not defined: -group"},
		{name: "presharded flag is gone", argv: []string{"-policy", "block", "-presharded"}, wantErr: "flag provided but not defined: -presharded"},
		{name: "replicas without staged mode", argv: []string{"-consumers", "3"}, wantErr: "needs staged mode"},
		{
			name: "replicas of ranks",
			argv: []string{"-policy", "block", "-ranks", "2", "-consumers", "3"},
			check: func(o *options) string {
				if o.ranks != 2 || o.consumers != 3 {
					return "want 3 replicas of 2 ranks"
				}
				return ""
			},
		},
		{name: "positional junk", argv: []string{"stray"}, wantErr: "unexpected arguments"},
		{
			name: "telemetry flags pass through",
			argv: []string{"-telemetry", "127.0.0.1:9151", "-peer-status", "127.0.0.1:9150", "-step-delay", "50ms"},
			check: func(o *options) string {
				if o.telemetry != "127.0.0.1:9151" || o.peerStatus != "127.0.0.1:9150" || o.stepDelay != 50*time.Millisecond {
					return "want telemetry addr, peer-status addr and 50ms step delay"
				}
				return ""
			},
		},
		{name: "negative step delay", argv: []string{"-step-delay", "-1s"}, wantErr: "-step-delay must be non-negative"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(tc.argv)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseArgs(%v) = %+v, want error containing %q", tc.argv, o, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseArgs(%v) error = %q, want substring %q", tc.argv, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%v): %v", tc.argv, err)
			}
			if tc.check != nil {
				if msg := tc.check(o); msg != "" {
					t.Errorf("parseArgs(%v) = %+v: %s", tc.argv, o, msg)
				}
			}
		})
	}
}
