package main

import (
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/staging"
)

// TestParseArgs covers the flag surface and the consumer-spec grammar
// ("name[:policy[:depth[:arrays[:codecs]]]]", the one way to name a
// staged consumer) including invalid specs, cross-flag rules and the
// refusal of every deleted flag by name.
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
				if o.spec != nil || o.ranks != 1 || o.contact != "contact.txt" || o.name() != "endpoint" {
					return "want direct mode with 1 rank and default contact"
				}
				return ""
			},
		},
		{
			name: "full consumer spec",
			argv: []string{"-consumer", "render:block:2", "-ranks", "4"},
			check: func(o *options) string {
				if o.spec == nil || o.name() != "render" || o.spec.Policy != staging.Block || o.spec.Depth != 2 || o.ranks != 4 {
					return "want 4 staged ranks claiming render:block:2"
				}
				return ""
			},
		},
		{
			name: "spec with name only keeps defaults",
			argv: []string{"-consumer", "hist"},
			check: func(o *options) string {
				if o.spec == nil || o.name() != "hist" || o.spec.Policy != staging.Block || o.spec.Depth != 0 {
					return "want name hist, default block policy, hub-default depth"
				}
				return ""
			},
		},
		// latest-only was drop-oldest with a window of one; the refusal
		// names the spec to write instead.
		{name: "spec with retired policy", argv: []string{"-consumer", "viz:latest-only"}, wantErr: "drop-oldest:1"},
		{
			name: "timeout and out pass through",
			argv: []string{"-timeout", "5s", "-out", "results"},
			check: func(o *options) string {
				if o.Timeout != 5*time.Second || o.out != "results" {
					return "want timeout 5s, out results"
				}
				return ""
			},
		},
		{name: "spec with bad policy", argv: []string{"-consumer", "a:warp"}, wantErr: "unknown policy"},
		{name: "spec with bad depth", argv: []string{"-consumer", "a:block:zero"}, wantErr: "bad depth"},
		{name: "spec with negative depth", argv: []string{"-consumer", "a:block:-1"}, wantErr: "bad depth"},
		{
			name: "spec with arrays subset",
			argv: []string{"-consumer", "viz:drop-oldest:1:pressure+velocity_x"},
			check: func(o *options) string {
				if len(o.arrays) != 2 || o.arrays[0] != "pressure" || o.arrays[1] != "velocity_x" {
					return "want arrays [pressure velocity_x]"
				}
				return ""
			},
		},
		{
			name: "arrays flag",
			argv: []string{"-consumer", "ep", "-arrays", "pressure, temperature"},
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
			argv: []string{"-codecs", "transpose-delta, pressure=quantize:1e-6"},
			check: func(o *options) string {
				if len(o.codecs) != 2 || o.codecs[0] != "transpose-delta" || o.codecs[1] != "pressure=quantize:1e-6" {
					return "want codecs [transpose-delta pressure=quantize:1e-6]"
				}
				return ""
			},
		},
		{name: "bad codecs flag", argv: []string{"-codecs", "lzma"}, wantErr: `unknown codec "lzma"`},
		{name: "retired codecs flag", argv: []string{"-codecs", "transpose-delta,pressure=temporal-delta"}, wantErr: "temporal-delta is retired"},
		{name: "spec with retired codec", argv: []string{"-consumer", "a:block:2:x:temporal-delta"}, wantErr: "temporal-delta is retired"},
		{
			name: "codecs flag fills a spec without the field",
			argv: []string{"-consumer", "a:block:2:x", "-codecs", "transpose-delta"},
			check: func(o *options) string {
				if len(o.arrays) != 1 || o.arrays[0] != "x" || len(o.codecs) != 1 || o.codecs[0] != "transpose-delta" {
					return "want arrays [x] from the spec and codecs [transpose-delta] from the flag"
				}
				return ""
			},
		},
		{name: "spec conflicts with codecs flag", argv: []string{"-consumer", "a:block:2:x:transpose-delta", "-codecs", "quantize:1e-3"}, wantErr: "codecs given twice"},
		{name: "spec conflicts with arrays flag", argv: []string{"-consumer", "a:block:2:x", "-arrays", "y"}, wantErr: "arrays given twice"},
		{name: "spec with empty name", argv: []string{"-consumer", ":block"}, wantErr: "empty name"},
		{name: "two specs", argv: []string{"-consumer", "a:block,b:block"}, wantErr: "exactly one spec"},
		// -name, -policy, -depth and -peer-status are deleted. The rows
		// that used to combine them with a spec keep their argv: what was
		// a cross-flag conflict is now refused sooner, by the flag's name.
		{name: "policy flag is gone", argv: []string{"-policy", "drop-oldest", "-depth", "1"}, wantErr: "flag provided but not defined: -policy"},
		{name: "unknown policy", argv: []string{"-policy", "warp"}, wantErr: "flag provided but not defined: -policy"},
		{name: "spec conflicts with policy flag", argv: []string{"-consumer", "a:block", "-policy", "block"}, wantErr: "flag provided but not defined: -policy"},
		{name: "spec conflicts with name flag", argv: []string{"-consumer", "a", "-name", "b"}, wantErr: "flag provided but not defined: -name"},
		{name: "spec conflicts even with explicit defaults", argv: []string{"-consumer", "a", "-name", "endpoint"}, wantErr: "flag provided but not defined: -name"},
		{name: "spec conflicts with explicit zero depth", argv: []string{"-consumer", "a", "-depth", "0"}, wantErr: "flag provided but not defined: -depth"},
		{name: "negative depth flag", argv: []string{"-consumer", "a", "-depth", "-2"}, wantErr: "flag provided but not defined: -depth"},
		{name: "peer-status flag is gone", argv: []string{"-telemetry", "127.0.0.1:9151", "-peer-status", "127.0.0.1:9150"}, wantErr: "flag provided but not defined: -peer-status"},
		{name: "zero ranks", argv: []string{"-ranks", "0"}, wantErr: "-ranks must be positive"},
		// -consumers is deleted too (run N endpoints for N replicas); its
		// rows keep their argv and are refused by the flag's name.
		{name: "zero consumers", argv: []string{"-consumer", "ep", "-consumers", "0"}, wantErr: "flag provided but not defined: -consumers"},
		{name: "replicas without staged mode", argv: []string{"-consumers", "3"}, wantErr: "flag provided but not defined: -consumers"},
		{name: "replicas of ranks", argv: []string{"-consumer", "ep", "-ranks", "2", "-consumers", "3"}, wantErr: "flag provided but not defined: -consumers"},
		{name: "group flag is gone", argv: []string{"-consumer", "ep", "-group", "2"}, wantErr: "flag provided but not defined: -group"},
		{name: "presharded flag is gone", argv: []string{"-consumer", "ep", "-presharded"}, wantErr: "flag provided but not defined: -presharded"},
		{name: "positional junk", argv: []string{"stray"}, wantErr: "unexpected arguments"},
		{
			name: "telemetry flags pass through",
			argv: []string{"-telemetry", "127.0.0.1:9151", "-step-delay", "50ms"},
			check: func(o *options) string {
				if o.Telemetry != "127.0.0.1:9151" || o.stepDelay != 50*time.Millisecond {
					return "want telemetry addr and 50ms step delay"
				}
				return ""
			},
		},
		{name: "negative step delay", argv: []string{"-step-delay", "-1s"}, wantErr: "-step-delay must be non-negative"},
		// The shell's one validation (internal/shell).
		{name: "negative retry", argv: []string{"-retry", "-1"}, wantErr: "-retry must be non-negative"},
		{name: "negative session ttl", argv: []string{"-session-ttl", "-1s"}, wantErr: "-session-ttl must be non-negative"},
		{name: "negative liveness", argv: []string{"-liveness", "-1s"}, wantErr: "-liveness must be non-negative"},
		{name: "negative timeout", argv: []string{"-timeout", "-1s"}, wantErr: "-timeout must be non-negative"},
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
