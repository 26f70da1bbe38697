package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is the fingerprint every result file carries, so two
// files are only ever compared knowing where each was taken.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2         string `json:"l2_per_core"`
	L3         string `json:"l3"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func fingerprint() environment {
	env := environment{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		L2: cacheSize(2), L3: cacheSize(3),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The toolchain stamps the commit when it builds inside a git
	// checkout; the driver's checkouts are not one.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// cacheSize reads cpu0's cache of the given level from sysfs.
func cacheSize(level int) string {
	for idx := 0; idx < 8; idx++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d", idx)
		lv, err := os.ReadFile(dir + "/level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "/type")
		if strings.TrimSpace(string(lv)) == strconv.Itoa(level) && strings.TrimSpace(string(typ)) != "Instruction" {
			if size, err := os.ReadFile(dir + "/size"); err == nil {
				return strings.TrimSpace(string(size))
			}
		}
	}
	return "unknown"
}
