package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the nekrs and sensei-endpoint every test launches,
// built once for the package.
var binDir string

func TestMain(m *testing.M) {
	var err error
	if binDir, err = buildBinaries(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// TestRegistryIsThePapersFigures: the registry holds the paper's
// evaluation and nothing else, and an unknown name says what it holds.
func TestRegistryIsThePapersFigures(t *testing.T) {
	if got := strings.Join(names(), " "); got != "2 3 storage 5 6" {
		t.Errorf("registry = %q, want the paper's five figures", got)
	}
	err := run(options{fig: "fanout", out: t.TempDir()})
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, name := range names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list figure %q", err, name)
		}
	}
}

// TestStorageFigure runs one registry row end to end on the smallest
// meaningful pb146 matrix: the table is written and the shape check
// (run's error) passes.
func TestStorageFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pb146 matrix")
	}
	out := t.TempDir()
	err := run(options{
		fig: "storage", out: out, ranks: "2", bin: binDir,
		steps: 6, interval: 3, refine: 1, order: 2, imagePx: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(out, "storage.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if s := string(csv); !strings.Contains(s, "Catalyst") || !strings.Contains(s, "Checkpointing") {
		t.Errorf("storage.csv lacks a configuration:\n%s", s)
	}
	if _, err := os.Stat(filepath.Join(out, "fig2.csv")); err == nil {
		t.Error("-fig storage also wrote fig2.csv")
	}
}

// TestFailedShapeIsRunsError: a failed shape check is run's error (the
// process's exit code, which is what CI reads), returned after the
// figure's tables were written.
func TestFailedShapeIsRunsError(t *testing.T) {
	wrong := errors.New("not the paper's shape")
	saved := registry
	defer func() { registry = saved }()
	registry = append(registry[:len(registry):len(registry)], figure{
		name:   "broken",
		run:    func(*matrices) error { return nil },
		tables: func(m *matrices) []table { return []table{{"broken.csv", Fig2Table(nil)}} },
		check:  func(*matrices) (string, error) { return "", wrong },
	})
	out := t.TempDir()
	if err := run(options{fig: "broken", out: out, bin: binDir}); !errors.Is(err, wrong) {
		t.Errorf("run = %v, want the failed check", err)
	}
	if _, err := os.Stat(filepath.Join(out, "broken.csv")); err != nil {
		t.Errorf("tables not written before the check failed: %v", err)
	}
}
