package adios

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Contact files are SST's rendezvous mechanism: writers publish their
// listening addresses to a shared filesystem path; readers poll for
// the file and connect. One line per writer rank.
//
// A contact file left behind by a crashed run is a trap: a reader
// that connects to the defunct address consumes the (single-use)
// accept of nothing, or hangs in a handshake that never answers. The
// writer therefore stamps its pid into the file as a "#pid=N" comment
// line, and Contact.Read treats a file whose writing process is
// provably dead as stale: it removes the file and keeps polling for a
// fresh one instead of returning a dead address.

// Contact names a rendezvous — what a process's -contact-dir/-contact
// flags (or the XML contact-dir/contact attributes) resolve to: the
// contact file at path Name, or, with a Dir, the entry
// "<Dir>/<Name>.contact" of a shared contact directory. A directory
// carries a multi-hub topology (a staging mesh of producer hubs and
// relay tiers): each hub or relay publishes one named entry instead of
// all of them colliding on one path. Every entry is an ordinary contact
// file, so pid staleness detection and the atomic-rename publish apply
// per entry.
type Contact struct{ Dir, Name string }

// path locates the contact file. Entry names must be bare (no path
// separators): entries are flat by design, one per hub/relay.
func (c Contact) path() (string, error) {
	if c.Dir == "" {
		return c.Name, nil
	}
	if c.Name == "" || strings.ContainsAny(c.Name, "/\\") || c.Name == "." || c.Name == ".." {
		return "", fmt.Errorf("adios: bad contact entry name %q", c.Name)
	}
	return filepath.Join(c.Dir, c.Name+".contact"), nil
}

// contactSeq distinguishes concurrent Write calls within one process,
// so two publishers never collide on the temp name.
var contactSeq atomic.Int64

// Write publishes writer addresses (rank order), atomically via
// rename, creating the contact directory if needed. The temp name is
// unique per process and call — a restarting producer racing a
// leftover publisher can never tear each other's temp file, and
// pollers only ever observe complete files. The writing process's pid
// is stamped into a leading comment line so readers can detect a file
// orphaned by a crashed run (see Read).
//
// A non-empty telemetry is the writer's exporter address, stamped as a
// "#telemetry=host:port" comment line, which plain address readers
// skip; the mesh crawler reads it to find every process's /statusz.
// addrs may be empty for a telemetry-only observer entry (a leaf
// consumer announcing itself to the crawler without serving anything).
func (c Contact) Write(addrs []string, telemetry string) error {
	path, err := c.path()
	if err != nil {
		return err
	}
	if c.Dir != "" {
		if err := os.MkdirAll(c.Dir, 0o755); err != nil {
			return err
		}
	}
	tmp := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), contactSeq.Add(1))
	if err := os.WriteFile(tmp, formatContact(addrs, os.Getpid(), telemetry), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort: don't leave the temp behind
		return err
	}
	return nil
}

// formatContact is a contact file's text as Write publishes it, which
// parseContact reads back.
func formatContact(addrs []string, pid int, telemetry string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "#pid=%d\n", pid)
	if telemetry != "" {
		fmt.Fprintf(&b, "#telemetry=%s\n", telemetry)
	}
	for _, a := range addrs {
		b.WriteString(a)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// parseContact splits a contact file into its advertised addresses,
// the writer pid (0 if the file carries none — files written before
// pid stamping, or by other tools), and the writer's telemetry
// exporter address ("" if unadvertised). Other comment lines are
// skipped. A stamp that is not a positive pid counts as none: pidAlive
// would probe a process group for it.
func parseContact(raw []byte) (addrs []string, pid int, telemetry string) {
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if v, ok := strings.CutPrefix(line, "#pid="); ok {
				if p, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && p > 0 {
					pid = p
				}
			}
			if v, ok := strings.CutPrefix(line, "#telemetry="); ok {
				telemetry = strings.TrimSpace(v)
			}
			continue
		}
		addrs = append(addrs, line)
	}
	return addrs, pid, telemetry
}

// pidAlive reports whether the stamped writer process still exists.
// Only a provable ESRCH counts as dead: permission errors, unknown
// errors and platforms without signal probing all report alive, so a
// reachable-but-foreign writer is never misclassified as stale.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return true
	}
	err = proc.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	return !errors.Is(err, os.ErrProcessDone) && !errors.Is(err, syscall.ESRCH)
}

// staleSeq distinguishes concurrent removeStale calls within one
// process (several readers polling the same path).
var staleSeq atomic.Int64

// removeStale deletes a contact file previously judged stale, without
// ever deleting a concurrently published fresh one: the file is
// atomically renamed aside first, re-read, and — if it is no longer
// the bytes that were judged stale (a live writer's rename won the
// race) — renamed straight back.
func removeStale(path string, seen []byte) {
	tmp := fmt.Sprintf("%s.stale-%d-%d", path, os.Getpid(), staleSeq.Add(1))
	if err := os.Rename(path, tmp); err != nil {
		return // already gone (another reader, or the writer replaced it)
	}
	now, err := os.ReadFile(tmp)
	if err == nil && bytes.Equal(now, seen) {
		os.Remove(tmp) //nolint:errcheck // best effort
		return
	}
	os.Rename(tmp, path) //nolint:errcheck // we grabbed a fresh publish: restore it
}

// ContactEntry is one parsed entry of a contact directory, as seen by
// the mesh crawler: the advertised addresses, the writer's liveness
// (pid probe), and its telemetry exporter address if it published
// one. Addrs may be empty for telemetry-only observer entries.
type ContactEntry struct {
	Name      string   `json:"name"`
	Addrs     []string `json:"addrs,omitempty"`
	PID       int      `json:"pid,omitempty"`
	Telemetry string   `json:"telemetry,omitempty"`
	Alive     bool     `json:"alive"`
}

// ListContactEntries parses every "<name>.contact" entry in a contact
// directory, sorted by name. Unlike Contact.Read it does not poll or
// remove stale entries — the crawler wants the directory as-is,
// including entries from dead processes (reported with Alive=false).
// In-flight temp and stale-quarantine files are skipped.
func ListContactEntries(dir string) ([]ContactEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ContactEntry
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".contact") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue // unlinked between ReadDir and read
		}
		addrs, pid, tel := parseContact(raw)
		out = append(out, ContactEntry{
			Name:      strings.TrimSuffix(name, ".contact"),
			Addrs:     addrs,
			PID:       pid,
			Telemetry: tel,
			Alive:     pid == 0 || pid == os.Getpid() || pidAlive(pid),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Read polls for the contact file until it appears (or timeout) and
// returns the advertised addresses. A file stamped with the pid of a
// process that no longer exists is a leftover from a dead prior run:
// it is removed (best effort, never racing a concurrent fresh publish)
// and polling continues until a live run publishes a fresh file.
func (c Contact) Read(timeout time.Duration) ([]string, error) {
	path, err := c.path()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	stale := 0
	var lastErr error
	for {
		raw, err := os.ReadFile(path)
		lastErr = err
		if err == nil {
			addrs, pid, _ := parseContact(raw)
			if len(addrs) > 0 {
				if pid != 0 && pid != os.Getpid() && !pidAlive(pid) {
					stale++
					removeStale(path, raw)
				} else {
					return addrs, nil
				}
			}
		}
		if time.Now().After(deadline) {
			if stale > 0 {
				return nil, fmt.Errorf("adios: contact file %s: removed %d stale file(s) from dead prior run(s), no live writer appeared", path, stale)
			}
			return nil, fmt.Errorf("adios: contact file %s not available: %v", path, lastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
