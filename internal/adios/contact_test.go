package adios

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestContactRoundTrip covers the stamped format: addresses survive,
// the pid comment is parsed, comment lines never leak into addresses.
func TestContactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contact.txt")
	want := []string{"127.0.0.1:1234", "127.0.0.1:5678"}
	if err := (Contact{Name: path}).Write(want, ""); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "#pid=") {
		t.Fatalf("contact file not pid-stamped:\n%s", raw)
	}
	addrs, err := (Contact{Name: path}).Read(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != want[0] || addrs[1] != want[1] {
		t.Fatalf("Read = %v, want %v", addrs, want)
	}
}

// deadPid returns a pid that provably does not exist (beyond
// kernel.pid_max, which caps at 2^22 on 64-bit Linux).
const deadPid = 1 << 30

// TestContactStaleDetection: a contact file stamped by a dead process
// is removed and never returned as a live rendezvous.
func TestContactStaleDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contact.txt")
	stale := "#pid=" + itoa(deadPid) + "\n127.0.0.1:1999\n"
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := (Contact{Name: path}).Read(100 * time.Millisecond)
	if err == nil {
		t.Fatal("stale contact file returned as live")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error does not mention staleness: %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("stale contact file was not removed")
	}
}

// TestContactStaleThenFresh: the reader outlives a stale file and
// picks up the fresh one a live run publishes afterwards.
func TestContactStaleThenFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contact.txt")
	stale := "#pid=" + itoa(deadPid) + "\n127.0.0.1:1999\n"
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		(Contact{Name: path}).Write([]string{"127.0.0.1:2345"}, "") //nolint:errcheck
	}()
	addrs, err := (Contact{Name: path}).Read(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != "127.0.0.1:2345" {
		t.Fatalf("Read = %v after fresh publish", addrs)
	}
}

// TestContactUnstampedCompat: files without a pid comment (older
// format, foreign tools) are accepted as before.
func TestContactUnstampedCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contact.txt")
	if err := os.WriteFile(path, []byte("127.0.0.1:4321\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, err := (Contact{Name: path}).Read(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != "127.0.0.1:4321" {
		t.Fatalf("Read = %v", addrs)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestContactDirEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mesh-contacts")
	if err := (Contact{dir, "hub"}).Write([]string{"127.0.0.1:9000", "127.0.0.1:9001"}, ""); err != nil {
		t.Fatalf("Write hub: %v", err)
	}
	if err := (Contact{dir, "relay-0"}).Write([]string{"127.0.0.1:9100"}, ""); err != nil {
		t.Fatalf("Write relay-0: %v", err)
	}
	addrs, err := (Contact{dir, "hub"}).Read(time.Second)
	if err != nil {
		t.Fatalf("Read hub: %v", err)
	}
	if len(addrs) != 2 || addrs[1] != "127.0.0.1:9001" {
		t.Fatalf("hub entry = %v", addrs)
	}
	addrs, err = (Contact{dir, "relay-0"}).Read(time.Second)
	if err != nil || len(addrs) != 1 {
		t.Fatalf("relay-0 entry = %v, %v", addrs, err)
	}
	// Entries are plain contact files: single-file readers can point
	// straight at one.
	path, err := (Contact{dir, "hub"}).path()
	if err != nil {
		t.Fatal(err)
	}
	if addrs, err = (Contact{Name: path}).Read(time.Second); err != nil || len(addrs) != 2 {
		t.Fatalf("Read on entry path = %v, %v", addrs, err)
	}
	// Without a directory the name is a file path: what a process's
	// -contact flag resolves to when -contact-dir is unset.
	file := filepath.Join(t.TempDir(), "contact.txt")
	if err := (Contact{Name: file}).Write([]string{"127.0.0.1:9300"}, ""); err != nil {
		t.Fatal(err)
	}
	if addrs, err := (Contact{Name: file}).Read(time.Second); err != nil || len(addrs) != 1 || addrs[0] != "127.0.0.1:9300" {
		t.Errorf("(Contact{Name: file}).Read = %v, %v", addrs, err)
	}
}

func TestContactDirEntryStaleness(t *testing.T) {
	dir := t.TempDir()
	path, err := (Contact{dir, "dead"}).path()
	if err != nil {
		t.Fatal(err)
	}
	// An entry stamped with a provably dead pid is a leftover: the
	// reader removes it and times out waiting for a live publish.
	body := "#pid=" + itoa(deadPid) + "\n127.0.0.1:1\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (Contact{dir, "dead"}).Read(50 * time.Millisecond); err == nil {
		t.Fatal("want timeout after removing stale entry")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stale entry not removed: %v", err)
	}
}

func TestContactEntryNameValidation(t *testing.T) {
	for _, bad := range []string{"", "a/b", `a\b`, ".", ".."} {
		if _, err := (Contact{"d", bad}).path(); err == nil {
			t.Fatalf("name %q: want error", bad)
		}
	}
}

// TestContactTelemetryStamp: the optional #telemetry= stamp round-
// trips through write and list, and its absence stays compatible.
func TestContactTelemetryStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contact.txt")
	if err := (Contact{Name: path}).Write([]string{"127.0.0.1:9000"}, "127.0.0.1:9150"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "#telemetry=127.0.0.1:9150") {
		t.Fatalf("contact file not telemetry-stamped:\n%s", raw)
	}
	// The stamp is a comment: plain address readers never see it.
	addrs, err := (Contact{Name: path}).Read(time.Second)
	if err != nil || len(addrs) != 1 || addrs[0] != "127.0.0.1:9000" {
		t.Fatalf("Read = %v, %v", addrs, err)
	}
}

// TestListContactEntries covers the crawler's directory walk: data
// entries with and without telemetry, a telemetry-only observer entry
// (no addresses), liveness from the pid stamp, and name-sorted output.
func TestListContactEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mesh")
	if err := (Contact{dir, "sim"}).Write([]string{"127.0.0.1:9000", "127.0.0.1:9001"}, "127.0.0.1:9150"); err != nil {
		t.Fatal(err)
	}
	if err := (Contact{dir, "dark"}).Write([]string{"127.0.0.1:9200"}, ""); err != nil {
		t.Fatal(err)
	}
	// A consumer publishes a telemetry-only observer entry: no data
	// addresses, just the exporter.
	if err := (Contact{dir, "endpoint"}).Write(nil, "127.0.0.1:9152"); err != nil {
		t.Fatal(err)
	}
	// A dead process's leftover entry is listed but flagged.
	deadPath, err := (Contact{dir, "zombie"}).path()
	if err != nil {
		t.Fatal(err)
	}
	body := "#pid=" + itoa(deadPid) + "\n#telemetry=127.0.0.1:9153\n127.0.0.1:9300\n"
	if err := os.WriteFile(deadPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := ListContactEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("listed %d entries, want 4: %+v", len(entries), entries)
	}
	byName := map[string]ContactEntry{}
	var names []string
	for _, e := range entries {
		byName[e.Name] = e
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "dark,endpoint,sim,zombie" {
		t.Errorf("entries not name-sorted: %v", names)
	}
	sim := byName["sim"]
	if sim.Telemetry != "127.0.0.1:9150" || len(sim.Addrs) != 2 || !sim.Alive || sim.PID != os.Getpid() {
		t.Errorf("sim entry = %+v", sim)
	}
	if dark := byName["dark"]; dark.Telemetry != "" || !dark.Alive {
		t.Errorf("dark entry = %+v", dark)
	}
	if ep := byName["endpoint"]; len(ep.Addrs) != 0 || ep.Telemetry != "127.0.0.1:9152" {
		t.Errorf("observer entry = %+v", ep)
	}
	if z := byName["zombie"]; z.Alive {
		t.Errorf("dead-pid entry reported alive: %+v", z)
	}
}

func TestListContactEntriesMissingDir(t *testing.T) {
	if _, err := ListContactEntries(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("want error for a missing directory")
	}
}

// FuzzParseContact feeds the contact parser arbitrary bytes, as a
// foreign tool or a torn file could leave them: it never panics, and
// the pid it reads is 0 (no stamp) or positive, never a process group
// for pidAlive to probe. Text formatted as Contact.Write writes it
// parses back to the same addresses, pid and telemetry address.
func FuzzParseContact(f *testing.F) {
	for _, seed := range []string{
		"#pid=42\n#telemetry=127.0.0.1:9150\n127.0.0.1:1\n127.0.0.1:2\n",
		"#pid=-5\n127.0.0.1:1\n", "#pid=-1\n127.0.0.1:1\n", "#pid=0\n", "#pid= 7 \r\n",
		"#pid=99999999999999999999\n", "#telemetry=\n#other\n\n  x  \n", "", "#", "\n\n",
	} {
		f.Add([]byte(seed), "127.0.0.1:1,127.0.0.1:2", 1234, "127.0.0.1:9150")
	}
	f.Add([]byte{}, "", -5, "")
	f.Fuzz(func(t *testing.T, raw []byte, addrList string, pid int, tel string) {
		if _, p, _ := parseContact(raw); p < 0 {
			t.Fatalf("parseContact(%q) read pid %d", raw, p)
		}
		var addrs []string
		if addrList != "" {
			addrs = strings.Split(addrList, ",")
		}
		for _, a := range addrs {
			if a == "" || a != strings.TrimSpace(a) || strings.ContainsAny(a, "\n") || strings.HasPrefix(a, "#") {
				return // not an address Write is given
			}
		}
		if pid <= 0 || tel != strings.TrimSpace(tel) || strings.ContainsAny(tel, "\n") {
			return
		}
		gotAddrs, gotPid, gotTel := parseContact(formatContact(addrs, pid, tel))
		if !slices.Equal(gotAddrs, addrs) || gotPid != pid || gotTel != tel {
			t.Fatalf("round trip of (%q, %d, %q) read (%q, %d, %q)", addrs, pid, tel, gotAddrs, gotPid, gotTel)
		}
	})
}
