package shell

import (
	"flag"
	"net/http"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/relay"
)

// TestRegisterAndCheck: a main gets exactly the flags it names, with
// its preset defaults, and the one validation covers all of them.
func TestRegisterAndCheck(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want string // substring of the expected error, "" = ok
	}{
		{nil, ""},
		{[]string{"-retry", "2", "-wait-downstream", "5s", "-liveness", "1s"}, ""},
		{[]string{"-retry", "-1"}, "-retry must be non-negative"},
		{[]string{"-timeout", "-1s"}, "-timeout must be non-negative"},
		{[]string{"-session-ttl", "-1s"}, "-session-ttl must be non-negative"},
		{[]string{"-liveness", "-1s"}, "-liveness must be non-negative"},
		{[]string{"-liveness", "5ms"}, "-liveness must be 0 or at least 30ms"},
		{[]string{"-liveness", "30ms"}, ""},
		{[]string{"-retry", "1", "-wait-downstream", "-1s"}, "-wait-downstream must be non-negative"},
		{[]string{"-wait-downstream", "5s"}, "-wait-downstream needs -retry"},
		{[]string{"-telemetry", "x"}, "flag provided but not defined"}, // not asked for
	} {
		f := Flags{Timeout: time.Minute, SessionTTL: 30 * time.Second}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		f.Register(fs, "contact-dir", "timeout", "retry", "session-ttl", "liveness", "wait-downstream")
		err := fs.Parse(tc.argv)
		if err == nil {
			err = f.Check()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.argv, err)
		case tc.want == "" && (f.Timeout != time.Minute || f.SessionTTL != 30*time.Second):
			t.Errorf("%v: preset defaults lost: %+v", tc.argv, f)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want one containing %q", tc.argv, err, tc.want)
		}
	}
}

// TestMappings: -retry is what turns on the redial (resolving the
// contact again), the session and the relay's deferred upstream edge;
// without it only the liveness bound and the relay's session request go
// out.
func TestMappings(t *testing.T) {
	c := adios.Contact{Dir: t.TempDir(), Name: "sim"}
	if err := c.Write([]string{"a:1", "b:2"}, ""); err != nil {
		t.Fatal(err)
	}
	f := Flags{Timeout: time.Second, SessionTTL: 10 * time.Second, Liveness: 2 * time.Second}
	h := f.Reader(adios.ReaderOptions{Consumer: "ep"}, c, 1)
	if h.Consumer != "ep" || h.LivenessTimeout != 2*time.Second || h.Retry != 0 || h.Redial != nil {
		t.Errorf("hello without -retry = %+v", h)
	}
	var ro relay.Options
	f.Relay(&ro, c)
	if ro.SessionTTL != 10*time.Second || ro.Liveness != 2*time.Second || ro.Retry != 0 || ro.RedialUpstream != nil {
		t.Errorf("relay options without -retry = %+v", ro)
	}

	f.Retry, f.WaitDownstream = 3, time.Second
	h = f.Reader(adios.ReaderOptions{}, c, 1)
	if h.Retry != 3 || h.SessionTTL != 10*time.Second {
		t.Fatalf("hello with -retry = %+v", h)
	}
	if addr, err := h.Redial(); err != nil || addr != "b:2" {
		t.Errorf("redial of source 1 = %q, %v, want b:2", addr, err)
	}
	f.Relay(&ro, c)
	if ro.Retry != 3 || ro.WaitDownstream != time.Second {
		t.Fatalf("relay options with -retry = %+v", ro)
	}
	if addrs, err := ro.RedialUpstream(); err != nil || len(addrs) != 2 {
		t.Errorf("upstream redial = %v, %v", addrs, err)
	}
}

// TestStart: off is a nil handle; on, in a contact directory, the
// process serves /meshz and a named observer publishes a
// telemetry-only entry.
func TestStart(t *testing.T) {
	tel, stop, err := Start("p", "", adios.Contact{Dir: t.TempDir(), Name: "ep"})
	if tel != nil || err != nil {
		t.Fatalf("telemetry off: %v, %v", tel, err)
	}
	stop()

	dir := t.TempDir()
	tel, stop, err = Start("p", "127.0.0.1:0", adios.Contact{Dir: dir, Name: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	entries, err := adios.ListContactEntries(dir)
	if err != nil || len(entries) != 1 || entries[0].Name != "ep" || len(entries[0].Addrs) != 0 || entries[0].Telemetry != tel.ServeAddr() {
		t.Fatalf("observer entry = %+v, %v, want ep with no addresses and telemetry %s", entries, err, tel.ServeAddr())
	}
	resp, err := http.Get("http://" + tel.ServeAddr() + "/meshz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/meshz = %s", resp.Status)
	}
}
