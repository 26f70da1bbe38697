package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/staging"
)

// TestTruncatedStreamFailsTheEndpoint: a producer that cuts the stream
// at a frame boundary, without the end-of-stream marker, has not
// delivered the run, and the endpoint process says so with a non-zero
// exit. The test binary re-executes itself as the endpoint.
func TestTruncatedStreamFailsTheEndpoint(t *testing.T) {
	if argv := os.Getenv("SENSEI_ENDPOINT_ARGV"); argv != "" {
		os.Args = append([]string{"sensei-endpoint"}, strings.Split(argv, "\n")...)
		main()
		os.Exit(0)
	}
	hub := staging.NewHub(nil)
	var cons atomic.Pointer[staging.Consumer]
	srv, err := staging.Serve(hub, "127.0.0.1:0", func(req staging.SubscribeRequest) (*staging.Subscription, error) {
		c, err := hub.Subscribe(req.Name, staging.Block, 2)
		cons.Store(c)
		return &staging.Subscription{Cons: c}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close(); srv.Close() })
	dir := t.TempDir()
	contact := filepath.Join(dir, "contact.txt")
	if err := (adios.Contact{Name: contact}).Write([]string{srv.Addr()}, ""); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTruncatedStreamFailsTheEndpoint$")
	cmd.Env = append(os.Environ(), "SENSEI_ENDPOINT_ARGV="+strings.Join([]string{
		"-contact", contact, "-consumer", "ep:block:2", "-timeout", "10s",
		"-record", filepath.Join(dir, "rec"), "-out", filepath.Join(dir, "out"),
	}, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once it exited
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; endpoint stderr:\n%s", what, stderr.String())
			}
		}
	}
	waitUntil("the endpoint to attach", func() bool { return cons.Load() != nil })
	for seq := range 2 {
		if err := hub.Publish(blockStep(0, seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil("both steps credited", func() bool {
		st := cons.Load().Stats()
		return st.Delivered == 2 && st.Resident == 0
	})
	// The pump finds its consumer closed and ends the connection with
	// no marker: the stream is cut after step 1.
	cons.Load().Close()
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(stderr.String(), "stream truncated after step 1") {
		t.Fatalf("endpoint exited with %v, stderr:\n%s\nwant a non-zero exit naming the truncation", err, stderr.String())
	}
}
