package adios

import (
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleStep() *Step {
	return &Step{
		Step: 7, Time: 0.007,
		Attrs: map[string]string{"mesh": "mesh", "case": "rbc"},
		Vars: []Variable{
			NewF64("pressure", []float64{1.5, -2.5, 3.25}, 3),
			NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			NewU8("types", []byte{12, 12}),
		},
	}
}

// contents is s without what records how it holds its storage (its
// own frame buffer, which payloads are views of it), for comparing
// decoded steps with built ones by value.
func contents(s *Step) *Step {
	c := *s
	c.frame, c.Vars = nil, append([]Variable(nil), s.Vars...)
	for i := range c.Vars {
		c.Vars[i].view = false
	}
	return &c
}

func TestMarshalRoundTrip(t *testing.T) {
	s := sampleStep()
	got, err := Unmarshal(Marshal(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, contents(got)) {
		t.Errorf("round trip mismatch:\n  in:  %+v\n  out: %+v", s, got)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	s := sampleStep()
	a := Marshal(s)
	b := Marshal(s)
	if string(a) != string(b) {
		t.Error("marshaling not deterministic")
	}
}

// TestMarshalProperty: random steps survive the round trip.
func TestMarshalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Step{
			Step: rng.Int63n(1e6), Time: rng.Float64(),
			Attrs: map[string]string{},
		}
		for i := 0; i < rng.Intn(4); i++ {
			s.Attrs[string(rune('a'+i))] = string(rune('A' + rng.Intn(26)))
		}
		for i := 0; i < rng.Intn(5); i++ {
			switch rng.Intn(3) {
			case 0:
				data := make([]float64, rng.Intn(50))
				for j := range data {
					data[j] = rng.NormFloat64()
				}
				s.Vars = append(s.Vars, NewF64(string(rune('p'+i)), data, int64(len(data))))
			case 1:
				data := make([]int64, rng.Intn(50))
				for j := range data {
					data[j] = rng.Int63() - (1 << 62)
				}
				s.Vars = append(s.Vars, NewI64(string(rune('p'+i)), data))
			case 2:
				data := make([]byte, rng.Intn(50))
				rng.Read(data)
				s.Vars = append(s.Vars, NewU8(string(rune('p'+i)), data))
			}
		}
		got, err := Unmarshal(Marshal(s))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(s, contents(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("XX")); err == nil {
		t.Error("expected magic error")
	}
	good := Marshal(sampleStep())
	for _, cut := range []int{5, 12, 30, len(good) - 3} {
		if _, err := Unmarshal(good[:cut]); err == nil {
			t.Errorf("expected truncation error at %d", cut)
		}
	}
}

func TestContactFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contact.txt")
	addrs := []string{"127.0.0.1:1111", "127.0.0.1:2222"}
	if err := (Contact{Name: path}).Write(addrs, ""); err != nil {
		t.Fatal(err)
	}
	got, err := (Contact{Name: path}).Read(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(addrs, got) {
		t.Errorf("got %v", got)
	}
}

func TestContactFileTimeout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never.txt")
	if _, err := (Contact{Name: path}).Read(30 * time.Millisecond); err == nil {
		t.Error("expected timeout")
	}
}

func TestContactFileAppearsLate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.txt")
	go func() {
		time.Sleep(30 * time.Millisecond)
		(Contact{Name: path}).Write([]string{"127.0.0.1:9999"}, "") //nolint:errcheck
	}()
	got, err := (Contact{Name: path}).Read(2 * time.Second)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	data := make([]float64, 10000)
	for i := range data {
		data[i] = float64(i)
	}
	s := &Step{Step: 1, Time: 0.1, Vars: []Variable{NewF64("u", data)}}
	b.ReportAllocs()
	b.SetBytes(int64(len(Marshal(s))))
	for i := 0; i < b.N; i++ {
		Marshal(s)
	}
}

func TestOpenReaderBadServer(t *testing.T) {
	// A listener that replies with garbage instead of an SST hello.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("not json\n")) //nolint:errcheck
		conn.Close()
	}()
	if _, err := OpenReaderWith(ln.Addr().String(), ReaderOptions{}); err == nil {
		t.Error("expected handshake error")
	}
}

func TestOpenReaderNoServer(t *testing.T) {
	if _, err := OpenReaderWith("127.0.0.1:1", ReaderOptions{}); err == nil {
		t.Error("expected dial error")
	}
}

// TestBackoffBounds: the delay before the a-th retry is the doubling
// d = min(50ms·2^a, 2s), jittered down by at most half.
func TestBackoffBounds(t *testing.T) {
	for a := 0; a <= 8; a++ {
		d := min(50*time.Millisecond<<a, 2*time.Second)
		for range 200 {
			if b := backoff(a); b < d/2 || b > d {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", a, b, d/2, d)
			}
		}
	}
}

// TestLivenessFloor: a liveness under three of the producer's 10 ms
// heartbeat floors would call a live idle producer dead, so the reader
// refuses it before dialling.
func TestLivenessFloor(t *testing.T) {
	for _, l := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 29 * time.Millisecond} {
		_, err := OpenReaderWith("127.0.0.1:1", ReaderOptions{LivenessTimeout: l})
		if err == nil || !strings.Contains(err.Error(), "liveness "+l.String()+" is under 30ms") {
			t.Errorf("liveness %v: err = %v, want a refusal naming the 30ms floor", l, err)
		}
	}
}
