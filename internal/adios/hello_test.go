package adios_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/staging"
)

// countingReader counts what a decoder pulled from the peer.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// hugeHello is a syntactically valid hello whose consumer name runs
// for size bytes.
func hugeHello(size int) io.Reader {
	return io.MultiReader(strings.NewReader(`{"type":"hello","role":"reader","consumer":"`),
		strings.NewReader(strings.Repeat("a", size)), strings.NewReader("\"}\n"))
}

// TestReadHelloCap: a 1 MiB hello is refused by name after at most the
// cap (plus one read-ahead buffer) was pulled from the peer — it is
// never buffered whole — while a real hello decodes and hands back
// whatever the decoder read past it.
func TestReadHelloCap(t *testing.T) {
	src := &countingReader{r: hugeHello(1 << 20)}
	var h adios.Hello
	_, err := adios.ReadHello(bufio.NewReaderSize(src, 1<<16), &h)
	if !errors.Is(err, adios.ErrHelloTooLarge) {
		t.Fatalf("1 MiB hello: %v, want ErrHelloTooLarge", err)
	}
	if src.n > adios.MaxHelloBytes+1<<16 {
		t.Errorf("read %d bytes of an oversized hello, cap is %d", src.n, adios.MaxHelloBytes)
	}

	// Hello, its newline and two credit bytes in one segment: the
	// decoder over-reads them and the data plane must still see them.
	line, _ := json.Marshal(adios.Hello{Type: "hello", Role: "reader", Consumer: "c"})
	wire := append(append(line, '\n'), adios.CreditStep, adios.CreditKeepalive)
	rest, err := adios.ReadHello(bufio.NewReader(strings.NewReader(string(wire))), &h)
	if err != nil || h.Consumer != "c" {
		t.Fatalf("plain hello: %+v, %v", h, err)
	}
	got, err := io.ReadAll(rest)
	if err != nil || string(got) != string([]byte{adios.CreditStep, adios.CreditKeepalive}) {
		t.Errorf("bytes after the hello = %v (%v), want the two credit bytes", got, err)
	}
}

// helloTrailer is what FuzzReadHello sends after the fuzzed bytes: the
// newline json.Encoder ends a hello with, then a NUL — which no JSON
// value can contain, so the hello always ends before the trailer — and
// the start of a data plane, two credit bytes and a frame magic.
var helloTrailer = []byte{'\n', 0, adios.CreditStep, adios.CreditKeepalive, 'B', 'P', 'C', '6'}

// FuzzReadHello feeds the handshake's parser arbitrary bytes followed by
// helloTrailer, as a peer could send them, after up to a little more
// than MaxHelloBytes of leading blanks: the fuzzer keeps its inputs
// short, and a hello past the cap is one number away. It must never
// panic, and must pull at most MaxHelloBytes and one read-ahead buffer
// from the peer. Against a reference decode with no cap: a hello that needs more
// than MaxHelloBytes is ErrHelloTooLarge; after a hello that parses,
// the data plane is every byte the hello did not use, less one leading
// newline — the trailer among them, byte for byte — and its codecs
// either parse or are refused by codec.ParseSpec, never parsing to the
// retired temporal-delta.
func FuzzReadHello(f *testing.F) {
	line := func(h adios.Hello) []byte {
		b, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	const maxPad = adios.MaxHelloBytes + 1<<10
	good := line(adios.Hello{Type: "hello", Role: "reader", Marshal: adios.FrameFormat, Consumer: "c",
		Codecs: []string{"transpose-delta", "pressure=quantize:1e-3"}})
	for _, seed := range [][]byte{
		good,
		append(good[:len(good):len(good)], '\n'),
		append(good[:len(good):len(good)], " {}"...),
		line(adios.Hello{Type: "hello", Role: "reader", Codecs: []string{"temporal-delta"}}),
		line(adios.Hello{Type: "hello", Role: "writer", Codecs: []string{"quantize"}}),
		[]byte("{}"), []byte("null"), []byte(`{"type":`), []byte("[1,2]"), []byte("7"), []byte{}, []byte("\n"),
	} {
		f.Add(seed, uint32(0))
	}
	// Blanks that leave the hello just under, at and over the cap.
	for _, pad := range []int{adios.MaxHelloBytes - len(good), adios.MaxHelloBytes - len(good) + 1, adios.MaxHelloBytes} {
		f.Add(good, uint32(pad))
	}

	f.Fuzz(func(t *testing.T, data []byte, pad uint32) {
		blanks := int(pad % maxPad)
		wire := make([]byte, blanks, blanks+len(data)+len(helloTrailer))
		for i := range wire {
			wire[i] = ' '
		}
		wire = append(append(wire, data...), helloTrailer...)
		src := &countingReader{r: bytes.NewReader(wire)}
		var h adios.Hello
		rest, err := adios.ReadHello(bufio.NewReaderSize(src, 1<<16), &h)
		if src.n > adios.MaxHelloBytes+1<<16 {
			t.Fatalf("pulled %d bytes for the hello, cap is %d plus one buffer", src.n, adios.MaxHelloBytes)
		}
		ref := json.NewDecoder(bytes.NewReader(wire))
		var refHello adios.Hello
		refErr := ref.Decode(&refHello)
		used := ref.InputOffset()
		if refErr == nil && used > adios.MaxHelloBytes && !errors.Is(err, adios.ErrHelloTooLarge) {
			t.Fatalf("a %d-byte hello: err = %v, want ErrHelloTooLarge", used, err)
		}
		if err != nil {
			return
		}
		if refErr != nil || used > int64(blanks+len(data)) {
			t.Fatalf("ReadHello accepted a hello the reference decode does not end before the trailer (%v, %d of %d bytes)", refErr, used, blanks+len(data))
		}
		want := wire[used:]
		if want[0] == '\n' {
			want = want[1:]
		}
		got, err := io.ReadAll(rest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.HasSuffix(got, helloTrailer[1:]) {
			t.Fatalf("data plane after the hello = %q, want %q", got, want)
		}
		sp, err := codec.ParseSpec(h.Codecs)
		if err != nil {
			return
		}
		choices := []codec.Choice{sp.Default}
		for _, ch := range sp.PerArray {
			choices = append(choices, ch)
		}
		for _, ch := range choices {
			if ch.ID == codec.TemporalDelta {
				t.Fatalf("codecs %q parse to the retired temporal-delta", h.Codecs)
			}
		}
	})
}

// TestOversizedHelloRefusedBothSides: the server refuses a reader's
// 1 MiB hello and the reader a writer's, each with the named error.
func TestOversizedHelloRefusedBothSides(t *testing.T) {
	hub := staging.NewHub(nil)
	srv, err := staging.Serve(hub, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(conn, hugeHello(1<<20)) //nolint:errcheck // the server hangs up partway
	// The write can finish into loopback buffers before the server has
	// even accepted the connection; wait for its hang-up (EOF or reset),
	// so closing the server cannot beat its refusal.
	io.Copy(io.Discard, conn) //nolint:errcheck // a reset is the hang-up too
	conn.Close()
	hub.Close()
	srv.Close() // waits for the connection's goroutine, so Err is settled
	if err := srv.Err(); !errors.Is(err, adios.ErrHelloTooLarge) {
		t.Errorf("server saw %v, want ErrHelloTooLarge", err)
	}

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
		io.Copy(conn, hugeHello(1<<20)) //nolint:errcheck // the reader hangs up partway
		conn.Close()
	}()
	if _, err := adios.OpenReaderWith(ln.Addr().String(), adios.ReaderOptions{}); !errors.Is(err, adios.ErrHelloTooLarge) {
		t.Errorf("reader saw %v, want ErrHelloTooLarge", err)
	}
}

// TestReaderRefusesOtherFrameFormat: a reader names its frame format
// in its hello, and refuses a writer whose hello names another (or
// none), naming both, even under a retry policy: the refusal is
// permanent.
func TestReaderRefusesOtherFrameFormat(t *testing.T) {
	for _, format := range []string{"bp05", ""} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		heard := make(chan adios.Hello, 4)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				var h adios.Hello
				if _, err := adios.ReadHello(bufio.NewReader(conn), &h); err == nil {
					heard <- h
					json.NewEncoder(conn).Encode(adios.Hello{Type: "hello", Role: "writer", Marshal: format}) //nolint:errcheck
				}
				conn.Close()
			}
		}()
		_, err = adios.OpenReaderWith(ln.Addr().String(), adios.ReaderOptions{Retry: 3})
		ln.Close()
		var rej *adios.RejectedError
		if !errors.As(err, &rej) || !strings.Contains(err.Error(), `frame format "`+format+`"`) ||
			!strings.Contains(err.Error(), `"`+adios.FrameFormat+`"`) {
			t.Errorf("writer speaking %q: reader error %v, want a refusal naming both formats", format, err)
		}
		if h := <-heard; h.Marshal != adios.FrameFormat {
			t.Errorf("reader hello names format %q, want %q", h.Marshal, adios.FrameFormat)
		}
		if len(heard) != 0 {
			t.Errorf("writer speaking %q: the reader dialed again after a format refusal", format)
		}
	}
}

// TestReaderReportsTruncatedStream: a producer that closes at a frame
// boundary without the zero-length end-of-stream marker has cut the
// stream. The reader says so, wrapping io.ErrUnexpectedEOF, and never
// passes the cut off as io.EOF.
func TestReaderReportsTruncatedStream(t *testing.T) {
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
		defer conn.Close()
		br := bufio.NewReader(conn)
		var h adios.Hello
		credits, err := adios.ReadHello(br, &h)
		if err != nil {
			return
		}
		json.NewEncoder(conn).Encode(adios.Hello{Type: "hello", Role: "writer", Marshal: adios.FrameFormat}) //nolint:errcheck
		for step := range 2 {
			s := adios.SampleStep()
			s.Step = int64(step)
			frame := adios.Marshal(s)
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(frame)))
			conn.Write(append(n[:], frame...)) //nolint:errcheck
			if _, err := credits.ReadByte(); err != nil {
				return
			}
		}
		// Close here: at a frame boundary, with no marker.
	}()
	r, err := adios.OpenReaderWith(ln.Addr().String(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for step := range 2 {
		if s, err := r.BeginStep(); err != nil || s.Step != int64(step) {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	_, err = r.BeginStep()
	if errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) ||
		!strings.Contains(err.Error(), "stream truncated after step 1") {
		t.Fatalf("reader ended with %v, want stream truncated after step 1", err)
	}
}
