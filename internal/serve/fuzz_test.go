package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smartexp3/internal/cluster"
)

// fuzzConn replays a fixed byte stream as a net.Conn: reads come from the
// fuzz input, writes vanish, deadlines are accepted and ignored. It is what
// lets the fuzzer drive serveConn's full request loop without sockets.
type fuzzConn struct {
	r io.Reader
}

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

// encodeServeFrames renders a client request sequence exactly as a real
// client would: one binary body per message, each in its own frame.
func encodeServeFrames(tb testing.TB, msgs ...*wireMsg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := cluster.NewFrameWriter(&buf)
	for _, m := range msgs {
		body, err := encodeMsg(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		if err := fw.WriteFrame(body); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzServeSeeds is the checked-in seed corpus for FuzzServeRequest: a full
// well-formed session, each request class alone, hostile arm sets, and
// framing corruptions.
func fuzzServeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	hello := &wireMsg{tag: tagHello, version: serveProtocolVersion}
	sel := &wireMsg{tag: tagSelect, seq: 1, device: 7, arms: []int{1, 2, 3}}
	fb := &wireMsg{tag: tagFeedback, items: []FeedbackItem{
		{Device: 7, Arm: 2, Reward: 0.5},
		{Device: 9, Arm: 1, Reward: 2},
	}}
	seeds := [][]byte{
		encodeServeFrames(tb, hello),
		encodeServeFrames(tb, hello, sel, fb,
			&wireMsg{tag: tagPing, seq: 1},
			&wireMsg{tag: tagRelease, devices: []uint64{7}}),
		encodeServeFrames(tb, &wireMsg{tag: tagHello, version: 99}),
		// Hostile requests a conforming codec can still deliver.
		encodeServeFrames(tb, hello, &wireMsg{tag: tagSelect, seq: 1, device: 1, arms: []int{}}),
		encodeServeFrames(tb, hello, &wireMsg{tag: tagSelect, seq: 1, device: 1, arms: []int{5, 5, 1}}),
		encodeServeFrames(tb, hello, &wireMsg{tag: tagSelect, seq: 1, device: 1, arms: make([]int, 5000)}),
		encodeServeFrames(tb, hello, &wireMsg{tag: tagHelloAck}), // a server-only message
		encodeServeFrames(tb, hello, &wireMsg{tag: tagPong, seq: 1}),
		// Framing corruptions.
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0},
	}
	trunc := encodeServeFrames(tb, hello, sel)
	seeds = append(seeds, trunc[:len(trunc)-4])
	return seeds
}

// FuzzServeRequest throws arbitrary byte streams at a live server
// connection loop. The invariants: no panic, the loop terminates (the
// input is finite, so every path must end in an error or EOF), and the
// store underneath stays consistent enough to serve a clean scripted
// session afterwards.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range fuzzServeSeeds(f) {
		f.Add(seed)
	}
	store, err := NewStore(Config{Seed: 42, MaxArms: 64})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{FrameTimeout: -1})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = srv.serveConn(&fuzzConn{r: bytes.NewReader(data)})
		// The store survives whatever the connection did: a fresh device
		// must still select within its arm set.
		arms := []int{100000, 100001}
		arm, sl, err := store.Select(1<<60, arms)
		if err != nil {
			t.Fatalf("store broken after fuzzed connection: %v", err)
		}
		if arm != arms[0] && arm != arms[1] {
			t.Fatalf("store selected %d outside the arm set after fuzzed connection", arm)
		}
		store.Feedback(1<<60, arm, sl, 0.5)
		store.Release(1 << 60)
	})
}

// TestWriteFuzzServeRequestCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzServeRequest when UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzServeRequestCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzServeRequest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzServeSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
