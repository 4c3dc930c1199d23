package serve

import (
	"net"
	"strings"
	"testing"
	"time"
)

// startServer serves a fresh store on loopback and returns its address.
func startServer(t *testing.T, cfg Config) (*Store, string) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	store, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{FrameTimeout: 30 * time.Second})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		<-done
	})
	return store, ln.Addr().String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, ClientOptions{FrameTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerEndToEndMatchesDirectStore is the wire layer's correctness
// anchor: a script through Client/Server must decide exactly as the same
// script applied to a Store in process — the transport adds latency,
// never behavior.
func TestServerEndToEndMatchesDirectStore(t *testing.T) {
	store, addr := startServer(t, Config{})
	c := dialTest(t, addr)
	if alg := c.Algorithm(); alg != "Smart EXP3" {
		t.Fatalf("handshake reports algorithm %q", alg)
	}

	direct := newTestStore(t, Config{})
	devices := []uint64{1, 2, 3}
	arms := []int{10, 20, 30}
	for slot := 0; slot < 120; slot++ {
		for _, dev := range devices {
			got, err := c.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSlot, err := direct.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("slot %d device %d: wire selected %d, direct store %d", slot, dev, got, want)
			}
			if err := c.Feedback(dev, got, reward(dev, got, slot)); err != nil {
				t.Fatal(err)
			}
			direct.Feedback(dev, want, wantSlot, reward(dev, want, slot))
		}
	}
	// The last batch may still be buffered client-side; a Ping flushes it.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if d := store.Dropped(); d != 0 {
		t.Fatalf("served script dropped %d reports", d)
	}
	if err := c.Release(devices...); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // barrier: release is fire-and-forget
		t.Fatal(err)
	}
	if n := store.Devices(); n != 0 {
		t.Fatalf("store tracks %d devices after release", n)
	}
}

// TestServerRequestErrorKeepsSessionUsable pins the error taxonomy: a bad
// request is answered, not a reason to drop the connection.
func TestServerRequestErrorKeepsSessionUsable(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialTest(t, addr)
	if _, err := c.Select(1, []int{3, 1}); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("unsorted arms: got %v, want an ascending-arms rejection", err)
	}
	arm, err := c.Select(1, []int{1, 3})
	if err != nil {
		t.Fatalf("session unusable after a request error: %v", err)
	}
	if arm != 1 && arm != 3 {
		t.Fatalf("selected arm %d outside the arm set", arm)
	}
}

// TestServerRejectsVersionMismatch pins the handshake: a client from the
// wrong protocol era fails loudly at dial time.
func TestServerRejectsVersionMismatch(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWireConn(conn, 0, 0)
	if err := w.send(&wireMsg{tag: tagHello, version: serveProtocolVersion + 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := w.recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.tag != tagHelloAck || ack.err == "" {
		t.Fatalf("version mismatch was not rejected: %+v", ack)
	}
}

// TestServerSurvivesMalformedClient pins robustness: garbage after the
// handshake kills that connection only; the next client is served.
func TestServerSurvivesMalformedClient(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	c := dialTest(t, addr)
	if _, err := c.Select(1, []int{1, 2}); err != nil {
		t.Fatalf("server unusable after a malformed client: %v", err)
	}
}

// TestClientCloseAfterTransportDeathOverTCP pins Close after a dropped
// connection over a real socket: closing a TCP socket twice is an error
// (a net.Pipe's second close is not), so a client whose daemon vanished
// must still close cleanly, once and again.
func TestClientCloseAfterTransportDeathOverTCP(t *testing.T) {
	store, err := NewStore(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{FrameTimeout: 30 * time.Second})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	c, err := Dial(ln.Addr().String(), ClientOptions{
		FrameTimeout: 30 * time.Second,
		MaxAttempts:  2,
		BackoffBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Select(1, []int{1, 2}); err != nil {
		t.Fatal(err)
	}

	// The daemon vanishes: listener and connections both gone.
	ln.Close()
	srv.Close()
	<-done
	if _, err := c.Select(1, []int{1, 2}); err == nil {
		t.Fatal("Select succeeded with the daemon gone")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close after the transport died: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("repeated Close must be nil, got %v", err)
	}
}
