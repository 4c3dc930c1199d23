package cluster

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestConnDeadlineUnblocksStalledPeer pins Conn's per-frame deadlines for
// both payload kinds: a peer that stops reading fails the write, and a
// peer that never writes fails the read, each within the configured
// timeout. The other side's timeout is 0, so the deadline that fires is
// provably the one under test.
func TestConnDeadlineUnblocksStalledPeer(t *testing.T) {
	const timeout = 100 * time.Millisecond
	cases := []struct {
		name string
		read bool
		op   func(*Conn) error
	}{
		{"raw write", false, func(c *Conn) error {
			if err := c.WriteFrame([]byte("stalled")); err != nil {
				return err
			}
			return c.Flush()
		}},
		{"gob write", false, func(c *Conn) error {
			return c.Encode(&envelope{Ping: &pingMsg{Seq: 1}})
		}},
		{"raw read", true, func(c *Conn) error {
			_, err := c.ReadFrame()
			return err
		}},
		{"gob read", true, func(c *Conn) error {
			return c.Decode(new(envelope))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The peer end of the synchronous pipe neither reads nor writes.
			local, peer := net.Pipe()
			defer local.Close()
			defer peer.Close()
			readTimeout, writeTimeout := time.Duration(0), timeout
			if tc.read {
				readTimeout, writeTimeout = timeout, 0
			}
			c := NewConn(local, 4096, readTimeout, writeTimeout)

			start := time.Now()
			errCh := make(chan error, 1)
			go func() { errCh <- tc.op(c) }()
			select {
			case err := <-errCh:
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("want a deadline error, got %v", err)
				}
				if elapsed := time.Since(start); elapsed < timeout {
					t.Fatalf("failed after %v, before the %v deadline", elapsed, timeout)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("still blocked long past the deadline")
			}
		})
	}
}
