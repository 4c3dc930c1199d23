package main

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ioStats counts socket calls at a conn boundary: Read and Write calls
// (each at least one syscall on a kernel socket), the bytes they moved,
// and the nanoseconds spent blocked in Read.
type ioStats struct {
	reads, writes           atomic.Int64
	readBytes, writtenBytes atomic.Int64
	readNs                  atomic.Int64
}

func (s *ioStats) calls() int64 { return s.reads.Load() + s.writes.Load() }

// spanSite links a conn's socket calls into the trace: each Read or
// Write becomes a span named read or write, whose parent is whatever span
// parent() reports as in flight when the call returns.
type spanSite struct {
	tr     *tracer
	read   spanName
	write  spanName
	parent func() uint64
}

// countingConn wraps a net.Conn and records every Read and Write into
// stats (and, with a span site, into the trace). It changes nothing the
// wrapped conn does.
type countingConn struct {
	net.Conn
	stats *ioStats
	site  atomic.Pointer[spanSite]
}

func newCountingConn(c net.Conn, stats *ioStats) *countingConn {
	return &countingConn{Conn: c, stats: stats}
}

func (c *countingConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	d := time.Since(t0)
	c.stats.reads.Add(1)
	c.stats.readBytes.Add(int64(n))
	c.stats.readNs.Add(int64(d))
	if s := c.site.Load(); s != nil {
		s.tr.record(s.read, s.parent(), t0, d)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	d := time.Since(t0)
	c.stats.writes.Add(1)
	c.stats.writtenBytes.Add(int64(n))
	if s := c.site.Load(); s != nil {
		s.tr.record(s.write, s.parent(), t0, d)
	}
	return n, err
}

// countingListener wraps every accepted conn in a countingConn sharing
// one ioStats, and keeps the wrapped conns so a run can attach span
// sites.
type countingListener struct {
	net.Listener
	stats ioStats

	mu    sync.Mutex
	conns []*countingConn
}

func newCountingListener(ln net.Listener) *countingListener {
	return &countingListener{Listener: ln}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := newCountingConn(c, &l.stats)
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// accepted returns the conns accepted so far.
func (l *countingListener) accepted() []*countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*countingConn(nil), l.conns...)
}

// pipeListener is a net.Listener over in-memory net.Pipe conns: the serve
// server and client run their codec and framing with no kernel socket
// between them.
type pipeListener struct {
	conns  chan net.Conn
	done   chan struct{}
	closer sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

var errPipeClosed = errors.New("pipe listener closed")

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Dial hands the server end of a fresh pipe to Accept and returns the
// client end.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, errPipeClosed
	}
}

func (l *pipeListener) Close() error {
	l.closer.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
