package main

import (
	"bytes"
	"net"
	"sync"
	"time"

	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

// serve-wire: a closed loop of wireClients serve.Client connections over
// loopback TCP to one serve.Server, each driving wireDevicesPerClient
// warm devices in Setting 1 cells. One connection: on the timed runs' one
// P a second client only takes turns with the first, adding its service
// time to every latency without adding throughput.
const (
	wireClients          = 1
	wireDevicesPerClient = 4096
	// serveWarmRounds takes every device past Smart EXP3's explore-first
	// blocks before timing starts.
	serveWarmRounds = 8
)

// wireDaemon is one serve.Server + serve.Store on a listener. The store
// and server report into a registry (Store.Instrument,
// ServerOptions.Metrics), so every run can read the daemon's connection
// and dedup counts.
type wireDaemon struct {
	store *serve.Store
	srv   *serve.Server
	ln    net.Listener
	cln   *countingListener // non-nil when the listener counts socket calls
	reg   *obsv.Registry
	done  chan struct{}
}

func startWireDaemon(ln net.Listener) (*wireDaemon, error) {
	store, err := serve.NewStore(serve.Config{Seed: serveStoreSeed})
	if err != nil {
		return nil, err
	}
	d := &wireDaemon{store: store, ln: ln, reg: obsv.NewRegistry(), done: make(chan struct{})}
	store.Instrument(d.reg)
	if cl, ok := ln.(*countingListener); ok {
		d.cln = cl
	}
	d.srv = serve.NewServer(store, serve.ServerOptions{Metrics: serve.NewServerMetrics(d.reg)})
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

func (d *wireDaemon) close() {
	d.ln.Close()
	d.srv.Close()
	<-d.done
}

// prometheus renders the daemon's registry.
func (d *wireDaemon) prometheus() string {
	var buf bytes.Buffer
	_ = d.reg.WritePrometheus(&buf)
	return buf.String()
}

// dedupHits is the number of Selects the daemon answered from its dedup
// path: lost-response retries, which a clean run never sends.
func (d *wireDaemon) dedupHits() uint64 {
	return uint64(promValue(d.prometheus(), "serve_select_dedup_total"))
}

// extraAccepts is the number of connections the daemon accepted beyond
// want: each one is a client reconnect.
func (d *wireDaemon) extraAccepts(want uint64) uint64 {
	if n := uint64(promValue(d.prometheus(), "serve_connections_total")); n > want {
		return n - want
	}
	return 0
}

// tcpDialer dials addr, wrapping each conn in a countingConn when stats
// is non-nil, and remembers the conns it made.
type tcpDialer struct {
	addr  string
	stats *ioStats
	mu    sync.Mutex
	conns []*countingConn
}

func (t *tcpDialer) dial() (net.Conn, error) {
	c, err := net.DialTimeout("tcp", t.addr, 5*time.Second)
	if err != nil || t.stats == nil {
		return c, err
	}
	cc := newCountingConn(c, t.stats)
	t.mu.Lock()
	t.conns = append(t.conns, cc)
	t.mu.Unlock()
	return cc, nil
}

// serveWire is one set-up instance of the serve-wire workload.
type serveWire struct {
	daemon  *wireDaemon
	clients []*serve.Client
	dialers []*tcpDialer
	loops   []*cellLoop
	next    []int
}

// startServeWire builds the workload: daemon, dials, and warm-up. With
// counted set, both ends count socket calls (the traced run).
func startServeWire(seed int64, counted bool) (*serveWire, error) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var ln net.Listener = raw
	if counted {
		ln = newCountingListener(raw)
	}
	daemon, err := startWireDaemon(ln)
	if err != nil {
		raw.Close()
		return nil, err
	}
	w := &serveWire{daemon: daemon, next: make([]int, wireClients)}
	ids := deviceIDs(seed, streamDevices, 0, wireClients*wireDevicesPerClient)
	for i := 0; i < wireClients; i++ {
		dl := &tcpDialer{addr: raw.Addr().String()}
		if counted {
			dl.stats = new(ioStats)
		}
		c, err := serve.Dial(dl.addr, serve.ClientOptions{Redial: dl.dial})
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
		w.dialers = append(w.dialers, dl)
		w.loops = append(w.loops, newCellLoop(c, ids[i*wireDevicesPerClient:(i+1)*wireDevicesPerClient]))
	}
	if err := w.parallel(func(d *cellLoop, _ int) { d.rounds(serveWarmRounds) }); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// parallel runs fn once per loop, each on its own goroutine, and
// returns the first loop error.
func (w *serveWire) parallel(fn func(d *cellLoop, i int)) error {
	var wg sync.WaitGroup
	for i, d := range w.loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(d, i)
		}()
	}
	wg.Wait()
	for _, d := range w.loops {
		if d.firstErr != nil {
			return d.firstErr
		}
	}
	return nil
}

// phase drives every client for d and returns the decisions made and
// the wall time taken.
func (w *serveWire) phase(d time.Duration, tr *tracer) (int64, time.Duration) {
	var before int64
	for _, drv := range w.loops {
		before += drv.decisions
		drv.tr = tr
		drv.keep = tr == nil
	}
	w.attachSpans(tr)
	start := time.Now()
	deadline := start.Add(d)
	for _, drv := range w.loops {
		if drv.keep {
			drv.win = newWindows(start, d)
		}
	}
	_ = w.parallel(func(drv *cellLoop, i int) { drv.until(deadline, &w.next[i]) })
	elapsed := time.Since(start)
	w.attachSpans(nil)
	var after int64
	for _, drv := range w.loops {
		after += drv.decisions
		drv.tr = nil
		if drv.win != nil {
			drv.win.finish(len(drv.lat))
		}
	}
	return after - before, elapsed
}

// attachSpans links both ends' socket calls to the client span in
// flight: a daemon conn belongs to the client whose local address is its
// remote address.
func (w *serveWire) attachSpans(tr *tracer) {
	if w.daemon.cln == nil {
		return
	}
	for i, dl := range w.dialers {
		cur := w.loops[i].cur
		for _, cc := range dl.conns {
			if tr == nil {
				cc.site.Store(nil)
				continue
			}
			cc.site.Store(&spanSite{tr: tr, read: spanClientRead, write: spanClientWrite, parent: cur.get})
			for _, sc := range w.daemon.cln.accepted() {
				if sc.RemoteAddr().String() == cc.LocalAddr().String() {
					sc.site.Store(&spanSite{tr: tr, read: spanServerRead, write: spanServerWrite, parent: cur.get})
				}
			}
		}
	}
	if tr == nil {
		for _, sc := range w.daemon.cln.accepted() {
			sc.site.Store(nil)
		}
	}
}

// quiesce flushes every client's buffered feedback and round-trips a
// ping, so the daemon has applied every report before a gate reads it.
func (w *serveWire) quiesce() error {
	for _, c := range w.clients {
		if err := c.Flush(); err != nil {
			return err
		}
		if err := c.Ping(); err != nil {
			return err
		}
	}
	return nil
}

// ownedBytes is the size of the benchmark's own buffers.
func (w *serveWire) ownedBytes() int64 {
	var n int64
	for _, d := range w.loops {
		n += int64(cap(d.log))*opBytes + int64(cap(d.lat))*8 + int64(cap(d.ids))*8
	}
	return n
}

// wasted reads the useful-work counters of both ends.
func (w *serveWire) wasted() usefulWork {
	u := usefulWork{dedupHits: w.daemon.dedupHits()}
	for _, c := range w.clients {
		u.reconnects += c.Reconnects()
	}
	return u
}

func (w *serveWire) close() {
	for _, c := range w.clients {
		c.Close()
	}
	w.daemon.close()
}

func runServeWire(o options) (*report, error) {
	w, setup, err := repeatSetup(5, func() (*serveWire, error) { return startServeWire(o.seed, o.trace) }, (*serveWire).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep := &report{}
	if o.trace {
		if err := tracedServeWire(o, w, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	decisions, elapsed := w.phase(o.budget(), nil)
	for _, d := range w.loops {
		rep.attempted += d.decisions
		rep.failed += d.failed
	}
	if err := w.quiesce(); err != nil {
		return nil, err
	}
	rep.linef("serve-wire: %d clients x %d devices, closed loop", wireClients, wireDevicesPerClient)
	decisionMetrics(rep, "serve-wire", w.loops, decisions, elapsed, heapMB(w.ownedBytes()), setup)
	w.wasted().check(rep, "serve-wire")
	gateServeWire(w, rep)
	return rep, nil
}

// gateServeWire replays every client's request log into an in-process
// store: every Select must answer the daemon's arm, and the daemon's
// encoded Snapshot must be byte-identical to the reference store's.
func gateServeWire(w *serveWire, rep *report) {
	logs := make([][]op, len(w.loops))
	for i, d := range w.loops {
		logs[i] = d.log
	}
	ref, mismatched, err := replayGate(logs...)
	if err != nil {
		rep.gate(1, "serve-wire replay: %v", err)
		return
	}
	if mismatched > 0 {
		rep.gate(mismatched, "serve-wire: %d decisions differ from the in-process store", mismatched)
	}
	got, gotN, err1 := snapshotDigest(w.daemon.store.Snapshot())
	want, _, err2 := snapshotDigest(ref.Snapshot())
	switch {
	case err1 != nil || err2 != nil:
		rep.gate(1, "serve-wire snapshot encode: %v %v", err1, err2)
	case got != want:
		rep.gate(int64(w.daemon.store.Devices()), "serve-wire: daemon snapshot differs from the in-process store's")
	default:
		rep.linef("serve-wire gate: %d devices, %d-byte snapshot identical to the in-process replay", w.daemon.store.Devices(), gotN)
	}
}

// tracedServeWire is the traced run: the same loop untraced and traced
// in alternation (their difference is the tracing overhead), the spans
// summarised, then the layer ladder.
func tracedServeWire(o options, w *serveWire, rep *report) error {
	loop := o.budget() / 5 / overheadPairs
	tr := newTracer()
	var n0, n1 int64
	var e0, e1 time.Duration
	for i := 0; i < overheadPairs; i++ {
		n, e := w.phase(loop, nil)
		n0, e0 = n0+n, e0+e
		n, e = w.phase(loop, tr)
		n1, e1 = n1+n, e1+e
	}
	for _, d := range w.loops {
		rep.attempted += d.decisions
		rep.failed += d.failed
	}
	if err := w.quiesce(); err != nil {
		return err
	}
	untraced := float64(n0) / e0.Seconds()
	traced := float64(n1) / e1.Seconds()
	finishTrace(o, "serve-wire", tr, spanSelect, untraced, traced, rep)
	gateServeWire(w, rep)
	return runLadder(o, rep, w.wasted())
}
