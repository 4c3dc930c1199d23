package main

import (
	"fmt"
	"net"
	"time"

	"smartexp3/internal/fleet"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/serve"
)

// fleet-churn: the Setting 1 cell traffic through one fleet.Client over
// fleetDevices devices. After every round 1/churnDiv of the devices are
// Released and replaced by fresh ids (the cold acquire and pool-reinit
// path). The fleet starts as one peer; at the run's midpoint a second
// peer joins through Coordinator.Rebalance, which moves half the stripes
// by live snapshot handoff.
const (
	fleetDevices    = 8192
	churnDiv        = 16
	fleetWarmRounds = 4
)

// The fleet's peer ids: peerFirst owns every stripe until peerJoiner
// joins. Stripe owners are rendezvous-hashed on the ids alone, and this
// pair splits the 64 stripes 32/32, so the join moves half of them
// (TestJoinMovesHalfTheStripes).
const (
	peerFirst  = "peer-0"
	peerJoiner = "peer-7"
)

// fleetPeer is one in-process fleet member: store, serve data server and
// fleet control server, each on its own loopback listener.
type fleetPeer struct {
	info   fleet.PeerInfo
	store  *serve.Store
	peer   *fleet.Peer
	data   *wireDaemon
	ctrlLn net.Listener
	ctrl   *countingListener // non-nil when the control listener counts
	done   chan struct{}
}

func startFleetPeer(id string, counted bool) (*fleetPeer, error) {
	dataRaw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctrlRaw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dataRaw.Close()
		return nil, err
	}
	var dataLn, ctrlLn net.Listener = dataRaw, ctrlRaw
	p := &fleetPeer{done: make(chan struct{})}
	if counted {
		dataLn = newCountingListener(dataRaw)
		p.ctrl = newCountingListener(ctrlRaw)
		ctrlLn = p.ctrl
	}
	p.ctrlLn = ctrlLn
	if p.data, err = startWireDaemon(dataLn); err != nil {
		dataRaw.Close()
		ctrlRaw.Close()
		return nil, err
	}
	p.store = p.data.store
	p.info = fleet.PeerInfo{ID: id, Addr: dataRaw.Addr().String(), Control: ctrlRaw.Addr().String()}
	if p.peer, err = fleet.NewPeer(p.store, fleet.PeerOptions{ID: id, FrameTimeout: 30 * time.Second}); err != nil {
		p.data.close()
		ctrlRaw.Close()
		return nil, err
	}
	go func() {
		defer close(p.done)
		_ = p.peer.ServeControl(ctrlLn)
	}()
	return p, nil
}

func (p *fleetPeer) close() {
	p.ctrlLn.Close()
	p.peer.Close()
	<-p.done
	p.data.close()
}

// wasted reads the peer's useful-work counters: the fleet client holds
// one data connection per peer, so a second accept is a reconnect.
func (p *fleetPeer) wasted() usefulWork {
	return usefulWork{reconnects: p.data.extraAccepts(1), dedupHits: p.data.dedupHits()}
}

// twoPeerFleet is a fleet of one peer, a, owning every stripe, with a
// second peer, b, started but idle until rebalance brings it in; fc
// routes over the fleet.
type twoPeerFleet struct {
	a, b *fleetPeer
	fc   *fleet.Client
}

func startTwoPeerFleet(counted bool) (*twoPeerFleet, error) {
	f := &twoPeerFleet{}
	var err error
	if f.a, err = startFleetPeer(peerFirst, counted); err != nil {
		return nil, err
	}
	if f.b, err = startFleetPeer(peerJoiner, counted); err != nil {
		f.a.close()
		return nil, err
	}
	tab, err := fleet.NewTable(fleet.DefaultStripeBits, []fleet.PeerInfo{f.a.info})
	if err == nil {
		err = f.a.peer.InstallTable(tab)
	}
	if err == nil {
		f.fc, err = fleet.NewClient(fleet.ClientOptions{Table: tab, FrameTimeout: 30 * time.Second})
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *twoPeerFleet) close() {
	if f.fc != nil {
		f.fc.Close()
	}
	f.a.close()
	f.b.close()
}

func newCoordinator(m *fleet.Metrics) *fleet.Coordinator {
	return &fleet.Coordinator{Self: "perfbench", FrameTimeout: 30 * time.Second, Metrics: m}
}

// rebalance brings b in with one Coordinator.Rebalance over both peers
// and returns the new table and the call's wall time.
func (f *twoPeerFleet) rebalance(coord *fleet.Coordinator) (*fleet.Table, time.Duration, error) {
	t0 := time.Now()
	tab, err := coord.Rebalance([]fleet.PeerInfo{f.a.info, f.b.info})
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("rebalance: %w", err)
	}
	if len(tab.Peers) != 2 {
		return nil, d, fmt.Errorf("rebalance produced %d peers, want 2", len(tab.Peers))
	}
	return tab, d, nil
}

// wasted sums both peers' useful-work counters.
func (f *twoPeerFleet) wasted() usefulWork {
	u := f.a.wasted()
	u.add(f.b.wasted())
	return u
}

// fleetChurn is one set-up instance of the fleet-churn workload.
type fleetChurn struct {
	*twoPeerFleet
	seed   int64
	drv    *cellLoop
	coord  *fleet.Coordinator
	next   int
	round  int64
	fresh  int // next index of the fresh-id stream
	joined bool

	releases int64
	handoff  time.Duration
}

func startFleetChurn(seed int64, counted bool) (*fleetChurn, error) {
	fl, err := startTwoPeerFleet(counted)
	if err != nil {
		return nil, err
	}
	f := &fleetChurn{twoPeerFleet: fl, seed: seed, coord: newCoordinator(nil)}
	f.drv = newCellLoop(f.fc, deviceIDs(seed, streamDevices, 0, fleetDevices))
	f.drv.rounds(fleetWarmRounds)
	if err := f.drv.firstErr; err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// churnSlots returns which device slots round r releases: a seeded
// 1/churnDiv of them.
func churnSlots(seed, r int64, n int) []int {
	return rngutil.Perm(rngutil.NewChild(seed, streamChurn, r), n)[:n/churnDiv]
}

// churn releases round f.round's chosen devices and gives their slots
// fresh ids.
func (f *fleetChurn) churn(tr *tracer) {
	slots := churnSlots(f.seed, f.round, len(f.drv.ids))
	f.round++
	for _, s := range slots {
		dev := f.drv.ids[s]
		id := tr.newID()
		t0 := time.Now()
		err := f.fc.Release(dev)
		dt := time.Since(t0)
		tr.finish(id, spanRelease, 0, t0, dt)
		f.releases++
		if err != nil {
			f.drv.fail(fmt.Errorf("release device %d: %w", dev, err))
			continue
		}
		f.drv.log = append(f.drv.log, op{dev: dev, kind: opRelease})
		f.drv.ids[s] = uint64(rngutil.ChildSeed(f.seed, streamFresh, int64(f.fresh)))
		f.fresh++
	}
}

// phase drives the fleet until the deadline, churning at every round
// boundary and running the join at joinAt (when not yet joined).
func (f *fleetChurn) phase(deadline, joinAt time.Time, tr *tracer) error {
	f.drv.tr = tr
	f.drv.keep = tr == nil
	defer func() { f.drv.tr = nil }()
	for time.Now().Before(deadline) {
		if !f.joined && !time.Now().Before(joinAt) {
			if err := f.join(tr); err != nil {
				return err
			}
		}
		f.drv.cell(f.next)
		if f.next++; f.next == f.drv.cells() {
			f.next = 0
			f.churn(tr)
		}
		f.drv.noteWindow()
	}
	return nil
}

// join brings the second peer in, as one traced span.
func (f *fleetChurn) join(tr *tracer) error {
	id := tr.newID()
	f.drv.cur.set(id)
	t0 := time.Now()
	_, d, err := f.rebalance(f.coord)
	f.handoff = d
	tr.finish(id, spanRebalance, 0, t0, d)
	f.drv.cur.set(0)
	if err != nil {
		return err
	}
	f.joined = true
	return nil
}

func (f *fleetChurn) ownedBytes() int64 {
	return int64(cap(f.drv.log))*opBytes + int64(cap(f.drv.lat))*8 + int64(cap(f.drv.ids))*8
}

// attachSpans links the peers' data and control socket calls to the
// client span in flight (the fleet client dials its own data conns, so
// only the daemon ends are wrapped).
func (f *fleetChurn) attachSpans(tr *tracer) {
	for _, p := range []*fleetPeer{f.a, f.b} {
		var data, ctrl *spanSite
		if tr != nil {
			data = &spanSite{tr: tr, read: spanServerRead, write: spanServerWrite, parent: f.drv.cur.get}
			ctrl = &spanSite{tr: tr, read: spanControlRead, write: spanControlWrite, parent: f.drv.cur.get}
		}
		if p.data.cln != nil {
			for _, c := range p.data.cln.accepted() {
				c.site.Store(data)
			}
		}
		if p.ctrl != nil {
			for _, c := range p.ctrl.accepted() {
				c.site.Store(ctrl)
			}
		}
	}
}

func runFleetChurn(o options) (*report, error) {
	f, setup, err := repeatSetup(5, func() (*fleetChurn, error) { return startFleetChurn(o.seed, o.trace) }, (*fleetChurn).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep := &report{}
	if o.trace {
		if err := tracedFleetChurn(o, f, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	before := f.drv.decisions
	start := time.Now()
	f.drv.win = newWindows(start, o.budget())
	if err := f.phase(start.Add(o.budget()), start.Add(o.budget()/2), nil); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	f.drv.win.finish(len(f.drv.lat))
	decisions := f.drv.decisions - before
	rep.attempted = f.drv.decisions + f.releases
	rep.failed = f.drv.failed
	if err := f.fc.Flush(); err != nil {
		return nil, err
	}
	rep.linef("fleet-churn: 1 client over %d devices, closed loop; %d releases", fleetDevices, f.releases)
	decisionMetrics(rep, "fleet-churn", []*cellLoop{f.drv}, decisions, elapsed, heapMB(f.ownedBytes()), setup)
	rep.linef("fleet-churn handoff_ms %.3f ms (one Rebalance at the midpoint, %d redirects followed)",
		float64(f.handoff)/1e6, f.fc.Redirects())
	if !f.joined {
		rep.gate(1, "fleet-churn: the run ended before the midpoint join")
	}
	f.wasted().check(rep, "fleet-churn")
	gateFleetChurn(f, rep)
	return rep, nil
}

// gateFleetChurn merges both peers' snapshots and checks them, with
// Dropped zeroed, against a single in-process store fed the same
// requests, Releases included.
func gateFleetChurn(f *fleetChurn, rep *report) {
	ref, mismatched, err := replayGate(f.drv.log)
	if err != nil {
		rep.gate(1, "fleet-churn replay: %v", err)
		return
	}
	if mismatched > 0 {
		rep.gate(mismatched, "fleet-churn: %d decisions differ from the single store", mismatched)
	}
	merged, err := fleet.MergeSnapshots(f.a.store.Snapshot(), f.b.store.Snapshot())
	if err != nil {
		rep.gate(1, "fleet-churn merge: %v", err)
		return
	}
	merged.Dropped = 0
	want := ref.Snapshot()
	want.Dropped = 0
	gotSum, gotN, err1 := snapshotDigest(merged)
	wantSum, _, err2 := snapshotDigest(want)
	switch {
	case err1 != nil || err2 != nil:
		rep.gate(1, "fleet-churn snapshot encode: %v %v", err1, err2)
	case gotSum != wantSum:
		rep.gate(int64(len(merged.Devices)), "fleet-churn: merged fleet snapshot differs from the single store's")
	default:
		rep.linef("fleet-churn gate: %d devices on %d+%d peers, %d-byte merged snapshot identical to the single-store replay",
			len(merged.Devices), f.a.store.Devices(), f.b.store.Devices(), gotN)
	}
}

// tracedFleetChurn runs the loop untraced and traced in alternation on
// the one-peer fleet (their difference is the tracing overhead), then
// the traced join and a traced stretch on two peers, then the layer
// ladder.
func tracedFleetChurn(o options, f *fleetChurn, rep *report) error {
	loop := o.budget() / 5 / overheadPairs
	never := time.Now().Add(time.Hour)
	tr := newTracer()
	var n0, n1 int64
	var e0, e1 time.Duration
	for i := 0; i < overheadPairs; i++ {
		d0, t0 := f.drv.decisions, time.Now()
		if err := f.phase(t0.Add(loop), never, nil); err != nil {
			return err
		}
		e0 += time.Since(t0)
		n0 += f.drv.decisions - d0
		f.attachSpans(tr)
		d1, t1 := f.drv.decisions, time.Now()
		if err := f.phase(t1.Add(loop), never, tr); err != nil {
			return err
		}
		e1 += time.Since(t1)
		n1 += f.drv.decisions - d1
		f.attachSpans(nil)
	}
	f.attachSpans(tr)
	if err := f.phase(time.Now().Add(overheadPairs*loop/2), time.Now(), tr); err != nil {
		return err
	}
	f.attachSpans(nil)
	rep.attempted = f.drv.decisions + f.releases
	rep.failed = f.drv.failed
	if err := f.fc.Flush(); err != nil {
		return err
	}
	untraced := float64(n0) / e0.Seconds()
	traced := float64(n1) / e1.Seconds()
	finishTrace(o, "fleet-churn", tr, spanSelect, untraced, traced, rep)
	rep.linef("fleet-churn handoff_ms %.3f ms (traced join)", float64(f.handoff)/1e6)
	gateFleetChurn(f, rep)
	return runLadder(o, rep, f.wasted())
}
