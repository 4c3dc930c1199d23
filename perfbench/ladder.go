package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/fleet"
	"smartexp3/internal/obsv"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/serve"
	"smartexp3/internal/sim"
)

// The layer ladder times each layer from outside by calling its public
// functions, one layer added per rung, on the inputs of the workload
// that exercises it: the serve rungs replay serve-wire's cell traffic,
// the fleet rungs fleet-churn's join, the sim rungs sim-cluster's batch
// shapes. Every traced run measures the whole ladder, so each reports
// every per-layer metric.

// ladderDevices is the serve rungs' population: one serve-wire client's
// share.
const ladderDevices = wireDevicesPerClient

// rung is one ladder step: how a device selects and how it is told its
// reward. i indexes the device within the ladder population.
type rung struct {
	sel func(i int, dev uint64) (int, error)
	fb  func(i int, dev uint64, arm int, reward float64) error
}

// driveRound runs one round of every cell through r and returns the
// decisions made.
func driveRound(ids []uint64, r rung) (int64, error) {
	var arms [cellSize]int
	var n int64
	for c := 0; c < len(ids)/cellSize; c++ {
		var counts [3]int
		base := c * cellSize
		for j := 0; j < cellSize; j++ {
			arm, err := r.sel(base+j, ids[base+j])
			if err != nil {
				return n, err
			}
			arms[j] = arm
			counts[arm]++
		}
		for j := 0; j < cellSize; j++ {
			if err := r.fb(base+j, ids[base+j], arms[j], cellGain(arms[j], &counts)); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// timedRung accumulates one rung's timed rounds.
type timedRung struct {
	r       rung
	perPass int // rounds per interleaving pass: cheap rungs run several
	elapsed time.Duration
	n       int64
}

func (t *timedRung) ns() float64 { return float64(t.elapsed.Nanoseconds()) / float64(t.n) }

// timeInterleaved warms every rung for serveWarmRounds rounds, then
// alternates them pass by pass until budget is spent, so a change in the
// machine's speed during the ladder lands on every rung alike and the
// differences between rungs stay meaningful.
func timeInterleaved(ids []uint64, budget time.Duration, rungs ...*timedRung) error {
	for _, t := range rungs {
		for i := 0; i < serveWarmRounds; i++ {
			if _, err := driveRound(ids, t.r); err != nil {
				return err
			}
		}
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, t := range rungs {
			t0 := time.Now()
			for i := 0; i < t.perPass; i++ {
				k, err := driveRound(ids, t.r)
				t.n += k
				if err != nil {
					return err
				}
			}
			t.elapsed += time.Since(t0)
		}
	}
	return nil
}

// storeRung drives an in-process store, remembering each device's slot.
func storeRung(st *serve.Store) rung {
	slots := make([]uint64, ladderDevices)
	return rung{
		sel: func(i int, dev uint64) (int, error) {
			arm, slot, err := st.Select(dev, cellArms)
			slots[i] = slot
			return arm, err
		},
		fb: func(i int, dev uint64, arm int, r float64) error {
			if !st.Feedback(dev, arm, slots[i], r) {
				return fmt.Errorf("store dropped feedback for device %d", dev)
			}
			return nil
		},
	}
}

func clientRung(c decider) rung {
	return rung{
		sel: func(_ int, dev uint64) (int, error) { return c.Select(dev, cellArms) },
		fb:  func(_ int, dev uint64, arm int, r float64) error { return c.Feedback(dev, arm, r) },
	}
}

// ladder accumulates rung results.
type ladder struct {
	rep    *report
	budget time.Duration
	ids    []uint64
	wasted usefulWork
}

func (l *ladder) add(name, unit string, v float64) { l.rep.add(name, unit, v) }

// runLadder measures every rung and adds the per-layer metrics to rep.
// loop is the useful-work count of the workload's own traced loop; the
// ladder adds its own rungs' and checks the sum.
func runLadder(o options, rep *report, loop usefulWork) error {
	l := &ladder{rep: rep, budget: o.budget() / 2, ids: deviceIDs(o.seed, streamDevices, 0, ladderDevices), wasted: loop}
	if err := l.serveRungs(); err != nil {
		return fmt.Errorf("serve ladder: %w", err)
	}
	if err := l.simRungs(o.seed); err != nil {
		return fmt.Errorf("sim ladder: %w", err)
	}
	u := l.wasted
	rep.add("serve.reconnects", "count", float64(u.reconnects))
	rep.add("serve.dedup_hits", "count", float64(u.dedupHits))
	rep.add("cluster.chunks_reassigned", "count", float64(u.chunksReassigned))
	u.check(rep, "traced loop and ladder")
	return nil
}

// serveRungs times core → store → pipe → TCP → fleet interleaved, then
// the cold acquire path, the counted TCP pass, a second fleet peer's
// join, and the moved range's snapshot and restore.
func (l *ladder) serveRungs() error {
	// core: one SmartEXP3 per device, seeded as the store seeds it.
	pols := make([]core.Policy, len(l.ids))
	for i, dev := range l.ids {
		rng := rand.New(rngutil.NewSource(rngutil.ChildSeed(serveStoreSeed, int64(dev))))
		p, err := core.New(core.AlgSmartEXP3, cellArms, core.DefaultConfig(), rng)
		if err != nil {
			return err
		}
		pols[i] = p
	}
	coreR := &timedRung{perPass: 16, r: rung{
		sel: func(i int, _ uint64) (int, error) { return pols[i].Select(), nil },
		fb:  func(i int, _ uint64, _ int, r float64) error { pols[i].Observe(r); return nil },
	}}

	// store: serve.Store in process, instrumented as the daemons' are.
	st, err := serve.NewStore(serve.Config{Seed: serveStoreSeed})
	if err != nil {
		return err
	}
	st.Instrument(obsv.NewRegistry())
	storeR := &timedRung{perPass: 16, r: storeRung(st)}

	// pipe: client and server over net.Pipe — codec and framing, no
	// kernel socket.
	pl := newPipeListener()
	pd, err := startWireDaemon(pl)
	if err != nil {
		return err
	}
	defer pd.close()
	pc, err := serve.Dial("pipe", serve.ClientOptions{Redial: pl.Dial})
	if err != nil {
		return err
	}
	defer pc.Close()

	// TCP: loopback, bare.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	td, err := startWireDaemon(ln)
	if err != nil {
		ln.Close()
		return err
	}
	defer td.close()
	tc, err := serve.Dial(ln.Addr().String(), serve.ClientOptions{})
	if err != nil {
		return err
	}
	defer tc.Close()

	// fleet: a fleet.Client over a one-peer fleet; the second peer idles
	// until the join.
	fl, err := startTwoPeerFleet(false)
	if err != nil {
		return err
	}
	defer fl.close()

	pipeR := &timedRung{perPass: 1, r: clientRung(pc)}
	tcpR := &timedRung{perPass: 1, r: clientRung(tc)}
	fleetR := &timedRung{perPass: 1, r: clientRung(fl.fc)}
	if err := timeInterleaved(l.ids, l.budget*6/10, coreR, storeR, pipeR, tcpR, fleetR); err != nil {
		return err
	}
	l.wasted.add(usefulWork{reconnects: pc.Reconnects() + tc.Reconnects(), dedupHits: pd.dedupHits() + td.dedupHits()})
	coreNs, storeNs, pipeNs, tcpNs, fleetNs := coreR.ns(), storeR.ns(), pipeR.ns(), tcpR.ns(), fleetR.ns()
	l.add("core.select_observe_ns", "ns", coreNs)
	l.add("serve.store_decision_ns", "ns", storeNs)
	l.add("serve.pipe_decision_ns", "ns", pipeNs)
	l.add("serve.tcp_decision_ns", "ns", tcpNs)
	l.add("fleet.route_decision_ns", "ns", fleetNs-tcpNs)
	l.rep.linef("ladder serve (ns per Select+Feedback, %d devices, rungs interleaved): core %.1f | store %.1f (+%.1f) | pipe %.1f (+%.1f codec+framing) | tcp %.1f (+%.1f socket) | fleet %.1f (+%.1f routing) | monotone=%v",
		len(l.ids), coreNs, storeNs, storeNs-coreNs, pipeNs, pipeNs-storeNs, tcpNs, tcpNs-pipeNs, fleetNs, fleetNs-tcpNs,
		coreNs < storeNs && storeNs < pipeNs && pipeNs < tcpNs)

	coldNs, err := coldAcquire(st, l.ids)
	if err != nil {
		return err
	}
	l.add("serve.cold_acquire_ns", "ns", coldNs)
	if err := l.countedTCP(); err != nil {
		return err
	}
	if err := l.join(fl); err != nil {
		return err
	}
	l.wasted.add(fl.wasted())
	return nil
}

// countedTCP drives the TCP path with both ends counting socket calls and
// the store and server instrumented, over a fixed number of warm rounds:
// per-decision counts, not a time.
func (l *ladder) countedTCP() error {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cln := newCountingListener(raw)
	td, err := startWireDaemon(cln)
	if err != nil {
		raw.Close()
		return err
	}
	defer td.close()
	dl := &tcpDialer{addr: raw.Addr().String(), stats: new(ioStats)}
	tc, err := serve.Dial(dl.addr, serve.ClientOptions{Redial: dl.dial})
	if err != nil {
		return err
	}
	defer tc.Close()
	var n int64
	var cs0, ss0 ioSnap
	var prom0 string
	var start time.Time
	for i := 0; i < 2*serveWarmRounds; i++ {
		if i == serveWarmRounds {
			cs0, ss0 = snapshotIO(dl.stats), snapshotIO(&cln.stats)
			prom0 = td.prometheus()
			start = time.Now()
		}
		k, err := driveRound(l.ids, clientRung(tc))
		if i >= serveWarmRounds {
			n += k
		}
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	cs1, ss1 := snapshotIO(dl.stats), snapshotIO(&cln.stats)
	prom1 := td.prometheus()
	l.wasted.add(usefulWork{reconnects: tc.Reconnects(), dedupHits: td.dedupHits()})

	selectP50, _ := promQuantile(prom1, "serve_select_latency_ns", 0.5)
	delta := func(name string) float64 { return promValue(prom1, name) - promValue(prom0, name) }
	frames := delta("serve_frames_read_total") + delta("serve_frames_written_total")
	wireBytes := delta("serve_bytes_read_total") + delta("serve_bytes_written_total")
	dn := float64(n)
	clientCalls := float64(cs1.calls-cs0.calls) / dn
	serverCalls := float64(ss1.calls-ss0.calls) / dn
	clientWait := float64(cs1.readNs-cs0.readNs) / dn
	// The daemon's one connection lived through the whole pass; its
	// blocked-in-Read share is over the counted rounds.
	idle := float64(ss1.readNs-ss0.readNs) / float64(elapsed.Nanoseconds())
	l.add("serve.store_select_p50_ns", "ns", selectP50)
	l.add("serve.client_syscalls_per_decision", "count", clientCalls)
	l.add("serve.server_syscalls_per_decision", "count", serverCalls)
	l.add("serve.frames_per_decision", "count", frames/dn)
	l.add("serve.bytes_per_decision", "B", wireBytes/dn)
	l.add("serve.client_wait_ns", "ns", clientWait)
	l.add("serve.server_idle_share", "share", idle)
	l.rep.linef("ladder serve tcp counted: %.2f client + %.2f server socket calls, %.2f frames, %.1f bytes per decision; client blocked in Read %.0f ns/decision; daemon conn idle share %.3f; in-store Select p50 %.0f ns",
		clientCalls, serverCalls, frames/dn, wireBytes/dn, clientWait, idle, selectP50)
	return nil
}

// ioSnap is a point-in-time copy of an ioStats.
type ioSnap struct{ calls, readNs int64 }

func snapshotIO(s *ioStats) ioSnap { return ioSnap{calls: s.calls(), readNs: s.readNs.Load()} }

// coldAcquire releases a sixteenth of the warm store's devices (filling
// the shard pools, as fleet-churn's releases do) and times first Selects
// for fresh ids, which reinitialise pooled sessions.
func coldAcquire(st *serve.Store, ids []uint64) (float64, error) {
	const reps = 8
	n := len(ids) / churnDiv
	for _, dev := range ids[:n] {
		st.Release(dev)
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		fresh := deviceIDs(int64(r), streamFresh, 0, n)
		t0 := time.Now()
		for _, dev := range fresh {
			if _, _, err := st.Select(dev, cellArms); err != nil {
				return 0, err
			}
		}
		total += time.Since(t0)
		for _, dev := range fresh {
			st.Release(dev)
		}
	}
	return float64(total.Nanoseconds()) / float64(reps*n), nil
}

// join brings the second peer into the one-peer fleet the fleet rung
// drove, then snapshots and restores the moved stripes as the handoff
// does.
func (l *ladder) join(fl *twoPeerFleet) error {
	fc := fl.fc
	if err := fc.Flush(); err != nil {
		return err
	}
	reg := obsv.NewRegistry()
	tab, handoff, err := fl.rebalance(newCoordinator(fleet.NewMetrics(reg)))
	if err != nil {
		return err
	}
	if _, err := driveRound(l.ids, clientRung(fc)); err != nil {
		return err
	}
	if err := fc.Flush(); err != nil {
		return err
	}
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	prom := buf.String()
	stripeP50, _ := promQuantile(prom, "fleet_migration_latency_ns", 0.5)
	migrated := promValue(prom, "fleet_migrated_devices_total")
	migratedBytes := promValue(prom, "fleet_migrated_bytes_total")

	var snapBytes int64
	var devices int
	var encode, restore time.Duration
	dst, err := serve.NewStore(serve.Config{Seed: serveStoreSeed})
	if err != nil {
		return err
	}
	for s := 0; s < tab.Stripes(); s++ {
		if tab.Peers[tab.OwnerOf(s)].ID != peerJoiner {
			continue
		}
		lo, hi := tab.StripeRange(s)
		var enc bytes.Buffer
		t0 := time.Now()
		sn := fl.b.store.SnapshotRange(lo, hi)
		if err := sn.Encode(&enc); err != nil {
			return err
		}
		encode += time.Since(t0)
		snapBytes += int64(enc.Len())
		devices += len(sn.Devices)
		t1 := time.Now()
		got, err := serve.ReadSnapshot(&enc)
		if err == nil {
			err = dst.RestoreRange(got)
		}
		restore += time.Since(t1)
		if err != nil {
			return err
		}
	}
	if devices == 0 {
		return fmt.Errorf("the join moved no devices")
	}
	perDev := float64(devices)
	l.add("fleet.handoff_ms", "ms", float64(handoff.Nanoseconds())/1e6)
	l.add("fleet.stripe_handoff_p50_ms", "ms", stripeP50/1e6)
	l.add("fleet.migrated_devices", "count", migrated)
	l.add("fleet.migrated_bytes_per_device", "B", migratedBytes/migrated)
	l.add("fleet.redirects", "count", float64(fc.Redirects()))
	l.add("serve.snapshot_bytes_per_device", "B", float64(snapBytes)/perDev)
	l.add("serve.snapshot_encode_ns_per_device", "ns", float64(encode.Nanoseconds())/perDev)
	l.add("serve.restore_ns_per_device", "ns", float64(restore.Nanoseconds())/perDev)
	l.rep.linef("ladder fleet join: moved %.0f devices in %.1f ms (stripe p50 %.2f ms, %.0f B/device on the control wire, %d redirects)",
		migrated, float64(handoff.Nanoseconds())/1e6, stripeP50/1e6, migratedBytes/migrated, fc.Redirects())
	l.rep.linef("ladder snapshot: %d moved devices, %.0f B/device, encode %.0f ns/device, restore %.0f ns/device",
		devices, float64(snapBytes)/perDev, float64(encode.Nanoseconds())/perDev, float64(restore.Nanoseconds())/perDev)
	return nil
}

// simRungs times the simulator layers on sim-cluster's batch shapes:
// one warm Engine.Run per shape, the distance metric's share of the
// Setting 1 run, in-process sim.Replicate at 1, 2 and 4 workers, and the
// same batches through a warm cluster.Session.
func (l *ladder) simRungs(seed int64) error {
	// Warm engines, run in alternation so drift in the machine's speed
	// lands on every shape alike: Setting 1 with and without the distance
	// metric (their difference is its cost), and metro.
	noDist := batchKinds[0].cfg
	noDist.Collect.Distance = false
	cfgs := []sim.Config{batchKinds[0].cfg, noDist, batchKinds[1].cfg}
	reps := []int{24, 24, 6}
	engs := make([]*sim.Engine, len(cfgs))
	wss := make([]*sim.Workspace, len(cfgs))
	for i, cfg := range cfgs {
		eng, err := sim.NewEngine(cfg)
		if err != nil {
			return err
		}
		engs[i], wss[i] = eng, eng.NewWorkspace()
		if _, err := eng.Run(wss[i], seed); err != nil {
			return err
		}
	}
	var spent [3]time.Duration
	for r := 0; r < reps[0]; r++ {
		for i := range engs {
			if r >= reps[i] {
				continue
			}
			t0 := time.Now()
			if _, err := engs[i].Run(wss[i], rngutil.ChildSeed(seed, int64(r))); err != nil {
				return err
			}
			spent[i] += time.Since(t0)
		}
	}
	ms := func(i int) float64 { return float64(spent[i].Nanoseconds()) / 1e6 / float64(reps[i]) }
	s1, s1NoDist, metro := ms(0), ms(1), ms(2)
	l.add("sim.engine_run_ms.setting1", "ms", s1)
	l.add("sim.engine_run_ms.metro", "ms", metro)
	l.add("game.ne_distance_ms", "ms", s1-s1NoDist)

	// The batches: one pass of sim-cluster's mix, run in-process at 1, 2
	// and 4 workers and through a warm session, the four interleaved pass
	// by pass so drift in the machine's speed lands on each alike. These
	// rungs measure parallel scaling, so they run on every core of the
	// machine, not on the timed runs' one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(machineProcs))
	const passes = 3
	mix := make([]batch, len(batchMix))
	for i := range mix {
		mix[i] = batchAt(seed, i)
	}
	s, err := startSimCluster(seed, false)
	if err != nil {
		return err
	}
	defer s.close()
	workers := []int{1, 2, 4}
	busy := make([]time.Duration, len(workers)+1) // the last is the session
	f0, b0 := sessionTraffic(s.sm)
	var runs int64
	for p := 0; p < passes; p++ {
		for i, w := range workers {
			t0 := time.Now()
			for _, b := range mix {
				if err := sim.Replicate(b.replications(w), batchKinds[b.kind].cfg, func(int, *sim.Result) error { return nil }); err != nil {
					return err
				}
			}
			busy[i] += time.Since(t0)
		}
		t0 := time.Now()
		for _, b := range mix {
			if _, err := s.runBatch(b, nil); err != nil {
				return err
			}
			runs += int64(b.runs)
		}
		busy[len(workers)] += time.Since(t0)
	}
	f1, b1 := sessionTraffic(s.sm)
	perBatch := func(i int) float64 { return float64(busy[i].Nanoseconds()) / 1e6 / float64(passes*len(mix)) }
	runnerMs := make(map[int]float64)
	for i, w := range workers {
		runnerMs[w] = perBatch(i)
		l.add(fmt.Sprintf("runner.batch_ms_w%d", w), "ms", runnerMs[w])
	}
	sessMs := perBatch(len(workers))
	l.wasted.add(s.wasted())
	var sp, wp bytes.Buffer
	_ = s.reg.WritePrometheus(&sp)
	_ = s.rig.reg.WritePrometheus(&wp)
	chunkP50, _ := promQuantile(sp.String(), "cluster_session_dispatch_ns", 0.5)
	rangeP50, _ := promQuantile(wp.String(), "cluster_worker_range_ns", 0.5)
	l.add("cluster.session_batch_ms", "ms", sessMs)
	l.add("cluster.dispatch_overhead_ms", "ms", sessMs-runnerMs[2])
	l.add("cluster.bytes_per_replication", "B", float64(b1-b0)/float64(runs))
	l.add("cluster.frames_per_batch", "count", float64(f1-f0)/float64(passes*len(mix)))
	l.add("cluster.chunk_dispatch_p50_ms", "ms", chunkP50/1e6)
	l.add("cluster.worker_range_p50_ms", "ms", rangeP50/1e6)
	l.rep.linef("ladder sim (ms): engine setting1 %.3f (distance %.3f) metro %.3f | runner per batch w1 %.3f w2 %.3f w4 %.3f | session %.3f (+%.3f over w2)",
		s1, s1-s1NoDist, metro, runnerMs[1], runnerMs[2], runnerMs[4], sessMs, sessMs-runnerMs[2])
	return nil
}

// sessionTraffic sums a session's frames and bytes, both directions.
func sessionTraffic(m *cluster.SessionMetrics) (frames, bytes uint64) {
	return m.FramesRead.Value() + m.FramesWritten.Value(), m.BytesRead.Value() + m.BytesWritten.Value()
}

// overheadPairs is how many untraced and traced phases a traced run
// alternates to measure the tracing overhead: on a shared host the
// machine's speed drifts by more than the overhead between two phases
// run once each, and alternating lands that drift on both alike.
const overheadPairs = 4

// finishTrace summarises the traced loop's spans into the per-layer
// report, adds the tracing overhead, and writes the spans out.
func finishTrace(o options, workload string, tr *tracer, root spanName, untraced, traced float64, rep *report) {
	sum := tr.summarize()
	var spans int
	for name, st := range sum {
		spans += st.count
		if st.count > 0 {
			rep.linef("trace %-22s n=%-7d mean %9.0f ns  self %9.0f ns  children/span %.2f",
				spanNames[name], st.count, float64(st.totalNs)/float64(st.count),
				float64(st.selfNs)/float64(st.count), float64(st.childCount)/float64(st.count))
		}
	}
	r := sum[root]
	if r.count == 0 || r.totalNs == 0 {
		r.count, r.totalNs = 1, 1
	}
	overhead := (untraced - traced) / untraced * 100
	rep.add("trace.root_span_us", "us", float64(r.totalNs)/float64(r.count)/1e3)
	rep.add("trace.root_self_share", "share", float64(r.selfNs)/float64(r.totalNs))
	rep.add("trace.spans_per_root", "count", float64(spans)/float64(r.count))
	rep.add("obsv.tracing_overhead_pct", "%", overhead)
	rep.linef("%s tracing overhead %.2f%% (untraced %.2f/s, traced %.2f/s); %d spans kept, %d dropped",
		workload, overhead, untraced, traced, spans, tr.dropped)
	path := spanDumpPath(o, workload)
	if err := tr.writeCSV(path); err != nil {
		rep.linef("span dump failed: %v", err)
		return
	}
	rep.linef("spans written to %s", path)
}
