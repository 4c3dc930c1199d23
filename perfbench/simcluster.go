package main

import (
	"net"
	"runtime"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/obsv"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// sim-cluster: a fixed mix of replication batches through one warm
// cluster.Session to clusterWorkers in-process cluster.Serve workers
// (Workers: 1 each) on loopback.
const clusterWorkers = 2

// batchKind is one batch shape of the mix.
type batchKind struct {
	name string
	cfg  sim.Config
	runs int
}

// batchKinds are the two shapes: the paper's Section VI-A unit (Setting
// 1, 20 devices, 1200 slots, distance to Nash equilibrium collected) and
// a 100-device generated metro topology where a quarter of the devices
// join at slot 300 and leave at slot 900. The replication counts are
// batch sizes cmd/simulate documents: `simulate -runs 32 -workers 8`
// replicates its default scenario, which is the Setting 1 shape, and
// `simulate -runs 24 -seeds 7,8,9` runs 24 per seed. Its sharded example,
// `-runs 96 -shards h1:9631,h2:9631`, would make batches three times
// longer: about 40 batches in a 35-second run, too few for ten beyond the
// p90.
var batchKinds = []batchKind{
	{
		name: "setting1",
		cfg: sim.Config{
			Topology: netmodel.Setting1(),
			Devices:  sim.UniformDevices(20, core.AlgSmartEXP3),
			Slots:    1200,
			Collect:  sim.CollectOptions{Distance: true},
		},
		runs: 32,
	},
	{
		name: "metro",
		cfg: sim.Config{
			Topology: netmodel.Generate(netmodel.GenSpec{Areas: 10, APsPerArea: 3, Cells: 2, Overlap: 1}),
			Devices:  metroDevices(),
			Slots:    1200,
		},
		runs: 24,
	},
}

// batchMix is the repeating order of batch kinds (indices into
// batchKinds): three Setting 1 batches, as a three-seed sweep runs them
// over one session, then one metro batch. With three batches of one
// shape to one of the other, the p50 falls among the Setting 1 batches
// and the p90 among the metro ones, never on the gap between the shapes,
// where a 1:1 mix would put the median.
var batchMix = []int{0, 0, 0, 1}

func metroDevices() []sim.DeviceSpec {
	devs := sim.SpreadDevices(100, core.AlgSmartEXP3, 10)
	for d := 0; d < len(devs); d += 4 {
		devs[d].Join, devs[d].Leave = 300, 900
	}
	return devs
}

// batch is batch i of a seeded run: its kind, base seed and replication
// count.
type batch struct {
	kind int
	seed int64
	runs int
}

func batchAt(seed int64, i int) batch {
	k := batchMix[i%len(batchMix)]
	return batch{kind: k, seed: rngutil.ChildSeed(seed, streamBatches, int64(i)), runs: batchKinds[k].runs}
}

func (b batch) replications(workers int) runner.Replications {
	return runner.Replications{Runs: b.runs, Workers: workers, Seed: b.seed, Stream: []int64{int64(b.kind)}}
}

// resultDigest folds one batch's results, in merge order, into a digest:
// the aggregate the gate compares between the cluster and in-process
// replication.
func resultDigest(d *digest, res *sim.Result) {
	for i := range res.Devices {
		dv := &res.Devices[i]
		d.f64(dv.DownloadMb)
		d.f64(dv.DelaySeconds)
		d.i64(int64(dv.Switches))
		d.i64(int64(dv.Resets))
		d.i64(int64(dv.StableFrom))
	}
	for _, x := range res.Distance {
		d.f64(x)
	}
	d.f64(res.FracAtNE)
	d.f64(res.FracAtEps)
	d.f64(res.UnusedMb)
	d.f64(res.TotalMb)
}

// clusterRig is the worker side: clusterWorkers cluster.Serve loops on
// loopback listeners.
type clusterRig struct {
	lns   []net.Listener
	clns  []*countingListener
	addrs []string
	done  chan struct{}
	reg   *obsv.Registry // the workers' cluster.WorkerMetrics
}

func startClusterRig(counted bool) (*clusterRig, error) {
	r := &clusterRig{done: make(chan struct{}), reg: obsv.NewRegistry()}
	wm := cluster.NewWorkerMetrics(r.reg)
	for i := 0; i < clusterWorkers; i++ {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		var ln net.Listener = raw
		if counted {
			cl := newCountingListener(raw)
			r.clns = append(r.clns, cl)
			ln = cl
		}
		r.lns = append(r.lns, ln)
		r.addrs = append(r.addrs, raw.Addr().String())
	}
	n := len(r.lns)
	finished := make(chan struct{}, n) // one send per worker loop
	for _, ln := range r.lns {
		go func() {
			_ = cluster.Serve(ln, cluster.WorkerOptions{Workers: 1, Metrics: wm})
			finished <- struct{}{}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			<-finished
		}
		close(r.done)
	}()
	return r, nil
}

// close stops accepting and waits for the accept loops to return; the
// workers' connection goroutines end when their sessions close.
func (r *clusterRig) close() {
	for _, ln := range r.lns {
		ln.Close()
	}
	if len(r.lns) == clusterWorkers {
		<-r.done
	}
}

// simCluster is one set-up instance of the sim-cluster workload.
type simCluster struct {
	seed  int64
	rig   *clusterRig
	sess  *cluster.Session
	sm    *cluster.SessionMetrics
	reg   *obsv.Registry // sm's registry
	wire  []cluster.WireConfig
	next  int // index of the next batch to run
	cur   *current
	lat   []float64 // ms per batch, timed phases
	sums  [][32]byte
	fails int64
	err   error
}

func startSimCluster(seed int64, counted bool) (*simCluster, error) {
	rig, err := startClusterRig(counted)
	if err != nil {
		return nil, err
	}
	s := &simCluster{seed: seed, rig: rig, reg: obsv.NewRegistry(), cur: new(current)}
	s.sm = cluster.NewSessionMetrics(s.reg)
	for _, k := range batchKinds {
		wc, err := cluster.FromSimConfig(k.cfg)
		if err != nil {
			rig.close()
			return nil, err
		}
		s.wire = append(s.wire, wc)
	}
	s.sess = cluster.NewSession(rig.addrs, cluster.Options{Metrics: s.sm})
	// Warm the session: dial both workers and compile each batch shape's
	// engine on them, with a few runs of seeds no timed batch uses.
	for k := range batchKinds {
		if _, err := s.runBatch(batch{kind: k, seed: -1 - int64(k), runs: 2 * clusterWorkers}, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *simCluster) close() {
	s.sess.Close()
	s.rig.close()
}

// runBatch runs one batch through the session and returns its digest.
func (s *simCluster) runBatch(b batch, tr *tracer) ([32]byte, error) {
	job := cluster.JobSpec{Config: s.wire[b.kind], Runs: b.runs, Seed: b.seed, Stream: []int64{int64(b.kind)}}
	d := newDigest()
	id := tr.newID()
	s.cur.set(id)
	t0 := time.Now()
	err := s.sess.Run(job, func(_ int, res *sim.Result) error {
		resultDigest(d, res)
		return nil
	})
	tr.finish(id, spanBatch, 0, t0, time.Since(t0))
	s.cur.set(0)
	return d.sum(), err
}

// phase runs whole mix cycles, in mix order, until one ends past the
// deadline, and returns the replications completed: ending on a cycle
// boundary keeps the two shapes' shares of the phase fixed.
func (s *simCluster) phase(deadline time.Time, tr *tracer, keep bool) int64 {
	var runs int64
	for s.next%len(batchMix) != 0 || time.Now().Before(deadline) {
		b := batchAt(s.seed, s.next)
		t0 := time.Now()
		sum, err := s.runBatch(b, tr)
		dt := time.Since(t0)
		s.next++
		if err != nil {
			s.fails++
			if s.err == nil {
				s.err = err
			}
			s.sums = append(s.sums, [32]byte{})
			continue
		}
		s.sums = append(s.sums, sum)
		runs += int64(b.runs)
		if keep {
			s.lat = append(s.lat, float64(dt)/1e6)
		}
	}
	return runs
}

// wasted reads the session's useful-work counters: worker reconnects and
// chunks reassigned after a worker failure.
func (s *simCluster) wasted() usefulWork {
	return usefulWork{reconnects: s.sm.Reconnects.Value(), chunksReassigned: s.sm.ChunksReassigned.Value()}
}

func (s *simCluster) attachSpans(tr *tracer) {
	for _, cl := range s.rig.clns {
		var site *spanSite
		if tr != nil {
			site = &spanSite{tr: tr, read: spanWorkerRead, write: spanWorkerWrite, parent: s.cur.get}
		}
		for _, c := range cl.accepted() {
			c.site.Store(site)
		}
	}
}

func runSimCluster(o options) (*report, error) {
	s, setup, err := repeatSetup(15, func() (*simCluster, error) { return startSimCluster(o.seed, o.trace) }, (*simCluster).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep := &report{}
	if o.trace {
		if err := tracedSimCluster(o, s, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	start := time.Now()
	runs := s.phase(start.Add(o.budget()), nil, true)
	elapsed := time.Since(start)
	rep.attempted = int64(s.next)
	rep.failed = s.fails
	heap := heapMB(int64(cap(s.lat))*8 + int64(cap(s.sums))*32)
	lat := sortedCopy(s.lat)
	rate := float64(runs) / elapsed.Seconds()
	p50, p90 := quantile(lat, 0.50), quantile(lat, 0.90)
	rep.add("throughput_per_s", "1/s", rate)
	rep.add("latency_p50_us", "us", p50*1e3)
	rep.add("latency_tail_us", "us", p90*1e3)
	rep.add("heap_mb", "MB", heap)
	rep.add("setup_s", "s", median(setup))
	rep.linef("sim-cluster replications_per_s %.3f 1/s (%d replications in %d batches, %d whole mix cycles, in %.3f s; 1 session, %d workers x 1, batches in series)",
		rate, runs, s.next, s.next/len(batchMix), elapsed.Seconds(), clusterWorkers)
	rep.linef("sim-cluster batch_p50_ms %.4f ms (n=%d)", p50, len(lat))
	rep.linef("sim-cluster batch_p90_ms %.4f ms (n=%d, %d samples beyond)", p90, len(lat), beyond(len(lat), 0.90))
	if _, ok := highestSupported(len(lat), 0.90); !ok {
		rep.linef("sim-cluster warning: fewer than %d batches beyond p90; the tail is an outlier, not a percentile", minTail)
	}
	rep.linef("sim-cluster heap_mb %.3f MB", heap)
	rep.linef("sim-cluster setup_s %.4f s (median of %d set-ups %v)", median(setup), len(setup), setup)
	if s.err != nil {
		rep.linef("sim-cluster first batch error: %v", s.err)
	}
	s.wasted().check(rep, "sim-cluster")
	gateSimCluster(s, rep)
	return rep, nil
}

// gateSimCluster replays every batch in-process with sim.Replicate, on
// every core of the machine, and checks its merged aggregate equals the
// cluster's.
func gateSimCluster(s *simCluster, rep *report) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(machineProcs))
	var bad int64
	for i, got := range s.sums {
		b := batchAt(s.seed, i)
		d := newDigest()
		err := sim.Replicate(b.replications(clusterWorkers), batchKinds[b.kind].cfg, func(_ int, res *sim.Result) error {
			resultDigest(d, res)
			return nil
		})
		if err != nil {
			rep.gate(1, "sim-cluster replay batch %d: %v", i, err)
			return
		}
		if d.sum() != got {
			bad++
		}
	}
	if bad > 0 {
		rep.gate(bad, "sim-cluster: %d of %d batch aggregates differ from in-process sim.Replicate", bad, len(s.sums))
		return
	}
	rep.linef("sim-cluster gate: %d batch aggregates identical to in-process sim.Replicate", len(s.sums))
}

// tracedSimCluster runs batches untraced and traced in alternation
// (their difference is the tracing overhead), then the layer ladder.
func tracedSimCluster(o options, s *simCluster, rep *report) error {
	loop := o.budget() / 4 / overheadPairs
	tr := newTracer()
	var r0, r1 int64
	var e0, e1 time.Duration
	for i := 0; i < overheadPairs; i++ {
		t0 := time.Now()
		r0 += s.phase(t0.Add(loop), nil, false)
		e0 += time.Since(t0)
		s.attachSpans(tr)
		t1 := time.Now()
		r1 += s.phase(t1.Add(loop), tr, false)
		e1 += time.Since(t1)
		s.attachSpans(nil)
	}
	rep.attempted = int64(s.next)
	rep.failed = s.fails
	finishTrace(o, "sim-cluster", tr, spanBatch, float64(r0)/e0.Seconds(), float64(r1)/e1.Seconds(), rep)
	gateSimCluster(s, rep)
	return runLadder(o, rep, s.wasted())
}
