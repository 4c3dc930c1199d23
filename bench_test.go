// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced replication counts (one benchmark per experiment id; run
// `reproduce -list` for the catalog), plus micro-benchmarks of the hot
// paths. Seeds vary per iteration so the experiment caches cannot
// short-circuit the work.
//
// Run with: go test -bench=. -benchmem
package smartexp3_test

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"smartexp3"
	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/experiment"
	"smartexp3/internal/fleet"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/obsv"
	"smartexp3/internal/runner"
	"smartexp3/internal/serve"
	"smartexp3/internal/sim"
)

// benchOptions are Quick()-scale options with a seed namespaced per
// experiment id: iteration seeds never collide across benchmarks, so the
// shared experiment caches cannot make another benchmark's iterations look
// free (which would let testing.B ramp b.N into hours of fresh work).
func benchOptions(id string, iteration int) experiment.Options {
	o := experiment.Quick()
	var h int64
	for _, c := range id {
		h = h*131 + int64(c)
	}
	o.Seed = h*1_000_003 + int64(iteration) + 1
	return o
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	def, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := def.Run(benchOptions(id, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Section VI-A: static synthetic settings.

func BenchmarkFig2Switches(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3Stability(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkTable4TimeToStable(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkFig4Distance(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkTable5Download(b *testing.B)       { benchExperiment(b, "tab5") }
func BenchmarkUnutilized(b *testing.B)           { benchExperiment(b, "unutil") }
func BenchmarkFig5Fairness(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6Scalability(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7Join(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8Leave(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9Mobility(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10SwitchesDynamic(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Robustness(b *testing.B)      { benchExperiment(b, "fig11") }

// Section VI-B: trace-driven simulation.

func BenchmarkTable6Traces(b *testing.B)     { benchExperiment(b, "tab6") }
func BenchmarkFig12TraceSeries(b *testing.B) { benchExperiment(b, "fig12") }

// Section VII-A: controlled experiments over real TCP (wall-clock bound).

func BenchmarkTable7Testbed(b *testing.B)       { benchExperiment(b, "tab7") }
func BenchmarkFig13TestbedStatic(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14TestbedDynamic(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15TestbedMixed(b *testing.B)   { benchExperiment(b, "fig15") }

// Section VII-B and analysis.

func BenchmarkWildDownload(b *testing.B)   { benchExperiment(b, "wild") }
func BenchmarkTheorem2Bound(b *testing.B)  { benchExperiment(b, "thm2") }
func BenchmarkTheorem3Regret(b *testing.B) { benchExperiment(b, "thm3") }
func BenchmarkAblation(b *testing.B)       { benchExperiment(b, "ablate") }

// Micro-benchmarks of the hot paths.

// BenchmarkPolicySlot measures one Select+Observe cycle of Smart EXP3.
func BenchmarkPolicySlot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pol, err := smartexp3.NewPolicy(smartexp3.AlgSmartEXP3, []int{0, 1, 2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	gains := []float64{0.2, 0.4, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Observe(gains[pol.Select()])
	}
}

// BenchmarkSmartEXP3Draw isolates the per-slot selection draw — the Fast
// EXP3 hot path: incremental weight maintenance plus the O(log k)
// weight-proportional sample — across arm counts. EXP3 features (every
// block a single slot) maximize draw frequency so the benchmark measures
// the draw itself, not block bookkeeping.
func BenchmarkSmartEXP3Draw(b *testing.B) {
	for _, k := range []int{3, 16, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			available := make([]int, k)
			gains := make([]float64, k)
			for i := range available {
				available[i] = i
				gains[i] = float64(i%10) / 10
			}
			pol := core.NewSmartEXP3("bench", core.FeaturesFor(core.AlgEXP3),
				available, core.DefaultConfig(), rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol.Observe(gains[pol.Select()])
			}
		})
	}
}

// BenchmarkRunnerReplications measures the parallel experiment runner end
// to end: fanning seeded replications of a small Setting 1 simulation over
// the worker pool and merging results in deterministic run order. The
// config is compiled into a sim.Engine once per batch and each worker owns
// one pooled workspace — the standard batch shape since the zero-allocation
// engine; the per-op work (8 seeded replications of a 5-device, 120-slot
// Setting 1 run) is unchanged from the pre-engine baseline in
// BENCH_runner.json, so ns/op and allocs/op are directly comparable.
func BenchmarkRunnerReplications(b *testing.B) {
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := runner.Replications{
					Runs:    8,
					Workers: workers,
					Seed:    int64(i + 1),
					Stream:  []int64{42},
				}
				var downloads float64
				err := sim.Replicate(batch,
					sim.Config{
						Topology: netmodel.Setting1(),
						Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
						Slots:    120,
					},
					func(_ int, res *sim.Result) error {
						for d := range res.Devices {
							downloads += res.Devices[d].DownloadMb
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterDispatch measures the cluster coordinator end to end
// against one loopback shardd worker: per op it dials, handshakes, ships
// the job descriptor, dispatches ranges and merges the gob-decoded result
// stream — the same 8-replication Setting 1 batch as
// BenchmarkRunnerReplications/workers=1, so the difference between the two
// rows is the per-batch cost of going through the cluster layer instead of
// the in-process pool.
func BenchmarkClusterDispatch(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go cluster.Serve(ln, cluster.WorkerOptions{Workers: 1})
	addr := ln.Addr().String()

	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
		Slots:    120,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := runner.Replications{Runs: 8, Seed: int64(i + 1), Stream: []int64{42}}
		job, err := cluster.NewJob(batch, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var downloads float64
		err = cluster.Run(job, []string{addr}, cluster.Options{}, func(_ int, res *sim.Result) error {
			for d := range res.Devices {
				downloads += res.Devices[d].DownloadMb
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSession measures the per-batch cost on a warm persistent
// session: the worker was dialed, handshaken and connected once before the
// timer started, so each op pays only the session-multiplexed dispatch — a
// job descriptor, its range frames and the gob-decoded result stream for
// the same 8-replication Setting 1 batch as BenchmarkClusterDispatch. The
// delta between the two rows is the dial + handshake + teardown the session
// amortizes away, which is the whole point of the layer: the experiment
// suite's many small batches pay it once instead of per batch.
func BenchmarkClusterSession(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go cluster.Serve(ln, cluster.WorkerOptions{Workers: 1})

	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
		Slots:    120,
	}
	sess := cluster.NewSession([]string{ln.Addr().String()}, cluster.Options{})
	defer sess.Close()
	runBatch := func(seed int64) error {
		batch := runner.Replications{Runs: 8, Seed: seed, Stream: []int64{42}}
		job, err := cluster.NewJob(batch, cfg)
		if err != nil {
			return err
		}
		var downloads float64
		return sess.Run(job, func(_ int, res *sim.Result) error {
			for d := range res.Devices {
				downloads += res.Devices[d].DownloadMb
			}
			return nil
		})
	}
	if err := runBatch(1); err != nil { // warm the session and the worker's engine pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runBatch(int64(i + 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimReplication measures one warm replication through a pooled
// workspace across population scales: 10 devices on Setting 1, and 100/500
// devices spread over generated multi-area metropolitan topologies (the
// 500-device case runs on the 204-network `large` preset). Steady-state
// allocs/op must stay flat — a handful of objects for the returned Result
// plus epoch bookkeeping, regardless of scale or replication count.
func BenchmarkSimReplication(b *testing.B) {
	cases := []struct {
		devices int
		topo    netmodel.Topology
	}{
		{10, netmodel.Setting1()},
		{100, netmodel.Generate(netmodel.GenSpec{Areas: 10, APsPerArea: 3, Cells: 2, Overlap: 1})},
		{500, netmodel.Large()},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("devices=%d", c.devices), func(b *testing.B) {
			devs := sim.SpreadDevices(c.devices, core.AlgSmartEXP3, len(c.topo.Areas))
			eng, err := sim.NewEngine(sim.Config{
				Topology: c.topo,
				Devices:  devs,
				Slots:    200,
			})
			if err != nil {
				b.Fatal(err)
			}
			ws := eng.NewWorkspace()
			if _, err := eng.Run(ws, 1); err != nil { // warm the workspace
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ws, int64(i+2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeSelect measures the decision service's hot path in
// process: one warm Select+Feedback cycle against the sharded device store
// (shard routing, device lookup, pending-slot bookkeeping and the Fast
// EXP3 draw). The device is warm — past explore-first, availability
// unchanged — which is the steady state a long-lived daemon serves, and
// the path the BENCH_runner.json gate holds to ≤ 1 alloc/op (it measures
// 0). The reported decisions/s is single-goroutine; see
// BenchmarkServeSelectParallel for the sharded fan-out.
func BenchmarkServeSelect(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm: past explore-first and pool growth
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkServeSelectInstrumented is BenchmarkServeSelect with the obsv
// registry attached — the observability layer's perf contract: the warm
// path must stay at 0 allocs/op and within a few percent of the bare rate
// (per-shard counters are plain increments under the already-held lock; the
// latency probe samples 1 in 64 requests).
func BenchmarkServeSelectInstrumented(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	store.Instrument(obsv.NewRegistry())
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm: past explore-first and pool growth
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkFleetSelect is BenchmarkServeSelect with a fleet peer wrapped
// around the store: the partition-table ownership check (one atomic view
// load plus a rendezvous-free stripe index per request) now guards every
// Select and Feedback. This is the owning-peer steady state of a sharded
// fleet, and the BENCH_runner.json gate holds it to 0 allocs/op — joining
// a fleet must not cost the daemon its allocation-free hot path.
func BenchmarkFleetSelect(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	peer, err := fleet.NewPeer(store, fleet.PeerOptions{ID: "a"})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := fleet.NewTable(fleet.DefaultStripeBits, []fleet.PeerInfo{{ID: "a", Addr: "a:1", Control: "a:2"}})
	if err != nil {
		b.Fatal(err)
	}
	if err := peer.InstallTable(tab); err != nil {
		b.Fatal(err)
	}
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm: past explore-first and pool growth
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkServeSelectParallel drives the store from GOMAXPROCS goroutines
// over disjoint warm devices — the daemon's saturated shape. The headline
// metric is decisions/s/core: per-shard mutexes mean it should hold near
// the serial rate instead of collapsing onto one lock.
func BenchmarkServeSelectParallel(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	procs := runtime.GOMAXPROCS(0)
	for dev := uint64(0); dev < uint64(procs); dev++ { // warm every goroutine's device
		for i := 0; i < 300; i++ {
			arm, slot, err := store.Select(dev, arms)
			if err != nil {
				b.Fatal(err)
			}
			store.Feedback(dev, arm, slot, gains[arm])
		}
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dev := (next.Add(1) - 1) % uint64(procs)
		for pb.Next() {
			arm, slot, err := store.Select(dev, arms)
			if err != nil {
				b.Error(err)
				return
			}
			store.Feedback(dev, arm, slot, gains[arm])
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs/float64(procs), "decisions/s/core")
	}
}

// BenchmarkServeWire measures one Select+Feedback decision round trip
// through the full stack — client batching, the binary codec and CRC
// frames both ways, the server's connection loop, the store — over
// loopback TCP, and reports the p99 per-decision latency alongside the
// mean. Both ends decode into reused per-connection buffers, so the row is
// gated at 0 allocs/op like the in-process decision rows.
func BenchmarkServeWire(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	srv := serve.NewServer(store, serve.ServerOptions{})
	go srv.Serve(ln)
	defer srv.Close()
	c, err := serve.Dial(ln.Addr().String(), serve.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm device, codec type descriptors, buffers
		arm, err := c.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Feedback(7, arm, gains[arm]); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		arm, err := c.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Feedback(7, arm, gains[arm]); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns/op")
	}
}

// BenchmarkEXP3Slot measures the classic EXP3 per-slot cost for comparison.
func BenchmarkEXP3Slot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pol, err := smartexp3.NewPolicy(smartexp3.AlgEXP3, []int{0, 1, 2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	gains := []float64{0.2, 0.4, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Observe(gains[pol.Select()])
	}
}

// BenchmarkSimulationRun measures a full 20-device, 1200-slot Setting 1 run
// with metric collection — the unit of work behind every Section VI figure.
func BenchmarkSimulationRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.Simulate(smartexp3.SimConfig{
			Topology: smartexp3.Setting1(),
			Devices:  smartexp3.UniformDevices(20, smartexp3.AlgSmartEXP3),
			Slots:    1200,
			Seed:     int64(i + 1),
			Collect:  smartexp3.CollectOptions{Distance: true, Probabilities: true},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNashSolver measures the congestion-game solver on the Figure 1
// heterogeneous-availability instance.
func BenchmarkNashSolver(b *testing.B) {
	top := smartexp3.FoodCourt()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		smartexp3.NashCounts(top.Bandwidths(), 20)
	}
}

// BenchmarkTraceRun measures one 100-slot trace-driven selection run.
func BenchmarkTraceRun(b *testing.B) {
	pair := smartexp3.PaperTracePairs(1)[2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.RunTrace(smartexp3.TraceRunConfig{
			Pair:      pair,
			Algorithm: smartexp3.AlgSmartEXP3,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWildRun measures one in-the-wild download emulation.
func BenchmarkWildRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.RunWild(smartexp3.WildConfig{
			FileMB:    100,
			Algorithm: smartexp3.AlgSmartEXP3,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedSlot measures testbed wall-clock throughput (slots/sec) at
// a tiny scale; it is dominated by real socket time by design.
func BenchmarkTestbedSlot(b *testing.B) {
	if testing.Short() {
		b.Skip("testbed uses wall-clock time")
	}
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.RunTestbed(smartexp3.TestbedConfig{
			APs: []smartexp3.Network{
				{Name: "a", Type: smartexp3.WiFi, Bandwidth: 4},
				{Name: "b", Type: smartexp3.WiFi, Bandwidth: 12},
			},
			Devices: []smartexp3.TestbedDeviceSpec{
				{Algorithm: smartexp3.AlgSmartEXP3},
				{Algorithm: smartexp3.AlgSmartEXP3},
				{Algorithm: smartexp3.AlgGreedy},
			},
			Slots:        10,
			SlotDuration: 20 * time.Millisecond,
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
