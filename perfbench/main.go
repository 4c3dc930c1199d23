// Command perfbench is the repository benchmark: it hosts the decision
// daemon, the fleet and the cluster workers in-process on loopback
// listeners, drives one named workload for a fixed time, checks every
// output against an in-process reference, and prints the metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists; with -trace 1 they are its per-layer metrics, from a separate
// run that records spans and times each layer from outside.
//
// Run from the repository root (run.sh builds and starts it):
//
//	bash perfbench/run.sh --workload serve-wire --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are the flags every workload receives.
type options struct {
	seed    int64
	seconds int
	trace   bool
	out     string // directory for the span dump
}

func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	gateErrs          []string
	metrics           []metric
	lines             []string // human-readable detail printed before the JSON
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// gate records a failed correctness check: n operations count as failed.
func (r *report) gate(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.failed += n
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

// usefulWork counts work a clean run does not do: client reconnects,
// Selects a daemon answered from its dedup path (lost-response retries)
// and cluster chunks reassigned after a worker failure. A client that
// reconnects retries transparently and the dedup makes the replayed state
// identical, so the output gates alone would pass such a run; check
// fails it.
type usefulWork struct {
	reconnects, dedupHits, chunksReassigned uint64
}

func (u *usefulWork) add(v usefulWork) {
	u.reconnects += v.reconnects
	u.dedupHits += v.dedupHits
	u.chunksReassigned += v.chunksReassigned
}

// check prints the counters and records a failed gate for each one that
// is not 0.
func (u usefulWork) check(rep *report, what string) {
	rep.linef("%s useful-work check: %d reconnects, %d dedup hits, %d chunks reassigned (each must be 0)",
		what, u.reconnects, u.dedupHits, u.chunksReassigned)
	for _, c := range []struct {
		n    uint64
		name string
	}{{u.reconnects, "reconnects"}, {u.dedupHits, "dedup hits"}, {u.chunksReassigned, "chunks reassigned"}} {
		if c.n > 0 {
			rep.gate(int64(c.n), "%s: %d %s on a clean run", what, c.n, c.name)
		}
	}
}

type workloadFunc func(options) (*report, error)

var workloads = map[string]workloadFunc{
	"serve-wire":  runServeWire,
	"fleet-churn": runFleetChurn,
	"sim-cluster": runSimCluster,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve-wire, fleet-churn or sim-cluster")
		seed    = flag.Int64("seed", 1, "workload seed: the generated requests are a pure function of it")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds ≥ 1, -trace 0|1\n", names)
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	runtime.GOMAXPROCS(timedProcs)
	inputs, err := requestDigest(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("# %s seed=%d seconds=%d trace=%d go=%s gomaxprocs=%d (machine %d)\n",
		*name, *seed, *seconds, *trace, runtime.Version(), timedProcs, machineProcs)
	fmt.Printf("# request stream sha256 %x\n", inputs)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, e := range rep.gateErrs {
		fmt.Println("GATE FAILED:", e)
	}
	fmt.Printf("# operations attempted %d, failed %d\n", rep.attempted, rep.failed)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	correct := rep.failed == 0 && len(rep.gateErrs) == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// timedProcs is GOMAXPROCS while a run sets up and measures. With one P
// the client, the daemon and the workers take turns on one thread and
// hand off without waking another, so a run needs one vCPU of a shared
// host, not two at once: on a 2-vCPU VM with a neighbour busy, one
// serve.Client's p50 spread 1% across runs at one P and 34% at two. The
// correctness gates and the ladder's parallel rungs, which time nothing
// end to end, run on machineProcs.
const timedProcs = 1

// machineProcs is GOMAXPROCS as the process started: the machine's.
var machineProcs = runtime.GOMAXPROCS(0)

// heapMB forces a collection and returns the heap in use, in MB, minus
// owned: the bytes of the benchmark's own sample and log buffers, which
// grow with the number of operations a run manages and would otherwise
// make a faster program read as a bigger one.
func heapMB(owned int64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-owned) / 1e6
}

// spanDumpPath is where a traced run writes its spans; each traced run
// of a workload replaces the previous dump.
func spanDumpPath(o options, workload string) string {
	return filepath.Join(o.out, "trace", workload+".csv")
}

// repeatSetup runs build reps times, closing every instance but the last,
// and returns the last instance with every build's time in seconds. A
// run reports the median as setup_s, so one slow start-up does not swing
// it; workloads with a short set-up repeat it more often.
func repeatSetup[T any](reps int, build func() (T, error), closeFn func(T)) (T, []float64, error) {
	var inst T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return inst, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < reps-1 {
			closeFn(v)
			continue
		}
		inst = v
	}
	return inst, secs, nil
}

// digestRounds and digestBatches bound how much of an open-ended request
// stream the fingerprint covers: far more than any run consumes.
const (
	digestRounds  = 256
	digestBatches = 4096
)

// requestDigest fingerprints the requests a workload generates from seed
// — device ids, churn schedule, batch list — so a run can show it
// replayed the same inputs as another.
func requestDigest(workload string, seed int64) ([32]byte, error) {
	d := newDigest()
	switch workload {
	case "serve-wire":
		for _, id := range deviceIDs(seed, streamDevices, 0, wireClients*wireDevicesPerClient) {
			d.u64(id)
		}
	case "fleet-churn":
		for _, id := range deviceIDs(seed, streamDevices, 0, fleetDevices) {
			d.u64(id)
		}
		for r := int64(0); r < digestRounds; r++ {
			for _, s := range churnSlots(seed, r, fleetDevices) {
				d.i64(int64(s))
			}
		}
		for _, id := range deviceIDs(seed, streamFresh, 0, digestRounds*fleetDevices/churnDiv) {
			d.u64(id)
		}
	case "sim-cluster":
		for i := 0; i < digestBatches; i++ {
			b := batchAt(seed, i)
			d.i64(int64(b.kind))
			d.i64(b.seed)
		}
	default:
		return [32]byte{}, fmt.Errorf("unknown workload %q", workload)
	}
	return d.sum(), nil
}
