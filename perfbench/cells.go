package main

import (
	"fmt"
	"time"

	"smartexp3/internal/netmodel"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/serve"
)

// The serve workloads replay the paper's Setting 1 congestion game as
// live traffic: devices sit in cells of cellSize that share the three
// Setting 1 networks (4, 7 and 22 Mbps). Every round each device of a
// cell Selects, and then each is told gain = bandwidth / (devices of its
// cell on that network) / 22 — the normalised fair share the simulator
// credits (22 Mbps, the fastest network, maps to gain 1).
const cellSize = 16

var (
	cellArms = []int{0, 1, 2}
	cellMbps = netmodel.Setting1().Bandwidths()
	maxMbps  = netmodel.Setting1().MaxBandwidth()
)

// Stream ids namespace the seeded generators, so each input of a
// workload draws from its own sub-stream of the workload seed.
const (
	streamDevices int64 = iota + 1
	streamFresh
	streamChurn
	streamBatches
)

// serveStoreSeed roots the daemons' per-device generators. It is part of
// the daemon's configuration, not of the workload: the workload seed only
// changes which requests arrive.
const serveStoreSeed = 1

// deviceIDs returns n device ids of a seeded stream, starting at index
// first. ChildSeed is a bijection of the index for a fixed seed and
// stream, so the ids are distinct.
func deviceIDs(seed, stream int64, first, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(rngutil.ChildSeed(seed, stream, int64(first+i)))
	}
	return ids
}

// cellGain is the reward every device of a cell on arm receives when
// counts[arm] of them chose it.
func cellGain(arm int, counts *[3]int) float64 {
	return cellMbps[arm] / float64(counts[arm]) / maxMbps
}

// decider is the client surface the serve workloads drive: serve.Client
// and fleet.Client both have it.
type decider interface {
	Select(device uint64, arms []int) (int, error)
	Feedback(device uint64, arm int, reward float64) error
}

// opKind tags a logged request.
type opKind uint8

const (
	opDecide  opKind = iota // Select answered arm, then Feedback(reward)
	opRelease               // Release
)

// op is one logged request; the log is what the correctness gates
// replay into an in-process serve.Store.
type op struct {
	dev    uint64
	reward float64
	arm    int32
	kind   opKind
}

const opBytes = 24 // unsafe.Sizeof(op{}), for the heap accounting

// cellLoop runs the cell rounds of one client goroutine and keeps what
// it needs for metrics and gates: per-decision latencies and the request
// log.
type cellLoop struct {
	c    decider
	ids  []uint64 // device ids, cell c is ids[c*cellSize:(c+1)*cellSize]
	log  []op
	lat  []int64  // ns per Select+Feedback pair
	keep bool     // record latencies (timed phase) or not (warm-up)
	win  *windows // windows over lat, timed phases

	decisions int64
	failed    int64
	firstErr  error

	tr  *tracer
	cur *current

	arms [cellSize]int
}

func newCellLoop(c decider, ids []uint64) *cellLoop {
	if len(ids)%cellSize != 0 {
		panic(fmt.Sprintf("%d devices do not fill cells of %d", len(ids), cellSize))
	}
	return &cellLoop{c: c, ids: ids, cur: new(current)}
}

func (d *cellLoop) cells() int { return len(d.ids) / cellSize }

func (d *cellLoop) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// cell runs one round of cell ci: every device Selects, then every
// device gets its share as Feedback. A pair's latency is the Select
// call's duration plus the Feedback call's, each timed call to return.
func (d *cellLoop) cell(ci int) {
	ids := d.ids[ci*cellSize : (ci+1)*cellSize]
	var durs [cellSize]time.Duration
	var counts [3]int
	for i, dev := range ids {
		id := d.tr.newID()
		d.cur.set(id)
		t0 := time.Now()
		arm, err := d.c.Select(dev, cellArms)
		dt := time.Since(t0)
		d.tr.finish(id, spanSelect, 0, t0, dt)
		durs[i] = dt
		if err != nil {
			d.fail(fmt.Errorf("select device %d: %w", dev, err))
			arm = -1
		} else {
			counts[arm]++
		}
		d.arms[i] = arm
	}
	for i, dev := range ids {
		arm := d.arms[i]
		if arm < 0 {
			continue
		}
		r := cellGain(arm, &counts)
		id := d.tr.newID()
		d.cur.set(id)
		t0 := time.Now()
		err := d.c.Feedback(dev, arm, r)
		dt := time.Since(t0)
		d.tr.finish(id, spanFeedback, 0, t0, dt)
		if err != nil {
			d.fail(fmt.Errorf("feedback device %d: %w", dev, err))
			continue
		}
		d.log = append(d.log, op{dev: dev, reward: r, arm: int32(arm), kind: opDecide})
		d.decisions++
		if d.keep {
			d.lat = append(d.lat, int64(durs[i]+dt))
		}
	}
	d.cur.set(0)
}

// rounds runs n full rounds over every cell.
func (d *cellLoop) rounds(n int) {
	for r := 0; r < n; r++ {
		for ci := 0; ci < d.cells(); ci++ {
			d.cell(ci)
		}
	}
}

// until runs cells round-robin, starting at cell *next, until the
// deadline; it checks the clock between cells, so a cell's decisions
// always complete. It returns with *next at the first cell not run.
func (d *cellLoop) until(deadline time.Time, next *int) {
	for time.Now().Before(deadline) {
		d.cell(*next)
		*next = (*next + 1) % d.cells()
		d.noteWindow()
	}
}

// noteWindow tells the loop's windows, if any, how many latencies it
// has recorded by now.
func (d *cellLoop) noteWindow() {
	if d.win != nil {
		d.win.note(time.Now(), len(d.lat))
	}
}

// decisionMetrics adds a serve workload's end-to-end metrics for its
// timed phase: decisions per second and the p50 and p99 latency of a
// Select+Feedback pair, each the median over the phase's windows (a
// window pools every loop's samples), plus heap and set-up time.
func decisionMetrics(rep *report, workload string, loops []*cellLoop, decisions int64, elapsed time.Duration, heap float64, setup []float64) {
	ws := make([]*windows, len(loops))
	us := make([][]float64, len(loops))
	var n int
	for i, d := range loops {
		ws[i] = d.win
		us[i] = make([]float64, len(d.lat))
		for j, v := range d.lat {
			us[i][j] = float64(v) / 1e3
		}
		n += len(d.lat)
	}
	rate, rates := windowRate(ws)
	q := windowQuantiles(ws, us, 0.50, 0.99)
	perWindow := n / windowCount
	rep.add("throughput_per_s", "1/s", rate)
	rep.add("latency_p50_us", "us", q[0])
	rep.add("latency_tail_us", "us", q[1])
	rep.add("heap_mb", "MB", heap)
	rep.add("setup_s", "s", median(setup))
	rep.linef("%s decisions_per_s %.1f 1/s (median of %d windows %s; whole run %d decisions in %.3f s)",
		workload, rate, windowCount, fmtRates(rates), decisions, elapsed.Seconds())
	rep.linef("%s decision_p50_us %.3f us (median of window p50s; n=%d, ~%d per window)", workload, q[0], n, perWindow)
	rep.linef("%s decision_p99_us %.3f us (median of window p99s; ~%d samples beyond p99 per window)", workload, q[1], beyond(perWindow, 0.99))
	if _, ok := highestSupported(perWindow, 0.99); !ok {
		rep.linef("%s warning: fewer than %d samples beyond p99 per window; the tail is an outlier, not a percentile", workload, minTail)
	}
	rep.linef("%s heap_mb %.3f MB (in use after a forced GC, the benchmark's own sample and log buffers excluded)", workload, heap)
	rep.linef("%s setup_s %.4f s (median of %d set-ups %v)", workload, median(setup), len(setup), setup)
}

// replayGate feeds a request log into a fresh in-process store with the
// daemon's configuration, checking every Select answers the logged arm.
// It returns the store and the number of requests whose answer differed.
func replayGate(logs ...[]op) (*serve.Store, int64, error) {
	ref, err := serve.NewStore(serve.Config{Seed: serveStoreSeed})
	if err != nil {
		return nil, 0, err
	}
	var mismatched int64
	for _, log := range logs {
		for _, o := range log {
			if o.kind == opRelease {
				ref.Release(o.dev)
				continue
			}
			arm, slot, err := ref.Select(o.dev, cellArms)
			if err != nil {
				return nil, 0, err
			}
			if arm != int(o.arm) {
				mismatched++
			}
			if !ref.Feedback(o.dev, arm, slot, o.reward) {
				return nil, 0, fmt.Errorf("reference store dropped feedback for device %d", o.dev)
			}
		}
	}
	return ref, mismatched, nil
}

// snapshotDigest encodes a store snapshot and returns its SHA-256 and
// size.
func snapshotDigest(sn *serve.Snapshot) ([32]byte, int64, error) {
	d := newDigest()
	cw := &countingWriter{w: d.h}
	if err := sn.Encode(cw); err != nil {
		return [32]byte{}, 0, err
	}
	return d.sum(), cw.n, nil
}
