package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies a layer boundary the benchmark times from outside.
type spanName uint8

const (
	spanSelect       spanName = iota // one client Select call (serve or fleet)
	spanFeedback                     // one client Feedback call
	spanRelease                      // one client Release call
	spanClientRead                   // client conn Read
	spanClientWrite                  // client conn Write
	spanServerRead                   // daemon data conn Read
	spanServerWrite                  // daemon data conn Write
	spanRebalance                    // one Coordinator.Rebalance
	spanControlRead                  // peer control conn Read
	spanControlWrite                 // peer control conn Write
	spanBatch                        // one cluster Session.Run
	spanWorkerRead                   // cluster worker conn Read
	spanWorkerWrite                  // cluster worker conn Write
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.select", "client.feedback", "client.release",
	"client.conn.read", "client.conn.write",
	"server.conn.read", "server.conn.write",
	"coordinator.rebalance", "peer.control.read", "peer.control.write",
	"session.run", "worker.conn.read", "worker.conn.write",
}

// span is one timed call: name, start, duration and the span that caused
// it (0 for a root).
type span struct {
	start      int64  // ns since the tracer's epoch
	dur        int32  // ns, saturating at ~2.1 s
	id, parent uint32 // ids fit: a run records far fewer than 2^32 spans
	name       spanName
}

// tracer keeps spans in memory for the whole run; they are written out
// and summarised when it ends. A nil *tracer records nothing, which is
// how untraced runs pay only a nil check.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

// maxSpans caps the in-memory trace (64 MB of 32-byte spans); spans past
// it are counted as dropped, never reallocated mid-run.
const maxSpans = 1 << 21

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// newID reserves a span id, so a root can name itself as its children's
// parent before it ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// finish records a span whose id was reserved with newID.
func (t *tracer) finish(id uint64, name spanName, parent uint64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	if d > math.MaxInt32 {
		d = math.MaxInt32
	}
	s := span{id: uint32(id), parent: uint32(parent), start: int64(start.Sub(t.epoch)), dur: int32(d), name: name}
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// record records a leaf span.
func (t *tracer) record(name spanName, parent uint64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.finish(t.newID(), name, parent, start, d)
}

// current is the span a goroutine has in flight, published so socket
// calls made on its behalf — possibly by another goroutine, such as the
// daemon's connection loop — can name it as their parent.
type current struct{ id atomic.Uint64 }

func (c *current) set(id uint64) { c.id.Store(id) }

func (c *current) get() uint64 { return c.id.Load() }

// spanStats summarises the spans of one name.
type spanStats struct {
	count      int
	totalNs    int64
	selfNs     int64
	childCount int
}

// summarize computes per-name totals, including self time: a span's
// duration minus the part of it its children's intervals cover.
func (t *tracer) summarize() [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint32][]int, len(spans)/4)
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	var iv [][2]int64
	for i := range spans {
		s := &spans[i]
		st := &out[s.name]
		st.count++
		st.totalNs += int64(s.dur)
		kids := children[s.id]
		st.childCount += len(kids)
		iv = iv[:0]
		lo, hi := s.start, s.start+int64(s.dur)
		for _, k := range kids {
			a, b := spans[k].start, spans[k].start+int64(spans[k].dur)
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		st.selfNs += int64(s.dur) - coveredNs(iv)
	}
	return out
}

// coveredNs returns the length of the union of half-open intervals.
func coveredNs(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeCSV writes every span, one per line, to path.
func (t *tracer) writeCSV(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	var line []byte
	t.mu.Lock()
	for _, s := range t.spans {
		line = strconv.AppendUint(line[:0], uint64(s.id), 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, uint64(s.parent), 10)
		line = append(line, ',')
		line = append(line, spanNames[s.name]...)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start+int64(s.dur), 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
