package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"smartexp3/internal/fleet"
	"smartexp3/internal/obsv"
)

func TestRequestDigestIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []string{"serve-wire", "fleet-churn", "sim-cluster"} {
		a1, err := requestDigest(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := requestDigest(w, 7)
		b, _ := requestDigest(w, 8)
		if a1 != a2 {
			t.Errorf("%s: seed 7 gave two different request streams", w)
		}
		if a1 == b {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
	}
	if _, err := requestDigest("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestQuantileKnownVectors(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 9.91},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 9}, 0, 3},
		{[]float64{3, 9}, 1, 9},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// TestTailRule pins "the highest percentile with at least ten samples
// beyond it".
func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{100, 0.90, 10},
		{99, 0.90, 9},
		{10000, 0.999, 10},
		{5, 0.5, 2},
		{1, 0.5, 0},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	support := []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 0.999, true},
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.90, true},
		{100, 0.90, true},
		{99, 0.50, true},
		{19, 0, false},
	}
	for _, c := range support {
		got, ok := highestSupported(c.n, 0.5, 0.9, 0.99, 0.999)
		if ok != c.ok || got != c.want {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestPromQuantileReadsObsvBuckets checks the bucket geometry the
// Prometheus reader assumes against obsv's own rendering, and that the
// interpolated quantile stays inside the bucket holding the rank.
func TestPromQuantileReadsObsvBuckets(t *testing.T) {
	prevHi := int64(-1)
	for v := int64(0); v <= 5000; v++ {
		reg := obsv.NewRegistry()
		reg.Histogram("h", "one sample").Observe(v)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		hi, ok := promQuantile(buf.String(), "h", 1)
		if !ok {
			t.Fatalf("v=%d: no samples read", v)
		}
		lo := obsvBucketLo(int64(hi))
		if v < lo || v > int64(hi) {
			t.Fatalf("v=%d read back in bucket [%d, %v]", v, lo, hi)
		}
		if int64(hi) != prevHi && lo != prevHi+1 {
			t.Fatalf("bucket [%d, %v] does not start after the previous bucket's edge %d", lo, hi, prevHi)
		}
		prevHi = int64(hi)
	}

	reg := obsv.NewRegistry()
	h := reg.Histogram("lat", "samples 1..1000")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, ok := promQuantile(text, "lat", q)
		exact := q * 1000
		if !ok || math.Abs(got-exact)/exact > 0.125 {
			t.Errorf("q=%v: got %v, want within one bucket of %v", q, got, exact)
		}
	}
	if got := promValue(text, "lat_count"); got != 1000 {
		t.Errorf("lat_count = %v, want 1000", got)
	}
	if _, ok := promQuantile(text, "missing", 0.5); ok {
		t.Error("a missing family reported samples")
	}
}

// TestCountingConnCountsExactly moves known messages over net.Pipe
// through the wrappers and checks every call and byte is counted.
func TestCountingConnCountsExactly(t *testing.T) {
	a, b := net.Pipe()
	var sa, sb ioStats
	ca, cb := newCountingConn(a, &sa), newCountingConn(b, &sb)
	sizes := []int{10, 20, 30}
	done := make(chan error, 1)
	go func() {
		for _, n := range sizes {
			if _, err := ca.Write(bytes.Repeat([]byte{'x'}, n)); err != nil {
				done <- err
				return
			}
		}
		done <- ca.Close()
	}()
	for _, n := range sizes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(cb, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sa.writes.Load(); got != 3 {
		t.Errorf("writes = %d, want 3", got)
	}
	if got := sa.writtenBytes.Load(); got != 60 {
		t.Errorf("written bytes = %d, want 60", got)
	}
	if got := sb.reads.Load(); got != 3 {
		t.Errorf("reads = %d, want 3", got)
	}
	if got := sb.readBytes.Load(); got != 60 {
		t.Errorf("read bytes = %d, want 60", got)
	}
	if sa.reads.Load() != 0 || sb.writes.Load() != 0 {
		t.Error("calls counted on the wrong side")
	}
	cb.Close()
}

func TestCountingListenerOverPipe(t *testing.T) {
	pl := newPipeListener()
	cl := newCountingListener(pl)
	defer cl.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := pl.Dial()
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	go func() {
		client.Write([]byte("hello"))
		client.Write([]byte("world!"))
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "helloworld!" {
		t.Fatalf("read %q", got)
	}
	// ReadAll reads until EOF: one Read per message plus the one that
	// returns EOF.
	if r, n := cl.stats.reads.Load(), cl.stats.readBytes.Load(); r != 3 || n != 11 {
		t.Errorf("listener counted %d reads of %d bytes, want 3 reads of 11", r, n)
	}
	if len(cl.accepted()) != 1 {
		t.Errorf("accepted %d conns, want 1", len(cl.accepted()))
	}
	pl.Close()
	if _, err := pl.Accept(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Accept after Close = %v, want closed", err)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	tr.spans = append(tr.spans,
		span{id: 1, start: 0, dur: 100, name: spanSelect},
		span{id: 2, parent: 1, start: 10, dur: 20, name: spanClientWrite},
		span{id: 3, parent: 1, start: 20, dur: 20, name: spanClientRead},   // overlaps 2
		span{id: 4, parent: 1, start: 90, dur: 30, name: spanServerRead},   // clipped at 100
		span{id: 5, parent: 1, start: -50, dur: 10, name: spanServerWrite}, // outside
	)
	sum := tr.summarize()
	if got := sum[spanSelect].selfNs; got != 100-30-10 {
		t.Errorf("self = %d, want 60", got)
	}
	if got := sum[spanSelect].childCount; got != 4 {
		t.Errorf("children = %d, want 4", got)
	}
	var nilTracer *tracer
	nilTracer.finish(nilTracer.newID(), spanSelect, 0, tr.epoch, 1)
}

// The fleet-churn join must move half the stripes: rendezvous hashing
// scores stripes on the peer ids alone, so the ids fix the split.
func TestJoinMovesHalfTheStripes(t *testing.T) {
	peers := []fleet.PeerInfo{
		{ID: peerFirst, Addr: "a:1", Control: "a:2"},
		{ID: peerJoiner, Addr: "b:1", Control: "b:2"},
	}
	tab, err := fleet.NewTable(fleet.DefaultStripeBits, peers)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for s := 0; s < tab.Stripes(); s++ {
		if tab.Peers[tab.OwnerOf(s)].ID == peerJoiner {
			moved++
		}
	}
	if moved != tab.Stripes()/2 {
		t.Errorf("the join moves %d of %d stripes, want half", moved, tab.Stripes())
	}
}
