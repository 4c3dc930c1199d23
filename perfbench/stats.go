package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two closest ranks (the "type 7" estimator that
// numpy and R use by default). It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples of an n-sample set that lie strictly above
// the rank-⌈q·n⌉ order statistic — the samples a q-quantile leaves in its
// tail.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// minTail is how many samples a reported tail percentile must have beyond
// it: a percentile resting on fewer is one or two outliers, not a tail.
const minTail = 10

// highestSupported returns the highest of the candidate quantiles that
// leaves at least minTail samples beyond it in an n-sample set, and false
// when none does.
func highestSupported(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range candidates {
		if beyond(n, q) >= minTail && (!ok || q > best) {
			best, ok = q, true
		}
	}
	return best, ok
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is quantile(·, 0.5) of an unsorted slice.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// digest accumulates a SHA-256 over typed values: the request-stream
// fingerprint the self-tests compare across seeds, and the per-batch
// aggregate the sim-cluster gate compares against in-process replication.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) i64(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) sum() [32]byte {
	var out [32]byte
	copy(out[:], d.h.Sum(nil))
	return out
}

// promQuantile reads an obsv histogram family out of Prometheus text
// (cumulative le buckets over 12.5%-wide log-linear bins) and returns the
// q-quantile, interpolating linearly inside the bucket that holds the
// rank. Interpolation keeps a latency read from a bucketed histogram from
// snapping to the same bucket edge on every run. It returns 0 and false
// when the family has no samples.
func promQuantile(text, family string, q float64) (float64, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	prefix := family + "_bucket{"
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.Index(line, `"} `)
		if i < 0 || j < i {
			continue
		}
		leText := line[i+4 : j]
		if leText == "+Inf" {
			continue
		}
		le, err1 := strconv.ParseFloat(leText, 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSpace(line[j+3:]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bs = append(bs, bucket{le, cum})
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0, false
	}
	total := bs[len(bs)-1].cum
	rank := q * total
	prevCum := 0.0
	for _, b := range bs {
		if b.cum >= rank {
			lo := float64(obsvBucketLo(int64(b.le)))
			frac := (rank - prevCum) / (b.cum - prevCum)
			return lo + frac*(b.le-lo), true
		}
		prevCum = b.cum
	}
	return bs[len(bs)-1].le, true
}

// obsvBucketLo returns the inclusive lower edge of the obsv histogram
// bucket whose inclusive upper edge is hi. Values below 8 have exact
// one-value buckets; above, a bucket is [m·w, (m+1)·w − 1] for a power of
// two w and m in [8, 15], so hi+1 = (m+1)·w identifies w.
func obsvBucketLo(hi int64) int64 {
	if hi < 8 {
		return hi
	}
	v := hi + 1
	for m := int64(9); m <= 16; m++ {
		if v%m == 0 {
			if w := v / m; w&(w-1) == 0 {
				return hi - w + 1
			}
		}
	}
	return hi
}

// promValue reads one unlabelled sample (a counter, gauge, or a
// histogram's _sum/_count line) out of Prometheus text.
func promValue(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// countingWriter counts what passes through it to w — snapshot sizes
// without holding the bytes.
type countingWriter struct {
	n int64
	w io.Writer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}

// windows splits a timed phase into equal windows so a run can report
// the median window instead of one whole-run figure: a burst of
// interference from outside the benchmark then costs one window, not the
// run. Samples are appended in time order; cuts[w] is how many samples
// had been appended when window w ended.
type windows struct {
	start time.Time
	width time.Duration
	n     int
	cuts  []int
}

// windowCount is how many windows a timed phase is split into.
const windowCount = 10

func newWindows(start time.Time, total time.Duration) *windows {
	return &windows{start: start, width: total / windowCount, n: windowCount}
}

// note records that samples samples had been appended by now.
func (w *windows) note(now time.Time, samples int) {
	for len(w.cuts) < w.n && !now.Before(w.start.Add(time.Duration(len(w.cuts)+1)*w.width)) {
		w.cuts = append(w.cuts, samples)
	}
}

// finish closes the windows still open at the end of the phase.
func (w *windows) finish(samples int) {
	for len(w.cuts) < w.n {
		w.cuts = append(w.cuts, samples)
	}
}

// span returns the sample index range of window i.
func (w *windows) span(i int) (lo, hi int) {
	if i > 0 {
		lo = w.cuts[i-1]
	}
	return lo, w.cuts[i]
}

// windowRate returns the median per-window rate over one or more
// loops' sample streams, and every window's rate: a window's samples per
// second.
func windowRate(ws []*windows) (float64, []float64) {
	rates := make([]float64, ws[0].n)
	for i := range rates {
		var n int
		for _, w := range ws {
			lo, hi := w.span(i)
			n += hi - lo
		}
		rates[i] = float64(n) / ws[0].width.Seconds()
	}
	return median(rates), rates
}

// windowQuantiles returns, for each q, the median over windows of the
// q-quantile of the samples recorded in that window (pooled across
// loops). Windows with no samples are skipped.
func windowQuantiles(ws []*windows, samples [][]float64, qs ...float64) []float64 {
	perQ := make([][]float64, len(qs))
	for i := 0; i < ws[0].n; i++ {
		var vals []float64
		for d, w := range ws {
			lo, hi := w.span(i)
			vals = append(vals, samples[d][lo:hi]...)
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		for j, q := range qs {
			perQ[j] = append(perQ[j], quantile(vals, q))
		}
	}
	out := make([]float64, len(qs))
	for j := range qs {
		out[j] = median(perQ[j])
	}
	return out
}

// fmtRates renders window rates compactly for the human-readable lines.
func fmtRates(rates []float64) string {
	parts := make([]string, len(rates))
	for i, r := range rates {
		parts[i] = strconv.FormatFloat(r, 'f', 0, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
