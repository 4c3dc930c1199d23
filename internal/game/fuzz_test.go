package game

import (
	"math"
	"testing"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros once the
// input runs out, so every input decodes to some instance.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzInstance decodes an instance and one valid assignment per round from
// data. Bandwidths are small multiples of 0.5, zero included, so equal
// shares across networks (8/2 = 4/1) and idle zero-rate networks are
// common; availability sets may repeat an id, which validation allows and
// grouping counts by multiplicity.
func fuzzInstance(data []byte, rounds int) (Instance, [][]int) {
	b := fuzzBytes(data)
	var in Instance
	for i := 0; i < 1+b.next()%6; i++ {
		in.Bandwidths = append(in.Bandwidths, float64(b.next()%16)/2)
	}
	k := len(in.Bandwidths)
	areas := make([][]int, 1+b.next()%4)
	for a := range areas {
		for i := 0; i < 1+b.next()%4; i++ {
			areas[a] = append(areas[a], b.next()%k)
		}
	}
	for d := 0; d < 1+b.next()%40; d++ {
		in.Devices = append(in.Devices, Device{Available: areas[b.next()%len(areas)]})
	}
	assigns := make([][]int, rounds)
	for r := range assigns {
		assigns[r] = make([]int, len(in.Devices))
		for d, dev := range in.Devices {
			assigns[r][d] = dev.Available[b.next()%len(dev.Available)]
		}
	}
	return in, assigns
}

// FuzzDistanceHistogram differentially checks the noise-free histogram
// evaluator against the rank-matching paths it replaces: fed the equal
// Share gains, Definition 3 must agree bit for bit over all devices (the
// epoch-sorted NE shares) and over an explicit all-device member list (the
// per-call sort of both sides), and the at-NE verdict must equal
// Instance.IsNashAssignmentWithCounts. One evaluator serves several
// assignments, so a histogram left dirty by one call shows in the next.
//
// Each assignment is also evaluated with an early-exit bound stop of −1,
// 0, an ε drawn from the input's last byte, and +Inf: the at-NE verdict
// and dist ≤ stop must match the full evaluation, a bounded distance can
// only fall short of the full one, and +Inf must return it bit for bit.
func FuzzDistanceHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 8, 8, 4, 0, 2, 0, 1, 2, 5, 0, 0, 0, 0, 0, 1, 1, 1, 0, 2})
	f.Add([]byte{5, 16, 4, 2, 30, 7, 9, 3, 3, 0, 0, 1, 2, 2, 3, 4, 1, 1, 0, 5, 39, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const rounds = 3
		in, assigns := fuzzInstance(data, rounds)
		p, err := Prepare(in)
		if err != nil {
			t.Fatal(err)
		}
		e := p.NewEval()
		all := make([]int, len(in.Devices))
		for d := range all {
			all[d] = d
		}
		eps := 0.0
		if len(data) > 0 {
			eps = float64(data[len(data)-1]) / 2
		}
		counts := make([]int, len(in.Bandwidths))
		gains := make([]float64, len(in.Devices))
		for r, assign := range assigns {
			clear(counts)
			for _, n := range assign {
				counts[n]++
			}
			for d, n := range assign {
				gains[d] = Share(in.Bandwidths[n], counts[n])
			}
			got, atNE := e.DistanceFromCounts(assign, counts, math.Inf(1))
			if want := e.Distance(gains, nil); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: histogram distance %v (%#x), sorted %v (%#x)",
					r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if want := e.Distance(gains, all); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: histogram distance %v, member-list distance %v", r, got, want)
			}
			if want := in.IsNashAssignmentWithCounts(assign, counts); atNE != want {
				t.Fatalf("round %d: histogram at-NE %v, IsNashAssignmentWithCounts %v", r, atNE, want)
			}
			for _, stop := range []float64{-1, 0, eps, math.Inf(1)} {
				d, ne := e.DistanceFromCounts(assign, counts, stop)
				if ne != atNE || (d <= stop) != (got <= stop) || d > got {
					t.Fatalf("round %d stop %v: (%v, %v), full evaluation (%v, %v)", r, stop, d, ne, got, atNE)
				}
				if math.IsInf(stop, 1) && math.Float64bits(d) != math.Float64bits(got) {
					t.Fatalf("round %d: unbounded distance %v, full %v", r, d, got)
				}
			}
		}
	})
}
