package game

import (
	"math"
	"math/rand"
	"testing"
)

// heterogeneousInstance builds a game with several availability groups and
// enough devices to make rank-matching non-trivial.
func heterogeneousInstance(devices int, rng *rand.Rand) Instance {
	avail := [][]int{{0, 1, 2}, {0, 3}, {0, 4}, {1, 2, 3, 4}}
	in := Instance{Bandwidths: []float64{16, 14, 22, 7, 4}}
	for d := 0; d < devices; d++ {
		in.Devices = append(in.Devices, Device{Available: avail[rng.Intn(len(avail))]})
	}
	return in
}

// TestPrepareIntoMatchesFresh pins the pooling contract: re-solving many
// different instances through one reused PreparedNE must give the same
// assignment, shares, grouping and distances as a fresh Prepare of each.
func TestPrepareIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pooled PreparedNE
	for trial := 0; trial < 40; trial++ {
		in := heterogeneousInstance(3+rng.Intn(12), rng)
		if err := pooled.PrepareInto(in); err != nil {
			t.Fatal(err)
		}
		fresh, err := Prepare(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(pooled.Assignment()) != len(fresh.Assignment()) {
			t.Fatalf("trial %d: assignment lengths differ", trial)
		}
		gains := make([]float64, len(in.Devices))
		for d := range gains {
			if pooled.Assignment()[d] != fresh.Assignment()[d] {
				t.Fatalf("trial %d: device %d assigned %d (pooled) vs %d (fresh)",
					trial, d, pooled.Assignment()[d], fresh.Assignment()[d])
			}
			if pooled.ShareOf(d) != fresh.ShareOf(d) {
				t.Fatalf("trial %d: device %d share %v (pooled) vs %v (fresh)",
					trial, d, pooled.ShareOf(d), fresh.ShareOf(d))
			}
			gains[d] = rng.Float64() * 22
		}
		if got, want := pooled.Distance(gains, nil), fresh.Distance(gains, nil); got != want {
			t.Fatalf("trial %d: distance %v (pooled) vs %v (fresh)", trial, got, want)
		}
	}
}

// TestPrepareIntoWarmAllocations asserts the pooling pay-off: once a
// PreparedNE has solved an instance of a given size, re-solving the same
// shape allocates nothing.
func TestPrepareIntoWarmAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := heterogeneousInstance(20, rng)
	var p PreparedNE
	if err := p.PrepareInto(in); err != nil { // warm-up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := p.PrepareInto(in); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm PrepareInto allocates %.1f objects, want 0", avg)
	}
}

// TestNashAssignmentFromScratchMatches pins the scratch solver against the
// allocating entry point, including seeded (minimal-churn) solves.
func TestNashAssignmentFromScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch AssignScratch
	for trial := 0; trial < 40; trial++ {
		in := heterogeneousInstance(2+rng.Intn(10), rng)
		var seed []int
		if trial%2 == 1 {
			seed = make([]int, len(in.Devices))
			for d := range seed {
				seed[d] = rng.Intn(len(in.Bandwidths)+1) - 1 // -1 means unseeded
			}
		}
		want := in.NashAssignmentFrom(seed)
		got := in.NashAssignmentFromScratch(seed, &scratch)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("trial %d: device %d assigned %d (scratch) vs %d (alloc)",
					trial, d, got[d], want[d])
			}
		}
		if !in.IsNashAssignment(got) {
			t.Fatalf("trial %d: scratch assignment is not a Nash equilibrium", trial)
		}
	}
}

// TestDistanceEvalWarmAllocations is the AllocsPerRun gate behind the
// //repolint:allocfree markers on DistanceEval.Distance and
// DistanceEval.DistanceFromCounts: once the evaluator's scratch has grown
// to the instance's group sizes, evaluating Definition 3 — over all devices,
// a member subset, or the noise-free occupancy histogram — allocates
// nothing, also across a Reset to the next epoch's NE.
func TestDistanceEvalWarmAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := heterogeneousInstance(24, rng)
	var p PreparedNE
	if err := p.PrepareInto(in); err != nil {
		t.Fatal(err)
	}
	e := p.NewEval()
	gains := make([]float64, len(in.Devices))
	for d := range gains {
		gains[d] = rng.Float64() * 5
	}
	assign := in.NashAssignment()
	assign[0] = in.Devices[0].Available[0] // one off-equilibrium move
	counts := make([]int, len(in.Bandwidths))
	for _, n := range assign {
		counts[n]++
	}
	members := []int{0, 3, 5, 7, 11, 13}
	e.Distance(gains, nil) // warm: scratch reaches full group sizes
	e.Distance(gains, members)
	avg := testing.AllocsPerRun(100, func() {
		e.Reset(&p)
		e.Distance(gains, nil)
		e.Distance(gains, members)
		e.DistanceFromCounts(assign, counts, math.Inf(1))
	})
	if avg != 0 {
		t.Fatalf("warm Distance allocates %.1f objects, want 0", avg)
	}
}

// TestDistanceToNashGroupedIsOrderIndependent is the regression test for the
// determinism waiver in DistanceToNashGrouped: the metric folds math.Max over
// a map of availability groups, so its result must not depend on map
// iteration order. Repeated calls hit different orders; all must agree, and
// all must match the deterministic PreparedNE evaluation of the same
// instance.
func TestDistanceToNashGroupedIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := heterogeneousInstance(24, rng)
	gains := make([]float64, len(in.Devices))
	for d := range gains {
		gains[d] = rng.Float64() * 5
	}
	want := in.DistanceToNashGrouped(gains)
	for i := 0; i < 50; i++ {
		if got := in.DistanceToNashGrouped(gains); got != want {
			t.Fatalf("call %d: distance %v, previous calls %v — map order leaked into the result", i, got, want)
		}
	}
	var p PreparedNE
	if err := p.PrepareInto(in); err != nil {
		t.Fatal(err)
	}
	if got := p.Distance(gains, nil); math.Abs(got-want) > 1e-9 {
		t.Fatalf("prepared Distance %v, grouped %v", got, want)
	}
}
