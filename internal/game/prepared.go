package game

import (
	"math"
	"slices"
)

// PreparedNE caches the Nash-equilibrium solution of an Instance so that the
// per-slot distance-to-NE metric can be evaluated cheaply: the simulator
// recomputes the NE only when the set of active devices or an availability
// set changes (an "epoch"), and evaluates Distance every slot. Everything
// Definition 3 needs from the NE side — each group's NE shares in ascending
// order — is sorted here, once per epoch, so a slot sorts current gains
// only (or, for noise-free rates, nothing but ≤k run keys per group).
type PreparedNE struct {
	bw      []float64 // the instance's bandwidths (not copied)
	shares  []float64 // per-device gain at the cached NE assignment
	groupOf []int     // availability-group id per device (first-occurrence order)
	nGroups int
	assign  []int         // the cached NE assignment
	solver  AssignScratch // NE solve buffers, reused across epochs
	reps    [][]int       // one representative availability set per group

	// Devices bucketed by group: group g's members, ascending, are
	// order[start[g]:start[g+1]], and neSorted holds their NE shares over
	// the same range sorted ascending.
	order    []int
	start    []int
	neSorted []float64
}

// Prepare solves the instance once and returns the cached solution. Devices
// are partitioned into availability groups (identical availability sets) in
// first-occurrence order; Definition 3 rank-matches gains within each group.
//
// Callers that re-solve on every epoch (the simulator's workspace) should
// keep one PreparedNE and call PrepareInto instead, which reuses its buffers.
func Prepare(in Instance) (*PreparedNE, error) {
	p := &PreparedNE{}
	if err := p.PrepareInto(in); err != nil {
		return nil, err
	}
	return p, nil
}

// PrepareInto re-solves the instance into p in place, reusing every buffer a
// previous solve left behind: after the first epoch of a replication,
// refreshing the NE cache allocates nothing. The cached solution is
// overwritten, so slices previously obtained from Assignment are invalidated.
// The result is identical to a fresh Prepare of the same instance.
func (p *PreparedNE) PrepareInto(in Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	assign := in.NashAssignmentFromScratch(nil, &p.solver)
	p.assign = growInts(p.assign, len(assign))
	copy(p.assign, assign)
	// The solver's counts are the occupancy of the final assignment, so the
	// NE shares follow without a recount.
	p.shares = growFloats(p.shares, len(in.Devices))
	for d, i := range p.assign {
		p.shares[d] = Share(in.Bandwidths[i], p.solver.counts[i])
	}
	// Group devices by availability set. The scan is quadratic in the number
	// of distinct groups, which is small (a topology has few areas); it
	// avoids the per-device string signatures the previous implementation
	// allocated.
	p.groupOf = growInts(p.groupOf, len(in.Devices))
	p.reps = p.reps[:0]
	for d, dev := range in.Devices {
		g := -1
		for i, rep := range p.reps {
			if sameAvailability(rep, dev.Available) {
				g = i
				break
			}
		}
		if g < 0 {
			g = len(p.reps)
			p.reps = append(p.reps, dev.Available)
		}
		p.groupOf[d] = g
	}
	p.nGroups = len(p.reps)
	p.bw = in.Bandwidths

	// Counting sort of devices by group, then each group's NE shares
	// sorted in place: the rank-matching side that no slot changes.
	p.start = growInts(p.start, p.nGroups+1)
	clear(p.start)
	for _, g := range p.groupOf {
		p.start[g+1]++
	}
	for g := 0; g < p.nGroups; g++ {
		p.start[g+1] += p.start[g]
	}
	p.order = growInts(p.order, len(in.Devices))
	p.neSorted = growFloats(p.neSorted, len(in.Devices))
	for d, g := range p.groupOf {
		// start[g] doubles as group g's fill cursor; it is restored below.
		p.order[p.start[g]] = d
		p.neSorted[p.start[g]] = p.shares[d]
		p.start[g]++
	}
	for g := p.nGroups; g > 0; g-- {
		p.start[g] = p.start[g-1]
	}
	p.start[0] = 0
	for g := 0; g < p.nGroups; g++ {
		slices.Sort(p.neSorted[p.start[g]:p.start[g+1]])
	}
	return nil
}

// sameAvailability reports whether two availability sets contain the same
// networks with the same multiplicities (topology validation does not
// forbid duplicate ids within an area). The quadratic count-compare avoids
// allocating; availability sets are small.
func sameAvailability(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		ca, cb := 0, 0
		for _, y := range a {
			if y == x {
				ca++
			}
		}
		for _, y := range b {
			if y == x {
				cb++
			}
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Assignment returns the cached NE assignment (device → network).
// Callers must not modify it.
func (p *PreparedNE) Assignment() []int { return p.assign }

// ShareOf returns device d's gain at the cached NE.
func (p *PreparedNE) ShareOf(d int) float64 { return p.shares[d] }

// Distance evaluates Definition 3 over the given member devices (nil means
// all devices): members are partitioned by availability group, each
// partition's current gains are sorted and rank-matched against the
// partition's NE shares in ascending order, and the worst percentage
// shortfall is returned. currentGains is indexed like the instance's
// devices.
//
// Distance allocates scratch per call; the simulator's per-slot loop uses a
// reusable DistanceEval instead.
func (p *PreparedNE) Distance(currentGains []float64, members []int) float64 {
	e := p.NewEval()
	return e.Distance(currentGains, members)
}

// DistanceEval evaluates Definition 3 against one PreparedNE without
// allocating per call: its gain buffers and occupancy histogram are owned
// by the evaluator and reused across slots and epochs. An evaluator must
// not be shared between goroutines.
type DistanceEval struct {
	p   *PreparedNE
	cur []float64 // all devices' current gains, bucketed like p.order

	// Member-subset scratch, per group, truncated to zero each call.
	subCur, subNE [][]float64

	// DistanceFromCounts scratch, indexed by network (hist, which is all
	// zero between calls) or by run (occ, runGain, runLen): len(bandwidths).
	hist    []int
	occ     []int
	runGain []float64
	runLen  []int
}

// NewEval returns a reusable Definition 3 evaluator for the prepared NE.
func (p *PreparedNE) NewEval() *DistanceEval {
	e := &DistanceEval{}
	e.Reset(p)
	return e
}

// Reset retargets the evaluator at another prepared NE (a new epoch),
// keeping its scratch buffers. The simulator carries one evaluator per
// workspace across every epoch and replication; since the network count is
// fixed per engine, the histogram scratch is sized on the first Reset only.
func (e *DistanceEval) Reset(p *PreparedNE) {
	e.p = p
	for len(e.subCur) < p.nGroups {
		e.subCur = append(e.subCur, nil)
		e.subNE = append(e.subNE, nil)
	}
	e.cur = growFloats(e.cur, len(p.order))
	// hist stays all zero across its whole capacity (DistanceFromCounts
	// clears what it counts), so regrowing it by reslicing is safe.
	k := len(p.bw)
	e.hist = growInts(e.hist, k)
	e.occ = growInts(e.occ, k)
	e.runGain = growFloats(e.runGain, k)
	e.runLen = growInts(e.runLen, k)
}

// Distance is PreparedNE.Distance evaluated through the reusable scratch.
// It returns bit-identical results to the allocating form. Over all devices
// (members nil) only the current gains are sorted, against the NE shares
// PrepareInto sorted once per epoch; a member subset buckets and sorts both
// sides.
//
//repolint:allocfree via TestDistanceEvalWarmAllocations
func (e *DistanceEval) Distance(currentGains []float64, members []int) float64 {
	p := e.p
	var worst float64
	if members == nil {
		for j, d := range p.order {
			e.cur[j] = currentGains[d]
		}
		for g := 0; g < p.nGroups; g++ {
			cur := e.cur[p.start[g]:p.start[g+1]]
			slices.Sort(cur)
			worst = rankMatch(worst, cur, p.neSorted[p.start[g]:p.start[g+1]])
		}
		return worst
	}
	for g := 0; g < p.nGroups; g++ {
		e.subCur[g] = e.subCur[g][:0]
		e.subNE[g] = e.subNE[g][:0]
	}
	for _, d := range members {
		g := p.groupOf[d]
		//repolint:ignore allocfree append into per-group scratch whose capacity grows to the largest subset seen and is retained across calls
		e.subCur[g] = append(e.subCur[g], currentGains[d])
		//repolint:ignore allocfree append into per-group scratch whose capacity grows to the largest subset seen and is retained across calls
		e.subNE[g] = append(e.subNE[g], p.shares[d])
	}
	for g := 0; g < p.nGroups; g++ {
		slices.Sort(e.subCur[g])
		slices.Sort(e.subNE[g])
		worst = rankMatch(worst, e.subCur[g], e.subNE[g])
	}
	return worst
}

// rankMatch folds Definition 3's position-wise shortfall of two ascending
// gain vectors of equal length into worst.
func rankMatch(worst float64, cur, ne []float64) float64 {
	for i := range cur {
		worst = math.Max(worst, percentGainIncrease(cur[i], ne[i]))
	}
	return worst
}

// DistanceFromCounts evaluates Definition 3 over all devices for
// noise-free rates, together with the at-NE verdict of
// Instance.IsNashAssignmentWithCounts. Every device's current gain is then
// exactly Share(bandwidths[n], counts[n]) of its network n = assign[d], so
// a group's sorted gains are runs of equal value, one per occupied network,
// whose lengths are the group's occupancy histogram m_g(n). Sorting the ≤k
// runs replaces sorting the group, and because percentGainIncrease is
// non-decreasing in its target, the largest NE share a run is matched
// against attains the run's maximum: the distance is bit-identical to
// Distance fed those Share gains. The at-NE check runs once per (group,
// occupied network) instead of once per device. assign is indexed like the
// instance's devices; counts is the per-network occupancy of assign.
//
// stop lets a caller that needs only the verdicts dist ≤ stop and atNE end
// early: after any group at which atNE is already false and the running
// distance exceeds stop, neither verdict can change (the distance is a
// running maximum and atNE only falls), so the call returns that partial
// distance. It still exceeds stop, and atNE is exact; the partial distance
// itself is not Definition 3's value. With stop = +Inf the call always
// runs to the end and returns the full distance.
//
//repolint:allocfree via TestDistanceEvalWarmAllocations
func (e *DistanceEval) DistanceFromCounts(assign, counts []int, stop float64) (dist float64, atNE bool) {
	p := e.p
	atNE = true
	for g := 0; g < p.nGroups; g++ {
		lo, hi := p.start[g], p.start[g+1]
		runs := 0
		for _, d := range p.order[lo:hi] {
			n := assign[d]
			if e.hist[n] == 0 {
				e.occ[runs] = n
				runs++
			}
			e.hist[n]++
		}
		// Insertion-sort the runs by gain, returning hist to all zero.
		for r := 0; r < runs; r++ {
			n := e.occ[r]
			s := Share(p.bw[n], counts[n])
			m := e.hist[n]
			e.hist[n] = 0
			if atNE && canImprove(p.bw, counts, p.reps[g], n, s) {
				atNE = false
			}
			i := r
			for ; i > 0 && e.runGain[i-1] > s; i-- {
				e.runGain[i], e.runLen[i] = e.runGain[i-1], e.runLen[i-1]
			}
			e.runGain[i], e.runLen[i] = s, m
		}
		ne := p.neSorted[lo:hi]
		end := 0
		for r := 0; r < runs; r++ {
			end += e.runLen[r]
			// A run at or above its target adds a zero shortfall.
			if ne[end-1] > e.runGain[r] {
				dist = math.Max(dist, percentGainIncrease(e.runGain[r], ne[end-1]))
			}
		}
		if !atNE && dist > stop {
			break
		}
	}
	return dist, atNE
}
