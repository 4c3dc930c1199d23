package core

import (
	"math"
	"math/rand"
)

// SmartEXP3 is the engine behind the EXP3 family (Algorithm 1 plus the
// Section V mechanisms). Which mechanisms are active is controlled by
// Features, so the same engine implements EXP3, Block EXP3, Hybrid Block
// EXP3, Smart EXP3 w/o Reset, and full Smart EXP3.
//
// Weights are kept in log space under a lazily refreshed shift (see
// weightSet), which keeps the multiplicative-update rule w ← w·exp(γĝ/k)
// exact and immune to float64 overflow over long horizons while making the
// per-block weight update and the selection draw O(log k) instead of O(k)
// — the Fast EXP3 hot-path structure.
type SmartEXP3 struct {
	name string
	feat Features
	cfg  Config
	rng  *rand.Rand

	available  []int       // global network ids, ascending
	availSpare []int       // retired availability slice, recycled as the next SetAvailable sort buffer
	index      map[int]int // global id → local index
	k          int

	w     weightSet // arm weights with O(log k) update and draw
	probs []float64 // selection distribution, filled lazily (ensureProbs)
	// probsValid records whether probs reflects the current (weights, γ);
	// the full O(k) fill only happens when something reads the whole
	// distribution (Probabilities, SetAvailable), never on the slot loop.
	// The fill also records the distribution's argmax (first index), max
	// and min for export. Every block start invalidates the cache, so the
	// periodic reset and greedy-eligibility checks never read it: they take
	// the extrema from the weight set in O(1) (hi, lo, argmaxProb),
	// bit-equal to what a fill would record.
	probsValid bool
	iPlus      int     // argmax of probs (lowest index on ties)
	maxP, minP float64 // max and min of probs
	explore    []int   // local indices pending initial exploration

	// Current block.
	blockIdx  int     // b, counts blocks started (1-based)
	gamma     float64 // γ(b)
	cur       int     // local index of the block's network; -1 before first block
	selProb   float64 // p(b), the probability the block's network was chosen with
	blockLen  int
	slotIn    int // slots observed so far in this block
	blockGain float64
	window    []float64 // trailing ≤SwitchBackWindow slot gains of this block
	curIsSB   bool      // this block is a switch-back block
	needBlock bool

	// Previous block (for switch-back).
	prevNet    int // local index, -1 if none
	prevWindow []float64
	prevWasSB  bool
	pendingSB  int // local index to switch back to next block, -1 if none

	// Per-network learning state (local indices).
	x       []int     // number of blocks in which the network was chosen
	sumGain []float64 // Σ slot gains (greedy statistics)
	cntGain []int     // number of slot observations
	slotsOn []int     // slots spent connected (identifies i_max)
	// iMax caches i_max, the lowest local index with the most slotsOn. It
	// is derived state, so snapshots omit it: Observe promotes cur in O(1),
	// performReset zeroes it, and rebuild/ImportState rescan.
	iMax int

	// Greedy eligibility state.
	condAFailed bool
	yThreshold  int
	// greedyWasEligible records whether the current block was chosen while
	// the greedy coin was available (determines p(b) = p_i/2 vs p_i).
	greedyWasEligible bool

	// Quality-drop reset state.
	dropRef   float64
	dropCount int

	// blockLens memoizes BlockLength(cfg.Beta, x) by x: the schedule is a
	// pure function of β, consulted several times per block (start, greedy
	// eligibility, periodic reset), and math.Pow is the hot loop's most
	// expensive call. It survives Reinit.
	blockLens []int

	// Counters.
	resets      int
	switches    int
	switchBacks int
	lastGlobal  int // global id used in the previous slot, -1 initially
	totalSlots  int
}

var (
	_ Policy              = (*SmartEXP3)(nil)
	_ ProbabilityReporter = (*SmartEXP3)(nil)
	_ ResetReporter       = (*SmartEXP3)(nil)
	_ SwitchReporter      = (*SmartEXP3)(nil)
	_ Reinitializer       = (*SmartEXP3)(nil)
)

// NewSmartEXP3 constructs the engine with an explicit feature set. Most
// callers should use New with one of the named algorithms instead; this
// constructor exists for ablation studies.
func NewSmartEXP3(name string, feat Features, available []int, cfg Config, rng *rand.Rand) *SmartEXP3 {
	p := &SmartEXP3{name: name, feat: feat, cfg: cfg}
	p.Reinit(available, rng)
	return p
}

// Reinit implements Reinitializer: every field except the identity (name,
// features, config) is returned to its constructor state and the per-network
// state is rebuilt over the given availability set, reusing all buffers.
func (p *SmartEXP3) Reinit(available []int, rng *rand.Rand) {
	p.rng = rng
	p.cur, p.prevNet, p.pendingSB, p.lastGlobal = -1, -1, -1, -1
	p.needBlock = true
	p.blockIdx, p.blockLen, p.slotIn = 0, 0, 0
	p.gamma, p.selProb, p.blockGain = 0, 0, 0
	// Pre-size the trailing windows and the block-length memo so pooled
	// reuse reaches its steady state immediately instead of growing
	// capacity whenever one run's randomness explores a new maximum.
	if cap(p.window) < p.cfg.SwitchBackWindow {
		p.window = make([]float64, 0, p.cfg.SwitchBackWindow)
		p.prevWindow = make([]float64, 0, p.cfg.SwitchBackWindow)
	}
	p.blockLength(64)
	p.window = p.window[:0]
	p.prevWindow = p.prevWindow[:0]
	p.curIsSB, p.prevWasSB = false, false
	p.explore = p.explore[:0]
	p.condAFailed, p.greedyWasEligible = false, false
	p.yThreshold = 0
	p.dropRef, p.dropCount = 0, 0
	p.resets, p.switches, p.switchBacks, p.totalSlots = 0, 0, 0, 0
	p.rebuild(sortedInto(p.available, available), nil)
}

// Name implements Policy.
func (p *SmartEXP3) Name() string { return p.name }

// Available implements Policy.
func (p *SmartEXP3) Available() []int { return p.available }

// Probabilities implements ProbabilityReporter. It returns the selection
// distribution under the current weights (uniform before the first block).
func (p *SmartEXP3) Probabilities() []float64 {
	p.ensureProbs()
	return p.probs
}

// ensureProbs refreshes the cached distribution — and its argmax/extrema —
// if weights or γ moved since it was last computed.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) ensureProbs() {
	if p.probsValid {
		return
	}
	p.w.fill(p.probs, p.gamma)
	p.iPlus, p.maxP, p.minP = 0, p.probs[0], p.probs[0]
	for li := 1; li < p.k; li++ {
		if p.probs[li] > p.maxP {
			p.maxP, p.iPlus = p.probs[li], li
		}
		if p.probs[li] < p.minP {
			p.minP = p.probs[li]
		}
	}
	p.probsValid = true
}

// armProb returns the selection probability of one arm in O(1), without
// materializing the whole distribution.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) armProb(li int) float64 {
	if p.probsValid {
		return p.probs[li]
	}
	return p.w.prob(li, p.gamma)
}

// Resets implements ResetReporter.
func (p *SmartEXP3) Resets() int { return p.resets }

// Switches implements SwitchReporter.
func (p *SmartEXP3) Switches() int { return p.switches }

// SwitchBacks returns how many switch-back blocks the policy has executed.
func (p *SmartEXP3) SwitchBacks() int { return p.switchBacks }

// Select implements Policy.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) Select() int {
	if p.needBlock {
		p.startBlock()
	}
	chosen := p.available[p.cur]
	if p.lastGlobal >= 0 && chosen != p.lastGlobal {
		p.switches++
	}
	p.lastGlobal = chosen
	return chosen
}

// Observe implements Policy.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) Observe(gain float64) {
	gain = clamp01(gain)
	p.totalSlots++
	p.slotsOn[p.cur]++
	// Only cur's count rose, so only cur can take over i_max; ties keep
	// the lowest index, as the full scan does.
	if on, best := p.slotsOn[p.cur], p.slotsOn[p.iMax]; on > best || (on == best && p.cur < p.iMax) {
		p.iMax = p.cur
	}
	p.sumGain[p.cur] += gain
	p.cntGain[p.cur]++
	p.blockGain += gain
	// Trailing-window update by copy-shift: reslicing the head off would
	// erode the buffer's capacity and force a reallocation every few blocks.
	if len(p.window) < p.cfg.SwitchBackWindow {
		//repolint:ignore allocfree append is bounded by SwitchBackWindow into a buffer Reinit pre-sizes to that capacity, so it never grows the backing array
		p.window = append(p.window, gain)
	} else {
		copy(p.window, p.window[1:])
		p.window[len(p.window)-1] = gain
	}
	p.slotIn++

	if p.feat.Reset && p.checkQualityDrop(gain) {
		p.endBlock()
		p.performReset()
		return
	}

	// Switch-back is evaluated after the first slot of a block: if the new
	// network performed worse than the previous block's network, abandon the
	// block (it lasted a single slot) and spend the next block back on the
	// previous network.
	if p.feat.SwitchBack && p.slotIn == 1 && p.switchBackTriggers(gain) {
		p.pendingSB = p.prevNet
		p.endBlock()
		return
	}

	if p.slotIn >= p.blockLen {
		p.endBlock()
	}
}

// SetAvailable implements Policy.
func (p *SmartEXP3) SetAvailable(networks []int) {
	// Sort into the retired availability buffer instead of allocating: a
	// device that changes service area every slot (mobility churn) calls
	// this on every area change, and the two buffers simply ping-pong.
	next := sortedInto(p.availSpare, networks)
	p.availSpare = next
	if len(next) == 0 || equalInts(next, p.available) {
		return
	}

	removed := make(map[int]bool)
	for _, id := range p.available {
		removed[id] = true
	}
	added := false
	for _, id := range next {
		if removed[id] {
			delete(removed, id)
		} else {
			added = true
		}
	}

	// Does a high-probability network disappear? (Smart EXP3 resets then.)
	p.ensureProbs()
	highProbRemoved := false
	//repolint:ignore determinism order cannot reach results: the loop folds a commutative boolean OR over the removed set
	for id := range removed {
		if li, ok := p.index[id]; ok && li < len(p.probs) &&
			p.probs[li] >= p.cfg.ResetProbability {
			highProbRemoved = true
		}
	}
	curGone := p.cur >= 0 && removed[p.available[p.cur]]
	needReset := p.feat.NetworkChange && (added || highProbRemoved)

	// Close the running block before re-indexing when it cannot continue:
	// either its network vanished ("Smart EXP3 resets the block") or a
	// reset will force exploration at the next slot. Closing first also
	// lets the weight update land before new networks are seeded with the
	// maximum weight.
	if !p.needBlock && p.cur >= 0 && (curGone || needReset) {
		if p.slotIn > 0 {
			p.endBlock()
		} else {
			p.needBlock = true
		}
	}

	spare := p.available
	p.rebuild(next, p.snapshot())
	p.availSpare = spare

	if needReset {
		p.needBlock = true
		p.performReset()
	}
}

// netState carries per-network learning state across availability changes.
type netState struct {
	logW    float64
	x       int
	sumGain float64
	cntGain int
	slotsOn int
}

func (p *SmartEXP3) snapshot() map[int]netState {
	states := make(map[int]netState, p.k)
	for li, id := range p.available {
		states[id] = netState{
			logW:    p.w.logW[li],
			x:       p.x[li],
			sumGain: p.sumGain[li],
			cntGain: p.cntGain[li],
			slotsOn: p.slotsOn[li],
		}
	}
	return states
}

// rebuild re-indexes all per-network state for a new availability set. prior
// is nil on construction. Newly discovered networks are seeded with the
// maximum retained weight (weight 1, i.e. log 0, if nothing is retained), as
// Section III prescribes, so they are likely to be explored.
func (p *SmartEXP3) rebuild(next []int, prior map[int]netState) {
	// Remember identities that must survive re-indexing.
	curID, prevID, pendID := -1, -1, -1
	if p.cur >= 0 && p.cur < len(p.available) {
		curID = p.available[p.cur]
	}
	if p.prevNet >= 0 && p.prevNet < len(p.available) {
		prevID = p.available[p.prevNet]
	}
	if p.pendingSB >= 0 && p.pendingSB < len(p.available) {
		pendID = p.available[p.pendingSB]
	}
	explorePending := make(map[int]bool)
	for _, li := range p.explore {
		if li < len(p.available) {
			explorePending[p.available[li]] = true
		}
	}

	maxRetained := math.Inf(-1)
	for _, id := range next {
		if s, ok := prior[id]; ok && s.logW > maxRetained {
			maxRetained = s.logW
		}
	}
	if math.IsInf(maxRetained, -1) {
		maxRetained = 0 // all networks are new: weight 1
	}

	k := len(next)
	p.available = next
	p.k = k
	if p.index == nil {
		p.index = make(map[int]int, k)
	} else {
		clear(p.index)
	}
	logW := p.w.reset(k)
	p.probs = resizeFloats(p.probs, k)
	p.x = resizeInts(p.x, k)
	p.sumGain = resizeFloats(p.sumGain, k)
	p.cntGain = resizeInts(p.cntGain, k)
	p.slotsOn = resizeInts(p.slotsOn, k)
	p.explore = p.explore[:0]

	for li, id := range next {
		p.index[id] = li
		p.probs[li] = 1 / float64(k)
		if s, ok := prior[id]; ok {
			logW[li] = s.logW
			p.x[li] = s.x
			p.sumGain[li] = s.sumGain
			p.cntGain[li] = s.cntGain
			p.slotsOn[li] = s.slotsOn
		} else {
			logW[li] = maxRetained
			if p.feat.ExploreFirst && prior != nil {
				// New network after construction: schedule it for
				// exploration (before construction the explore list below
				// covers everything).
				explorePending[id] = true
			}
		}
	}
	p.w.reshift()
	p.iMax = p.scanIMax()
	// probs holds the uniform placeholder until the next block start.
	p.iPlus, p.maxP, p.minP = 0, 1/float64(k), 1/float64(k)
	p.probsValid = true

	if p.feat.ExploreFirst {
		if prior == nil {
			for li := range next {
				p.explore = append(p.explore, li)
			}
		} else {
			for li, id := range next {
				if explorePending[id] {
					p.explore = append(p.explore, li)
				}
			}
		}
	}

	remap := func(id int) int {
		if id < 0 {
			return -1
		}
		if li, ok := p.index[id]; ok {
			return li
		}
		return -1
	}
	p.cur = remap(curID)
	p.prevNet = remap(prevID)
	p.pendingSB = remap(pendID)
	if p.cur < 0 {
		p.needBlock = true
	}
}

// startBlock begins block b: update the distribution, apply the periodic
// reset check, and choose the block's network (lines 2–9 of Algorithm 1 plus
// switch-back scheduling).
func (p *SmartEXP3) startBlock() {
	p.blockIdx++
	p.gamma = clampGamma(p.cfg.Gamma(p.blockIdx))
	p.probsValid = false // γ moved; refill only if something reads probs

	if p.feat.Reset && p.periodicResetDue() {
		p.performReset()
	}

	switch {
	case p.pendingSB >= 0:
		// Switch-back block: deterministically return to the previous
		// network; p(b) = 1.
		p.cur = p.pendingSB
		p.selProb = 1
		p.curIsSB = true
		p.switchBacks++
	case p.feat.ExploreFirst && len(p.explore) > 0:
		// Initial exploration: visit unexplored networks in random order;
		// p(b) = 1/|explore_network|.
		i := p.rng.Intn(len(p.explore))
		p.cur = p.explore[i]
		p.explore[i] = p.explore[len(p.explore)-1]
		p.explore = p.explore[:len(p.explore)-1]
		p.selProb = 1 / float64(len(p.explore)+1)
		p.curIsSB = false
	default:
		p.chooseMainBlock()
	}
	p.pendingSB = -1

	p.blockLen = 1
	if p.feat.Blocking {
		p.blockLen = p.blockLength(p.x[p.cur])
	}
	p.x[p.cur]++
	p.blockGain = 0
	p.slotIn = 0
	p.window = p.window[:0]
	p.needBlock = false
}

// chooseMainBlock performs the greedy-or-random choice of lines 6–8.
func (p *SmartEXP3) chooseMainBlock() {
	p.curIsSB = false
	greedyPhase := p.feat.Greedy && p.greedyEligible()
	p.greedyWasEligible = greedyPhase
	if greedyPhase && p.rng.Float64() < 0.5 {
		p.cur = p.bestAverageGain()
		p.selProb = 0.5
		return
	}
	p.cur = p.sampleProbs()
	if greedyPhase {
		// Random choice while the greedy coin was available: p(b) = p_i(b)/2.
		p.selProb = p.armProb(p.cur) / 2
	} else {
		p.selProb = p.armProb(p.cur)
	}
}

// greedyEligible evaluates the Section V conditions: (a) the distribution is
// still near-uniform, max(p) − min(p) ≤ 1/(k−1); or (b) the most probable
// network's block length has not yet regrown past y, where y is l_{i+} at
// the moment condition (a) first failed. Condition (b) re-enables greedy
// after a reset shrinks block lengths.
func (p *SmartEXP3) greedyEligible() bool {
	if p.k < 2 {
		return false
	}
	maxP := p.w.prob(p.w.hi, p.gamma)
	if maxP-p.w.prob(p.w.lo, p.gamma) <= 1/float64(p.k-1) { // condition (a)
		return true
	}
	lenPlus := p.blockLength(p.x[p.w.argmaxProb(maxP, p.gamma)])
	if !p.condAFailed {
		p.condAFailed = true
		p.yThreshold = lenPlus
	}
	return lenPlus < p.yThreshold
}

// bestAverageGain returns the network with the highest observed per-slot
// average gain, breaking ties uniformly at random. Unobserved networks rank
// lowest.
func (p *SmartEXP3) bestAverageGain() int {
	best := -1
	bestAvg := math.Inf(-1)
	ties := 1
	for li := 0; li < p.k; li++ {
		avg := math.Inf(-1)
		if p.cntGain[li] > 0 {
			avg = p.sumGain[li] / float64(p.cntGain[li])
		}
		switch {
		case best < 0 || avg > bestAvg:
			best, bestAvg, ties = li, avg, 1
		case avg == bestAvg:
			ties++
			if p.rng.Intn(ties) == 0 {
				best = li
			}
		}
	}
	return best
}

// switchBackTriggers applies the Section V rule after the first slot of a
// block: switch back if the new network's gain is worse than the previous
// block's average or last-slot gain, or if more than half the (trailing ≤8)
// slots of the previous block beat it — unless the previous block was itself
// a switch-back (no ping-pong) or this block already is one.
func (p *SmartEXP3) switchBackTriggers(gain float64) bool {
	if p.curIsSB || p.prevWasSB || p.pendingSB >= 0 {
		return false
	}
	if p.prevNet < 0 || p.prevNet == p.cur || len(p.prevWindow) == 0 {
		return false
	}
	var sum float64
	higher := 0
	for _, g := range p.prevWindow {
		sum += g
		if g > gain {
			higher++
		}
	}
	avg := sum / float64(len(p.prevWindow))
	last := p.prevWindow[len(p.prevWindow)-1]
	return gain < avg || gain < last || higher*2 > len(p.prevWindow)
}

// checkQualityDrop implements the drop-based reset trigger: the device is on
// its most-selected network and observes gains at least DropFraction below
// that network's historical average for more than DropSlots consecutive
// slots. The reference average is frozen when the drop starts so that the
// drop itself cannot mask the decline.
func (p *SmartEXP3) checkQualityDrop(gain float64) bool {
	if p.cntGain[p.cur] < 2 || p.cntGain[p.cur] <= p.cfg.MinDropObservations ||
		p.cur != p.iMax {
		p.dropCount = 0
		return false
	}
	if p.dropCount == 0 {
		n := float64(p.cntGain[p.cur] - 1)
		p.dropRef = (p.sumGain[p.cur] - gain) / n
	}
	if p.dropRef > 0 && gain < (1-p.cfg.DropFraction)*p.dropRef {
		p.dropCount++
		if p.dropCount > p.cfg.DropSlots {
			p.dropCount = 0
			return true
		}
		return false
	}
	p.dropCount = 0
	return false
}

// blockLength memoizes BlockLength over the block counter x, which only
// grows by one per block per network.
func (p *SmartEXP3) blockLength(x int) int {
	for len(p.blockLens) <= x {
		p.blockLens = append(p.blockLens, BlockLength(p.cfg.Beta, len(p.blockLens)))
	}
	return p.blockLens[x]
}

// scanIMax returns the network the device has been connected to for the
// most slots (i_max in Section V), lowest index on ties, by a full O(k)
// scan; the hot path reads the cached iMax instead.
func (p *SmartEXP3) scanIMax() int {
	best := 0
	for li := 1; li < p.k; li++ {
		if p.slotsOn[li] > p.slotsOn[best] {
			best = li
		}
	}
	return best
}

// periodicResetDue reports whether the periodic reset condition holds:
// p_{i+} ≥ ResetProbability and l_{i+} ≥ ResetBlockLength.
func (p *SmartEXP3) periodicResetDue() bool {
	maxP := p.w.prob(p.w.hi, p.gamma)
	return maxP >= p.cfg.ResetProbability &&
		p.blockLength(p.x[p.w.argmaxProb(maxP, p.gamma)]) >= p.cfg.ResetBlockLength
}

// performReset applies the minimal reset: block lengths and the statistics
// behind greedy selection are cleared and exploration is forced, but the
// learned weights are kept.
func (p *SmartEXP3) performReset() {
	p.resets++
	for li := 0; li < p.k; li++ {
		p.x[li] = 0
		p.sumGain[li] = 0
		p.cntGain[li] = 0
		p.slotsOn[li] = 0
	}
	p.iMax = 0
	p.dropCount = 0
	p.pendingSB = -1
	p.prevNet = -1
	p.prevWindow = p.prevWindow[:0]
	p.prevWasSB = false
	if p.feat.ExploreFirst {
		p.explore = p.explore[:0]
		for li := 0; li < p.k; li++ {
			p.explore = append(p.explore, li)
		}
	}
}

// endBlock closes the current block: estimated-gain weight update (lines
// 10–12 of Algorithm 1) and bookkeeping for switch-back. The update touches
// one arm, so it costs O(log k) — no full renormalization (see weightSet).
func (p *SmartEXP3) endBlock() {
	if p.selProb > 0 {
		ghat := p.blockGain / p.selProb
		p.w.bump(p.cur, p.gamma*ghat/float64(p.k))
		p.probsValid = false
	}
	p.prevNet = p.cur
	p.prevWindow = append(p.prevWindow[:0], p.window...)
	p.prevWasSB = p.curIsSB
	p.curIsSB = false
	p.needBlock = true
}

// sampleProbs draws a local index from the block-start distribution by
// mixture decomposition (Fast EXP3): with probability γ an O(1) uniform
// exploration draw, otherwise an O(log k) weight-proportional draw.
func (p *SmartEXP3) sampleProbs() int {
	if p.rng.Float64() < p.gamma {
		return p.rng.Intn(p.k)
	}
	return p.w.sample(p.rng)
}

func clampGamma(g float64) float64 {
	if g <= 0 || math.IsNaN(g) {
		return 1e-9
	}
	if g > 1 {
		return 1
	}
	return g
}
