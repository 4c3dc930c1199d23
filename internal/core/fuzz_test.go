package core

import (
	"math"
	"testing"

	"smartexp3/internal/rngutil"
)

// extremaInput hands out fuzz input one byte at a time, then zeros once
// the input runs out, so every input decodes to some operation script.
type extremaInput []byte

func (b *extremaInput) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// set decodes a non-empty availability set over ids 0..5 from one byte.
func (b *extremaInput) set() []int {
	mask := b.next()
	var ids []int
	for id := 0; id < 6; id++ {
		if mask&(1<<id) != 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		ids = append(ids, mask%6)
	}
	return ids
}

// extremaConfigs are the configurations the fuzz input picks from: the
// paper's decaying γ; γ = 1, where every probability is 1/k whatever the
// weights, so i₊ is 0 while the heaviest arm need not be; and a small
// fixed γ with reset thresholds low enough that the periodic reset and
// the i₊ lookup behind it run often.
func extremaConfigs() []Config {
	uniform := DefaultConfig()
	uniform.Gamma = FixedGamma(1)
	eager := DefaultConfig()
	eager.Gamma = FixedGamma(0.05)
	eager.ResetProbability, eager.ResetBlockLength = 0.4, 2
	return []Config{DefaultConfig(), uniform, eager}
}

// FuzzBlockStartExtrema checks the O(1) block-start extrema against the
// O(k) fill they replace. Random scripts of Select/Observe, SetAvailable
// (adding and removing arms), Reinit, forced weight bumps (up to one past
// weightReshiftSpan), Probabilities calls and ExportState→ImportState
// round trips (carrying stale, filled and placeholder caches) drive one
// policy. Before every block start, p_max, p_min, i₊ and the
// periodicResetDue and greedyEligible verdicts the policy computes from
// its tracked extrema must equal those of a copy that fills the whole
// distribution, bit for bit; after every operation the tracked indices
// must hold the largest and smallest weight.
func FuzzBlockStartExtrema(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x3f, 0, 40, 200, 10, 90, 3, 0, 4, 0, 60, 255, 0, 1, 0x05, 0, 30, 250, 5})
	f.Add([]byte{1, 0, 0x0f, 5, 2, 255, 0, 50, 128, 7, 5, 1, 0, 0, 60, 200, 100})
	f.Add([]byte{2, 1, 0x03, 0, 80, 220, 30, 2, 0x01, 0, 20, 100, 3, 0, 4, 5, 0, 2, 0, 50, 250, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := extremaInput(data)
		cfgs := extremaConfigs()
		cfg := cfgs[in.next()%len(cfgs)]
		algs := []Algorithm{AlgSmartEXP3, AlgSmartEXP3NoReset, AlgHybridBlockEXP3}
		alg := algs[in.next()%len(algs)]
		mk := func(available []int, seed int64) *SmartEXP3 {
			return NewSmartEXP3(alg.String(), FeaturesFor(alg), available, cfg, rngutil.New(seed))
		}
		p := mk(in.set(), 1)
		for op := 0; op < 64 && len(in) > 0; op++ {
			switch in.next() % 6 {
			case 0: // a run of slots
				for s := in.next() % 48; s >= 0; s-- {
					if p.needBlock {
						checkBlockStart(t, p, mk)
					}
					p.Select()
					p.Observe(float64(in.next()) / 255)
				}
			case 1:
				p.SetAvailable(in.set())
			case 2:
				p.Reinit(in.set(), rngutil.New(int64(in.next())))
			case 3:
				var st PolicyState
				p.ExportState(&st)
				q := mk(in.set(), int64(in.next()))
				if err := q.ImportState(&st, rngutil.New(int64(in.next()))); err != nil {
					t.Fatal(err)
				}
				p = q
			case 4:
				p.Probabilities()
			case 5: // an endBlock-style weight update, possibly forcing a reshift
				deltas := []float64{0, 1e-3, 0.5, weightReshiftSpan + 1}
				p.w.bump(in.next()%p.k, deltas[in.next()%len(deltas)])
				p.probsValid = false
			}
			checkTrackedExtrema(t, p)
		}
	})
}

// checkTrackedExtrema asserts that the weight set's hi and lo index a
// largest and a smallest weight.
func checkTrackedExtrema(t *testing.T, p *SmartEXP3) {
	t.Helper()
	w := &p.w
	for i, we := range w.wExp {
		if we > w.wExp[w.hi] || we < w.wExp[w.lo] {
			t.Fatalf("arm %d weight %v outside tracked extrema [%v (arm %d), %v (arm %d)]",
				i, we, w.wExp[w.lo], w.lo, w.wExp[w.hi], w.hi)
		}
	}
}

// checkBlockStart replays the opening of the next block — γ moves to
// γ(b+1) and the cache is invalidated, as startBlock does before its
// checks — on p itself, then restores p. The oracle is an exported copy
// in the same state whose cache is filled by ensureProbs.
func checkBlockStart(t *testing.T, p *SmartEXP3, mk func([]int, int64) *SmartEXP3) {
	t.Helper()
	gamma := clampGamma(p.cfg.Gamma(p.blockIdx + 1))

	var st PolicyState
	p.ExportState(&st)
	oracle := mk(st.Available, 0)
	if err := oracle.ImportState(&st, rngutil.New(0)); err != nil {
		t.Fatal(err)
	}
	oracle.gamma, oracle.probsValid = gamma, false
	oracle.ensureProbs()

	savedGamma, savedValid := p.gamma, p.probsValid
	savedFailed, savedY := p.condAFailed, p.yThreshold
	p.gamma, p.probsValid = gamma, false
	defer func() {
		p.gamma, p.probsValid = savedGamma, savedValid
		p.condAFailed, p.yThreshold = savedFailed, savedY
	}()

	maxP, minP := p.w.prob(p.w.hi, gamma), p.w.prob(p.w.lo, gamma)
	if math.Float64bits(maxP) != math.Float64bits(oracle.maxP) ||
		math.Float64bits(minP) != math.Float64bits(oracle.minP) {
		t.Fatalf("block %d (γ %v): tracked extrema [%v, %v], fill [%v, %v]",
			p.blockIdx+1, gamma, minP, maxP, oracle.minP, oracle.maxP)
	}
	if got := p.w.argmaxProb(maxP, gamma); got != oracle.iPlus {
		t.Fatalf("block %d (γ %v): i₊ %d, fill %d (hi %d, probs %v)",
			p.blockIdx+1, gamma, got, oracle.iPlus, p.w.hi, oracle.probs)
	}

	// The verdicts as the fill-based checks reached them: from the
	// oracle's recorded max, min and argmax.
	lenPlus := oracle.blockLength(oracle.x[oracle.iPlus])
	wantReset := oracle.maxP >= p.cfg.ResetProbability && lenPlus >= p.cfg.ResetBlockLength
	if got := p.periodicResetDue(); got != wantReset {
		t.Fatalf("block %d: periodicResetDue %v, fill %v", p.blockIdx+1, got, wantReset)
	}
	wantGreedy, wantFailed, wantY := false, oracle.condAFailed, oracle.yThreshold
	if oracle.k >= 2 {
		condA := oracle.maxP-oracle.minP <= 1/float64(oracle.k-1)
		if !condA && !wantFailed {
			wantFailed, wantY = true, lenPlus
		}
		wantGreedy = condA || lenPlus < wantY
	}
	got := p.greedyEligible()
	if got != wantGreedy || p.condAFailed != wantFailed || p.yThreshold != wantY {
		t.Fatalf("block %d: greedyEligible %v (condAFailed %v, y %d), fill %v (%v, %d)",
			p.blockIdx+1, got, p.condAFailed, p.yThreshold, wantGreedy, wantFailed, wantY)
	}
	if p.probsValid {
		t.Fatal("block-start checks filled the distribution")
	}
}
