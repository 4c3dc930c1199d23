package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"smartexp3/internal/rngutil"
)

// samplerCases enumerates every sampler the package exports, including the
// Section II-B default delay models.
func samplerCases() []struct {
	name string
	s    Sampler
} {
	return []struct {
		name string
		s    Sampler
	}{
		{"constant", Constant{Value: 1.5}},
		{"uniform", Uniform{Low: 0.5, High: 2.5}},
		{"exponential", Exponential{MeanValue: 2}},
		{"normal", Normal{Mu: 3, Sigma: 0.5}},
		{"johnson-su", JohnsonSU{Gamma: 0.2982, Delta: 1.0639, Loc: 0.2054, Scale: 0.5479}},
		{"student-t", StudentT{DF: 0.4393, Loc: 0.4957, Scale: 0.0598}},
		{"truncated", Truncated{S: Normal{Mu: 1, Sigma: 2}, Low: 0, High: SlotSeconds}},
		{"default-wifi", DefaultWiFiDelay()},
		{"default-cellular", DefaultCellularDelay()},
	}
}

// TestSamplersSeededDeterminism: every sampler is a pure function of its
// rng, so one seed must reproduce the identical sample sequence.
func TestSamplersSeededDeterminism(t *testing.T) {
	for _, tc := range samplerCases() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := rngutil.New(42), rngutil.New(42)
			for i := 0; i < 1000; i++ {
				x, y := tc.s.Sample(a), tc.s.Sample(b)
				if x != y {
					t.Fatalf("sample %d diverged: %v vs %v", i, x, y)
				}
			}
		})
	}
}

// TestDelayModelsBounded: the delay models must produce physical delays —
// non-negative and never longer than the 15 s slot.
func TestDelayModelsBounded(t *testing.T) {
	bounded := []struct {
		name string
		s    Sampler
	}{
		{"constant-zero", Constant{Value: 0}},
		{"truncated", Truncated{S: Normal{Mu: 1, Sigma: 2}, Low: 0, High: SlotSeconds}},
		{"default-wifi", DefaultWiFiDelay()},
		{"default-cellular", DefaultCellularDelay()},
	}
	for _, tc := range bounded {
		t.Run(tc.name, func(t *testing.T) {
			rng := rngutil.New(7)
			for i := 0; i < 20000; i++ {
				x := tc.s.Sample(rng)
				if x < 0 || x > SlotSeconds {
					t.Fatalf("sample %d out of [0,%d]: %v", i, SlotSeconds, x)
				}
			}
		})
	}
}

// TestSampleMeansMatchConfiguredMeans: for every sampler with an analytic
// expectation, the large-sample mean must sit within tolerance of Mean().
func TestSampleMeansMatchConfiguredMeans(t *testing.T) {
	const n = 200000
	for _, tc := range samplerCases() {
		m, ok := tc.s.(Meaner)
		if !ok {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			rng := rngutil.New(11)
			var sum float64
			for i := 0; i < n; i++ {
				sum += tc.s.Sample(rng)
			}
			got, want := sum/n, m.Mean()
			tol := 0.02 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("sample mean %v, configured mean %v (tolerance %v)", got, want, tol)
			}
		})
	}
}

// TestDefaultDelayMeansPlausible pins the Section II-B shapes: WiFi
// switching costs a couple of seconds on average, cellular under a second
// at the median mass (its heavy tail is clipped by the slot).
func TestDefaultDelayMeansPlausible(t *testing.T) {
	mean := func(s Sampler, seed int64) float64 {
		rng := rngutil.New(seed)
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += s.Sample(rng)
		}
		return sum / n
	}
	if m := mean(DefaultWiFiDelay(), 3); m < 0.1 || m > 5 {
		t.Fatalf("WiFi delay mean %v s, want within (0.1, 5)", m)
	}
	if m := mean(DefaultCellularDelay(), 4); m < 0.1 || m > 5 {
		t.Fatalf("cellular delay mean %v s, want within (0.1, 5)", m)
	}
}

// TestTruncatedClampFallback: an underlying distribution that never lands
// inside the bounds must clamp instead of stalling.
func TestTruncatedClampFallback(t *testing.T) {
	rng := rngutil.New(1)
	if x := (Truncated{S: Constant{Value: 40}, Low: 0, High: 15}).Sample(rng); x != 15 {
		t.Fatalf("clamped high sample = %v, want 15", x)
	}
	if x := (Truncated{S: Constant{Value: -3}, Low: 0, High: 15}).Sample(rng); x != 0 {
		t.Fatalf("clamped low sample = %v, want 0", x)
	}
}

// TestJohnsonSUAnalyticMean cross-checks the closed form against a
// numerically independent shape (symmetric: Gamma=0 gives mean = Loc).
func TestJohnsonSUAnalyticMean(t *testing.T) {
	j := JohnsonSU{Gamma: 0, Delta: 2, Loc: 1.25, Scale: 3}
	if got := j.Mean(); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("symmetric Johnson S_U mean = %v, want Loc = 1.25", got)
	}
}

// TestSampleIntoMatchesPerDeviceSample: the batch path, which rejects
// truncated Johnson S_U draws below Low in z space, must return exactly
// what Truncated.Sample returns on each device's stream and leave every
// stream at the same position. The cases reach the pre-rejection with
// rare and frequent rejects, the 64-attempt clamp from either side, and
// the parameters (Scale ≤ 0, Delta ≤ 0) whose cut is −Inf, so that
// nothing is pre-rejected.
func TestSampleIntoMatchesPerDeviceSample(t *testing.T) {
	wifi := DefaultWiFiDelay().(Truncated).S.(JohnsonSU)
	cases := []struct {
		name string
		s    Truncated
	}{
		{"default-wifi", DefaultWiFiDelay().(Truncated)},
		{"mostly-rejected", Truncated{S: JohnsonSU{Gamma: 0.3, Delta: 1, Loc: -1.5, Scale: 0.5}, Low: 0, High: SlotSeconds}},
		{"clamp-low", Truncated{S: JohnsonSU{Gamma: 0.3, Delta: 1, Loc: -1e6, Scale: 0.5}, Low: 0, High: SlotSeconds}},
		{"clamp-high", Truncated{S: JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 100, Scale: 0.5}, Low: 0, High: SlotSeconds}},
		{"inverted-bounds", Truncated{S: wifi, Low: 5, High: 1}},
		{"scale-negative", Truncated{S: JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0.2, Scale: -0.5}, Low: 0, High: SlotSeconds}},
		{"scale-zero", Truncated{S: JohnsonSU{Gamma: 0.3, Delta: 1, Loc: -0.2, Scale: 0}, Low: 0, High: SlotSeconds}},
		{"delta-negative", Truncated{S: JohnsonSU{Gamma: 0.3, Delta: -1, Loc: 0.2, Scale: 0.5}, Low: 0, High: SlotSeconds}},
	}
	const devices, rounds = 16, 200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch, solo := make([]*rand.Rand, devices), make([]*rand.Rand, devices)
			for i := range batch {
				batch[i], solo[i] = rngutil.NewChild(7, int64(i)), rngutil.NewChild(7, int64(i))
			}
			dst := make([]float64, devices)
			clamped := 0
			for r := 0; r < rounds; r++ {
				SampleInto(tc.s, batch, dst)
				for i, rng := range solo {
					want := tc.s.Sample(rng)
					if math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("round %d device %d: SampleInto %v, Sample %v", r, i, dst[i], want)
					}
					if want == tc.s.Low || want == tc.s.High {
						clamped++
					}
				}
			}
			for i := range solo {
				if a, b := batch[i].Int63(), solo[i].Int63(); a != b {
					t.Fatalf("device %d: streams diverged after sampling (%d vs %d)", i, a, b)
				}
			}
			if strings.HasPrefix(tc.name, "clamp") && clamped == 0 {
				t.Fatal("no draw reached the clamp")
			}
		})
	}
}

// TestJohnsonSULowCutNeverRejectsAcceptedDraws sweeps z across ±1e-3 of
// the pre-rejection cut in steps of 1e-8: every z below the cut must map
// to X < Low under the exact formula, so pre-rejecting it drops nothing
// the generic loop would have accepted.
func TestJohnsonSULowCutNeverRejectsAcceptedDraws(t *testing.T) {
	for _, tc := range []struct {
		name string
		j    JohnsonSU
		low  float64
	}{
		{"default-wifi", DefaultWiFiDelay().(Truncated).S.(JohnsonSU), 0},
		{"loc-far-below", JohnsonSU{Gamma: 0.3, Delta: 1, Loc: -1.5, Scale: 0.5}, 0},
		{"loc-above", JohnsonSU{Gamma: -2, Delta: 0.4, Loc: 3, Scale: 2}, 0},
		{"wide", JohnsonSU{Gamma: 1, Delta: 3, Loc: 1e3, Scale: 1e-3}, 999},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := tc.j.lowCut(tc.low)
			if math.IsInf(cut, -1) {
				t.Fatal("lowCut disabled the pre-rejection")
			}
			accepted := 0
			for z := cut - 1e-3; z <= cut+1e-3; z += 1e-8 {
				x := tc.j.at(z)
				if x >= tc.low {
					accepted++
					if z < cut {
						t.Fatalf("z %v below cut %v maps to X %v ≥ Low %v", z, cut, x, tc.low)
					}
				}
			}
			if accepted == 0 {
				t.Fatal("sweep never crossed into accepted draws")
			}
		})
	}
	// Parameters where X is not increasing in z, or where float64 rounding
	// could accept a draw below the exact boundary, must get the cut −Inf,
	// which disables the pre-rejection.
	for _, j := range []JohnsonSU{
		{Gamma: 0, Delta: 1, Loc: 1, Scale: 1e-20},
		{Gamma: 0.3, Delta: 1, Loc: 0.2, Scale: -0.5},
		{Gamma: 0.3, Delta: 1, Loc: 0.2, Scale: 0},
		{Gamma: 0.3, Delta: -1, Loc: 0.2, Scale: 0.5},
	} {
		if cut := j.lowCut(1); !math.IsInf(cut, -1) {
			t.Fatalf("lowCut enabled for %+v: cut %v, want -Inf", j, cut)
		}
	}
}
