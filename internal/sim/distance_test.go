package sim

import (
	"fmt"
	"math"
	"testing"

	"smartexp3/internal/core"
	"smartexp3/internal/game"
	"smartexp3/internal/netmodel"
)

// TestRecordDistanceMatchesOracle checks the workspace's per-slot
// Definition 3 accounting — the histogram form, the replay of unchanged
// slots and the whole-population device-group shortcut — against a plain
// recomputation from the recorded selections and bit rates: every slot
// re-prepares the NE of its active devices and rank-matches through the
// game package's allocating PreparedNE.Distance. Distance and every
// GroupDistance must agree bit for bit, and FracAtNE/FracAtEps exactly,
// with and without rate noise, under churn, for groups that list the whole
// population out of order, repeat a device in its place, or cover a subset.
// The same config run without Collect.Distance, where the evaluation may
// stop once both verdicts are settled, must report the same FracAtNE and
// FracAtEps bit for bit.
func TestRecordDistanceMatchesOracle(t *testing.T) {
	topo := netmodel.Generate(netmodel.GenSpec{Areas: 3, APsPerArea: 2, Cells: 1, Overlap: 1})
	devs := SpreadDevices(14, core.AlgSmartEXP3, len(topo.Areas))
	for d := 0; d < len(devs); d += 3 {
		devs[d].Join, devs[d].Leave = 40, 160
	}
	// withDup swaps device 1 for a second copy of device 5 (both always
	// active): as long as the population, but not the population.
	var reversed, withDup []int
	for d := len(devs) - 1; d >= 0; d-- {
		reversed = append(reversed, d)
		if d != 1 {
			withDup = append(withDup, d)
		}
	}
	withDup = append(withDup, 5)
	groups := [][]int{reversed, withDup, {0, 3, 4, 9}, {0, 3}}

	for _, noise := range []float64{0, 0.1} {
		t.Run(fmt.Sprintf("noise=%v", noise), func(t *testing.T) {
			cfg := Config{
				Topology:     topo,
				Devices:      devs,
				Slots:        200,
				Seed:         3,
				NoiseStdDev:  noise,
				DeviceGroups: groups,
				Collect:      CollectOptions{Distance: true, Selections: true, Bitrates: true},
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			verdictsOnly := cfg
			verdictsOnly.Collect.Distance = false
			off, err := Run(verdictsOnly)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(off.FracAtNE) != math.Float64bits(res.FracAtNE) ||
				math.Float64bits(off.FracAtEps) != math.Float64bits(res.FracAtEps) {
				t.Fatalf("without the series FracAtNE %v FracAtEps %v, with it %v %v",
					off.FracAtNE, off.FracAtEps, res.FracAtNE, res.FracAtEps)
			}
			bw := topo.Bandwidths()
			atNE, atEps, slots := 0, 0, 0
			for s := 0; s < cfg.Slots; s++ {
				var in game.Instance
				in.Bandwidths = bw
				var active, assign []int
				var gains []float64
				idxOf := make(map[int]int)
				for d := range devs {
					if net := res.Devices[d].Selections[s]; net >= 0 {
						area := 0
						if tr := devs[d].Trajectory; len(tr) > 0 {
							area = tr[0].Area
						}
						idxOf[d] = len(active)
						active = append(active, d)
						assign = append(assign, net)
						gains = append(gains, res.Devices[d].BitrateMbps[s])
						in.Devices = append(in.Devices, game.Device{Available: topo.Areas[area]})
					}
				}
				if len(active) == 0 {
					continue
				}
				slots++
				p, err := game.Prepare(in)
				if err != nil {
					t.Fatal(err)
				}
				want := p.Distance(gains, nil)
				if math.Float64bits(res.Distance[s]) != math.Float64bits(want) {
					t.Fatalf("slot %d: Distance %v, oracle %v", s, res.Distance[s], want)
				}
				if in.IsNashAssignment(assign) {
					atNE++
				}
				if want <= DefaultEpsilonPercent {
					atEps++
				}
				for g, members := range groups {
					var idx []int
					for _, d := range members {
						if i, ok := idxOf[d]; ok {
							idx = append(idx, i)
						}
					}
					if len(idx) == 0 {
						continue
					}
					gw := p.Distance(gains, idx)
					if got := res.GroupDistance[g][s]; math.Float64bits(got) != math.Float64bits(gw) {
						t.Fatalf("slot %d group %d: GroupDistance %v, oracle %v", s, g, got, gw)
					}
				}
			}
			if want := float64(atNE) / float64(slots); res.FracAtNE != want {
				t.Fatalf("FracAtNE %v, oracle %v", res.FracAtNE, want)
			}
			if want := float64(atEps) / float64(slots); res.FracAtEps != want {
				t.Fatalf("FracAtEps %v, oracle %v", res.FracAtEps, want)
			}
		})
	}
}
