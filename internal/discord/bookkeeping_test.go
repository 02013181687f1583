package discord

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"grammarviz/internal/datasets"
	"grammarviz/internal/sax"
)

// TestCandidateCodesMatchEncoder is the differential test of the RRA
// pre-filter's candidate codes: for every candidate of every registry
// dataset at its Table 1 parameters, the code newCandidatePruner derives
// from prefix sums equals sax.Encoder.EncodeCode on the candidate's slice,
// and a candidate has a code exactly when EncodeCode can produce one.
func TestCandidateCodesMatchEncoder(t *testing.T) {
	for _, name := range datasets.Names() {
		ds, err := datasets.Generate(name)
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		p := ds.Params
		cands := Candidates(ruleSetReduced(t, ds.Series, p, sax.ReductionExact))
		cp := newCandidatePruner(ds.Series, cands, p)
		if cp == nil {
			t.Fatalf("%s: pruner disabled at %v", name, p)
		}
		enc, err := sax.NewEncoder(sax.Params{PAA: p.PAA, Alphabet: p.Alphabet})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			want, err := enc.EncodeCode(ds.Series[c.IV.Start : c.IV.End+1])
			if (err == nil) != cp.has[i] {
				t.Fatalf("%s: candidate %d %v: has code %v, EncodeCode err %v", name, i, c.IV, cp.has[i], err)
			}
			if err == nil && cp.codes[i] != want {
				codec := enc.Codec()
				t.Fatalf("%s: candidate %d %v: code %s, EncodeCode %s",
					name, i, c.IV, codec.Decode(cp.codes[i]), codec.Decode(want))
			}
		}
	}
}

// TestGroupIndexMatchesAppendedLists checks the CSR same-group index
// against the map of appended slices it replaced: the same members per
// key, in the same (ascending) order, and none for an absent key.
func TestGroupIndexMatchesAppendedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 500} {
		keys := make([]int, n)
		want := map[int][]int{}
		for i := range keys {
			keys[i] = rng.Intn(40) - 1
			want[keys[i]] = append(want[keys[i]], i)
		}
		x := newGroupIndex(n, func(i int) int { return keys[i] })
		for k := -3; k < 45; k++ {
			if got := x.of(k); len(got) != len(want[k]) || len(got) > 0 && !reflect.DeepEqual(got, want[k]) {
				t.Fatalf("n=%d key %d: %v, want %v", n, k, got, want[k])
			}
		}
	}
}

// allocsFlatSlack is how far two searches' allocs/op may differ in the
// flatness tests below: both inputs allocate the same fixed set of
// orderings and indexes, and the rest of a search reuses pooled scratch.
// A per-candidate allocation differs by hundreds.
const allocsFlatSlack = 2

// steadyAllocs returns the fewest allocations one call of f made over
// several runs. A run can lose the pooled kernel scratch — the GC empties
// sync.Pools, and under the race detector Put drops a quarter of its
// items on purpose — and then pays for growing a new one; the minimum is
// the steady state the flatness tests compare.
func steadyAllocs(f func()) float64 {
	best := testing.AllocsPerRun(1, f)
	for i := 0; i < 7; i++ {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

// TestRRASearchAllocsFlat pins the search bookkeeping's allocation
// contract: a serial RRA search allocates a constant number of times,
// however many candidates its inner loops visit. Two series whose candidate counts differ by more than 2x
// must allocate alike per search.
func TestRRASearchAllocsFlat(t *testing.T) {
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	ctx := context.Background()
	var allocs, counts []float64
	for _, n := range []int{1500, 4500} {
		ts := anomalousSine(n, 60, n/2, 60, 17)
		st := NewStats(ts)
		cands := Candidates(ruleSetReduced(t, ts, p, sax.ReductionExact))
		counts = append(counts, float64(len(cands)))
		allocs = append(allocs, steadyAllocs(func() {
			if _, err := rraSearchPruned(ctx, st, cands, 2, 1, Tuning{}, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[1] < 2*counts[0] {
		t.Fatalf("candidate counts %v differ by less than 2x", counts)
	}
	if d := allocs[1] - allocs[0]; d > allocsFlatSlack || d < -allocsFlatSlack {
		t.Fatalf("allocs/op %v for candidate counts %v: not flat (slack %d)", allocs, counts, allocsFlatSlack)
	}
	t.Logf("allocs/op %v for candidate counts %v", allocs, counts)
}

// TestHOTSAXSearchAllocsFlat is TestRRASearchAllocsFlat for HOTSAX: its
// candidates are the window positions, indexed by word.
func TestHOTSAXSearchAllocsFlat(t *testing.T) {
	p := sax.Params{Window: 60, PAA: 4, Alphabet: 4}
	ctx := context.Background()
	var allocs []float64
	for _, n := range []int{1500, 4500} {
		st := NewStats(anomalousSine(n, 60, n/2, 60, 17))
		allocs = append(allocs, steadyAllocs(func() {
			if _, err := hotsaxSearch(ctx, st, p, 2, 1, Tuning{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if d := allocs[1] - allocs[0]; d > allocsFlatSlack || d < -allocsFlatSlack {
		t.Fatalf("allocs/op %v for series of 1500 and 4500 points: not flat (slack %d)", allocs, allocsFlatSlack)
	}
	t.Logf("allocs/op %v for series of 1500 and 4500 points", allocs)
}
