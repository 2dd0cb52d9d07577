package answer

// The parity suite: the arena/columnar fast path (TopK / TopKAppend)
// must be observationally identical — byte for byte, including float
// bit patterns and tie-breaks — to the retained naive reference
// (ReferenceTopK) on randomized stores across the full request grid:
// weights (including zeros), k (including k > band and k > store),
// filters (none, selective, empty, unbounded), and normalization.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// parityStore builds a randomized store.
func parityStore(rng *rand.Rand) *Store {
	n := 30 + rng.Intn(400)
	m := 2 + rng.Intn(4)
	domain := 5 + rng.Intn(60) // small domains force score ties
	bandK := 1 + rng.Intn(8)
	rng.Intn(128) // an unused draw, kept so the seeded stores stay the same
	s, err := Build(genData(rng, n, m, domain), Options{BandK: bandK})
	if err != nil {
		panic(err)
	}
	return s
}

// parityQuery builds a randomized request against s, sometimes invalid.
func parityQuery(rng *rand.Rand, s *Store) TopKQuery {
	m := s.NumAttrs()
	w := make([]float64, m)
	for a := range w {
		switch rng.Intn(4) {
		case 0: // exact zero weights exercise the skipped-column path
		default:
			w[a] = rng.Float64() * 4
		}
	}
	if rng.Intn(8) > 0 { // usually make it valid
		w[rng.Intn(m)] += 0.5
	}
	q := TopKQuery{
		Weights:    w,
		K:          1 + rng.Intn(s.Len()+10),
		Normalized: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0: // unfiltered
	case 1: // one or two selective ranges
		for f := 0; f <= rng.Intn(2); f++ {
			a := rng.Intn(m)
			lo := rng.Intn(70) - 5
			q.Filter = append(q.Filter, Range{Attr: a, Lo: lo, Hi: lo + rng.Intn(40)})
		}
	case 2: // unbounded range (matches everything on that attribute)
		q.Filter = append(q.Filter, Unbounded(rng.Intn(m)))
	}
	return q
}

func checkParity(t *testing.T, s *Store, q TopKQuery) {
	t.Helper()
	got, gotErr := s.TopK(q)
	want, wantErr := s.ReferenceTopK(q)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error parity broken: arena err=%v reference err=%v (q=%+v)", gotErr, wantErr, q)
	}
	if gotErr != nil {
		return
	}
	if got.Exact != want.Exact {
		t.Fatalf("exactness parity broken: arena %v, reference %v (q=%+v)", got.Exact, want.Exact, q)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("answer parity broken for q=%+v:\narena:     %v\nreference: %v", q, got.Items, want.Items)
	}
}

// TestTopKParityRandomized sweeps randomized stores × the request grid.
func TestTopKParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		s := parityStore(rng)
		for rep := 0; rep < 25; rep++ {
			checkParity(t, s, parityQuery(rng, s))
		}
	}
}

// TestTopKParityQuick drives the same property through testing/quick's
// generator on one fixed store: any (weights, k, normalized, filter
// window) combination answers identically on both paths.
func TestTopKParityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := Build(genData(rng, 300, 3, 25), Options{BandK: 5})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(w0, w1, w2 float64, k uint8, normalized bool, fAttr uint8, fLo int8, fSpan uint8) bool {
		abs := func(v float64) float64 {
			if v < 0 {
				return -v
			}
			return v
		}
		q := TopKQuery{
			Weights:    []float64{abs(w0), abs(w1), abs(w2) + 0.01},
			K:          1 + int(k),
			Normalized: normalized,
		}
		if fSpan > 0 {
			q.Filter = []Range{{Attr: int(fAttr) % 3, Lo: int(fLo), Hi: int(fLo) + int(fSpan)}}
		}
		got, gotErr := s.TopK(q)
		want, wantErr := s.ReferenceTopK(q)
		if (gotErr == nil) != (wantErr == nil) {
			return false
		}
		if gotErr != nil {
			return true
		}
		return got.Exact == want.Exact && reflect.DeepEqual(got.Items, want.Items)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// largeCandidates is the candidate count the large-store parity cases
// exceed: many blocks of the fused sweep, and several shards of the
// reference, whose goroutine merge then runs too.
const largeCandidates = 1 << 13

// TestTopKParityParallelPath checks candidate sets past largeCandidates
// against the reference, on two stores: a random m=3 store read through
// an unbounded filter (gather mode and the generic scoring path), and
// the shape of a published anticorrelated skyline — m=4, every tuple on
// level 0 — read unfiltered (identity mode and the fusedBlock4 kernel).
func TestTopKParityParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large store")
	}
	rng := rand.New(rand.NewSource(43))
	n := largeCandidates + 4000
	s, err := Build(genData(rng, n, 3, 1000000), Options{BandK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() <= largeCandidates {
		t.Fatalf("store too small: %d tuples", s.Len())
	}
	// An unbounded filter admits every tuple, so the candidate set is the
	// whole store. k stays small (the serving shape); the reference's
	// selection cost is O(candidates · k).
	for rep := 0; rep < 6; rep++ {
		q := parityQuery(rng, s)
		q.K = 1 + rng.Intn(64)
		q.Filter = []Range{Unbounded(rng.Intn(3))}
		checkParity(t, s, q)
	}

	sky := flatSkyline(t, rng, n)
	for _, k := range []int{1, 10} {
		for _, normalized := range []bool{false, true} {
			for rep := 0; rep < 3; rep++ {
				w := []float64{0.05 + rng.Float64(), 0.05 + rng.Float64(), 0.05 + rng.Float64(), 0.05 + rng.Float64()}
				checkParity(t, sky, TopKQuery{Weights: w, K: k, Normalized: normalized})
			}
		}
	}
}

// flatSkyline builds an m=4 store of n anticorrelated tuples, all on
// skyline level 0: every tuple sums to the same total, so none
// dominates another.
func flatSkyline(t *testing.T, rng *rand.Rand, n int) *Store {
	t.Helper()
	const domain = 1000000
	data := make([][]int, n)
	for i := range data {
		a, b, c := rng.Intn(domain), rng.Intn(domain), rng.Intn(domain)
		data[i] = []int{a, b, c, 3*domain - a - b - c}
	}
	s, err := Build(data, Options{BandK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() <= largeCandidates || s.Stats().Levels != 1 {
		t.Fatalf("want more than %d tuples on one level, got %+v", largeCandidates, s.Stats())
	}
	return s
}

// TestTopKAppendReusesBuffer pins the zero-allocation contract: a caller
// reusing its result slice and issuing the same shaped request must not
// allocate on the unfiltered path, on a small store and on one past
// largeCandidates.
func TestTopKAppendReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(44))
	s, err := Build(genData(rng, 2000, 3, 500), Options{BandK: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s *Store
		w []float64
	}{
		{s, []float64{1, 0.5, 2}},
		{flatSkyline(t, rng, largeCandidates+4000), []float64{1, 0.5, 2, 0.25}},
	} {
		s, w := c.s, c.w
		var dst []Ranked
		// Warm the scratch pool and the destination buffer.
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 8}, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = res.Items
		allocs := testing.AllocsPerRun(200, func() {
			r, err := s.TopKAppend(TopKQuery{Weights: w, K: 8}, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = r.Items
		})
		if allocs != 0 {
			t.Fatalf("unfiltered TopKAppend on %d tuples allocates %v per op, want 0", s.Len(), allocs)
		}
	}
}
