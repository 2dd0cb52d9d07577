package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"hiddensky/internal/service"
	"hiddensky/internal/skyline"
)

// The correctness oracle. Discovered skylines and K-skybands are
// compared, as value sets, with skyline.Compute / skyline.Skyband over
// the database's ground truth. Ranked reads are compared with a
// brute-force scan that scores every tuple: over the published tuples
// always, and over the ground truth too when the answer claims to be
// exact. It runs outside every timed section.

func tupleKey(t []int) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// distinct drops value duplicates, keeping first occurrences.
func distinct(tuples [][]int) [][]int {
	seen := make(map[string]bool, len(tuples))
	out := make([][]int, 0, len(tuples))
	for _, t := range tuples {
		k := tupleKey(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// tupleSet is a value set of tuples.
type tupleSet map[string]bool

func newTupleSet(tuples [][]int) tupleSet {
	s := make(tupleSet, len(tuples))
	for _, t := range tuples {
		s[tupleKey(t)] = true
	}
	return s
}

// equal reports whether got holds exactly the values in s.
func (s tupleSet) equal(got [][]int) error {
	g := newTupleSet(got)
	if len(g) != len(s) {
		return fmt.Errorf("%d distinct tuples, want %d", len(g), len(s))
	}
	for k := range g {
		if !s[k] {
			return fmt.Errorf("tuple (%s) is not in the ground truth", k)
		}
	}
	return nil
}

// skylineTruth returns the value set of the ground truth's skyline
// (band <= 1) or K-skyband. Like discovery, it works at value level:
// duplicate rows are collapsed before dominators are counted.
func skylineTruth(gt [][]int, band int) tupleSet {
	gt = distinct(gt)
	var idx []int
	if band > 1 {
		idx = skyline.Skyband(gt, band)
	} else {
		idx = skyline.Compute(gt)
	}
	out := make([][]int, len(idx))
	for i, j := range idx {
		out[i] = gt[j]
	}
	return newTupleSet(out)
}

// scorer is a brute-force top-k reference over a set of distinct
// tuples. lo and hi are the normalization bounds of the answer index
// (its stored tuples' per-attribute minimum and maximum), so a
// normalized score means the same over the index and the ground truth.
type scorer struct {
	tuples [][]int
	lo, hi []int
}

func newScorer(tuples [][]int, lo, hi []int) *scorer {
	return &scorer{tuples: distinct(tuples), lo: lo, hi: hi}
}

// bounds returns the per-attribute minimum and maximum of tuples.
func bounds(tuples [][]int) (lo, hi []int) {
	m := len(tuples[0])
	lo, hi = slices.Clone(tuples[0]), slices.Clone(tuples[0])
	for _, t := range tuples {
		for a := 0; a < m; a++ {
			lo[a] = min(lo[a], t[a])
			hi[a] = max(hi[a], t[a])
		}
	}
	return lo, hi
}

func (s *scorer) score(t []int, w []float64, normalized bool) float64 {
	var v float64
	for a, x := range t {
		if normalized {
			span := float64(s.hi[a] - s.lo[a])
			if span > 0 {
				v += w[a] * (float64(x-s.lo[a]) / span)
			}
			continue
		}
		v += w[a] * float64(x)
	}
	return v
}

func inFilter(t []int, filter []service.AnswerRange) bool {
	for _, r := range filter {
		if r.Lo != nil && t[r.Attr] < *r.Lo {
			return false
		}
		if r.Hi != nil && t[r.Attr] > *r.Hi {
			return false
		}
	}
	return true
}

// best returns the k best scores, ascending, over tuples passing filter.
func (s *scorer) best(w []float64, k int, normalized bool, filter []service.AnswerRange) []float64 {
	top := make([]float64, 0, k+1)
	for _, t := range s.tuples {
		if !inFilter(t, filter) {
			continue
		}
		v := s.score(t, w, normalized)
		if len(top) == k && v >= top[k-1] {
			continue
		}
		i, _ := slices.BinarySearch(top, v)
		top = slices.Insert(top, i, v)
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// checkTopK verifies one ranked answer: every returned tuple is
// published, passes the filter and carries its true score; the scores
// are the best k over the published tuples; and when exact they are also
// the best k over the ground truth (gt may be nil when unavailable).
func checkTopK(pub tupleSet, ref, gt *scorer, w []float64, k int, normalized bool, filter []service.AnswerRange,
	exact bool, tuples [][]int, scores []float64) error {
	if len(tuples) != len(scores) {
		return fmt.Errorf("%d tuples but %d scores", len(tuples), len(scores))
	}
	for i, t := range tuples {
		if !pub[tupleKey(t)] {
			return fmt.Errorf("tuple (%s) is not in the published index", tupleKey(t))
		}
		if !inFilter(t, filter) {
			return fmt.Errorf("tuple (%s) fails the filter", tupleKey(t))
		}
		if !near(ref.score(t, w, normalized), scores[i]) {
			return fmt.Errorf("tuple (%s) scored %v, want %v", tupleKey(t), scores[i], ref.score(t, w, normalized))
		}
	}
	if err := sameScores(scores, ref.best(w, k, normalized, filter)); err != nil {
		return fmt.Errorf("against the published tuples: %v", err)
	}
	if exact && gt != nil {
		if len(filter) > 0 {
			return fmt.Errorf("a filtered answer is marked exact")
		}
		if err := sameScores(scores, gt.best(w, k, normalized, nil)); err != nil {
			return fmt.Errorf("against the ground truth: %v", err)
		}
	}
	return nil
}

func sameScores(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !near(got[i], want[i]) {
			return fmt.Errorf("score #%d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
