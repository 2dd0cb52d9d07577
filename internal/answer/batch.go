// The top-k kernel: every read, a single TopK or a TopKBatch of many
// weight vectors, runs one fused sweep over the candidate columns.
//
// The sweep walks the candidates in cache-resident blocks: per block it
// gathers each needed attribute once (or slices the store columns
// directly when the candidate set covers the whole store — the common
// full-band case, where no gather happens at all), scores every member
// over the block, and immediately folds the block's scores into each
// member's selection window while they are still in L1. The gather —
// the part that misses cache — is amortized across the whole batch, no
// full-width score column is ever materialized, and the selection pass
// never touches cold memory.
//
// Queries are grouped by candidate set before scoring: all unfiltered
// queries share the level-arena prefix of the largest K (each member
// selects only over its own prefix), and filtered queries share a sweep
// exactly when their Filter clauses are equal. Scores accumulate in
// ascending attribute order and selection uses one strict total order
// (score, then tuple, then index), so an answer never depends on the
// batch that carried it or on candidate iteration order: TopK is a
// batch of one, and a batch answer equals a loop of TopK calls bit for
// bit.
//
// The sweep runs inline on the caller's goroutine in one pooled scratch
// block; with reused result buffers the steady-state path performs no
// allocation, whatever the candidate count.
package answer

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// batchBlockElems is the candidate-block width of the fused sweep: one
// block of every attribute column plus one member's block scores stay
// cache-resident across the whole member loop.
const batchBlockElems = 1024

// batchScratch is the pooled working set of one sweep.
type batchScratch struct {
	done    []bool // query already claimed by a group
	members []int  // query indices of the current group
	lens    []int  // per-member candidate prefix length
	useNorm []bool // per-member column selection
	fast    []bool // eligible for the register kernel (m==4, no zero weights)
	kEff    []int  // per-member effective k (min(K, prefix))
	cand    []int  // filtered-group candidate buffer

	wflat []float64 // transposed weight block (B×m)
	raw   []float64 // gathered raw column block (m×batchBlockElems)
	norm  []float64 // gathered normalized column block (m×batchBlockElems)
	row   []float64 // one generic member's scores over one block

	// Selection windows, one per member, kMax entries each, kept
	// unsorted while the sweep runs (see fusedBlock4): winIdx/winSc
	// hold the entries, winLen the fill levels.
	winIdx []int
	winSc  []float64
	winLen []int

	// identity marks a group whose candidate set covers every stored
	// tuple and whose members all select over all of it: a block
	// position is a tuple id and the sweep reads the store columns
	// directly — no gather at all.
	identity bool
	kMax     int // window capacity of the current group
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grow returns b with length n (reallocating only beyond capacity).
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// id maps a block position to its tuple id.
func (bs *batchScratch) id(cand []int, pos int) int {
	if bs.identity {
		return pos
	}
	return cand[pos]
}

// TopKBatch answers every query in one fused column sweep per candidate
// group. The result is positionally parallel to qs and each entry is
// exactly what TopK would have returned for that query alone.
func (s *Store) TopKBatch(qs []TopKQuery) ([]TopKResult, error) {
	return s.TopKBatchInto(qs, nil)
}

// TopKBatchInto is TopKBatch reusing out (and each out[i].Items) as
// append buffers, the batch analogue of TopKAppend: with capacities from
// a previous call the steady-state path performs no allocation.
// Validation is all-or-nothing — if any query is malformed the whole
// batch fails with the offending index and nothing is scored.
func (s *Store) TopKBatchInto(qs []TopKQuery, out []TopKResult) ([]TopKResult, error) {
	m := s.metrics
	if m == nil || m.BatchSeconds == nil {
		return s.topKBatchInto(qs, out)
	}
	t0 := time.Now()
	res, err := s.topKBatchInto(qs, out)
	m.BatchSeconds.Observe(time.Since(t0))
	if m.BatchSize != nil {
		m.BatchSize.Observe(time.Duration(len(qs)))
	}
	return res, err
}

func (s *Store) topKBatchInto(qs []TopKQuery, out []TopKResult) ([]TopKResult, error) {
	for i := range qs {
		if err := s.checkQuery(&qs[i]); err != nil {
			return out, fmt.Errorf("batch query %d: %w", i, err)
		}
	}
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = append(out[:cap(out)], make([]TopKResult, len(qs)-cap(out))...)
	}
	s.sweep(qs, out)
	return out, nil
}

// sweep answers validated queries into out (len(out) == len(qs)), one
// fused sweep per candidate group, reusing each out[i].Items as the
// append buffer of its answer.
func (s *Store) sweep(qs []TopKQuery, out []TopKResult) {
	if len(qs) == 0 {
		return
	}
	bs := batchScratchPool.Get().(*batchScratch)
	bs.done = grow(bs.done, len(qs))
	clear(bs.done)
	// Group 1: every unfiltered query shares the level-arena prefix of
	// the largest K; members select only over their own prefix. The
	// top-k of a monotone score lies in the first k layers: every
	// layer-l tuple is dominated by a chain of l strictly better ones.
	bs.members = bs.members[:0]
	bs.lens = bs.lens[:0]
	maxLast := 0
	for i := range qs {
		if len(qs[i].Filter) != 0 {
			continue
		}
		bs.done[i] = true
		bs.members = append(bs.members, i)
		last := min(qs[i].K, s.numLevels())
		bs.lens = append(bs.lens, s.levelOff[last])
		maxLast = max(maxLast, last)
	}
	if len(bs.members) > 0 {
		s.batchGroup(qs, out, s.levelArena[:s.levelOff[maxLast]], bs)
	}
	// Remaining groups: filtered queries, one sweep per distinct filter.
	// The grouping key is clause-for-clause equality: queries spelling
	// the same predicate in a different clause order land in separate
	// groups, which only costs a sweep, never correctness.
	for i := range qs {
		if bs.done[i] {
			continue
		}
		bs.members = bs.members[:0]
		bs.lens = bs.lens[:0]
		bs.cand = s.filteredInto(bs.cand[:0], qs[i].Filter)
		for j := i; j < len(qs); j++ {
			if bs.done[j] || !slices.Equal(qs[i].Filter, qs[j].Filter) {
				continue
			}
			bs.done[j] = true
			bs.members = append(bs.members, j)
			bs.lens = append(bs.lens, len(bs.cand))
		}
		s.batchGroup(qs, out, bs.cand, bs)
	}
	batchScratchPool.Put(bs)
}

// batchGroup scores one candidate group (bs.members / bs.lens against
// cand) and writes each member's answer into out.
func (s *Store) batchGroup(qs []TopKQuery, out []TopKResult, cand []int, bs *batchScratch) {
	n := len(cand)
	m := s.m
	bcount := len(bs.members)
	// Identity mode needs every member to select over the whole group:
	// a short prefix of the level arena is not a contiguous id range.
	bs.identity = n == len(s.tuples)
	needRaw, needNorm := false, false
	bs.useNorm = grow(bs.useNorm, bcount)
	bs.fast = grow(bs.fast, bcount)
	bs.kEff = grow(bs.kEff, bcount)
	bs.kMax = 0
	for bi, qi := range bs.members {
		q := &qs[qi]
		bs.useNorm[bi] = q.Normalized
		if q.Normalized {
			needNorm = true
		} else {
			needRaw = true
		}
		bs.kEff[bi] = min(q.K, bs.lens[bi])
		bs.kMax = max(bs.kMax, bs.kEff[bi])
		if bs.lens[bi] < n {
			bs.identity = false
		}
		// With every weight nonzero the register kernel's full
		// dot-product chain is the same addition sequence the
		// zero-skipping generic path produces, so exactness holds.
		bs.fast[bi] = m == 4 && !slices.Contains(q.Weights, 0)
	}
	bs.wflat = grow(bs.wflat, bcount*m)
	for bi, qi := range bs.members {
		copy(bs.wflat[bi*m:(bi+1)*m], qs[qi].Weights)
	}
	bs.winIdx = grow(bs.winIdx, bcount*bs.kMax)
	bs.winSc = grow(bs.winSc, bcount*bs.kMax)
	bs.winLen = grow(bs.winLen, bcount)
	clear(bs.winLen)
	if !bs.identity {
		if needRaw {
			bs.raw = grow(bs.raw, m*batchBlockElems)
		}
		if needNorm {
			bs.norm = grow(bs.norm, m*batchBlockElems)
		}
	}
	bs.row = grow(bs.row, batchBlockElems)

	for lo := 0; lo < n; lo += batchBlockElems {
		hi := min(lo+batchBlockElems, n)
		if !bs.identity {
			for a := 0; a < m; a++ {
				if needRaw {
					col, g := s.cols[a], bs.raw[a*batchBlockElems:]
					for j := lo; j < hi; j++ {
						g[j-lo] = col[cand[j]]
					}
				}
				if needNorm {
					col, g := s.norm[a], bs.norm[a*batchBlockElems:]
					for j := lo; j < hi; j++ {
						g[j-lo] = col[cand[j]]
					}
				}
			}
		}
		for bi := range bs.members {
			// A member selects over its own candidate prefix only.
			end := min(hi, bs.lens[bi])
			if end <= lo {
				continue
			}
			useN := bs.useNorm[bi]
			if bs.fast[bi] {
				s.fusedBlock4(bs, cand, lo, bi,
					s.block(bs, 0, useN, lo, end), s.block(bs, 1, useN, lo, end),
					s.block(bs, 2, useN, lo, end), s.block(bs, 3, useN, lo, end))
				continue
			}
			row := bs.row[:end-lo]
			for a, w := range bs.wflat[bi*m : bi*m+m] {
				blk := s.block(bs, a, useN, lo, end)
				if a == 0 {
					// First pass assigns instead of zero-then-add; the
					// explicit +0 reproduces a zeroed accumulator's
					// 0 + w·v bit for bit (it turns a -0.0 product into
					// +0.0).
					for j := range row {
						row[j] = w*blk[j] + 0
					}
				} else if w != 0 {
					for j, v := range blk {
						row[j] += w * v
					}
				}
			}
			s.foldRow(bs, cand, lo, bi, row)
		}
	}

	for bi, qi := range bs.members {
		off := bi * bs.kMax
		win := bs.winIdx[off : off+bs.winLen[bi]]
		winSc := bs.winSc[off : off+bs.winLen[bi]]
		s.sortWindow(win, winSc)
		items := out[qi].Items[:0]
		for x, i := range win {
			items = append(items, Ranked{Tuple: s.tuples[i], Score: winSc[x], Level: s.level[i]})
		}
		if len(items) == 0 {
			items = nil
		}
		out[qi] = TopKResult{Items: items, Exact: len(qs[qi].Filter) == 0 && qs[qi].K <= s.bandK}
	}
}

// block returns attribute a's values for block positions [lo, hi): a
// view of the store column in identity mode, else of the gather buffer.
func (s *Store) block(bs *batchScratch, a int, normalized bool, lo, hi int) []float64 {
	switch {
	case bs.identity && normalized:
		return s.norm[a][lo:hi]
	case bs.identity:
		return s.cols[a][lo:hi]
	case normalized:
		return bs.norm[a*batchBlockElems : a*batchBlockElems+hi-lo]
	default:
		return bs.raw[a*batchBlockElems : a*batchBlockElems+hi-lo]
	}
}

// foldRow folds a generic member's block scores into its window: row[j]
// scores the candidate at block position lo+j. It keeps the window
// discipline of fusedBlock4 with the scores read from row.
func (s *Store) foldRow(bs *batchScratch, cand []int, lo, bi int, row []float64) {
	k := bs.kEff[bi]
	off := bi * bs.kMax
	win := bs.winIdx[off : off+k]
	winSc := bs.winSc[off : off+k]
	fill := bs.winLen[bi]
	j := 0
	for ; fill < k && j < len(row); j++ {
		win[fill], winSc[fill] = bs.id(cand, lo+j), row[j]
		fill++
	}
	bs.winLen[bi] = fill
	if j == len(row) {
		return
	}
	wp := s.worstOf(win, winSc)
	thr := winSc[wp]
	for ; j < len(row); j++ {
		if row[j] <= thr {
			wp, thr = s.fusedReplace(bs, cand, win, winSc, wp, lo+j, row[j])
		}
	}
}

// fusedBlock4 is the register kernel of the sweep, for 4-attribute
// stores and members with no zero weights: the dot product and the
// selection threshold both live in registers, so a candidate that
// cannot enter the window (the overwhelming majority once the window
// fills) costs four multiply-adds and one compare — no score row is
// stored. b0..b3 hold the block's four attribute values, starting at
// block position lo. The candidate loop is unrolled by two so the two
// dot-product chains overlap.
//
// The window is kept UNSORTED: an accepted candidate overwrites the
// worst entry and a k-wide rescan refreshes the threshold — no memmove,
// no ordered insertion walk. The window is a set, and the top-k set
// under better()'s strict total order is the same whatever order
// candidates arrive or entries sit in; batchGroup sorts each window
// once after the sweep to produce the answer.
//
// Exactness of the score: with every weight nonzero the full chain
// w0·v0 + 0 + w1·v1 + w2·v2 + w3·v3 is the same left-associated
// addition sequence the generic path produces (the +0 restores the
// +0.0 a zero-initialized accumulator gives when the first product is
// -0.0, and x+0 == 0+x bitwise for any non-NaN x). The threshold test
// only skips candidates with sc > worst score, which better() already
// rejects; ties re-check the full total order before replacing.
func (s *Store) fusedBlock4(bs *batchScratch, cand []int, lo, bi int, b0, b1, b2, b3 []float64) {
	cnt := len(b0)
	b1, b2, b3 = b1[:cnt], b2[:cnt], b3[:cnt]
	k := bs.kEff[bi]
	off := bi * bs.kMax
	fill := bs.winLen[bi]
	win := bs.winIdx[off : off+k]
	winSc := bs.winSc[off : off+k]
	u0, u1, u2, u3 := bs.wflat[bi*4], bs.wflat[bi*4+1], bs.wflat[bi*4+2], bs.wflat[bi*4+3]
	j := 0
	// Fill phase: the first k candidates always enter.
	for ; fill < k && j < cnt; j++ {
		win[fill] = bs.id(cand, lo+j)
		winSc[fill] = u0*b0[j] + 0 + u1*b1[j] + u2*b2[j] + u3*b3[j]
		fill++
	}
	bs.winLen[bi] = fill
	if j == cnt {
		return
	}
	// Steady state: worst entry and its score live in registers.
	wp := s.worstOf(win, winSc)
	thr := winSc[wp]
	// Two-level loop: the inner scan is call-free (a call in the loop
	// body would force the weights and threshold out of registers —
	// amd64 has no callee-saved float registers) and breaks out only for
	// the rare candidate that ties or beats the threshold. The scan
	// handles two candidates per iteration: each keeps its own
	// left-associated chain (so scores stay bit-identical with the
	// generic path) but the two chains are independent, halving the loop
	// overhead per candidate and keeping both in flight across the FP
	// units instead of serializing on one chain's latency.
	for {
		var sc0, sc1 float64
		for ; j+2 <= cnt; j += 2 {
			sc0 = u0*b0[j] + 0 + u1*b1[j] + u2*b2[j] + u3*b3[j]
			sc1 = u0*b0[j+1] + 0 + u1*b1[j+1] + u2*b2[j+1] + u3*b3[j+1]
			if sc0 <= thr || sc1 <= thr {
				break
			}
		}
		if j+2 > cnt {
			// Tail: at most one candidate left.
			if j < cnt {
				if sc := u0*b0[j] + 0 + u1*b1[j] + u2*b2[j] + u3*b3[j]; sc <= thr {
					s.fusedReplace(bs, cand, win, winSc, wp, lo+j, sc)
				}
			}
			return
		}
		// One (or both) of the pair ties or beats the threshold. Replays
		// run in candidate order, and the second compare uses the
		// threshold the first replace may have moved — the same sequence
		// a one-at-a-time scan performs.
		if sc0 <= thr {
			wp, thr = s.fusedReplace(bs, cand, win, winSc, wp, lo+j, sc0)
		}
		if sc1 <= thr {
			wp, thr = s.fusedReplace(bs, cand, win, winSc, wp, lo+j+1, sc1)
		}
		j += 2
	}
}

// fusedReplace is the slow path of a full window: the candidate at
// block position pos tied or beat the window's worst score. Re-check
// the full total order, overwrite the worst entry, rescan for the new
// worst.
func (s *Store) fusedReplace(bs *batchScratch, cand, win []int, winSc []float64, wp, pos int, sc float64) (int, float64) {
	id := bs.id(cand, pos)
	// sc <= winSc[wp] held at the call site; only an exact score tie
	// needs the full total order to decide.
	if sc == winSc[wp] && !s.better(sc, id, sc, win[wp]) {
		return wp, winSc[wp]
	}
	win[wp], winSc[wp] = id, sc
	wp = s.worstOf(win, winSc)
	return wp, winSc[wp]
}

// worstOf returns the index of the window's worst entry under the
// selection total order (largest score, ties to larger tuple/index).
func (s *Store) worstOf(win []int, winSc []float64) int {
	wp := 0
	for x := 1; x < len(winSc); x++ {
		if winSc[x] > winSc[wp] {
			wp = x
		} else if winSc[x] == winSc[wp] && s.better(winSc[wp], win[wp], winSc[x], win[x]) {
			wp = x
		}
	}
	return wp
}

// sortWindow orders a window best-first in place under better()'s total
// order: an insertion sort, fine for the k-entry windows of a read.
func (s *Store) sortWindow(win []int, winSc []float64) {
	for x := 1; x < len(win); x++ {
		id, sc := win[x], winSc[x]
		pos := x
		for pos > 0 && s.better(sc, id, winSc[pos-1], win[pos-1]) {
			win[pos], winSc[pos] = win[pos-1], winSc[pos-1]
			pos--
		}
		win[pos], winSc[pos] = id, sc
	}
}
