package service

// The batch answer path end to end: the /v1/answer/topk_batch endpoint
// must agree with the single-vector endpoint member by member and
// refuse batches over MaxBatchQueries, and binary columnar snapshots
// must carry answer indexes across a restart — with a corrupt binary
// falling back to the JSON re-index, never failing recovery.

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
)

// TestAnswerTopKBatchOverHTTP: one POST answers many weight vectors,
// each member identical to what the single endpoint answers for it.
func TestAnswerTopKBatchOverHTTP(t *testing.T) {
	m, d := newAnswerManager(t, Config{}, 41, 300)
	defer m.Close(context.Background())
	const bandK = 4
	st, err := m.Submit(JobSpec{Store: "shop", Band: bandK})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 30*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("band job ended %s (%s)", final.State, final.Error)
	}

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	lo := 10
	batch := AnswerTopKBatchRequest{Store: "shop", Queries: []AnswerTopKBatchQuery{
		{Weights: []float64{1, 1, 1}, K: bandK},
		{Weights: []float64{3.5, 0.25, 1.75}, K: 2},
		{Weights: []float64{0, 2, 0.01}, K: 1, Normalized: true},
		{Weights: []float64{1, 0, 4}, K: 3, Filter: []AnswerRange{{Attr: 0, Lo: &lo}}},
	}}
	resp, err := c.TopKBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Store != "shop" || resp.BandK != bandK || len(resp.Results) != len(batch.Queries) {
		t.Fatalf("batch envelope: %+v", resp)
	}
	for i, q := range batch.Queries {
		single, err := c.AnswerTopK(AnswerTopKRequest{
			Store: "shop", Weights: q.Weights, K: q.K, Normalized: q.Normalized, Filter: q.Filter,
		})
		if err != nil {
			t.Fatalf("single member %d: %v", i, err)
		}
		got := resp.Results[i]
		if got.K != single.K || got.Exact != single.Exact ||
			!reflect.DeepEqual(got.Tuples, single.Tuples) ||
			!reflect.DeepEqual(got.Scores, single.Scores) ||
			!reflect.DeepEqual(got.Levels, single.Levels) {
			t.Fatalf("batch member %d diverges from the single endpoint:\nbatch:  %+v\nsingle: %+v", i, got, single)
		}
	}
	// The unfiltered members are exact; check the first against brute
	// force too, so the HTTP layer cannot be right by mutual error.
	want := bruteScores(d.Data, []float64{1, 1, 1}, bandK)
	for i := range want {
		if math.Abs(resp.Results[0].Scores[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: batch %v, brute force %v", i, resp.Results[0].Scores[i], want[i])
		}
	}

	// Error mapping: a bad member fails the whole batch naming its index.
	bad := batch
	bad.Queries = append([]AnswerTopKBatchQuery{}, batch.Queries...)
	bad.Queries[2] = AnswerTopKBatchQuery{Weights: []float64{0, 0, 0}, K: 1}
	if _, err := c.TopKBatch(bad); err == nil || !strings.Contains(err.Error(), "query 2") {
		t.Fatalf("bad member: want an error naming query 2, got %v", err)
	}
	if _, err := c.TopKBatch(AnswerTopKBatchRequest{Store: "nope"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown store: want 404, got %v", err)
	}
}

// TestAnswerTopKBatchLimit: a batch of MaxBatchQueries members is
// answered, one more is refused with a 400 naming the limit.
func TestAnswerTopKBatchLimit(t *testing.T) {
	m, _ := newAnswerManager(t, Config{}, 44, 100)
	defer m.Close(context.Background())
	st, err := m.Submit(JobSpec{Store: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, 30*time.Second)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := AnswerTopKBatchRequest{Store: "shop", Queries: make([]AnswerTopKBatchQuery, MaxBatchQueries+1)}
	for i := range req.Queries {
		req.Queries[i] = AnswerTopKBatchQuery{Weights: []float64{1, 1, 1}, K: 1}
	}
	_, err = c.TopKBatch(req)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), strconv.Itoa(MaxBatchQueries)) {
		t.Fatalf("batch of %d: want a 400 naming the limit, got %v", len(req.Queries), err)
	}
	req.Queries = req.Queries[:MaxBatchQueries]
	resp, err := c.TopKBatch(req)
	if err != nil || len(resp.Results) != MaxBatchQueries {
		t.Fatalf("batch of %d: %d results, err %v", MaxBatchQueries, len(resp.Results), err)
	}
}

// TestBinarySnapshotRecovery: a published index leaves a .ans binary
// snapshot behind; a restarted manager recovers the store from it
// (recover source "binary") and serves identical answers with zero
// upstream queries.
func TestBinarySnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	m1, d := newAnswerManager(t, Config{SnapshotDir: dir}, 43, 300)
	st, err := m1.Submit(JobSpec{Store: "shop", Band: 3})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m1, st.ID, 30*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("band job ended %s (%s)", final.State, final.Error)
	}
	w := []float64{2, 1, 0.5}
	before, err := m1.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ans := filepath.Join(dir, final.ID+".ans")
	if _, err := os.Stat(ans); err != nil {
		t.Fatalf("no binary answer snapshot next to the job snapshot: %v", err)
	}

	m2 := restartAnswerManager(t, dir, d)
	defer m2.Close(context.Background())
	if n := m2.met.recoverBinary.Load(); n != 1 {
		t.Fatalf("binary recoveries: %d, want 1 (json: %d)", n, m2.met.recoverJSON.Load())
	}
	after, err := m2.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Exact || !reflect.DeepEqual(before.Scores, after.Scores) ||
		!reflect.DeepEqual(before.Tuples, after.Tuples) {
		t.Fatalf("binary-recovered answers diverge:\nbefore: %+v\nafter:  %+v", before, after)
	}

	// Corrupt the binary: recovery must fall back to the JSON re-index
	// (recover source "json"), still serving the same answers.
	data, err := os.ReadFile(ans)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(ans, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m3 := restartAnswerManager(t, dir, d)
	defer m3.Close(context.Background())
	if b, j := m3.met.recoverBinary.Load(), m3.met.recoverJSON.Load(); b != 0 || j != 1 {
		t.Fatalf("corrupt binary: recoveries binary=%d json=%d, want 0/1", b, j)
	}
	fallback, err := m3.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Scores, fallback.Scores) {
		t.Fatalf("JSON fallback answers diverge: %+v vs %+v", before.Scores, fallback.Scores)
	}

	// Remove it entirely: same fallback, no error.
	if err := os.Remove(ans); err != nil {
		t.Fatal(err)
	}
	m4 := restartAnswerManager(t, dir, d)
	defer m4.Close(context.Background())
	if b, j := m4.met.recoverBinary.Load(), m4.met.recoverJSON.Load(); b != 0 || j != 1 {
		t.Fatalf("missing binary: recoveries binary=%d json=%d, want 0/1", b, j)
	}
}

// restartAnswerManager spins up a fresh manager over the snapshot dir
// with a poisoned store backend: any upstream query on the recovery or
// answer path fails the test loudly.
func restartAnswerManager(t *testing.T, dir string, d datagen.Dataset) *Manager {
	t.Helper()
	m, err := NewManager(Config{SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db, err := hidden.New(d.Config(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("shop", poisonDB{db}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	return m
}
