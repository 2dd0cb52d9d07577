package service

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hiddensky/internal/answer"
)

// The answer side of the manager: every registered store owns an
// answer.Handle — a lock-free publication point for the materialized
// answer index built from the store's most recent complete discovery.
// The moment a single-store job finishes complete, its skyline (or
// K-skyband, for jobs with Band > 0) is compiled into an immutable
// answer.Store and hot-swapped in; queries in flight keep the snapshot
// they loaded. Recover republishes the latest complete result per
// store from the snapshot directory, so a restarted daemon serves
// answers again without issuing a single upstream query.

// ErrNoAnswer: the store exists but no completed discovery has
// materialized an answer index for it yet.
var ErrNoAnswer = errors.New("service: no answer index for store yet")

// answerEntry is one store's publication point: the hot-swapped index
// plus the id of the job it was built from. The two are swapped inside
// the job's terminal critical section, so observers that see a job
// done see its answers (and attribution) live.
type answerEntry struct {
	handle answer.Handle
	job    atomic.Value // string: source job id (mirrors jobID for readers)

	mu    sync.Mutex // serializes publish; jobID is guarded by it
	jobID string
}

// publish swaps s in unless a newer job (higher id) already published —
// with concurrent jobs against one store, a slow older job must not
// overwrite a newer result it lost the race to (Recover applies the
// same highest-id-wins policy). Reports whether s was installed.
func (e *answerEntry) publish(s *answer.Store, jobID string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jobID != "" && jobSeq(jobID) < jobSeq(e.jobID) {
		return false
	}
	e.jobID = jobID
	e.job.Store(jobID)
	e.handle.Swap(s)
	return true
}

// jobSeq extracts the numeric sequence of a "jNNNNNN" job id (-1 when
// unparseable).
func jobSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return -1
	}
	return n
}

// AnswerStore returns the store's current answer index.
func (m *Manager) AnswerStore(name string) (*answer.Store, error) {
	m.mu.Lock()
	e := m.answers[name]
	m.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStore, name)
	}
	s := e.handle.Load()
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoAnswer, name)
	}
	return s, nil
}

// AnswerStatus describes one store's answer index for listings.
type AnswerStatus struct {
	Loaded bool         `json:"loaded"`
	Info   *answer.Info `json:"info,omitempty"`
	// Job is the id of the discovery job the index was built from.
	Job string `json:"job,omitempty"`
}

// Answers summarizes every store's answer index.
func (m *Manager) Answers() map[string]AnswerStatus {
	m.mu.Lock()
	entries := make(map[string]*answerEntry, len(m.answers))
	for n, e := range m.answers {
		entries[n] = e
	}
	m.mu.Unlock()
	out := make(map[string]AnswerStatus, len(entries))
	for n, e := range entries {
		st := AnswerStatus{}
		if s := e.handle.Load(); s != nil {
			info := s.Stats()
			st.Loaded = true
			st.Info = &info
			st.Job, _ = e.job.Load().(string)
		}
		out[n] = st
	}
	return out
}

// publishableAnswer reports whether a complete single-store result may
// feed the store-wide answer index. Filtered jobs are excluded — the
// index serves whole-store rankings, and a filtered subset would
// answer them wrong. Shared by live publication (finish) and restart
// recovery (rebuildAnswersLocked) so the two can never drift.
func publishableAnswer(spec JobSpec, tuples [][]int) bool {
	return spec.Store != "" && spec.Where == "" && len(tuples) > 0
}

// answerSource reports whether a terminal job status is a publishable
// answer source: a single-store job that finished done and complete
// with tuples.
func answerSource(st JobStatus) bool {
	return st.State == StateDone && st.Complete && publishableAnswer(st.Spec, st.Tuples)
}

// rebuildAnswers republishes answer indexes from recovered terminal
// jobs: for each store, the latest (highest job id) complete result
// wins. Each index is loaded from the job's binary columnar snapshot
// when one is present and intact — the on-disk layout is the arena
// layout, so recovery decodes slices instead of re-running Build — and
// falls back to re-indexing the JSON snapshot's tuples otherwise.
// Callers hold m.mu.
func (m *Manager) rebuildAnswersLocked() {
	latest := map[string]*job{}
	for _, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		st := j.status
		if answerSource(st) && m.answers[st.Spec.Store] != nil {
			latest[st.Spec.Store] = j
		}
	}
	for store, j := range latest {
		spec := j.status.Spec
		bandK := spec.Band
		if bandK <= 0 {
			bandK = 1
		}
		if s, ok := m.loadBinaryAnswer(j.status, bandK); ok {
			s.SetMetrics(m.met.answerShared)
			m.answers[store].publish(s, j.status.ID)
			continue
		}
		if s, err := answer.Build(j.status.Tuples, answer.Options{BandK: bandK}); err == nil {
			s.SetMetrics(m.met.answerShared)
			m.answers[store].publish(s, j.status.ID)
			m.met.recoverJSON.Inc()
			m.log.Info("answer index recovered",
				"source", "json", "store", store, "job_id", j.status.ID,
				"tuples", s.Len())
		}
	}
}

// loadBinaryAnswer tries to recover a job's answer index from its
// binary columnar snapshot. A missing file is the normal case for jobs
// that predate the format (no log noise); a corrupt or mismatched one
// is logged and rejected, costing only the fallback re-index.
func (m *Manager) loadBinaryAnswer(st JobStatus, bandK int) (*answer.Store, bool) {
	if m.snaps == nil {
		return nil, false
	}
	data, err := m.snaps.loadAnswer(st.ID)
	if err != nil {
		return nil, false
	}
	s, err := answer.LoadBinary(data)
	if err != nil {
		m.log.Warn("binary answer snapshot rejected; re-indexing from JSON",
			"job_id", st.ID, "store", st.Spec.Store, "error", err)
		return nil, false
	}
	// The JSON job snapshot is the source of truth: a binary block that
	// disagrees with it on shape (a stale file from a reused id, an
	// operator copy-paste) must lose to a re-index.
	if s.BandK() != bandK || (len(st.Tuples) > 0 && s.NumAttrs() != len(st.Tuples[0])) {
		m.log.Warn("binary answer snapshot shape mismatch; re-indexing from JSON",
			"job_id", st.ID, "store", st.Spec.Store)
		return nil, false
	}
	m.met.recoverBinary.Inc()
	m.log.Info("answer index recovered",
		"source", "binary", "store", st.Spec.Store, "job_id", st.ID,
		"tuples", s.Len())
	return s, true
}

// --- wire types of the /v1/answer endpoints ---

// AnswerRange is one per-attribute constraint of a filtered top-k
// request; a nil bound is unbounded on that side.
type AnswerRange struct {
	Attr int  `json:"attr"`
	Lo   *int `json:"lo,omitempty"`
	Hi   *int `json:"hi,omitempty"`
}

func (r AnswerRange) toRange() answer.Range {
	out := answer.Range{Attr: r.Attr, Lo: math.MinInt, Hi: math.MaxInt}
	if r.Lo != nil {
		out.Lo = *r.Lo
	}
	if r.Hi != nil {
		out.Hi = *r.Hi
	}
	return out
}

// AnswerTopKRequest is the body of POST /v1/answer/topk.
type AnswerTopKRequest struct {
	Store string `json:"store"`
	// Weights is the client's ranking: score(t) = Σ weights[a]·t[a],
	// lower is better; non-negative, at least one positive.
	Weights []float64 `json:"weights"`
	K       int       `json:"k"`
	// Normalized scores unit-scaled attribute columns instead of raw
	// values.
	Normalized bool `json:"normalized,omitempty"`
	// Filter restricts the answer to tuples inside every range
	// (best-effort over the materialized band; never marked exact).
	Filter []AnswerRange `json:"filter,omitempty"`
}

// AnswerTopKResponse is the matching answer: parallel tuple/score/level
// slices in ranking order (best first).
type AnswerTopKResponse struct {
	Store string `json:"store"`
	K     int    `json:"k"`
	// Exact reports the answer provably equals brute-force top-k over
	// the original database (unfiltered, k <= the band level the index
	// was built from; at value level — duplicate rows collapse, as they
	// do through any top-k value interface).
	Exact  bool      `json:"exact"`
	BandK  int       `json:"band_k"`
	Tuples [][]int   `json:"tuples"`
	Scores []float64 `json:"scores"`
	Levels []int     `json:"levels"`
}

// rankedPool recycles the intermediate []answer.Ranked between topk
// requests: the response only keeps the tuple views (immutable store
// rows) and copies of the scores/levels, so the buffer itself can be
// handed to the next request.
var rankedPool = sync.Pool{New: func() any { return new([]answer.Ranked) }}

// toQuery compiles the wire request's query fields.
func (req AnswerTopKRequest) toQuery() answer.TopKQuery {
	q := answer.TopKQuery{Weights: req.Weights, K: req.K, Normalized: req.Normalized}
	if len(req.Filter) > 0 {
		q.Filter = make([]answer.Range, 0, len(req.Filter))
		for _, r := range req.Filter {
			q.Filter = append(q.Filter, r.toRange())
		}
	}
	return q
}

// topkResponse copies one ranked result into the wire shape.
func topkResponse(store string, k, bandK int, res answer.TopKResult) AnswerTopKResponse {
	n := len(res.Items)
	resp := AnswerTopKResponse{
		Store:  store,
		K:      k,
		Exact:  res.Exact,
		BandK:  bandK,
		Tuples: make([][]int, 0, n),
		Scores: make([]float64, 0, n),
		Levels: make([]int, 0, n),
	}
	for _, it := range res.Items {
		resp.Tuples = append(resp.Tuples, it.Tuple)
		resp.Scores = append(resp.Scores, it.Score)
		resp.Levels = append(resp.Levels, it.Level)
	}
	return resp
}

// AnswerTopK answers a top-k request from the store's materialized
// index, without issuing any upstream query.
func (m *Manager) AnswerTopK(req AnswerTopKRequest) (AnswerTopKResponse, error) {
	s, err := m.AnswerStore(req.Store)
	if err != nil {
		return AnswerTopKResponse{}, err
	}
	buf := rankedPool.Get().(*[]answer.Ranked)
	res, err := s.TopKAppend(req.toQuery(), (*buf)[:0])
	if err != nil {
		rankedPool.Put(buf)
		return AnswerTopKResponse{}, err
	}
	resp := topkResponse(req.Store, req.K, s.BandK(), res)
	if res.Items != nil {
		*buf = res.Items
	}
	rankedPool.Put(buf)
	return resp, nil
}

// MaxBatchQueries caps the members of one top-k batch request. A sweep
// holds a selection window of up to min(K, tuples) entries per member,
// so the cap bounds what one request can make the daemon allocate.
const MaxBatchQueries = 256

// AnswerTopKBatchRequest is the body of POST /v1/answer/topk_batch:
// many weight vectors against one store's index, scored in fused
// column sweeps (each attribute column is read once per cache-resident
// block for the whole batch, not once per vector).
type AnswerTopKBatchRequest struct {
	Store string `json:"store"`
	// Queries are the batch members, at most MaxBatchQueries; results
	// come back in the same order. One invalid member fails the whole
	// batch (400), naming its index.
	Queries []AnswerTopKBatchQuery `json:"queries"`
}

// AnswerTopKBatchQuery is one member of a batch top-k request — the
// per-query fields of AnswerTopKRequest without the store name.
type AnswerTopKBatchQuery struct {
	Weights    []float64     `json:"weights"`
	K          int           `json:"k"`
	Normalized bool          `json:"normalized,omitempty"`
	Filter     []AnswerRange `json:"filter,omitempty"`
}

func (q AnswerTopKBatchQuery) toQuery() answer.TopKQuery {
	return AnswerTopKRequest{Weights: q.Weights, K: q.K, Normalized: q.Normalized, Filter: q.Filter}.toQuery()
}

// AnswerTopKBatchResponse answers each batch member in request order.
type AnswerTopKBatchResponse struct {
	Store   string                  `json:"store"`
	BandK   int                     `json:"band_k"`
	Results []AnswerTopKBatchResult `json:"results"`
}

// AnswerTopKBatchResult is one member's ranking (the per-query fields
// of AnswerTopKResponse).
type AnswerTopKBatchResult struct {
	K      int       `json:"k"`
	Exact  bool      `json:"exact"`
	Tuples [][]int   `json:"tuples"`
	Scores []float64 `json:"scores"`
	Levels []int     `json:"levels"`
}

// AnswerTopKBatch answers a batch of top-k requests against one store
// in fused column sweeps.
func (m *Manager) AnswerTopKBatch(req AnswerTopKBatchRequest) (AnswerTopKBatchResponse, error) {
	s, err := m.AnswerStore(req.Store)
	if err != nil {
		return AnswerTopKBatchResponse{}, err
	}
	if len(req.Queries) > MaxBatchQueries {
		return AnswerTopKBatchResponse{}, fmt.Errorf("%w: batch of %d queries exceeds the limit of %d",
			answer.ErrBadQuery, len(req.Queries), MaxBatchQueries)
	}
	qs := make([]answer.TopKQuery, len(req.Queries))
	for i, q := range req.Queries {
		qs[i] = q.toQuery()
	}
	results, err := s.TopKBatch(qs)
	if err != nil {
		return AnswerTopKBatchResponse{}, err
	}
	m.met.batchSweeps.Inc()
	m.met.batchVectors.Add(int64(len(qs)))
	resp := AnswerTopKBatchResponse{
		Store:   req.Store,
		BandK:   s.BandK(),
		Results: make([]AnswerTopKBatchResult, len(results)),
	}
	for i, res := range results {
		n := len(res.Items)
		r := AnswerTopKBatchResult{
			K:      req.Queries[i].K,
			Exact:  res.Exact,
			Tuples: make([][]int, 0, n),
			Scores: make([]float64, 0, n),
			Levels: make([]int, 0, n),
		}
		for _, it := range res.Items {
			r.Tuples = append(r.Tuples, it.Tuple)
			r.Scores = append(r.Scores, it.Score)
			r.Levels = append(r.Levels, it.Level)
		}
		resp.Results[i] = r
	}
	return resp, nil
}

// AnswerSkylineRequest is the body of POST /v1/answer/skyline: the
// skyline of the store's materialized tuples restricted to the given
// attribute subspace (empty = every attribute).
type AnswerSkylineRequest struct {
	Store string `json:"store"`
	Attrs []int  `json:"attrs,omitempty"`
}

// AnswerSkylineResponse is the subspace skyline.
type AnswerSkylineResponse struct {
	Store  string  `json:"store"`
	Attrs  []int   `json:"attrs,omitempty"`
	Tuples [][]int `json:"tuples"`
}

// AnswerSkyline answers a subspace-skyline request from the index.
func (m *Manager) AnswerSkyline(req AnswerSkylineRequest) (AnswerSkylineResponse, error) {
	s, err := m.AnswerStore(req.Store)
	if err != nil {
		return AnswerSkylineResponse{}, err
	}
	tuples, err := s.SubspaceSkyline(req.Attrs)
	if err != nil {
		return AnswerSkylineResponse{}, err
	}
	if tuples == nil {
		tuples = [][]int{}
	}
	return AnswerSkylineResponse{Store: req.Store, Attrs: req.Attrs, Tuples: tuples}, nil
}

// AnswerDominatesRequest is the body of POST /v1/answer/dominates: "is
// my candidate tuple dominated by anything already discovered?"
type AnswerDominatesRequest struct {
	Store string `json:"store"`
	Tuple []int  `json:"tuple"`
}

// AnswerDominatesResponse carries the verdict and, when dominated, one
// dominating witness tuple.
type AnswerDominatesResponse struct {
	Store     string `json:"store"`
	Dominated bool   `json:"dominated"`
	Witness   []int  `json:"witness,omitempty"`
}

// AnswerDominates answers a dominance test from the index.
func (m *Manager) AnswerDominates(req AnswerDominatesRequest) (AnswerDominatesResponse, error) {
	s, err := m.AnswerStore(req.Store)
	if err != nil {
		return AnswerDominatesResponse{}, err
	}
	dominated, witness, err := s.Dominates(req.Tuple)
	if err != nil {
		return AnswerDominatesResponse{}, err
	}
	return AnswerDominatesResponse{Store: req.Store, Dominated: dominated, Witness: witness}, nil
}

// AnswersResponse is the body of GET /v1/answer.
type AnswersResponse struct {
	Answers map[string]AnswerStatus `json:"answers"`
}

// answerNames lists stores with a loaded answer index, sorted.
func (m *Manager) answerNames() []string {
	names := []string{}
	for n, st := range m.Answers() {
		if st.Loaded {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
