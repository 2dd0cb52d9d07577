package main

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// The benchmark's own spans. They are recorded only at public
// boundaries, from outside the program: a core.Interface decorator, an
// http.RoundTripper, HTTP middleware, and spans the workloads build
// from SSE events. A nil *tracer is never installed: untraced runs use
// the program's plain types.

// spanHeader carries a client span's id to the server middleware, so a
// server span hangs under the round trip that caused it.
const spanHeader = "X-Perfbench-Span"

type span struct {
	id, parent int64
	layer      string
	start, end int64 // ns since tracer.base
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

type tracer struct {
	base    time.Time
	on      atomic.Bool  // spans are recorded only while on
	root    atomic.Int64 // parent of spans that have no explicit one
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	reqB    atomic.Int64 // upstream request body bytes
	respB   atomic.Int64 // upstream response body bytes
	trips   atomic.Int64 // upstream round trips
	retries atomic.Int64 // upstream round trips that failed or were refused
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// setOn turns span recording on or off; a nil tracer stays off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record appends a finished span and returns its id.
func (t *tracer) record(layer string, parent, start, end int64) int64 {
	id := t.newID()
	t.add(span{id: id, parent: parent, layer: layer, start: start, end: end})
	return id
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// tracedDB decorates a core.Interface, recording one "hidden" span per
// query under the tracer's current root.
type tracedDB struct {
	core.Interface
	t *tracer
}

func (d tracedDB) Query(q query.Q) (hidden.Result, error) {
	if !d.t.on.Load() {
		return d.Interface.Query(q)
	}
	s := d.t.now()
	res, err := d.Interface.Query(q)
	d.t.record("hidden", d.t.root.Load(), s, d.t.now())
	return res, err
}

// tracedTransport records one span per round trip, from sending the
// request until the response body is closed, and tags the request with
// the span id. Requests for which skip reports true pass through
// untraced (the long-lived SSE stream).
type tracedTransport struct {
	base     http.RoundTripper
	t        *tracer
	root     *atomic.Int64 // parent of the spans; &t.root unless a caller keeps its own
	layer    string
	upstream bool // count bytes and retries into the tracer's wire totals
	skip     func(*http.Request) bool
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() || (rt.skip != nil && rt.skip(req)) {
		return rt.base.RoundTrip(req)
	}
	id := rt.t.newID()
	parent := rt.root.Load()
	start := rt.t.now()
	r2 := req.Clone(req.Context())
	r2.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := rt.base.RoundTrip(r2)
	if rt.upstream {
		rt.t.trips.Add(1)
		if req.ContentLength > 0 {
			rt.t.reqB.Add(req.ContentLength)
		}
	}
	if err != nil {
		if rt.upstream {
			rt.t.retries.Add(1)
		}
		rt.t.add(span{id: id, parent: parent, layer: rt.layer, start: start, end: rt.t.now()})
		return resp, err
	}
	if rt.upstream && resp.StatusCode != http.StatusOK {
		rt.t.retries.Add(1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		if rt.upstream {
			rt.t.respB.Add(n)
		}
		rt.t.add(span{id: id, parent: parent, layer: rt.layer, start: start, end: rt.t.now()})
	}}
	return resp, nil
}

// spanBody counts body bytes and ends its span on Close.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// traceHandler is middleware recording one span per request, parented
// to the client span named in spanHeader (or the tracer's root).
func traceHandler(t *tracer, layer string, next http.Handler, skip func(*http.Request) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || (skip != nil && skip(r)) {
			next.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			parent = t.root.Load()
		}
		s := t.now()
		next.ServeHTTP(w, r)
		t.record(layer, parent, s, t.now())
	})
}

func isEvents(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/events") }

// --- self-time table ---

// layerRow is one row of the self-time table.
type layerRow struct {
	layer  string
	spans  int
	selfMs float64 // Σ span duration minus the part covered by its children
	wallMs float64 // wall time attributed exclusively to this layer
}

// selfTable attributes the traced wall time to layers. A span's self
// time is its duration minus the union of its children's intervals. The
// wall column splits every instant equally among the innermost spans
// open at that instant, so it counts concurrent work once; traced time
// with no span open goes to idle, and the column sums to wall.
func selfTable(spans []span, wall time.Duration, idle string) []layerRow {
	rows := map[string]*layerRow{}
	row := func(l string) *layerRow {
		if rows[l] == nil {
			rows[l] = &layerRow{layer: l}
		}
		return rows[l]
	}
	byID := make(map[int64]int, len(spans))
	kids := make(map[int64][]int)
	for i, s := range spans {
		byID[s.id] = i
	}
	for i, s := range spans {
		if _, ok := byID[s.parent]; ok && s.parent != s.id {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for _, s := range spans {
		r := row(s.layer)
		r.spans++
		r.selfMs += ms(time.Duration(s.end-s.start) - covered(s, spans, kids[s.id]))
	}

	type event struct {
		at    int64
		open  bool
		index int
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.end > s.start { // an empty span holds no wall time
			evs = append(evs, event{s.start, true, i}, event{s.end, false, i})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return !evs[a].open && evs[b].open // close before open at a tie
	})
	open := map[int]bool{}
	openKids := map[int]int{}
	var prev int64
	busy := 0.0
	for _, e := range evs {
		if d := float64(e.at - prev); d > 0 && len(open) > 0 {
			var leaves []int
			for i := range open {
				if openKids[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			for _, i := range leaves {
				row(spans[i].layer).wallMs += d / 1e6 / float64(len(leaves))
			}
			busy += d / 1e6
		}
		prev = e.at
		p, hasParent := byID[spans[e.index].parent]
		if e.open {
			open[e.index] = true
			if hasParent && open[p] {
				openKids[p]++
			}
		} else if open[e.index] {
			delete(open, e.index)
			if hasParent && open[p] && openKids[p] > 0 {
				openKids[p]--
			}
		}
	}
	row(idle).wallMs += max(ms(wall)-busy, 0)
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b layerRow) int { return strings.Compare(a.layer, b.layer) })
	return out
}

// covered returns the length of the union of s's children's intervals,
// clipped to s.
func covered(s span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// formatTable renders the self-time table with each layer's share of
// the traced wall time.
func formatTable(rows []layerRow, wallMs float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %7s\n", "layer", "spans", "self_ms", "wall_ms", "wall_%")
	var tw float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %12.1f %12.1f %6.1f%%\n", r.layer, r.spans, r.selfMs, r.wallMs, 100*ratio(r.wallMs, wallMs))
		tw += r.wallMs
	}
	fmt.Fprintf(&b, "%-16s %8s %12s %12.1f %6.1f%%  (traced wall %.1f ms)\n", "total", "", "", tw, 100*ratio(tw, wallMs), wallMs)
	return b.String()
}

// spanDurations returns the durations (µs) of the spans in layer.
func spanDurations(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.layer == layer {
			out = append(out, us(s.dur()))
		}
	}
	return out
}
