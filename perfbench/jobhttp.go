package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/service"
	"hiddensky/internal/skyline"
	"hiddensky/internal/web"
)

// loopServer serves a handler on a loopback port.
type loopServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopServer{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the server down and waits for its serving goroutine.
func (s *loopServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		_ = s.srv.Close() // connections did not drain in time; force them
	}
	<-s.done
}

// newTransport is a client transport holding at most maxLoad
// connections per host.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: maxLoad, MaxIdleConnsPerHost: maxLoad,
		IdleConnTimeout: 30 * time.Second, DisableCompression: true}
}

// daemon is a service.Manager served over loopback, its stores and the
// benchmark's client to it.
type daemon struct {
	dbs        map[string]*hidden.DB
	servers    []*loopServer // upstreams first, the daemon last
	transports []*http.Transport
	mgr        *service.Manager
	client     *service.Client
}

// daemonConfig mirrors the skylined defaults. An empty dir runs the
// manager without snapshots.
func daemonConfig(dir string) service.Config {
	return service.Config{MaxConcurrent: maxLoad, CacheSize: 4096, CheckpointEvery: 8, SnapshotDir: dir}
}

func (d *daemon) close() {
	if d.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = d.mgr.Close(ctx) // parks nothing: every job is terminal by now
		cancel()
	}
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].close()
	}
	for _, t := range d.transports {
		t.CloseIdleConnections()
	}
}

// clientFor returns an HTTP client with its own transport, wrapped in a
// span-recording round tripper when traced.
func (d *daemon) clientFor(tr *tracer, layer string, upstream bool, skip func(*http.Request) bool) *http.Client {
	t := newTransport()
	d.transports = append(d.transports, t)
	if tr == nil {
		return &http.Client{Transport: t}
	}
	return &http.Client{Transport: &tracedTransport{base: t, t: tr, root: &tr.root, layer: layer, upstream: upstream, skip: skip}}
}

// serveDaemon builds the manager's HTTP front and the benchmark's client.
func (d *daemon) serveDaemon(tr *tracer) error {
	var h http.Handler = service.NewHandler(d.mgr)
	if tr != nil {
		h = traceHandler(tr, "service.http", h, isEvents)
	}
	srv, err := serveLoopback(h)
	if err != nil {
		return err
	}
	d.servers = append(d.servers, srv)
	d.client, err = service.Dial(srv.url, d.clientFor(tr, "service.client", false, isEvents))
	return err
}

// httpStores are job_http's upstream databases.
var httpStores = []struct {
	name  string
	build func() *hidden.DB
}{
	{"bluenile", func() *hidden.DB { return datagen.BlueNile(dataSeed, 1000).DB(10, hidden.SumRank{}) }},
	{"anticorr", func() *hidden.DB {
		return datagen.AntiCorrelated(dataSeed, 300, 3, 100).WithCaps(hidden.SQ).DB(10, hidden.SumRank{})
	}},
}

// httpJobs is one pass of job_http: an RQ skyline at Parallelism 2, a
// resumable (checkpointing) SQ job, and a small RQ K-skyband through the
// shared query cache on the store the first job discovered.
var httpJobs = []service.JobSpec{
	{Store: "bluenile", Algo: "rq", Parallelism: maxLoad},
	{Store: "anticorr", Resumable: true},
	{Store: "bluenile", Algo: "rq", Band: 2, UseCache: true},
}

// startDaemon generates the upstream databases, serves each through
// web.NewServer on loopback, dials them with web.Dial and registers them
// with a fresh manager, served over loopback too. The manager keeps no
// snapshots: fsync latency on a shared disk moved this workload's
// medians by up to 60% between runs, so snapshot writes are measured
// once per serve_topk run (input generation) and snapshot reads in its
// timed cold starts. Resumable jobs still run the checkpointing session
// walk; their checkpoints just are not persisted.
func startDaemon(tr *tracer) (*daemon, error) {
	d := &daemon{dbs: map[string]*hidden.DB{}}
	mgr, err := service.NewManager(daemonConfig(""))
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	for _, st := range httpStores {
		db := st.build()
		d.dbs[st.name] = db
		var h http.Handler = web.NewServer(db, nil)
		if tr != nil {
			h = traceHandler(tr, "web.server", h, nil)
		}
		srv, err := serveLoopback(h)
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		wc, err := web.Dial(srv.url, d.clientFor(tr, "web.client", true, nil))
		if err != nil {
			d.close()
			return nil, err
		}
		if err := mgr.AddStore(st.name, wc); err != nil {
			d.close()
			return nil, err
		}
	}
	if _, err := mgr.Recover(); err != nil {
		d.close()
		return nil, err
	}
	if err := d.serveDaemon(tr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// jobRec is one job as the benchmark's client saw it.
type jobRec struct {
	kind                                   int
	submit, start, publish, done, answered time.Time
	queue                                  time.Duration // server-side StartedAt - SubmittedAt
	queries                                int
	ids                                    [5]int64 // traced: root, queue, discover, publish, answer spans
	sawPublish                             bool
}

// httpSeg is what job_http's traced or untraced passes saw.
type httpSeg struct {
	recs     []jobRec
	passMs   []float64 // mean submit-to-first-answer time of each pass
	jobMs    []float64 // mean submit-to-done time of each pass
	upstream int
	cache    cacheCounts
}

type cacheCounts struct{ lookups, hits, coalesced, evictions int }

// addDelta adds the counts from a to b.
func (c *cacheCounts) addDelta(a, b cacheCounts) {
	c.lookups += b.lookups - a.lookups
	c.hits += b.hits - a.hits
	c.coalesced += b.coalesced - a.coalesced
	c.evictions += b.evictions - a.evictions
}

func runJobHTTP(cfg config) (*outcome, error) {
	out := newOutcome()
	reps := 15
	if cfg.quick {
		reps = 1
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []float64
	var d *daemon
	for r := 0; r < reps; r++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if d, err = startDaemon(tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer d.close()

	// Oracle inputs, outside every timed section.
	type truthT struct {
		sets map[int]tupleSet // band level -> value set
		gt   [][]int          // distinct ground-truth tuples
	}
	truths := map[string]truthT{}
	for name, db := range d.dbs {
		truths[name] = truthT{sets: map[int]tupleSet{1: skylineTruth(db.GroundTruth(), 1), 2: skylineTruth(db.GroundTruth(), 2)},
			gt: distinct(db.GroundTruth())}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	kern, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer kern.close()
	ctx := context.Background()
	p2Queries := map[int]int{}

	// runJob submits one job, follows it to done, reads its first answer
	// and returns the oracle check of the result and the answer.
	runJob := func(kind int, traced bool) (jobRec, func() error, error) {
		spec := httpJobs[kind]
		rec := jobRec{kind: kind}
		if traced {
			for i := range rec.ids {
				rec.ids[i] = tr.newID()
			}
			tr.root.Store(rec.ids[1])
		}
		rec.submit = time.Now()
		st, err := d.client.Submit(spec)
		if err != nil {
			return rec, nil, err
		}
		final, err := d.client.Watch(ctx, st.ID, func(s service.JobStatus) {
			now := time.Now()
			if rec.start.IsZero() && s.State != service.StateQueued {
				rec.start = now
				if traced {
					tr.root.Store(rec.ids[2])
				}
			}
			if !rec.sawPublish && (s.Phase == "publish" || s.State.Terminal()) {
				rec.sawPublish = s.Phase == "publish"
				rec.publish = now
				if traced {
					tr.root.Store(rec.ids[3])
				}
			}
			if s.State.Terminal() {
				rec.done = now
				if traced {
					tr.root.Store(rec.ids[4])
				}
			}
		})
		if err != nil {
			return rec, nil, err
		}
		if final.State != service.StateDone || !final.Complete {
			return rec, nil, fmt.Errorf("job %s ended %s (complete=%v): %s", final.ID, final.State, final.Complete, final.Error)
		}
		rec.queries = final.Queries
		rec.queue = final.StartedAt.Sub(final.SubmittedAt)
		band := max(spec.Band, 1)
		w := randWeights(rng, len(final.Tuples[0]))
		req := service.AnswerTopKRequest{Store: spec.Store, Weights: w, K: band, Normalized: rng.Intn(2) == 0}
		resp, err := d.client.AnswerTopK(req)
		rec.answered = time.Now()
		if traced {
			tr.root.Store(0)
		}
		if err != nil {
			return rec, nil, err
		}
		if rec.start.IsZero() {
			rec.start = rec.submit
		}
		if kind == 0 {
			p2Queries[final.Queries]++
		}
		return rec, func() error {
			tt := truths[spec.Store]
			if err := tt.sets[band].equal(final.Tuples); err != nil {
				return fmt.Errorf("job %s result: %v", final.ID, err)
			}
			if resp.BandK != band {
				return fmt.Errorf("job %s: first answer came from a band-%d index, want the new band-%d index", final.ID, resp.BandK, band)
			}
			if !resp.Exact {
				return fmt.Errorf("job %s: unfiltered k=%d answer from a band-%d index is not marked exact", final.ID, band, band)
			}
			lo, hi := bounds(final.Tuples)
			ref := newScorer(final.Tuples, lo, hi)
			gt := &scorer{tuples: tt.gt, lo: lo, hi: hi}
			if err := checkTopK(newTupleSet(final.Tuples), ref, gt, w, req.K, req.Normalized, nil, resp.Exact, resp.Tuples, resp.Scores); err != nil {
				return fmt.Errorf("job %s first answer: %v", final.ID, err)
			}
			// Cross-check with the skyband-based reference in package skyline.
			score := func(t []int) float64 { return ref.score(t, w, req.Normalized) }
			var mono []float64
			for _, i := range skyline.TopKMonotone(final.Tuples, score, req.K) {
				mono = append(mono, score(final.Tuples[i]))
			}
			if err := sameScores(resp.Scores, mono); err != nil {
				return fmt.Errorf("job %s first answer against skyline.TopKMonotone: %v", final.ID, err)
			}
			return nil
		}, nil
	}

	upstreamTotal := func() int {
		n := 0
		for _, db := range d.dbs {
			n += db.QueriesIssued()
		}
		return n
	}
	cacheNow := func() cacheCounts {
		s := d.mgr.CacheStats()
		return cacheCounts{s.Lookups, s.Hits, s.Coalesced, s.Evictions}
	}

	// pass runs the job list once and returns the oracle check of its
	// results.
	pass := func(seg *httpSeg, traced bool) (check func()) {
		var first, whole []float64
		var checks []func() error
		var labels []string
		u0, c0 := upstreamTotal(), cacheNow()
		for kind, spec := range httpJobs {
			rec, check, err := runJob(kind, traced)
			if err != nil {
				out.attempted++
				out.fail("%s: %v", jobLabel(spec), err)
				continue
			}
			seg.recs = append(seg.recs, rec)
			first = append(first, ms(rec.answered.Sub(rec.submit)))
			whole = append(whole, ms(rec.done.Sub(rec.submit)))
			checks = append(checks, check)
			labels = append(labels, jobLabel(spec))
			if traced {
				recordJobSpans(tr, rec)
			}
		}
		seg.upstream += upstreamTotal() - u0
		seg.cache.addDelta(c0, cacheNow())
		seg.passMs = append(seg.passMs, mean(first))
		seg.jobMs = append(seg.jobMs, mean(whole))
		return func() {
			for i, c := range checks {
				out.attempted++
				if err := c(); err != nil {
					out.fail("%s: %v", labels[i], err)
				}
			}
		}
	}

	pass(&httpSeg{}, false)() // warm-up fills the query cache and connection pools; checked, not timed
	clear(p2Queries)

	// Live heap once set up and warm: a fixed point, so it does not
	// depend on how much work the timed segment got through. The
	// manager's sampler allocates a series' history ring at its first
	// tick after the series appears, so wait out one tick first (without
	// the wait the heap read 5.45 or 5.95 MiB depending on whether that
	// tick had come).
	time.Sleep(obs.DefaultSampleInterval + 250*time.Millisecond)
	heap := liveHeapMB()
	var plain, traced httpSeg
	st := runUnits(cfg.duration(), kern, tr, func(on bool) func() {
		if on {
			return pass(&traced, true)
		}
		return pass(&plain, false)
	})
	jobs := len(plain.recs)
	if jobs == 0 {
		return nil, errors.New("job_http: no job completed")
	}
	scale := kern.scale()
	queries := 0
	for _, r := range plain.recs {
		queries += r.queries
	}

	e := out.e2e
	e.set("setup_s", median(setups)*scale, "s")
	e.set("op_ms", median(plain.passMs)*scale, "ms")
	e.set("op_cpu_ms", ms(st.cpu[0])/float64(jobs)*scale, "ms")
	e.set("queries", float64(queries)/float64(jobs), "count")
	e.set("upstream_queries", float64(plain.upstream)/float64(jobs), "count")
	e.set("heap_mb", heap, "MB")
	out.note("%d untraced passes, %d jobs, %v", len(plain.passMs), jobs, kern)
	out.note("RQ Parallelism-%d query counts (count: jobs): %v", maxLoad, p2Queries)
	if !cfg.trace {
		return out, nil
	}

	l := out.layers
	l.set("job_ms", median(plain.jobMs)*scale, "ms")
	l.set("raw.job_ms", median(plain.jobMs), "ms")
	l.set("first_answer_ms", median(plain.passMs)*scale, "ms")
	l.set("raw.first_answer_ms", median(plain.passMs), "ms")
	setRuntime(out, st, jobs)
	setRawAndRef(out, setups, kern)
	c := plain.cache
	l.set("qcache.hit_ratio", ratio(float64(c.hits), float64(c.lookups)), "frac")
	l.set("qcache.dedup", ratio(float64(c.coalesced), float64(c.lookups)), "frac")
	l.set("qcache.evictions", float64(c.evictions)/float64(len(plain.passMs)), "count")
	var queue, disc, pub, ready []float64
	missed := 0
	for _, r := range plain.recs {
		queue = append(queue, ms(r.queue))
		disc = append(disc, ms(r.publish.Sub(r.start)))
		pub = append(pub, ms(r.done.Sub(r.publish)))
		ready = append(ready, ms(r.answered.Sub(r.done)))
		if !r.sawPublish {
			missed++
		}
	}
	l.set("service.queue_ms", median(queue), "ms")
	l.set("service.discover_ms", median(disc), "ms")
	l.set("service.publish_ms", median(pub), "ms")
	l.set("service.answer_ready_ms", median(ready), "ms")
	if missed > 0 {
		out.note("%d of %d jobs streamed no publish event (dropped under a full SSE buffer); their publish time counts as discovery", missed, jobs)
	}

	spans := tr.take()
	out.table = formatTable(selfTable(spans, st.wall[1], "bench"), ms(st.wall[1]))
	setWireLayers(out, tr, spans)
	// Worker-pool occupancy of the Parallelism-2 job: upstream round-trip
	// time inside its discovery phase over the phase's length.
	p2 := map[int64]bool{}
	var p2Phase float64
	for _, r := range traced.recs {
		if r.kind == 0 {
			p2[r.ids[2]] = true
			p2Phase += us(r.publish.Sub(r.start))
		}
	}
	var p2Busy float64
	for _, s := range spans {
		if s.layer == "web.client" && p2[s.parent] {
			p2Busy += us(s.dur())
		}
	}
	l.set("engine.inflight_avg", ratio(p2Busy, p2Phase), "count")
	// answer.Build on the same tuples the jobs published.
	var builds []float64
	for kind, spec := range httpJobs {
		tuples := lastTuples(d, kind)
		for i := 0; i < 5 && len(tuples) > 0; i++ {
			t := time.Now()
			if _, err := answer.Build(tuples, answer.Options{BandK: max(spec.Band, 1)}); err != nil {
				out.fail("answer.Build: %v", err)
				break
			}
			builds = append(builds, ms(time.Since(t)))
		}
	}
	l.set("answer.build_ms", median(builds), "ms")
	l.set("trace.overhead_frac", median(traced.passMs)/median(plain.passMs)-1, "frac")
	failedFrac(out)
	return out, nil
}

// lastTuples returns the result of the latest finished job of kind.
func lastTuples(d *daemon, kind int) [][]int {
	jobs := d.mgr.List()
	for i := len(jobs) - 1; i >= 0; i-- {
		sp := jobs[i].Spec
		if sp.Store == httpJobs[kind].Store && sp.Band == httpJobs[kind].Band && jobs[i].State == service.StateDone {
			if tuples, err := d.mgr.Result(jobs[i].ID); err == nil {
				return tuples
			}
		}
	}
	return nil
}

func jobLabel(s service.JobSpec) string {
	l := s.Store + "/" + s.Algo
	if s.Resumable {
		l += "/resumable"
	}
	if s.Band > 0 {
		l += fmt.Sprintf("/band%d", s.Band)
	}
	return l
}

// recordJobSpans adds a traced job's root and lifecycle-phase spans,
// timed from the client's view of the SSE stream.
func recordJobSpans(tr *tracer, r jobRec) {
	at := func(t time.Time) int64 { return int64(t.Sub(tr.base)) }
	root := r.ids[0]
	tr.add(span{id: root, layer: "bench", start: at(r.submit), end: at(r.answered)})
	tr.add(span{id: r.ids[1], parent: root, layer: "service.queue", start: at(r.submit), end: at(r.start)})
	tr.add(span{id: r.ids[2], parent: root, layer: "service.discover", start: at(r.start), end: at(r.publish)})
	tr.add(span{id: r.ids[3], parent: root, layer: "service.publish", start: at(r.publish), end: at(r.done)})
	tr.add(span{id: r.ids[4], parent: root, layer: "service.answer", start: at(r.done), end: at(r.answered)})
}

// setWireLayers derives the web layer's metrics from matched client and
// server spans: round-trip time, server time, and their difference (the
// wire: transport plus HTTP framing).
func setWireLayers(out *outcome, tr *tracer, spans []span) {
	client := map[int64]span{}
	for _, s := range spans {
		if s.layer == "web.client" {
			client[s.id] = s
		}
	}
	var rtt, server, wire []float64
	for _, s := range spans {
		if s.layer != "web.server" {
			continue
		}
		server = append(server, us(s.dur()))
		if c, ok := client[s.parent]; ok {
			wire = append(wire, us(c.dur()-s.dur()))
		}
	}
	for _, c := range client {
		rtt = append(rtt, us(c.dur()))
	}
	l := out.layers
	trips := float64(tr.trips.Load())
	l.set("web.rtt_us_p50", median(rtt), "us")
	l.set("web.server_us_p50", median(server), "us")
	l.set("web.wire_us_p50", median(wire), "us")
	l.set("web.req_bytes_per_query", ratio(float64(tr.reqB.Load()), trips), "B")
	l.set("web.resp_bytes_per_query", ratio(float64(tr.respB.Load()), trips), "B")
	l.set("web.retries", float64(tr.retries.Load()), "count")
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file removed mid-walk is simply not counted
	})
	return n
}

// randWeights draws a non-negative weight vector with at least one
// positive entry.
func randWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = float64(rng.Intn(100)) / 100
	}
	w[rng.Intn(m)] += 0.5
	return w
}
