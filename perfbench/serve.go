package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/service"
)

const (
	// serveRate is serve_topk's fixed offered load, in reads per second:
	// about a third of what two connections sustain, so latency measures
	// service time rather than queueing, yet busy enough that idle-CPU
	// wake-ups do not dominate (at 400/s the median spread over ten runs
	// was 7.2%, at 800/s 6.6%, and CPU per read 5.5% against 1.8%).
	serveRate = 800
	// roundLen is one open-loop round; the reference kernel runs between
	// rounds, while no read is in flight.
	roundLen = time.Second
	// batchSize is the number of vectors in a /v1/answer/topk_batch read.
	batchSize = 16
	// serveStore names the served index's store.
	serveStore = "anticorr"
	// serveQueries is the committed query count of the RQ job that
	// builds the served index (sequential, so exact).
	serveQueries = 3601
)

// serveDB is the store behind the served index: its RQ skyline holds
// about 11.7k tuples.
func serveDB() *hidden.DB {
	return datagen.AntiCorrelated(dataSeed, 100000, 4, 10000).WithCaps(hidden.RQ).DB(50, hidden.SumRank{})
}

// readReq is one request of the read mix.
type readReq struct {
	batch  bool
	single service.AnswerTopKRequest
	multi  service.AnswerTopKBatchRequest
}

// readRec is one read as the load generator saw it.
type readRec struct {
	due, sent, done time.Time
	// from is where the read's latency starts: its due time when both
	// connections were still busy at that time, so waiting caused by the
	// system counts; otherwise the send time, so the sleep's overshoot
	// (timer slack of up to a millisecond) does not.
	from   time.Time
	err    error
	single service.AnswerTopKResponse
	multi  service.AnswerTopKBatchResponse
}

// makeReads builds n requests in cycles of 20. Four are batches of
// batchSize unfiltered vectors; sixteen are single-vector reads covering
// every combination of k (1 or 10), raw or normalized scores, and one of
// four filters (a range on one attribute, or none three times) once. The
// seed draws weights, filtered attributes, ranges and the order within a
// cycle, so every seed offers the same mix of request shapes.
func makeReads(rng *rand.Rand, n int, lo, hi []int) []readReq {
	m := len(lo)
	query := func(shape int, filtered bool) service.AnswerTopKBatchQuery {
		q := service.AnswerTopKBatchQuery{Weights: randWeights(rng, m), K: []int{1, 10}[shape&1], Normalized: shape&2 != 0}
		if filtered {
			a := rng.Intn(m)
			span := hi[a] - lo[a]
			l := lo[a] + int(float64(span)*rng.Float64()*0.5)
			h := l + span/2
			q.Filter = []service.AnswerRange{{Attr: a, Lo: &l, Hi: &h}}
		}
		return q
	}
	reqs := make([]readReq, 0, n+20)
	for len(reqs) < n {
		cycle := make([]readReq, 0, 20)
		for shape := 0; shape < 16; shape++ {
			q := query(shape, shape < 4)
			cycle = append(cycle, readReq{single: service.AnswerTopKRequest{Store: serveStore,
				Weights: q.Weights, K: q.K, Normalized: q.Normalized, Filter: q.Filter}})
		}
		for b := 0; b < 4; b++ {
			r := service.AnswerTopKBatchRequest{Store: serveStore, Queries: make([]service.AnswerTopKBatchQuery, batchSize)}
			for j := range r.Queries {
				r.Queries[j] = query(j, false)
			}
			cycle = append(cycle, readReq{batch: true, multi: r})
		}
		rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		reqs = append(reqs, cycle...)
	}
	return reqs[:n]
}

// reader is one load-generator connection: its own client, and (when
// traced) the parent span of its round trips.
type reader struct {
	client *service.Client
	root   atomic.Int64
}

// coldStart brings a daemon up from the snapshot directory: NewManager,
// AddStore, Recover, the HTTP front, and one served read. It returns the
// daemon, its readers and how long Recover took.
func coldStart(snap string, db *hidden.DB, tr *tracer) (*daemon, []*reader, time.Duration, error) {
	d := &daemon{dbs: map[string]*hidden.DB{serveStore: db}}
	mgr, err := service.NewManager(daemonConfig(snap))
	if err != nil {
		return nil, nil, 0, err
	}
	d.mgr = mgr
	if err := mgr.AddStore(serveStore, db); err != nil {
		d.close()
		return nil, nil, 0, err
	}
	t := time.Now()
	if _, err := mgr.Recover(); err != nil {
		d.close()
		return nil, nil, 0, err
	}
	rec := time.Since(t)
	if err := d.serveDaemon(tr); err != nil {
		d.close()
		return nil, nil, 0, err
	}
	readers := make([]*reader, maxLoad)
	for i := range readers {
		r := &reader{}
		hc := &http.Client{Transport: newTransport()}
		d.transports = append(d.transports, hc.Transport.(*http.Transport))
		if tr != nil {
			hc.Transport = &tracedTransport{base: hc.Transport, t: tr, root: &r.root, layer: "service.client"}
		}
		if r.client, err = service.Dial(d.servers[len(d.servers)-1].url, hc); err != nil {
			d.close()
			return nil, nil, 0, err
		}
		readers[i] = r
	}
	if _, err := readers[0].client.AnswerTopK(service.AnswerTopKRequest{Store: serveStore, Weights: []float64{1, 1, 1, 1}, K: 1}); err != nil {
		d.close()
		return nil, nil, 0, fmt.Errorf("first read after cold start: %w", err)
	}
	return d, readers, rec, nil
}

// buildIndex runs the RQ discovery whose published index serve_topk
// serves, leaving its snapshots in snap.
func buildIndex(snap string, db *hidden.DB) (service.JobStatus, error) {
	mgr, err := service.NewManager(daemonConfig(snap))
	if err != nil {
		return service.JobStatus{}, err
	}
	d := &daemon{mgr: mgr}
	defer d.close()
	if err := mgr.AddStore(serveStore, db); err != nil {
		return service.JobStatus{}, err
	}
	if _, err := mgr.Recover(); err != nil {
		return service.JobStatus{}, err
	}
	st, err := mgr.Submit(service.JobSpec{Store: serveStore, Algo: "rq"})
	if err != nil {
		return st, err
	}
	ch, stop, err := mgr.Watch(st.ID)
	if err != nil {
		return st, err
	}
	for range ch { // closed once the job is terminal
	}
	stop()
	final, _ := mgr.Get(st.ID)
	if final.State != service.StateDone || !final.Complete {
		return final, fmt.Errorf("index job ended %s (complete=%v): %s", final.State, final.Complete, final.Error)
	}
	return final, nil
}

func runServeTopK(cfg config) (*outcome, error) {
	out := newOutcome()
	reps := 15
	if cfg.quick {
		reps = 1
	}
	// Inputs: the database and the discovered, published index.
	db := serveDB()
	snap := filepath.Join(cfg.dir, "snap")
	index, err := buildIndex(snap, db)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if index.Queries != serveQueries {
		out.fail("index job: %d queries, committed value %d", index.Queries, serveQueries)
	}
	if err := skylineTruth(db.GroundTruth(), 1).equal(index.Tuples); err != nil {
		out.fail("index job skyline: %v", err)
	}
	snapBytes := dirBytes(snap)
	pubTuples := index.Tuples
	lo, hi := bounds(pubTuples)
	pub := newTupleSet(pubTuples)
	ref := newScorer(pubTuples, lo, hi)
	gt := newScorer(db.GroundTruth(), lo, hi)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups, recovers []float64
	var d *daemon
	var readers []*reader
	for r := 0; r < reps; r++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t := time.Now()
		var rec time.Duration
		if d, readers, rec, err = coldStart(snap, db, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		recovers = append(recovers, ms(rec))
	}
	defer d.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	perRound := int(serveRate * roundLen.Seconds())
	interval := roundLen / time.Duration(perRound)
	kern, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer kern.close()

	// openLoop sends reqs at the fixed rate over the readers: each
	// request is due at start + i*interval whether or not earlier ones
	// have finished (see readRec.from for where its latency starts).
	openLoop := func(reqs []readReq, recs []readRec, traced bool) {
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, r := range readers {
			wg.Add(1)
			go func(r *reader) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					rec := &recs[i]
					rec.due = start.Add(time.Duration(i) * interval)
					busy := time.Now().After(rec.due)
					time.Sleep(time.Until(rec.due))
					var root int64
					if traced {
						root = tr.newID()
						r.root.Store(root)
					}
					rec.sent = time.Now()
					rec.from = rec.sent
					if busy {
						rec.from = rec.due
					}
					if reqs[i].batch {
						rec.multi, rec.err = r.client.TopKBatch(reqs[i].multi)
					} else {
						rec.single, rec.err = r.client.AnswerTopK(reqs[i].single)
					}
					rec.done = time.Now()
					if traced {
						at := func(t time.Time) int64 { return int64(t.Sub(tr.base)) }
						tr.add(span{id: root, layer: "bench", start: at(rec.from), end: at(rec.done)})
						tr.record("gen.late", root, at(rec.due), at(rec.sent))
					}
				}
			}(r)
		}
		wg.Wait()
	}

	// serveSeg is what the traced or untraced rounds saw; latencies in µs.
	type serveSeg struct {
		reads                     int
		single, batch, sent, late []float64
	}
	// round runs one round of the open loop and returns the oracle check
	// of its reads, which also collects their latencies into seg.
	round := func(seg *serveSeg, traced bool) (check func()) {
		reqs := makeReads(rng, perRound, lo, hi)
		recs := make([]readRec, perRound)
		openLoop(reqs, recs, traced)
		seg.reads += len(reqs)
		return func() {
			for i, q := range reqs {
				r := recs[i]
				out.attempted++
				seg.late = append(seg.late, us(r.sent.Sub(r.due)))
				if r.err != nil {
					out.fail("read: %v", r.err)
					continue
				}
				if q.batch {
					seg.batch = append(seg.batch, us(r.done.Sub(r.from)))
					if len(r.multi.Results) != len(q.multi.Queries) {
						out.fail("batch read: %d results for %d queries", len(r.multi.Results), len(q.multi.Queries))
						continue
					}
					for j, bq := range q.multi.Queries {
						res := r.multi.Results[j]
						if err := checkTopK(pub, ref, gt, bq.Weights, bq.K, bq.Normalized, bq.Filter, res.Exact, res.Tuples, res.Scores); err != nil {
							out.fail("batch read member %d: %v", j, err)
							break
						}
					}
					continue
				}
				seg.single = append(seg.single, us(r.done.Sub(r.from)))
				seg.sent = append(seg.sent, us(r.done.Sub(r.sent)))
				s := q.single
				if err := checkTopK(pub, ref, gt, s.Weights, s.K, s.Normalized, s.Filter, r.single.Exact, r.single.Tuples, r.single.Scores); err != nil {
					out.fail("read: %v", err)
				}
			}
		}
	}

	round(&serveSeg{}, false)() // warm-up: checked, not timed
	// Live heap once set up and warm: a fixed point, so it does not
	// depend on how much work the timed segment got through.
	heap := liveHeapMB()
	var plain, traced serveSeg
	st := runUnits(cfg.duration(), kern, tr, func(on bool) func() {
		if on {
			return round(&traced, true)
		}
		return round(&plain, false)
	})
	if len(plain.single) == 0 || len(plain.batch) == 0 {
		return nil, errors.New("serve_topk: no read succeeded")
	}
	single, batch := plain.single, plain.batch
	scale := kern.scale()
	readCPU := us(st.cpu[0]) / float64(plain.reads)

	e := out.e2e
	e.set("setup_s", median(setups)*scale, "s")
	e.set("op_ms", median(single)/1000*scale, "ms")
	e.set("op_cpu_ms", readCPU/1000*scale, "ms")
	e.set("queries", float64(index.Queries), "count")
	e.set("upstream_queries", float64(db.QueriesIssued()), "count")
	e.set("heap_mb", heap, "MB")
	out.note("%d untraced reads (%d single, %d batch) at %d/s over %d connections, %v",
		plain.reads, len(single), len(batch), serveRate, len(readers), kern)
	if !cfg.trace {
		return out, nil
	}

	l := out.layers
	l.set("topk_p50_us", median(single)*scale, "us")
	l.set("raw.topk_p50_us", median(single), "us")
	l.set("topk_batch_p50_us", median(batch)*scale, "us")
	l.set("raw.topk_batch_p50_us", median(batch), "us")
	l.set("read_cpu_us", readCPU*scale, "us")
	l.set("raw.read_cpu_us", readCPU, "us")
	l.set("topk_p99_us", quantile(single, 0.99), "us")
	l.set("topk_batch_p99_us", quantile(batch, 0.99), "us")
	l.set("gen.late_us_p99", quantile(plain.late, 0.99), "us")
	setRuntime(out, st, plain.reads)
	l.set("answer.recover_ms", median(recovers), "ms")
	l.set("service.snapshot_bytes_per_job", float64(snapBytes), "B")
	setRawAndRef(out, setups, kern)

	spans := tr.take()
	out.table = formatTable(selfTable(spans, st.wall[1], "idle"), ms(st.wall[1]))
	l.set("trace.overhead_frac", median(traced.single)/median(single)-1, "frac")

	// Direct timing of the answer kernel on the served store, over a
	// fresh draw of the same request mix.
	store, err := d.mgr.AnswerStore(serveStore)
	if err != nil {
		return nil, err
	}
	var kSingle, kBatch []float64
	dst := make([]answer.Ranked, 0, 16)
	var outs []answer.TopKResult
	for _, q := range makeReads(rng, 4*perRound, lo, hi) {
		if q.batch {
			qs := make([]answer.TopKQuery, len(q.multi.Queries))
			for j, bq := range q.multi.Queries {
				qs[j] = toAnswerQuery(bq)
			}
			t := time.Now()
			outs, err = store.TopKBatchInto(qs, outs)
			kBatch = append(kBatch, us(time.Since(t))/float64(len(qs)))
		} else {
			s := q.single
			aq := toAnswerQuery(service.AnswerTopKBatchQuery{Weights: s.Weights, K: s.K, Normalized: s.Normalized, Filter: s.Filter})
			t := time.Now()
			var res answer.TopKResult
			res, err = store.TopKAppend(aq, dst)
			kSingle = append(kSingle, us(time.Since(t)))
			dst = res.Items[:0]
		}
		if err != nil {
			out.fail("in-process answer: %v", err)
			break
		}
	}
	l.set("answer.topk_us_p50", median(kSingle), "us")
	l.set("answer.batch_us_per_vector", median(kBatch), "us")
	l.set("service.http_topk_overhead_us", median(plain.sent)-median(kSingle), "us")
	bin := store.AppendBinary(nil)
	l.set("answer.bytes_per_tuple", float64(len(bin))/float64(store.Len()), "B")
	var loads, builds []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := answer.LoadBinary(bin); err != nil {
			out.fail("answer.LoadBinary: %v", err)
			break
		}
		loads = append(loads, ms(time.Since(t)))
	}
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := answer.Build(pubTuples, answer.Options{BandK: 1}); err != nil {
			out.fail("answer.Build: %v", err)
			break
		}
		builds = append(builds, ms(time.Since(t)))
	}
	l.set("answer.load_ms", median(loads), "ms")
	l.set("answer.build_ms", median(builds), "ms")
	failedFrac(out)
	return out, nil
}

// toAnswerQuery converts a wire query to the answer package's form.
func toAnswerQuery(q service.AnswerTopKBatchQuery) answer.TopKQuery {
	aq := answer.TopKQuery{Weights: q.Weights, K: q.K, Normalized: q.Normalized}
	for _, r := range q.Filter {
		rg := answer.Range{Attr: r.Attr, Lo: math.MinInt, Hi: math.MaxInt}
		if r.Lo != nil {
			rg.Lo = *r.Lo
		}
		if r.Hi != nil {
			rg.Hi = *r.Hi
		}
		aq.Filter = append(aq.Filter, rg)
	}
	return aq
}
