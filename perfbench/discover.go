package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"hiddensky/internal/analysis"
	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
)

// dataSeed fixes every generated database, so query counts repeat
// exactly across runs; --seed varies job order and request mixes.
const dataSeed = 1

// kernelBurst is how many reference-kernel samples run between two
// units of measured work.
const kernelBurst = 8

// localJob is one discovery job of discover_local.
type localJob struct {
	name  string
	req   core.Request
	build func() *hidden.DB
	// bound is the internal/analysis query-cost bound (or average-case
	// model) for this algorithm, skyline size s and database size n.
	bound func(db *hidden.DB, s int) float64
}

// localJobs covers the paper's four interface types. Each is sized so a
// 10-second run holds about twenty passes over the list.
var localJobs = []localJob{
	{"sq_anticorr_800", core.Request{Algo: core.AlgoSQ},
		func() *hidden.DB {
			return datagen.AntiCorrelated(dataSeed, 800, 4, 1000).WithCaps(hidden.SQ).DB(10, hidden.SumRank{})
		},
		func(db *hidden.DB, s int) float64 { return analysis.AvgCostRecurrence(db.NumAttrs(), s) }},
	{"rq_bluenile_5k", core.Request{Algo: core.AlgoRQ},
		func() *hidden.DB { return datagen.BlueNile(dataSeed, 5000).DB(10, hidden.SumRank{}) },
		rqBound},
	{"pq_flights_5k", core.Request{Algo: core.AlgoPQ},
		func() *hidden.DB {
			return datagen.Flights(dataSeed, 5000).Project(datagen.FlightPQAttrs[:5]...).DB(1, hidden.SumRank{})
		},
		func(db *hidden.DB, _ int) float64 {
			sizes := make([]int, db.NumAttrs())
			for i := range sizes {
				sizes[i] = db.Domain(i).Len()
			}
			return analysis.PQDBCostBound(sizes)
		}},
	{"mq_yahooautos_15k", core.Request{Algo: core.AlgoMQ},
		func() *hidden.DB {
			return datagen.YahooAutos(dataSeed, 15000).DB(50, hidden.AttrRank{Attr: datagen.AutoPrice})
		},
		rqBound},
	{"rq_anticorr_20k", core.Request{Algo: core.AlgoRQ},
		func() *hidden.DB {
			return datagen.AntiCorrelated(dataSeed, 20000, 4, 10000).WithCaps(hidden.RQ).DB(50, hidden.SumRank{})
		},
		rqBound},
}

func rqBound(db *hidden.DB, s int) float64 {
	return analysis.WorstCaseCostRQ(db.NumAttrs(), s, db.Size())
}

// expectedQueries are the committed query counts of discover_local's
// jobs: the paper's cost metric, exact for sequential runs. A change
// that moves one changes what the algorithms do; refresh the value here
// and say so.
var expectedQueries = map[string]int{
	"sq_anticorr_800":   15673,
	"rq_bluenile_5k":    1636,
	"pq_flights_5k":     8969,
	"mq_yahooautos_15k": 1009,
	"rq_anticorr_20k":   833,
}

// localSeg is what discover_local's traced or untraced passes saw.
type localSeg struct {
	passMs   []float64 // mean job wall time of each pass (ms)
	jobs     int
	queries  int // counted by the algorithms
	upstream int // reached the hidden databases
	skyline  int
	plan     []float64 // µs, traced passes only
	ratios   []float64 // queries / bound, one per job type
}

func runDiscoverLocal(cfg config) (*outcome, error) {
	out := newOutcome()
	reps := 7
	if cfg.quick {
		reps = 1
	}
	var setups []float64
	var dbs []*hidden.DB
	for r := 0; r < reps; r++ {
		dbs = nil
		runtime.GC()
		t := time.Now()
		for _, j := range localJobs {
			dbs = append(dbs, j.build())
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	truth := make([]tupleSet, len(dbs))
	for i, db := range dbs {
		truth[i] = skylineTruth(db.GroundTruth(), 0)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	kern, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer kern.close()

	var tr *tracer
	views := make([]core.Interface, len(dbs))
	for i, db := range dbs {
		views[i] = db
	}
	if cfg.trace {
		tr = newTracer()
		for i, db := range dbs {
			views[i] = tracedDB{Interface: db, t: tr}
		}
	}

	// pass runs every job once, in seeded order, and returns the oracle
	// check of their results.
	pass := func(seg *localSeg, traced bool) (check func()) {
		type done struct {
			i   int
			res core.Result
			err error
		}
		var results []done
		var jobMs []float64
		for _, i := range rng.Perm(len(localJobs)) {
			j := localJobs[i]
			before := dbs[i].QueriesIssued()
			var res core.Result
			var err error
			var d time.Duration
			if traced {
				id := tr.newID()
				tr.root.Store(id)
				s := tr.now()
				var p *core.QueryPlan
				if p, err = core.Plan(views[i], j.req); err == nil {
					pe := tr.now()
					tr.record("core.plan", id, s, pe)
					seg.plan = append(seg.plan, us(time.Duration(pe-s)))
					res, err = p.Run(core.Options{})
				}
				e := tr.now()
				tr.add(span{id: id, layer: "core", start: s, end: e})
				tr.root.Store(0)
				d = time.Duration(e - s)
			} else {
				t := time.Now()
				res, err = core.Run(views[i], j.req, core.Options{})
				d = time.Since(t)
			}
			jobMs = append(jobMs, ms(d))
			seg.jobs++
			seg.queries += res.Queries
			seg.upstream += dbs[i].QueriesIssued() - before
			seg.skyline += len(res.Skyline)
			results = append(results, done{i, res, err})
		}
		seg.passMs = append(seg.passMs, mean(jobMs))
		return func() {
			for _, r := range results {
				j := localJobs[r.i]
				out.attempted++
				switch {
				case r.err != nil:
					out.fail("%s: %v", j.name, r.err)
				case !r.res.Complete:
					out.fail("%s: incomplete result", j.name)
				case r.res.Queries != expectedQueries[j.name]:
					out.fail("%s: %d queries, committed value %d", j.name, r.res.Queries, expectedQueries[j.name])
				default:
					if err := truth[r.i].equal(r.res.Skyline); err != nil {
						out.fail("%s: skyline: %v", j.name, err)
					}
				}
				if len(seg.ratios) < len(localJobs) && r.err == nil {
					seg.ratios = append(seg.ratios, ratio(float64(r.res.Queries), j.bound(dbs[r.i], len(r.res.Skyline))))
				}
			}
		}
	}

	pass(&localSeg{}, false)() // warm-up: checked, not timed

	// Live heap once set up and warm: a fixed point, so it does not
	// depend on how much work the timed segment got through.
	heap := liveHeapMB()
	var plain, traced localSeg
	st := runUnits(cfg.duration(), kern, tr, func(on bool) func() {
		if on {
			return pass(&traced, true)
		}
		return pass(&plain, false)
	})
	scale := kern.scale()

	e := out.e2e
	e.set("setup_s", median(setups)*scale, "s")
	e.set("op_ms", median(plain.passMs)*scale, "ms")
	e.set("op_cpu_ms", ms(st.cpu[0])/float64(plain.jobs)*scale, "ms")
	e.set("queries", float64(plain.queries)/float64(plain.jobs), "count")
	e.set("upstream_queries", float64(plain.upstream)/float64(plain.jobs), "count")
	e.set("heap_mb", heap, "MB")
	out.note("%d untraced passes, %d jobs, %v", len(plain.passMs), plain.jobs, kern)
	if !cfg.trace {
		return out, nil
	}

	l := out.layers
	l.set("job_ms", median(plain.passMs)*scale, "ms")
	l.set("raw.job_ms", median(plain.passMs), "ms")
	setRuntime(out, st, plain.jobs)
	setRawAndRef(out, setups, kern)

	spans := tr.take()
	out.table = formatTable(selfTable(spans, st.wall[1], "bench"), ms(st.wall[1]))
	q := spanDurations(spans, "hidden")
	var jobUs float64
	for _, s := range spans {
		if s.layer == "core" {
			jobUs += us(s.dur())
		}
	}
	l.set("hidden.query_us_p50", median(q), "us")
	l.set("hidden.busy_frac", ratio(sum(q), jobUs), "frac")
	l.set("core.self_ms", (jobUs-sum(q))/1000/float64(traced.jobs), "ms")
	l.set("core.plan_us", median(traced.plan), "us")
	l.set("core.queries_per_tuple", ratio(float64(traced.queries), float64(traced.skyline)), "count")
	l.set("core.cost_over_bound", geomean(plain.ratios), "frac")
	l.set("trace.overhead_frac", median(traced.passMs)/median(plain.passMs)-1, "frac")
	failedFrac(out)
	return out, nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// setRawAndRef records the raw (unnormalized) value of every normalized
// end-to-end metric and the reference kernel's median.
func setRawAndRef(out *outcome, setups []float64, kern *refKernel) {
	scale := kern.scale()
	l := out.layers
	l.set("raw.setup_s", median(setups), "s")
	l.set("raw.op_ms", out.e2e["op_ms"].Value/scale, "ms")
	l.set("raw.op_cpu_ms", out.e2e["op_cpu_ms"].Value/scale, "ms")
	l.set("ref.kernel_slowdown", kern.slowdown(), "ratio")
}

// failedFrac records the share of attempted operations that failed.
func failedFrac(out *outcome) {
	out.layers.set("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "frac")
}
