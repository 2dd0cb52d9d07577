package hiddensky

import (
	"testing"
)

// Ablation benchmarks: quantify discovery design choices one at a time —
// the overflow flag, skipping provably empty queries, the ranking, and
// the interface's power.
// Run with `go test -bench=Ablation -benchmem`; the "queries" metric is
// the interesting output (wall time just measures the simulator).

// UseOverflowFlag: trusting the interface's result count indicator versus
// the paper's |T| = k observation model. The flag saves the confirmation
// queries on answers that happen to carry exactly k matches.
func BenchmarkAblationOverflowFlag(b *testing.B) {
	d := Flights(1, 20000).Project(7, 0, 8, 1, 2) // DistGroup, delays, taxi times
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"paper-model", Options{}},
		{"overflow-flag", Options{UseOverflowFlag: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := d.WithCaps(RQ).DB(10, SumRank{})
			b.ResetTimer()
			var queries int
			for i := 0; i < b.N; i++ {
				db.ResetCounter()
				res, err := RQDBSky(db, tc.opt)
				if err != nil {
					b.Fatal(err)
				}
				queries = res.Queries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// SkipProvablyEmpty: reading the advertised domains off the search form
// versus issuing queries whose boxes are provably empty (the paper's cost
// model issues them).
func BenchmarkAblationSkipEmpty(b *testing.B) {
	d := Flights(1, 20000).Project(7, 0, 8, 1, 2)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"issue-empty", Options{}},
		{"skip-empty", Options{SkipProvablyEmpty: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := d.WithCaps(SQ).DB(10, SumRank{})
			b.ResetTimer()
			var queries int
			for i := 0; i < b.N; i++ {
				db.ResetCounter()
				res, err := SQDBSky(db, tc.opt)
				if err != nil {
					b.Fatal(err)
				}
				queries = res.Queries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// Ranking sensitivity (§3.2): a benign ranking (sum) versus a random
// linear extension versus the adversarial peel ranking, on identical
// data — the practical spread between best, average and worst case.
func BenchmarkAblationRanking(b *testing.B) {
	d := CorrelationSweep(3, 1500, 4, 8, -0.4)
	for _, tc := range []struct {
		name string
		rank Ranking
	}{
		{"sum", SumRank{}},
		{"random-extension", RandomExtensionRank{Seed: 5}},
		{"adversarial", AdversarialRank{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := d.WithCaps(SQ).DB(1, tc.rank)
			b.ResetTimer()
			var queries int
			for i := 0; i < b.N; i++ {
				db.ResetCounter()
				res, err := SQDBSky(db, Options{})
				if err != nil {
					b.Fatal(err)
				}
				queries = res.Queries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// Interface power (the paper's central comparison): identical data behind
// progressively weaker interfaces.
func BenchmarkAblationInterfacePower(b *testing.B) {
	d := Flights(1, 20000).Project(7, 9, 11) // three small-domain group attrs
	for _, tc := range []struct {
		name string
		cap  Capability
	}{
		{"rq", RQ},
		{"sq", SQ},
		{"pq", PQ},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := d.WithCaps(tc.cap).DB(10, SumRank{})
			b.ResetTimer()
			var queries int
			for i := 0; i < b.N; i++ {
				db.ResetCounter()
				res, err := Discover(db, Options{})
				if err != nil {
					b.Fatal(err)
				}
				queries = res.Queries
			}
			b.ReportMetric(float64(queries), "queries")
		})
	}
}
