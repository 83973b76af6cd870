// Benchmarks regenerating the paper's evaluation, one testing.B target per
// figure panel and table. Parameters are reduced relative to the paper's
// plots so the suite completes quickly; cmd/p4bench runs the full ranges
// (see EXPERIMENTS.md for measured series).
package p4assert_test

import (
	"testing"

	"p4assert/internal/bench"
	"p4assert/internal/core"
	"p4assert/internal/progs"
	"p4assert/internal/rules"
)

func runSweep(b *testing.B, s bench.Sweep, x int, v bench.Variant) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p, err := bench.RunSweepPoint(s, x, v)
		if err != nil {
			b.Fatal(err)
		}
		if p.Paths == 0 {
			b.Fatal("no paths explored")
		}
		b.ReportMetric(float64(p.Instructions), "instructions")
		b.ReportMetric(float64(p.Paths), "paths")
	}
}

// ---------------------------------------------------------------- Fig. 9 --

func BenchmarkFig9a_Tables(b *testing.B) {
	for _, x := range []int{8, 10, 12} {
		b.Run(benchName("tables", x), func(b *testing.B) {
			b.ReportAllocs()
			runSweep(b, bench.SweepTables, x, bench.Original)
		})
	}
}

func BenchmarkFig9b_Assertions(b *testing.B) {
	for _, x := range []int{8, 16, 24} {
		b.Run(benchName("assertions", x), func(b *testing.B) {
			runSweep(b, bench.SweepAssertions, x, bench.Original)
		})
	}
}

func BenchmarkFig9c_Rules(b *testing.B) {
	for _, x := range []int{16, 32, 64} {
		b.Run(benchName("rules", x), func(b *testing.B) {
			runSweep(b, bench.SweepRules, x, bench.Original)
		})
	}
}

func BenchmarkFig9d_Actions(b *testing.B) {
	for _, x := range []int{30, 60, 90} {
		b.Run(benchName("actions", x), func(b *testing.B) {
			runSweep(b, bench.SweepActions, x, bench.Original)
		})
	}
}

// --------------------------------------------------------------- Fig. 10 --

func benchVariants(b *testing.B, s bench.Sweep, x int) {
	b.Helper()
	for _, v := range []bench.Variant{bench.Original, bench.Parallel, bench.O3, bench.Opt} {
		b.Run(string(v), func(b *testing.B) { runSweep(b, s, x, v) })
	}
}

func BenchmarkFig10a_Tables(b *testing.B)     { benchVariants(b, bench.SweepTables, 10) }
func BenchmarkFig10b_Assertions(b *testing.B) { benchVariants(b, bench.SweepAssertions, 16) }
func BenchmarkFig10c_Rules(b *testing.B)      { benchVariants(b, bench.SweepRules, 32) }
func BenchmarkFig10d_Actions(b *testing.B)    { benchVariants(b, bench.SweepActions, 60) }

// --------------------------------------------------------------- Table 2 --

func benchProgram(b *testing.B, name string, v bench.Variant) {
	b.Helper()
	p, err := progs.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{}
	switch v {
	case bench.O3:
		opts.O3 = true
	case bench.Opt:
		opts.Opt = true
	case bench.Parallel:
		opts.Parallel = 4
	case bench.Slice:
		opts.Slice = true
	}
	source := p.Source
	if v == bench.Constraints {
		source = p.ConstrainedSource()
	}
	if p.Rules != "" {
		rs, err := rules.Parse(p.Rules)
		if err != nil {
			b.Fatal(err)
		}
		opts.Rules = rs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.VerifySource(name+".p4", source, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Metrics.Instructions), "instructions")
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, p := range progs.Table2Programs() {
		b.Run(p.Name, func(b *testing.B) {
			b.Run("Original", func(b *testing.B) { benchProgram(b, p.Name, bench.Original) })
			for _, v := range bench.Table2Variants {
				if v == bench.Slice && p.Name == "mri" {
					continue // slicing fails on MRI's recursive parser
				}
				b.Run(string(v), func(b *testing.B) { benchProgram(b, p.Name, v) })
			}
		})
	}
}

// §5.5 combined techniques on Dapper.
func BenchmarkCombined_Dapper(b *testing.B) {
	p, err := progs.Get("dapper")
	if err != nil {
		b.Fatal(err)
	}
	src := p.ConstrainedSource()
	for i := 0; i < b.N; i++ {
		rep, err := core.VerifySource("dapper.p4", src,
			core.Options{O3: true, Opt: true, Parallel: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Metrics.Instructions), "instructions")
	}
}

// §5.1 bug finding across the corpus.
func BenchmarkBugFinding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.BugFinding()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.AllFound {
				b.Fatalf("%s: expected bugs not found", r.Program)
			}
		}
	}
}

// Table 1 expressiveness matrix.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(label string, x int) string {
	return label + "=" + itoa(x)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}
