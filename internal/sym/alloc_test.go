package sym

import (
	"runtime"
	"testing"

	"p4assert/internal/model"
	"p4assert/internal/whippersnapper"
)

// allocTables is the Whippersnapper pipeline depth of the allocation guard
// and BenchmarkExecute: 1,536 paths, every one of them from table forks.
const allocTables = 10

// maxBytesPerFork bounds what Execute allocates per fork on the
// allocTables pipeline: twice the measured cost of copy-on-first-write
// state. Copying the store and the per-function and per-hint maps at every
// fork costs several times more and fails it.
const maxBytesPerFork = 3100

func tablesModel(tb testing.TB, tables int) *model.Program {
	tb.Helper()
	return buildModel(tb, "ws", whippersnapper.Generate(whippersnapper.Default(tables)), nil)
}

// bytesPerFork runs Execute once and returns the heap bytes it allocated
// per fork.
func bytesPerFork(t *testing.T, m *model.Program) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Execute(m, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Forks == 0 {
		t.Fatal("no forks")
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Metrics.Forks)
}

func TestExecuteBytesPerFork(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	m := tablesModel(t, allocTables)
	// The least of three runs discards allocations of other goroutines.
	least := bytesPerFork(t, m)
	for i := 0; i < 2; i++ {
		if b := bytesPerFork(t, m); b < least {
			least = b
		}
	}
	t.Logf("%.0f bytes per fork", least)
	if least > maxBytesPerFork {
		t.Fatalf("Execute allocates %.0f bytes per fork, bound %d", least, maxBytesPerFork)
	}
}

func BenchmarkExecute(b *testing.B) {
	m := tablesModel(b, allocTables)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.Forks), "forks/op")
	}
}
