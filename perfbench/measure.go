package main

import (
	"math"
	gort "runtime"
	"sort"
	"syscall"
	"time"

	"anybc/internal/dag"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
	"anybc/internal/tile"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest of xs (0 for an empty slice).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// tailPercentiles are the candidates for a *_tail_* metric, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail is the highest percentile of a sample that still has at least ten
// samples beyond it, by the nearest-rank rule.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

// tailOf returns the tail of xs, or ok=false when xs has too few samples for
// even the median to have ten beyond it.
func tailOf(xs []float64) (t tail, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return tail{Percentile: p, Value: s[rank-1], Samples: n}, true
		}
	}
	return tail{}, false
}

// maxRSSMB is the process's peak resident set so far (getrusage maxrss, which
// Linux reports in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapAfterGCMB collects garbage and returns the heap still in use.
func heapAfterGCMB() float64 {
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// batchRates measures a kernel's rate in GFlop/s over batches: each batch
// calls until it has spent batchTime inside call, and yields the flops done
// per second spent there. restore, when non-nil, puts the kernel's output
// back before every call and is not timed.
func batchRates(batches int, flopsPerCall float64, restore, call func()) []float64 {
	const batchTime = 10 * time.Millisecond
	rates := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		var in time.Duration
		calls := 0
		for ; in < batchTime; calls++ {
			if restore != nil {
				restore()
			}
			start := time.Now()
			call()
			in += time.Since(start)
		}
		rates = append(rates, float64(calls)*flopsPerCall/in.Seconds()/1e9)
	}
	return rates
}

// gemmRates1Core measures the single-core tile.Gemm rate at tile size b, the
// reference behind the efficiency metric, as ten batch rates. The rate on a
// shared machine drifts by tens of percent over tenths of a second, so the
// caller pools batches from several times and takes their median. Gemm fans
// large tiles out across GOMAXPROCS, so the measurement pins GOMAXPROCS to 1
// while it runs; the caller must not have other work running.
func gemmRates1Core(b int, seed int64) []float64 {
	prev := gort.GOMAXPROCS(1)
	defer gort.GOMAXPROCS(prev)
	gen := runtime.GenDiagDominant(2, b, seed)
	a, bb, c := gen(1, 0), gen(0, 1), gen(1, 1)
	return batchRates(10, tile.FlopsGemm(b), nil, func() {
		tile.Gemm(tile.NoTrans, tile.NoTrans, -1, a, bb, 1, c)
	})
}

// kindProbe is one task kind's kernel call on representative tiles.
type kindProbe struct {
	kind   dag.Kind
	flops  float64
	kern   runtime.Kernel
	task   dag.Task
	src    *tile.Tile // pristine output tile, restored before each call
	inputs []*tile.Tile
}

// kindProbes builds a probe for every LU and Cholesky task kind at tile size
// b, with inputs from the test-matrix generators: diagonal tiles of the
// diagonally dominant and SPD matrices, their factors, and off-diagonal
// tiles.
func kindProbes(b int, seed int64) []kindProbe {
	lu, chol := dag.NewLU(3), dag.NewCholesky(3)
	genA, genS := runtime.GenDiagDominant(3, b, seed), runtime.GenSPD(3, b, seed)
	a00, a10, a01, a11 := genA(0, 0), genA(1, 0), genA(0, 1), genA(1, 1)
	s00, s10, s11 := genS(0, 0), genS(1, 0), genS(1, 1)
	luf := a00.Clone()
	_ = tile.Getrf(luf) // diagonally dominant: cannot fail
	l00 := s00.Clone()
	_ = tile.Potrf(l00) // SPD: cannot fail
	probe := func(g dag.Graph, kern runtime.Kernel, t dag.Task, src *tile.Tile, in ...*tile.Tile) kindProbe {
		return kindProbe{kind: t.Kind, flops: g.Flops(t, b), kern: kern, task: t, src: src, inputs: in}
	}
	return []kindProbe{
		probe(lu, runtime.LUKernel, dag.Task{Kind: dag.GETRF}, a00),
		probe(lu, runtime.LUKernel, dag.Task{Kind: dag.TRSMCol, I: 1}, a10, luf),
		probe(lu, runtime.LUKernel, dag.Task{Kind: dag.TRSMRow, I: 1}, a01, luf),
		probe(lu, runtime.LUKernel, dag.Task{Kind: dag.GEMMLU, I: 1, J: 1}, a11, a10, a01),
		probe(chol, runtime.CholeskyKernel, dag.Task{Kind: dag.POTRF}, s00),
		probe(chol, runtime.CholeskyKernel, dag.Task{Kind: dag.TRSMChol, I: 1}, s10, l00),
		probe(chol, runtime.CholeskyKernel, dag.Task{Kind: dag.SYRK, I: 1}, s11, s10),
		probe(chol, runtime.CholeskyKernel, dag.Task{Kind: dag.GEMMChol, I: 2, J: 1}, s10, s10, s10),
	}
}

// kinds lists every task kind the benchmark reports, in probe order.
var kinds = []dag.Kind{dag.GETRF, dag.TRSMCol, dag.TRSMRow, dag.GEMMLU, dag.POTRF, dag.TRSMChol, dag.SYRK, dag.GEMMChol}

// kindRates measures the single-caller rate of every task kind at tile size
// b, calling each kernel from one goroutine at the process's GOMAXPROCS.
func kindRates(b int, seed int64) (map[dag.Kind]float64, error) {
	rates := make(map[dag.Kind]float64, len(kinds))
	for _, p := range kindProbes(b, seed) {
		out := p.src.Clone()
		var err error
		rates[p.kind] = median(batchRates(15, p.flops, func() { out.CopyFrom(p.src) }, func() {
			if e := p.kern(p.task, out, p.inputs); e != nil && err == nil {
				err = e
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	return rates, nil
}

// kindFlops sums the flops of every task of g by kind at tile size b.
func kindFlops(g dag.Graph, b int) map[dag.Kind]float64 {
	f := make(map[dag.Kind]float64)
	dag.ForEachTask(g, func(t dag.Task) { f[t.Kind] += g.Flops(t, b) })
	return f
}

// sameDense reports whether two LU factors are bit-identical.
func sameDense(a, b *matrix.Dense) bool {
	for i := 0; i < a.MT; i++ {
		for j := 0; j < a.NT; j++ {
			if !sameTile(a.Tile(i, j), b.Tile(i, j)) {
				return false
			}
		}
	}
	return true
}

// sameLower reports whether two Cholesky factors are bit-identical.
func sameLower(a, b *matrix.SymmetricLower) bool {
	for i := 0; i < a.MT; i++ {
		for j := 0; j <= i; j++ {
			if !sameTile(a.Tile(i, j), b.Tile(i, j)) {
				return false
			}
		}
	}
	return true
}

func sameTile(a, b *tile.Tile) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for k, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[k]) {
			return false
		}
	}
	return true
}
