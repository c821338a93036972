package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	gort "runtime"
	"time"

	"anybc/internal/dag"
	"anybc/internal/lowerbound"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
	"anybc/internal/serve"
)

// serveShape is a factserve job mix: a closed loop from one generator that
// keeps outstanding jobs in flight on a shared P-node cluster with tile size
// b, each job LU on G-2DBC or Cholesky on GCR&M with mt drawn from mts.
type serveShape struct {
	P, b, outstanding int
	mts               []int
}

// jobShape is one (kind, mt) of the mix. Every job of a shape factors the
// same matrix, so each result must be bit-identical to the shape's
// reference result, which is itself checked against the matrix.
type jobShape struct {
	kind, scheme string
	mt           int
	seed         int64
	graph        dag.Graph
	kindFlops    map[dag.Kind]float64
	bound        float64
	ref          *serve.Result
	matched      int
}

func (sh *jobShape) spec() serve.JobSpec {
	return serve.JobSpec{Kind: sh.kind, Scheme: sh.scheme, Mt: sh.mt, Seed: sh.seed}
}

// check compares a result with the shape's reference, adopting the first
// result as the reference.
func (sh *jobShape) check(res *serve.Result) bool {
	switch {
	case sh.ref == nil:
		sh.ref = res
	case res.Dense != nil && sh.ref.Dense != nil && sameDense(res.Dense, sh.ref.Dense):
	case res.Chol != nil && sh.ref.Chol != nil && sameLower(res.Chol, sh.ref.Chol):
	default:
		return false
	}
	sh.matched++
	return true
}

// residual checks the reference result against the shape's matrix.
func (sh *jobShape) residual(b int) float64 {
	if sh.kind == serve.KindLU {
		return matrix.ResidualLU(matrix.NewDiagDominant(sh.mt, b, sh.seed), sh.ref.Dense)
	}
	return matrix.ResidualCholesky(matrix.NewSPD(sh.mt, b, sh.seed), sh.ref.Chol)
}

// jobRec is one submitted job of the timed phase.
type jobRec struct {
	shape      *jobShape
	id         serve.JobID
	start, end time.Time
	err        error
}

// maxRound caps the length of one serve-mixed round. A server keeps every
// finished job's result, about 1.3 MB per job of the mix, so at ~170 jobs/s
// on a 2-CPU machine a 2 s round holds about 0.5 GB.
const maxRound = 2 * time.Second

// runServe runs the closed loop for cfg.seconds, split into at least
// setups rounds of at most maxRound. Each round starts a server and warms
// it with every shape of the mix, untimed, then runs its share of the loop
// and closes the server. A server keeps every finished job's result, so
// memory grows with the jobs it has run; a fresh server per round keeps that
// growth to one round's worth.
func runServe(w serveShape, cfg config) (*outcome, error) {
	o := newOutcome()
	goroutines0 := gort.NumGoroutine()
	log := newSpanLog()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	var shapes []*jobShape
	for _, kind := range []string{serve.KindLU, serve.KindCholesky} {
		for _, mt := range w.mts {
			sh := &jobShape{kind: kind, scheme: "g2dbc", mt: mt, seed: rng.Int63()}
			m := float64(mt * w.b)
			sh.bound = lowerbound.LUPerNode(m, w.P)
			if kind == serve.KindCholesky {
				sh.scheme = "gcrm"
				sh.bound = lowerbound.CholeskyPerNodeRepl(m, w.P, 1)
			}
			shapes = append(shapes, sh)
		}
	}

	var refRates []float64
	var setupS, distS, dagS []float64
	// setUp starts and warms the k-th server.
	setUp := func(k int) (*serve.Server, error) {
		t0 := time.Now()
		refRates = append(refRates, gemmRates1Core(w.b, cfg.seed)...)
		t1 := time.Now()
		for _, sh := range shapes {
			if sh.kind == serve.KindLU {
				sh.graph = dag.NewLU(sh.mt)
			} else {
				sh.graph = dag.NewCholesky(sh.mt)
			}
		}
		t2 := time.Now()
		log.add(spanDAG, 0, t1, t2, -1, k)
		dagS = append(dagS, t2.Sub(t1).Seconds())
		srv, err := serve.New(serve.Config{P: w.P, B: w.b})
		if err != nil {
			return nil, err
		}
		searched := false
		for _, sh := range shapes {
			ts := time.Now()
			id, err := srv.Submit(sh.spec())
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("warming %s mt=%d: %w", sh.kind, sh.mt, err)
			}
			if sh.scheme == "gcrm" && !searched {
				// Submit builds the distribution on a cache miss: for
				// GCR&M that is the pattern search.
				searched = true
				te := time.Now()
				distS = append(distS, te.Sub(ts).Seconds())
				log.add(spanDist, 0, ts, te, -1, k)
			}
			err = srv.Wait(ctx, id)
			var res *serve.Result
			if err == nil {
				res, _, err = srv.Result(id)
			}
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("warming %s mt=%d: %w", sh.kind, sh.mt, err)
			}
			o.attempted++
			if !sh.check(res) {
				o.incorrect++
				o.notes = append(o.notes, fmt.Sprintf("warm-up %s mt=%d on server %d differs from server 0's", sh.kind, sh.mt, k))
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for _, sh := range shapes {
			sh.kindFlops = kindFlops(sh.graph, w.b)
		}
		return srv, nil
	}

	var lat, queueShare, runMs []float64
	sums := map[string]float64{}
	var completed int
	var flopsDone float64
	var phase time.Duration
	var hits, lookups int64
	var poolHeld int64
	var allocs, allocBytes, gcs uint64
	rounds := max(setups, int(math.Ceil(cfg.seconds.Seconds()/maxRound.Seconds())))
	roundLen := cfg.seconds / time.Duration(rounds)
	for r := 0; r < rounds; r++ {
		srv, err := setUp(r)
		if err != nil {
			return nil, err
		}
		rd := closedLoop(srv, shapes, rng, w.outstanding, roundLen, o)
		phase += rd.elapsed
		allocs += rd.ms1.Mallocs - rd.ms0.Mallocs
		allocBytes += rd.ms1.TotalAlloc - rd.ms0.TotalAlloc
		gcs += uint64(rd.ms1.NumGC - rd.ms0.NumGC)
		hits += rd.st1.CacheHits - rd.st0.CacheHits
		lookups += rd.st1.CacheHits - rd.st0.CacheHits + rd.st1.CacheMisses - rd.st0.CacheMisses
		poolHeld = max(poolHeld, rd.st1.PoolHeld)
		for _, j := range rd.jobs {
			if j.err != nil {
				if errors.Is(j.err, runtime.ErrCanceled) {
					o.canceled++
				} else {
					o.errors++
				}
				o.notes = append(o.notes, fmt.Sprintf("job %d failed: %v", j.id, j.err))
				continue
			}
			res, rep, err := srv.Result(j.id)
			if err != nil {
				o.errors++
				o.notes = append(o.notes, fmt.Sprintf("job %d result: %v", j.id, err))
				continue
			}
			if !j.shape.check(res) {
				o.incorrect++
				o.notes = append(o.notes, fmt.Sprintf("job %d: factors differ from the reference for %s mt=%d", j.id, j.shape.kind, j.shape.mt))
			}
			completed++
			sec := j.end.Sub(j.start).Seconds()
			lat = append(lat, sec)
			flopsDone += j.shape.graph.TotalFlops(w.b)
			if !cfg.trace {
				continue
			}
			log.add(spanJob, 0, j.start, j.end, -1, int(j.id))
			st, err := srv.Status(j.id)
			if err != nil {
				srv.Close()
				return nil, err
			}
			queueShare = append(queueShare, st.QueueWaitSeconds/(st.QueueWaitSeconds+st.RunSeconds))
			runMs = append(runMs, 1e3*st.RunSeconds)
			for k, v := range reportValues(rep, rep.Elapsed.Seconds(), j.shape.bound) {
				if k == "cluster.rerequests" {
					sums[k] = max(sums[k], v)
				} else {
					sums[k] += v
				}
			}
			for k, f := range j.shape.kindFlops {
				sums["tile."+k.String()+".flops"] += f
			}
			sums["dag.tasks"] += float64(j.shape.graph.NumTasks())
		}
		if r == rounds-1 {
			o.values["serve.heap_after_mb"] = heapAfterGCMB()
		}
		srv.Close()
		gort.GC()
	}
	o.values["mem_peak_mb"] = maxRSSMB()

	for _, sh := range shapes {
		res := sh.residual(w.b)
		if !(res <= residualTol) {
			o.incorrect += sh.matched
		}
		o.notes = append(o.notes, fmt.Sprintf("%s mt=%d: scaled residual %.3g (tolerance %g), %d jobs bit-identical to it",
			sh.kind, sh.mt, res, residualTol, sh.matched))
	}

	o.values["wall_s"] = median(lat)
	o.samples["wall_s"] = len(lat)
	o.samples["setup_s"] = len(setupS)
	o.setTail("wall_tail_s", lat)
	if phase > 0 {
		o.values["jobs_per_s"] = float64(completed) / phase.Seconds()
		o.values["gflops"] = flopsDone / phase.Seconds() / 1e9
		o.values["efficiency"] = o.values["gflops"] / (float64(gort.GOMAXPROCS(0)) * median(refRates))
	}
	o.values["setup_s"] = median(setupS)
	o.notes = append(o.notes, fmt.Sprintf("job latency p50 %.3f ms over %d jobs in %d rounds", 1e3*median(lat), len(lat), len(setupS)))
	if !cfg.trace {
		return o, nil
	}

	if n := float64(len(runMs)); n > 0 {
		for k, v := range sums {
			if k != "cluster.rerequests" {
				v /= n
			}
			o.values[k] = v
		}
		o.values["runtime.allocs_per_op"] = float64(allocs) / n
		o.values["runtime.alloc_mb_per_op"] = float64(allocBytes) / n / (1 << 20)
		o.values["runtime.gc_per_op"] = float64(gcs) / n
	}
	o.values["serve.queue_wait_share"] = median(queueShare)
	o.values["serve.run_p50_ms"] = median(runMs)
	if lookups > 0 {
		o.values["serve.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	o.values["serve.pool_held_after"] = float64(poolHeld)
	o.values["dist.build_s"] = median(distS)
	o.values["dag.build_s"] = median(dagS)
	rates, err := kindRates(w.b, cfg.seed)
	if err != nil {
		return nil, err
	}
	for k, r := range rates {
		o.values["tile."+k.String()+".gflops_1t"] = r
	}
	if cfg.spans != "" {
		if err := log.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	o.values["serve.goroutines_after_close"] = float64(settledGoroutines(goroutines0) - goroutines0)
	return o, nil
}

// round is one server's share of the timed phase: its jobs, the time from
// the first submission to the last completion, and memory and service
// counters from before and after.
type round struct {
	jobs     []*jobRec
	elapsed  time.Duration
	ms0, ms1 gort.MemStats
	st0, st1 serve.ServiceStats
}

// closedLoop keeps outstanding jobs in flight on srv until d has passed,
// then drains them.
func closedLoop(srv *serve.Server, shapes []*jobShape, rng *rand.Rand, outstanding int, d time.Duration, o *outcome) round {
	var rd round
	ctx := context.Background()
	// Each in-flight job's waiter sends once, and at most outstanding are in
	// flight, so no send ever blocks.
	done := make(chan *jobRec, outstanding)
	submit := func() bool {
		j := &jobRec{shape: shapes[rng.Intn(len(shapes))], start: time.Now()}
		o.attempted++
		id, err := srv.Submit(j.shape.spec())
		if err != nil {
			o.rejected++
			o.notes = append(o.notes, fmt.Sprintf("submission rejected: %v", err))
			return false
		}
		j.id = id
		rd.jobs = append(rd.jobs, j)
		go func() {
			j.err = srv.Wait(ctx, id)
			j.end = time.Now()
			done <- j
		}()
		return true
	}
	gort.ReadMemStats(&rd.ms0)
	rd.st0 = srv.Stats()
	start := time.Now()
	deadline := start.Add(d)
	inflight := 0
	for i := 0; i < outstanding; i++ {
		if submit() {
			inflight++
		}
	}
	last := start
	for inflight > 0 {
		j := <-done
		inflight--
		if j.end.After(last) {
			last = j.end
		}
		if time.Now().Before(deadline) && submit() {
			inflight++
		}
	}
	rd.elapsed = last.Sub(start)
	rd.st1 = srv.Stats()
	gort.ReadMemStats(&rd.ms1)
	return rd
}
