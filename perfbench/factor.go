package main

import (
	"fmt"
	gort "runtime"
	"time"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/dist"
	"anybc/internal/lowerbound"
	"anybc/internal/matrix"
	"anybc/internal/runtime"
	"anybc/internal/tile"
)

// residualTol is the scaled residual every factorization must stay under.
// The diagonally dominant and SPD test matrices factor to ~1e-16.
const residualTol = 1e-12

// factorShape is one distributed factorization, repeated for the timed
// phase on a fresh virtual cluster each time, flat broadcast, fault-free.
type factorShape struct {
	chol              bool
	scheme            core.Scheme
	P, mt, b, workers int
}

// factorOp is one factorization's outcome.
type factorOp struct {
	wall float64
	rep  *runtime.Report
	lu   *matrix.Dense
	ch   *matrix.SymmetricLower
	err  error
}

// runFactor sets the workload up setups times, then factors the
// seed's matrix repeatedly for cfg.seconds. In a traced run every other
// factorization is traced; the untraced ones give the counters and the
// tracing overhead.
func runFactor(w factorShape, cfg config) (*outcome, error) {
	o := newOutcome()
	goroutines0 := gort.NumGoroutine()
	log := newSpanLog()

	var d dist.Distribution
	var g dag.Graph
	var refRates []float64
	var setupS, distS, dagS []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		dd, err := core.New(w.scheme, w.P, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("distribution %s for P=%d: %w", w.scheme, w.P, err)
		}
		t1 := time.Now()
		if w.chol {
			g = dag.NewCholesky(w.mt)
		} else {
			g = dag.NewLU(w.mt)
		}
		t2 := time.Now()
		refRates = append(refRates, gemmRates1Core(w.b, cfg.seed)...)
		setupS = append(setupS, time.Since(t0).Seconds())
		distS = append(distS, t1.Sub(t0).Seconds())
		dagS = append(dagS, t2.Sub(t1).Seconds())
		log.add(spanDist, 0, t0, t1, -1, k)
		log.add(spanDAG, 0, t1, t2, -1, k)
		d = dd
	}
	o.samples["setup_s"] = len(setupS)
	if !cfg.trace {
		log.truncate(0)
	}

	kern, gen := runtime.Kernel(runtime.LUKernel), runtime.GenDiagDominant(w.mt, w.b, cfg.seed)
	if w.chol {
		kern, gen = runtime.CholeskyKernel, runtime.GenSPD(w.mt, w.b, cfg.seed)
	}
	m := float64(w.mt * w.b)
	bound := lowerbound.LUPerNode(m, w.P)
	if w.chol {
		bound = lowerbound.CholeskyPerNodeRepl(m, w.P, 1)
	}

	runOp := func(op int, traced bool) factorOp {
		opGen, opKern := gen, kern
		runIdx := -1
		if traced {
			opGen = func(i, j int) *tile.Tile {
				start := time.Now()
				t := gen(i, j)
				log.add(spanGen, 0, start, time.Now(), runIdx, op)
				return t
			}
		}
		if traced || cfg.corrupt != nil {
			opKern = func(t dag.Task, out *tile.Tile, in []*tile.Tile) error {
				start := time.Now()
				err := kern(t, out, in)
				if cfg.corrupt != nil {
					cfg.corrupt(op, t, out)
				}
				if traced {
					log.add(spanKernel, t.Kind, start, time.Now(), runIdx, op)
				}
				return err
			}
		}
		var r factorOp
		var collect func(i, j int, t *tile.Tile)
		if w.chol {
			r.ch = matrix.NewSymmetricLower(w.mt, w.b)
			collect = func(i, j int, t *tile.Tile) { r.ch.Tile(i, j).CopyFrom(t) }
		} else {
			r.lu = matrix.NewDense(w.mt, w.mt, w.b)
			collect = func(i, j int, t *tile.Tile) { r.lu.Tile(i, j).CopyFrom(t) }
		}
		start := time.Now()
		if traced {
			runIdx = log.open(spanRun, start, op)
		}
		r.rep, r.err = runtime.Run(g, d, w.b, opGen, opKern, runtime.Options{Workers: w.workers}, collect)
		end := time.Now()
		if traced {
			log.close(runIdx, end)
		}
		r.wall = end.Sub(start).Seconds()
		return r
	}

	var walls, tracedWalls, untracedWalls []float64
	perOp := map[string][]float64{}
	var ref *factorOp
	matched := 0
	minOps := 1
	if cfg.trace {
		minOps = 2
	}
	phaseStart := time.Now()
	lastRef := phaseStart
	for op := 0; op < minOps || time.Since(phaseStart) < cfg.seconds; op++ {
		if time.Since(lastRef) >= time.Second {
			// Sample the reference rate through the phase too, untimed, so
			// that efficiency compares the factorizations with GEMM under
			// the same load on a shared machine.
			refRates = append(refRates, gemmRates1Core(w.b, cfg.seed)...)
			lastRef = time.Now()
		}
		traced := cfg.trace && op%2 == 1
		mark := log.len()
		// Collect the previous factorization's garbage first, so that each
		// one is timed, and peaks in memory, on its own.
		gort.GC()
		var ms0, ms1 gort.MemStats
		gort.ReadMemStats(&ms0)
		r := runOp(op, traced)
		gort.ReadMemStats(&ms1)
		o.attempted++
		if r.err != nil {
			o.errors++
			o.notes = append(o.notes, fmt.Sprintf("op %d failed: %v", op, r.err))
			continue
		}
		walls = append(walls, r.wall)
		o.notes = append(o.notes, fmt.Sprintf("op %d: %.4f s", op, r.wall))
		switch {
		case ref == nil:
			ref = &r
			matched++
		case (w.chol && sameLower(ref.ch, r.ch)) || (!w.chol && sameDense(ref.lu, r.lu)):
			matched++
		default:
			o.incorrect++
			o.notes = append(o.notes, fmt.Sprintf("op %d: factors differ from op 0's for the same seed", op))
		}
		if traced {
			tracedWalls = append(tracedWalls, r.wall)
			addTraced(perOp, log.since(mark), mark, r.rep, w.P, w.workers)
			if cfg.spans == "" {
				log.truncate(mark)
			}
			continue
		}
		untracedWalls = append(untracedWalls, r.wall)
		for k, v := range reportValues(r.rep, r.wall, bound) {
			perOp[k] = append(perOp[k], v)
		}
		perOp["runtime.allocs_per_op"] = append(perOp["runtime.allocs_per_op"], float64(ms1.Mallocs-ms0.Mallocs))
		perOp["runtime.alloc_mb_per_op"] = append(perOp["runtime.alloc_mb_per_op"], float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		perOp["runtime.gc_per_op"] = append(perOp["runtime.gc_per_op"], float64(ms1.NumGC-ms0.NumGC))
	}
	o.values["mem_peak_mb"] = maxRSSMB()

	// Correctness: op 0's factors against the seed's matrix; every other op
	// was compared bit for bit with op 0's above.
	if ref != nil {
		var res float64
		if w.chol {
			res = matrix.ResidualCholesky(matrix.NewSPD(w.mt, w.b, cfg.seed), ref.ch)
		} else {
			res = matrix.ResidualLU(matrix.NewDiagDominant(w.mt, w.b, cfg.seed), ref.lu)
		}
		o.notes = append(o.notes, fmt.Sprintf("scaled residual %.3g (tolerance %g), %d of %d ops bit-identical to op 0",
			res, residualTol, matched, len(walls)))
		if !(res <= residualTol) {
			o.incorrect += matched
		}
		ref = nil
	}

	wall := median(walls)
	flops := g.TotalFlops(w.b)
	var sumWall float64
	for _, x := range walls {
		sumWall += x
	}
	o.values["wall_s"] = wall
	o.samples["wall_s"] = len(walls)
	o.setTail("wall_tail_s", walls)
	if wall > 0 {
		o.values["gflops"] = flops / wall / 1e9
		o.values["efficiency"] = o.values["gflops"] / (float64(gort.GOMAXPROCS(0)) * median(refRates))
		o.values["jobs_per_s"] = float64(len(walls)) / sumWall
	}
	o.values["setup_s"] = median(setupS)
	if !cfg.trace {
		return o, nil
	}

	for k, xs := range perOp {
		o.values[k] = median(xs)
	}
	o.values["cluster.rerequests"] = maxOf(perOp["cluster.rerequests"])
	o.samples["traced_ops"] = len(tracedWalls)
	o.samples["untraced_ops"] = len(untracedWalls)
	if tw, uw := median(tracedWalls), median(untracedWalls); uw > 0 && tw > 0 {
		o.values["trace.overhead_share"] = tw/uw - 1
		o.notes = append(o.notes, ledgerNote(o.values))
	}
	o.values["dist.build_s"] = median(distS)
	o.values["dag.build_s"] = median(dagS)
	o.values["dag.tasks"] = float64(g.NumTasks())
	if w.chol {
		o.values["dist.cost_T"], _ = dist.TryCostCholesky(d)
	} else {
		o.values["dist.cost_T"], _ = dist.TryCostLU(d)
	}
	for k, f := range kindFlops(g, w.b) {
		o.values["tile."+k.String()+".flops"] = f
	}
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
	o.values["serve.heap_after_mb"] = heapAfterGCMB()
	o.values["serve.goroutines_after_close"] = float64(settledGoroutines(goroutines0) - goroutines0)
	return o, nil
}

// addTraced appends one traced factorization's span-derived values to perOp,
// each a share of the run's wall time: the start-up before the first kernel,
// generator time, the wind-down after the last kernel, the runtime's self
// time (the run span minus the union of its generator and kernel spans),
// and each kind's share of the in-kernel time. spans[0] is the run span, at
// log index base.
func addTraced(perOp map[string][]float64, spans []span, base int, rep *runtime.Report, P, workers int) {
	run := spans[0]
	var genSum, genBefore, kernSum int64
	var genCalls int
	first, last := run.end, run.start
	busy := map[dag.Kind]int64{}
	for _, s := range spans[1:] {
		if s.name == spanKernel {
			kernSum += s.end - s.start
			busy[s.kind] += s.end - s.start
			first, last = min(first, s.start), max(last, s.end)
		}
	}
	for _, s := range spans[1:] {
		if s.name == spanGen {
			genSum += s.end - s.start
			genCalls++
			if s.start < first {
				genBefore += s.end - s.start
			}
		}
	}
	wall := float64(run.end - run.start)
	var stall float64
	for _, s := range rep.Sched {
		stall += s.StallSeconds
	}
	add := func(k string, v float64) { perOp[k] = append(perOp[k], v) }
	startup := float64(first-run.start-genBefore) / wall
	winddown := float64(run.end-last) / wall
	gen := float64(genSum) / wall
	kernelPerWorker := float64(kernSum) / float64(P*workers) / wall
	stallShare := stall * 1e9 / float64(P) / wall
	add("runtime.startup_share", startup)
	add("runtime.winddown_share", winddown)
	add("matrix.gen_share", gen)
	add("matrix.gen_calls", float64(genCalls))
	add("runtime.ledger_share", startup+gen+kernelPerWorker+stallShare+winddown)
	add("self.runtime.run_share", selfTimes(spans, base)[spanRun]*1e9/wall)
	add("ledger.kernel_share", kernelPerWorker)
	add("ledger.stall_share", stallShare)
	for k, ns := range busy {
		add("tile."+k.String()+".busy_share", float64(ns)/float64(kernSum))
	}
}

// ledgerNote says how much of a traced factorization's wall time the
// measured parts account for, in shares of per-worker capacity.
func ledgerNote(v map[string]float64) string {
	return fmt.Sprintf("ledger (shares of traced wall): startup %.3f + gen %.3f + kernel per worker %.3f + stall %.3f + winddown %.3f = %.3f (the rest is event loop, dispatch and transport)",
		v["runtime.startup_share"], v["matrix.gen_share"], v["ledger.kernel_share"], v["ledger.stall_share"],
		v["runtime.winddown_share"], v["runtime.ledger_share"])
}

// reportValues extracts one run's per-layer counters from its report; wall
// is the run's wall time and bound the per-node received-words lower bound.
func reportValues(rep *runtime.Report, wall, bound float64) map[string]float64 {
	P := float64(len(rep.FlopsPerNode))
	v := map[string]float64{}
	var sumF, maxF float64
	for _, f := range rep.FlopsPerNode {
		sumF += f
		maxF = max(maxF, f)
	}
	v["dist.flops_imbalance"] = maxF / (sumF / P)
	var stall, busy, steals, ready float64
	for _, s := range rep.Sched {
		stall += s.StallSeconds
		ready = max(ready, float64(s.ReadyPeak))
		for _, n := range s.StealsPerWorker {
			steals += float64(n)
		}
		for _, b := range s.WorkerBusySeconds {
			busy += b
		}
		for k, n := range s.DispatchedByKind {
			v["tile."+k+".calls"] += float64(n)
		}
	}
	v["runtime.stall_s"] = stall / P
	v["tile.busy_s"] = busy
	v["runtime.kernel_share"] = busy / (P * wall)
	v["sched.ready_peak"] = ready
	v["sched.steals"] = steals
	st := rep.Stats
	v["cluster.messages"] = float64(st.TotalMessages())
	v["cluster.bytes"] = float64(st.TotalBytes())
	v["cluster.recv_over_bound"] = float64(st.TotalBytes()) / 8 / P / bound
	var mbox float64
	for _, n := range rep.MailboxPeakPerNode {
		mbox = max(mbox, float64(n))
	}
	v["cluster.mailbox_peak"] = mbox
	v["cluster.rerequests"] = float64(st.TotalRequests())
	return v
}

// settledGoroutines waits briefly for goroutines above base to exit and
// returns the count it ends with.
func settledGoroutines(base int) int {
	n := gort.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = gort.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}
