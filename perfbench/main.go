// Command perfbench is the repository benchmark: it drives fixed-seed
// distributed LU and Cholesky factorizations and a factserve job mix through
// the public APIs, checks every factorization, and prints end-to-end metrics
// (--trace 0) or per-layer metrics from a traced run (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 1.43, "unit": "s"}, ...}}
//
// Run it from the repository root with perfbench/run.sh, which builds it;
// README.md in this directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	gort "runtime"
	"sort"
	"time"

	"anybc/internal/core"
	"anybc/internal/dag"
	"anybc/internal/tile"
)

// workload is one fixed input set: a factorization shape or a service mix.
type workload struct {
	name   string
	factor *factorShape
	serve  *serveShape
}

// The workloads; README.md gives the reason for each.
var workloads = []workload{
	{name: "lu-coarse", factor: &factorShape{scheme: core.G2DBC, P: 23, mt: 16, b: 256, workers: 1}},
	{name: "chol-coarse", factor: &factorShape{chol: true, scheme: core.GCRM, P: 23, mt: 16, b: 256, workers: 1}},
	{name: "lu-fine", factor: &factorShape{scheme: core.G2DBC, P: 44, mt: 48, b: 8, workers: 2}},
	{name: "serve-mixed", serve: &serveShape{P: 23, b: 32, outstanding: 8, mts: []int{8, 12, 16}}},
}

// setups is how many times a workload is set up; setup_s is the median.
// The serve workload sets up one server per round of its timed phase, at
// least this many.
const setups = 3

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// spans, when set, is the file the traced run writes its spans to.
	spans string
	// corrupt, when set, is applied to every kernel output after the kernel
	// runs. Tests use it to check that a wrong factor is caught.
	corrupt func(op int, t dag.Task, out *tile.Tile)
}

// metricDef names a reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"gflops", "GFlop/s", "higher"},
	{"efficiency", "fraction", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"mem_peak_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A metric a workload does not
// exercise is printed as 0 and listed under not_applicable in the record.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dist.build_s", "s", "lower"},
		{"dist.cost_T", "nodes", "lower"},
		{"dist.flops_imbalance", "ratio", "lower"},
		{"dag.build_s", "s", "lower"},
		{"dag.tasks", "count", "lower"},
		{"matrix.gen_share", "fraction", "lower"},
		{"matrix.gen_calls", "count", "lower"},
		{"runtime.startup_share", "fraction", "lower"},
		{"runtime.winddown_share", "fraction", "lower"},
		{"runtime.stall_s", "s", "lower"},
		{"runtime.kernel_share", "fraction", "higher"},
		{"runtime.ledger_share", "fraction", "higher"},
		{"runtime.allocs_per_op", "count", "lower"},
		{"runtime.alloc_mb_per_op", "MB", "lower"},
		{"runtime.gc_per_op", "count", "lower"},
		{"self.runtime.run_share", "fraction", "lower"},
		{"sched.ready_peak", "count", "lower"},
		{"sched.steals", "count", "lower"},
		{"tile.busy_s", "s", "lower"},
	}
	for _, k := range kinds {
		n := "tile." + k.String()
		defs = append(defs,
			metricDef{n + ".calls", "count", "lower"},
			metricDef{n + ".flops", "flop", "lower"},
			metricDef{n + ".busy_share", "fraction", "lower"},
			metricDef{n + ".gflops_1t", "GFlop/s", "higher"})
	}
	return append(defs,
		metricDef{"cluster.messages", "count", "lower"},
		metricDef{"cluster.bytes", "bytes", "lower"},
		metricDef{"cluster.recv_over_bound", "ratio", "lower"},
		metricDef{"cluster.mailbox_peak", "count", "lower"},
		metricDef{"cluster.rerequests", "count", "lower"},
		metricDef{"serve.queue_wait_share", "fraction", "lower"},
		metricDef{"serve.run_p50_ms", "ms", "lower"},
		metricDef{"serve.cache_hit_ratio", "fraction", "higher"},
		metricDef{"serve.pool_held_after", "count", "lower"},
		metricDef{"serve.goroutines_after_close", "count", "lower"},
		metricDef{"serve.heap_after_mb", "MB", "lower"},
		metricDef{"trace.overhead_share", "fraction", "lower"},
	)
}()

// outcome is what a workload run measured.
type outcome struct {
	values map[string]float64
	// attempted counts the factorizations run and checked; the others
	// count the ones that failed in each way.
	attempted, errors, incorrect, rejected, canceled int
	samples                                          map[string]int
	tails                                            map[string]tail
	notes                                            []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}, tails: map[string]tail{}}
}

func (o *outcome) failed() int { return o.errors + o.incorrect + o.rejected + o.canceled }

// setTail records the tail of xs under name, when xs has enough samples.
func (o *outcome) setTail(name string, xs []float64) {
	if t, ok := tailOf(xs); ok {
		o.tails[name] = t
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run and the machine, so that figures are compared
// only with figures from the same setting.
type record struct {
	Workload      string          `json:"workload"`
	Seed          int64           `json:"seed"`
	Seconds       float64         `json:"seconds"`
	Trace         bool            `json:"trace"`
	NumCPU        int             `json:"nproc"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	GoVersion     string          `json:"go_version"`
	MicroKernel   string          `json:"microkernel"`
	Accelerated   bool            `json:"microkernel_accelerated"`
	Samples       map[string]int  `json:"samples"`
	Tails         map[string]tail `json:"tails"`
	Attempted     int             `json:"attempted"`
	Errors        int             `json:"errors"`
	Incorrect     int             `json:"incorrect"`
	Rejected      int             `json:"rejected"`
	Canceled      int             `json:"canceled"`
	FailedShare   float64         `json:"failed_share"`
	NotApplicable []string        `json:"not_applicable,omitempty"`
}

// run executes one workload and assembles its output.
func run(w workload, cfg config) (result, record, *outcome, error) {
	var o *outcome
	var err error
	if w.factor != nil {
		o, err = runFactor(*w.factor, cfg)
	} else {
		o, err = runServe(*w.serve, cfg)
	}
	if err != nil {
		return result{}, record{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		NumCPU: gort.NumCPU(), GOMAXPROCS: gort.GOMAXPROCS(0), GoVersion: gort.Version(),
		MicroKernel: tile.MicroKernelName(), Accelerated: tile.MicroKernelAccelerated(),
		Samples: o.samples, Tails: o.tails, Attempted: o.attempted,
		Errors: o.errors, Incorrect: o.incorrect, Rejected: o.rejected, Canceled: o.canceled,
	}
	if o.attempted > 0 {
		rec.FailedShare = float64(o.failed()) / float64(o.attempted)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed() == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed(),
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			if !cfg.trace {
				return result{}, record{}, nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.name)
			}
			rec.NotApplicable = append(rec.NotApplicable, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, rec, o, nil
}

// report prints the notes, every metric as a line, the record, and the
// result JSON as the last line.
func report(out io.Writer, res result, rec record, o *outcome) error {
	for _, n := range o.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-34s %-16.6g %s\n", n, m.Value, m.Unit)
	}
	for n, t := range rec.Tails {
		fmt.Fprintf(out, "%-34s %-16.6g s  (p%g of %d samples)\n", n, t.Value, t.Percentile, t.Samples)
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "record %s\n", recJSON)
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", resJSON)
	return err
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: drives the matrices and the job mix")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (CSV)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	case *seconds <= 0:
		fail(fmt.Errorf("--seconds must be positive"))
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spans: *spans}
	res, rec, o, err := run(*w, cfg)
	if err != nil {
		fail(err)
	}
	if err := report(os.Stdout, res, rec, o); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
