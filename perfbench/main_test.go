package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"anybc/internal/dag"
	"anybc/internal/tile"
)

// tiny shrinks a workload so that a run takes a fraction of a second while
// crossing the same layers.
func tiny(w workload) workload {
	if w.factor != nil {
		f := *w.factor
		f.P, f.mt, f.b = 5, 4, 16
		w.factor = &f
	} else {
		s := *w.serve
		s.P, s.b, s.outstanding, s.mts = 5, 16, 3, []int{3, 4}
		w.serve = &s
	}
	return w
}

// benchFile is the part of BENCHMARK.json the tests check against.
type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeEveryMetricPrinted runs every workload at a tiny size, untraced
// and traced, and checks that the last line carries exactly the metrics
// BENCHMARK.json lists for the mode, each with its unit, and that the
// metric lines above it name them too.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	bf := readBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, bw := range bf.Workloads {
		w := tiny(workloads[i])
		if bw.Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the program %q", i, bw.Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			cfg := config{seed: 7, seconds: 100 * time.Millisecond, trace: trace}
			if trace {
				want = bf.PerLayer
				cfg.spans = filepath.Join(t.TempDir(), "spans.csv")
			}
			res, rec, o, err := run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := report(&out, res, rec, o); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.name, trace, got.Correct, got.Failed, got.Attempted, out.String())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.name, trace, m.Name, g, ok, m.Unit)
				}
				if !strings.Contains(out.String(), "\n"+m.Name+" ") && !strings.HasPrefix(out.String(), m.Name+" ") {
					t.Errorf("%s trace=%v: no line names %s", w.name, trace, m.Name)
				}
				// Every end-to-end metric is measured on every workload, and
				// a per-layer time wherever the workload has the layer, so
				// none of these may read 0.
				if (!trace || ((m.Unit == "s" || m.Unit == "ms") && !slices.Contains(rec.NotApplicable, m.Name))) && !(g.Value > 0) {
					t.Errorf("%s trace=%v: metric %s = %v, want > 0", w.name, trace, m.Name, g.Value)
				}
			}
			if rec.Seed != cfg.seed || rec.GOMAXPROCS < 1 || rec.GoVersion == "" || rec.Samples["wall_s"] < 1 {
				t.Errorf("%s trace=%v: incomplete record %+v", w.name, trace, rec)
			}
			if trace {
				spans, err := os.ReadFile(cfg.spans)
				if err != nil || !bytes.HasPrefix(spans, []byte("op,name,kind,parent,start_ns,end_ns\n")) || bytes.Count(spans, []byte("\n")) < 3 {
					t.Errorf("%s: spans file missing or empty (%v)", w.name, err)
				}
			}
		}
	}
}

// TestCorruptFactorRaisesFailedShare perturbs factors through the
// benchmark's kernel wrapper and checks that the run reports them: a factor
// that differs from the first repeat's fails the bit-identity check, and one
// wrong in every repeat fails the residual check.
func TestCorruptFactorRaisesFailedShare(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(op int) bool
	}{
		{"one repeat differs", func(op int) bool { return op == 1 }},
		{"every repeat wrong", func(int) bool { return true }},
	} {
		for _, name := range []string{"lu-coarse", "chol-coarse"} {
			var w workload
			for _, x := range workloads {
				if x.name == name {
					w = tiny(x)
				}
			}
			cfg := config{seed: 3, seconds: 100 * time.Millisecond,
				corrupt: func(op int, task dag.Task, out *tile.Tile) {
					if (task.Kind == dag.GETRF || task.Kind == dag.POTRF) && task.L == 0 && tc.op(op) {
						out.Data[0] += 1
					}
				}}
			res, rec, _, err := run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || rec.FailedShare <= 0 {
				t.Errorf("%s, %s: correct=%v failed=%d failed_share=%v, want the corruption reported",
					tc.name, name, res.Correct, res.Failed, rec.FailedShare)
			}
		}
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, ok := tailOf(xs); !ok || got.Percentile != 90 || got.Value != 90 || got.Samples != 100 {
		t.Errorf("tail of 1..100 = %+v, %v; want p90 = 90 over 100 samples", got, ok)
	}
	if got, ok := tailOf(xs[:20]); !ok || got.Percentile != 50 || got.Value != 10 {
		t.Errorf("tail of 1..20 = %+v, %v; want p50 = 10", got, ok)
	}
	if _, ok := tailOf(xs[:19]); ok {
		t.Error("19 samples leave no percentile with ten beyond it")
	}
}

func TestSelfTimes(t *testing.T) {
	// A 10 ns parent whose children cover [2,5] and [4,7] in union, and
	// [8,9] apart: 6 ns covered, 4 ns self.
	spans := []span{
		{name: "run", start: 0, end: 10, parent: -1},
		{name: "k", start: 2, end: 5, parent: 0},
		{name: "k", start: 4, end: 7, parent: 0},
		{name: "k", start: 8, end: 9, parent: 0},
	}
	self := selfTimes(spans, 0)
	if self["run"] != 4e-9 || self["k"] != 7e-9 {
		t.Errorf("self times %v, want run 4ns and k 7ns", self)
	}
}
