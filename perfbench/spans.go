package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"anybc/internal/dag"
)

// Span names, one per layer boundary the benchmark crosses.
const (
	spanDist   = "dist.build"  // core.New
	spanDAG    = "dag.build"   // dag.NewLU / dag.NewCholesky
	spanRun    = "runtime.run" // runtime.Run
	spanGen    = "matrix.gen"  // one tile-generator call inside Run
	spanKernel = "tile.kernel" // one kernel call inside Run
	spanJob    = "serve.job"   // serve Submit until the job is terminal
)

// span is one interval at a layer boundary. Times are nanoseconds since the
// log's base; parent is the index of the enclosing span or -1; spans of one
// operation (a factorization or a job, or one setup) share op.
type span struct {
	name       string
	kind       dag.Kind // tile.kernel spans only
	start, end int64
	parent     int32
	op         int32
}

// spanLog keeps spans in memory; it is safe for concurrent use.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) ns(t time.Time) int64 { return int64(t.Sub(l.base)) }

// add records a finished span and returns its index.
func (l *spanLog) add(name string, kind dag.Kind, start, end time.Time, parent, op int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, kind: kind, start: l.ns(start), end: l.ns(end), parent: int32(parent), op: int32(op)})
	return len(l.spans) - 1
}

// open records a span whose end is set later by close, so that spans
// recorded in between can name it as their parent.
func (l *spanLog) open(name string, start time.Time, op int) int {
	return l.add(name, 0, start, start, -1, op)
}

func (l *spanLog) close(idx int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[idx].end = l.ns(end)
}

// since returns a copy of the spans recorded from index from on.
func (l *spanLog) since(from int) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans[from:]...)
}

// len returns the number of spans recorded so far.
func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// truncate drops the spans from index n on.
func (l *spanLog) truncate(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = l.spans[:n]
}

// write stores every span as CSV.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,name,kind,parent,start_ns,end_ns")
	l.mu.Lock()
	for _, s := range l.spans {
		kind := ""
		if s.name == spanKernel {
			kind = s.kind.String()
		}
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d\n", s.op, s.name, kind, s.parent, s.start, s.end)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time in seconds of the
// spans: each span's duration minus the part of it that its children cover.
// Children run concurrently (kernels on many nodes at once), so the covered
// part is the length of the union of their intervals. base is the log index
// of spans[0], which parent indices refer to.
func selfTimes(spans []span, base int) map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			p := int(s.parent) - base
			children[p] = append(children[p], [2]int64{s.start, s.end})
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		d := s.end - s.start - covered(children[i])
		self[s.name] += float64(d) / 1e9
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	start, end := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > end {
			total += end - start
			start = x[0]
		}
		if x[1] > end {
			end = x[1]
		}
	}
	return total + end - start
}
