package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ml"
	"repro/internal/serve"
)

// traceLayers are the program layers the traced run attributes self
// time to. Spans named modelio.* count towards registry, the
// registry/modelio layer.
var traceLayers = []string{"monitor", "serve", "ml", "core", "registry"}

// Sampling keeps a traced run's memory flat: per-sample spans are
// recorded for one sample in sampleEvery of each session, and window
// spans for one window in windowEvery; self time scales each span by
// its weight, the number of events it stands for.
const (
	sampleEvery = 64
	windowEvery = 8
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one window share the id session/Tgen;
// group ties a span to its children for the self-time computation.
type span struct {
	name, parent string
	group        int64
	sess         string
	key          float64
	start, end   int64
	weight       int32 // events the span stands for; 0 means 1
	// linked marks a copy of a batch's predict span attached under a
	// window it served: it shortens that window's self time but is not
	// counted a second time in its own layer.
	linked bool
}

// batchMark is a serve batch failpoint event: shard and size of a
// batch about to be predicted.
type batchMark struct {
	shard, size int
	at          int64
}

// predictMark is one PredictBatch call of the traced model.
type predictMark struct {
	n          int
	start, end int64
}

// tracer keeps spans in memory while on; the run writes them out at the
// end.
type tracer struct {
	e      *env
	on     atomic.Bool
	groups atomic.Int64

	mu       sync.Mutex
	spans    []span
	batches  []batchMark
	predicts []predictMark
}

func newTracer(e *env) *tracer { return &tracer{e: e} }

func (t *tracer) group() int64 { return t.groups.Add(1) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// onBatch is the service's batch failpoint: it records every batch's
// shard and size while tracing, and is a no-op otherwise.
func (t *tracer) onBatch(shard, size int) {
	if !t.on.Load() {
		return
	}
	at := t.e.now()
	t.mu.Lock()
	t.batches = append(t.batches, batchMark{shard, size, at})
	t.mu.Unlock()
}

// batchSizes returns the sizes of the batches recorded so far.
func (t *tracer) batchSizes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.batches))
	for i, b := range t.batches {
		out[i] = float64(b.size)
	}
	return out
}

// tracedModel wraps the served model so every PredictBatch call is
// timed from outside the model.
type tracedModel struct {
	ml.Regressor
	t *tracer
}

func (m tracedModel) PredictBatch(X [][]float64, out []float64) {
	start := m.t.e.now()
	if bp, ok := m.Regressor.(ml.BatchPredictor); ok {
		bp.PredictBatch(X, out)
	} else {
		for i, row := range X {
			out[i] = m.Regressor.Predict(row)
		}
	}
	end := m.t.e.now()
	m.t.mu.Lock()
	m.t.predicts = append(m.t.predicts, predictMark{len(X), start, end})
	m.t.mu.Unlock()
}

// traceDeployment is dep with its model wrapped in tracedModel.
func traceDeployment(dep *serve.Deployment, t *tracer) *serve.Deployment {
	cp := *dep
	cp.Model = tracedModel{dep.Model, t}
	return &cp
}

// batch is one predicted batch: the failpoint mark paired with the
// PredictBatch call that followed it on the same shard.
type batch struct {
	at         int64
	start, end int64
}

// pairBatches pairs each failpoint mark with the first unclaimed
// PredictBatch call of the same size that started after it, and
// returns the batches of each shard in time order.
func (t *tracer) pairBatches() map[int][]batch {
	t.mu.Lock()
	defer t.mu.Unlock()
	marks := append([]batchMark(nil), t.batches...)
	preds := append([]predictMark(nil), t.predicts...)
	sort.Slice(marks, func(i, j int) bool { return marks[i].at < marks[j].at })
	sort.Slice(preds, func(i, j int) bool { return preds[i].start < preds[j].start })
	used := make([]bool, len(preds))
	out := map[int][]batch{}
	lo := 0
	for _, m := range marks {
		for lo < len(preds) && used[lo] {
			lo++
		}
		for j := lo; j < len(preds) && j < lo+64; j++ {
			if !used[j] && preds[j].n == m.size && preds[j].start >= m.at {
				used[j] = true
				out[m.shard] = append(out[m.shard], batch{m.at, preds[j].start, preds[j].end})
				break
			}
		}
	}
	for _, p := range preds {
		t.spans = append(t.spans, span{name: "ml.predict", parent: "serve.batch", sess: "batch", key: float64(p.n), start: p.start, end: p.end})
	}
	return out
}

// winTrace is one window of a session as the trace sees it: when the
// push that closed it returned and when its estimate was delivered.
type winTrace struct {
	tgen               float64
	pushRet, delivered int64
}

// linkWindows turns the recorded windows into serve.window_wait spans
// (closing push returned → estimate delivered), each with the predict
// span of the batch that carried it as a linked child, and returns the
// wait durations in µs.
func (t *tracer) linkWindows(recs []*sessRec, shards int) []float64 {
	batches := t.pairBatches()
	var waits []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		shard := serve.HashPlacer{}.Place(r.id, shards)
		bs := batches[shard]
		for _, w := range r.tw {
			if w.delivered == 0 || w.pushRet == 0 {
				continue
			}
			start := w.pushRet
			if start > w.delivered {
				start = w.delivered // delivered before Push returned
			}
			g := t.groups.Add(1)
			t.spans = append(t.spans, span{name: "serve.window_wait", group: g, sess: r.id, key: w.tgen, start: start, end: w.delivered, weight: windowEvery})
			waits = append(waits, float64(w.delivered-start)/1e3)
			k := sort.Search(len(bs), func(i int) bool { return bs[i].at > w.delivered }) - 1
			if k >= 0 {
				t.spans = append(t.spans, span{name: "ml.predict", parent: "serve.window_wait", group: g, sess: r.id, key: w.tgen, start: bs[k].start, end: bs[k].end, linked: true})
			}
		}
	}
	return waits
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	if l == "modelio" {
		return "registry"
	}
	return l
}

// selfPct reports each layer's self time — span duration minus the
// part of it its child spans cover — as a share of all layers' self
// time in the traced run.
func (t *tracer) selfPct() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]int{}
	for i, s := range t.spans {
		if s.group != 0 && s.parent != "" {
			kids[s.group] = append(kids[s.group], i)
		}
	}
	self := map[string]float64{}
	var total float64
	for _, s := range t.spans {
		if s.linked {
			continue
		}
		d := float64(s.end - s.start)
		if s.group != 0 {
			var iv [][2]int64
			for _, k := range kids[s.group] {
				c := t.spans[k]
				if c.parent != s.name {
					continue
				}
				a, b := max(c.start, s.start), min(c.end, s.end)
				if b > a {
					iv = append(iv, [2]int64{a, b})
				}
			}
			d -= float64(unionLen(iv))
		}
		if s.weight > 0 {
			d *= float64(s.weight)
		}
		self[layerOf(s.name)] += d
		total += d
	}
	out := map[string]float64{}
	for _, l := range traceLayers {
		if total > 0 {
			out[l] = 100 * self[l] / total
		}
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			n += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			n += x[1] - end
			end = x[1]
		}
	}
	return n
}

// spanDurations returns the durations (µs) of the spans with a name.
func (t *tracer) spanDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && !s.linked {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		rec := struct {
			Name   string `json:"name"`
			Parent string `json:"parent,omitempty"`
			ID     string `json:"id"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.name, s.parent, fmt.Sprintf("%s/%g", s.sess, s.key), s.start, s.end}
		if err := enc.Encode(&rec); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
