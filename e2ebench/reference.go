package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
)

// runRef is the independent reference for one run streamed into the
// service: the training-side batch aggregation (aggregate.Aggregate)
// of the run, and the deployment's per-row Regressor.Predict on each
// aggregated row. The service reaches its estimates through another
// path — LiveAggregator, projection, batched PredictBatch — so every
// estimate it delivers is checked against a second computation.
type runRef struct {
	run    *trace.Run
	closes []bool    // pushing datapoint i completes a window
	tgen   []float64 // per window: aggregated timestamp
	pred   []float64 // per window: per-row prediction
	label  []float64 // per window: RTTF label
}

// buildRef computes the reference of run under dep.
func buildRef(dep *serve.Deployment, run *trace.Run) (*runRef, error) {
	ds, err := aggregate.Aggregate(&trace.History{Runs: []trace.Run{*run}}, dep.Aggregation)
	if err != nil {
		return nil, fmt.Errorf("reference aggregation: %w", err)
	}
	X := ds.X
	if len(dep.Features) > 0 {
		p, err := ds.Project(dep.Features)
		if err != nil {
			return nil, fmt.Errorf("reference projection: %w", err)
		}
		X = p.X
	}
	ref := &runRef{run: run, tgen: ds.AggTgen, label: ds.RTTF, pred: make([]float64, len(X))}
	for i, row := range X {
		ref.pred[i] = dep.Model.Predict(row)
	}
	// The live rule: a datapoint in a later time window than its
	// predecessor completes the predecessor's window; the run's fail
	// event flushes the last one.
	w := dep.Aggregation.WindowSec
	dps := run.Datapoints
	ref.closes = make([]bool, len(dps))
	n := 1
	for i := 1; i < len(dps); i++ {
		if int(dps[i].Tgen/w) != int(dps[i-1].Tgen/w) {
			ref.closes[i] = true
			n++
		}
	}
	if n != len(ref.tgen) {
		return nil, fmt.Errorf("run with %d datapoints: live windowing closes %d windows, offline aggregation has %d", len(dps), n, len(ref.tgen))
	}
	return ref, nil
}

func buildRefs(dep *serve.Deployment, runs []trace.Run) ([]*runRef, error) {
	refs := make([]*runRef, len(runs))
	for i := range runs {
		var err error
		if refs[i], err = buildRef(dep, &runs[i]); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// smae is the S-MAE (paper §III-D, tolerance 10 % of the mean observed
// RTTF) of the reference predictions over the given runs.
func smae(refs []*runRef) (float64, error) {
	var pred, obs []float64
	for _, r := range refs {
		pred = append(pred, r.pred...)
		obs = append(obs, r.label...)
	}
	return metrics.SoftMAE(pred, obs, metrics.RelativeThreshold(obs, 0.10))
}

// expect is one window a session is owed an estimate for.
type expect struct {
	tgen, rttf float64
	due        int64 // when the window-closing datapoint was due, ns
}

// sessRec is the benchmark's view of one session: the estimates it is
// owed, in order, and what was measured about those delivered.
type sessRec struct {
	id string
	k  *sink

	mu   sync.Mutex
	q    []expect
	head int
	lat  []float64 // ns from due to delivery, since the last collect

	// Traced runs only. tw holds every windowEvery-th window of the
	// session since tracing started; twBase is the ordinal of tw[0].
	tw       []winTrace
	twBase   int
	expected int // windows owed so far (ordinal of the next one)
	got      int // estimates delivered so far

	// Ingest traced runs: the client's send-return times and the FMS
	// handler's entry times of every sampleEvery-th datapoint, paired by
	// position, and how many datapoints each side has seen.
	sendRet       []int64
	entry         []int64
	nSent, nEntry int
	// nPush counts the session's pushes while tracing (one producer).
	nPush int
	// The FMS handler's view of the session's windows while tracing:
	// the ordinal of the next window it will close, the time window of
	// the last datapoint, and whether the next datapoint starts a run.
	hOrd   int
	hWin   int
	hFirst bool
}

// owe records that the session will receive an estimate for a window
// (before the push that closes it, since delivery may race the
// push's return) and returns its ordinal.
func (r *sessRec) owe(x expect, traced bool) int {
	r.k.owed.Add(1)
	r.mu.Lock()
	r.q = append(r.q, x)
	ord := r.expected
	r.expected++
	if traced && (ord-r.twBase)%windowEvery == 0 {
		r.tw = append(r.tw, winTrace{tgen: x.tgen})
	}
	r.mu.Unlock()
	return ord
}

// pushed stamps when the push that closed window ord returned.
func (r *sessRec) pushed(ord int, at int64) {
	r.mu.Lock()
	if k := ord - r.twBase; k >= 0 && k%windowEvery == 0 && k/windowEvery < len(r.tw) {
		r.tw[k/windowEvery].pushRet = at
	}
	r.mu.Unlock()
}

// sink consumes the node's estimates and checks each one against the
// reference, in per-session order.
type sink struct {
	e         *env
	recs      map[string]*sessRec // read-only once the sink is installed
	owed      atomic.Int64        // estimates owed, over all sessions
	delivered atomic.Int64
	lastAt    atomic.Int64
	bad       atomic.Int64
	mu        sync.Mutex
	firstBad  string
}

func newSink(e *env, ids []string) *sink {
	k := &sink{e: e, recs: make(map[string]*sessRec, len(ids))}
	for _, id := range ids {
		k.recs[id] = &sessRec{id: id, k: k}
	}
	return k
}

func (k *sink) fail(format string, args ...any) {
	if k.bad.Add(1) == 1 {
		k.mu.Lock()
		k.firstBad = fmt.Sprintf(format, args...)
		k.mu.Unlock()
	}
}

func (k *sink) consume(est serve.Estimate) {
	now := k.e.now()
	r := k.recs[est.SessionID]
	if r == nil {
		k.fail("estimate for unknown session %q", est.SessionID)
		return
	}
	r.mu.Lock()
	if r.head == len(r.q) {
		r.mu.Unlock()
		k.fail("session %s: unexpected estimate at Tgen %g", r.id, est.Tgen)
		return
	}
	x := r.q[r.head]
	r.head++
	if r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
	r.lat = append(r.lat, float64(now-x.due))
	if j := r.got - r.twBase; j >= 0 && j%windowEvery == 0 && j/windowEvery < len(r.tw) {
		r.tw[j/windowEvery].delivered = now
	}
	r.got++
	r.mu.Unlock()
	if !relClose(est.Tgen, x.tgen, 1e-9) || !relClose(est.RTTF, x.rttf, 1e-9) {
		k.fail("session %s: estimate (Tgen %.12g, RTTF %.12g), reference (Tgen %.12g, RTTF %.12g)", r.id, est.Tgen, est.RTTF, x.tgen, x.rttf)
	}
	k.delivered.Add(1)
	for {
		last := k.lastAt.Load()
		if now <= last || k.lastAt.CompareAndSwap(last, now) {
			break
		}
	}
}

// drain waits until target estimates have been delivered in total and
// returns the time of the last delivery. Waiting polls; the figures use
// the delivery timestamps, not the poll.
func (k *sink) drain(target int64) (int64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for k.delivered.Load() < target {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("timed out: %d of %d estimates delivered", k.delivered.Load(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if n := k.delivered.Load(); n != target {
		return 0, fmt.Errorf("%d estimates delivered, %d owed", n, target)
	}
	return k.lastAt.Load(), nil
}

// collectLatencies returns, in ms, the latencies recorded since the
// last call.
func (k *sink) collectLatencies() []float64 {
	var out []float64
	for _, r := range k.recs {
		r.mu.Lock()
		for _, ns := range r.lat {
			out = append(out, ns/1e6)
		}
		r.lat = r.lat[:0]
		r.mu.Unlock()
	}
	return out
}

// startTrace begins recording windows; call with nothing in flight.
func (k *sink) startTrace() {
	for _, r := range k.recs {
		r.mu.Lock()
		r.tw, r.twBase = r.tw[:0], r.expected
		r.sendRet, r.entry = r.sendRet[:0], r.entry[:0]
		r.nSent, r.nEntry, r.nPush = 0, 0, 0
		r.mu.Unlock()
	}
}

func (k *sink) list() []*sessRec {
	out := make([]*sessRec, 0, len(k.recs))
	for _, r := range k.recs {
		out = append(out, r)
	}
	return out
}

// check reports whatever the sink found wrong, and that no session is
// still owed an estimate.
func (k *sink) check() {
	if n := k.bad.Load(); n > 0 {
		k.mu.Lock()
		k.e.errorf("%d estimates disagree with the reference; first: %s", n, k.firstBad)
		k.mu.Unlock()
	}
	for _, r := range k.recs {
		r.mu.Lock()
		owed := len(r.q) - r.head
		r.mu.Unlock()
		if owed != 0 {
			k.e.errorf("session %s is still owed %d estimates", r.id, owed)
		}
	}
}

// checkStats asserts the service's window accounting: every accepted
// window was predicted exactly once or shed exactly once.
func checkStats(e *env, svc *serve.Service, wantPredicted int64) {
	st := svc.Stats()
	var accepted uint64
	for _, l := range st.ShardLoads {
		accepted += l.Windows
	}
	if st.Predictions+st.ShedWindows != accepted {
		e.errorf("stats: predicted %d + shed %d != accepted %d", st.Predictions, st.ShedWindows, accepted)
	}
	if st.ShedWindows != 0 {
		e.errorf("stats: %d windows shed with no shed policy", st.ShedWindows)
	}
	if int64(st.Predictions) != wantPredicted {
		e.errorf("stats: %d predictions, the benchmark received %d estimates", st.Predictions, wantPredicted)
	}
}
