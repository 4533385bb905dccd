package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/serve"
)

// retrainRound is what one retrain round measured.
type retrainRound struct {
	work     time.Duration // training, updates, publishes and the replay
	consumed int64         // datapoints of the trained, updated and replayed runs
	allocs   uint64
	replay   round
}

// runRetrain is the retrain workload, the model lifecycle. Each round
// trains a fresh pipeline on the initial runs, folds the update runs
// in one Pipeline.Update each under the sliding window, publishes the
// best deployment to the registry after every step and has the node
// call Service.Refresh until it serves the new ETag. The round then
// checks the incremental models against fresh fits, and the node
// replays replayRuns held-out runs through one session, each estimate
// checked against the published model's per-row prediction.
func runRetrain(e *env) error {
	if e.traced {
		e.tr.on.Store(true)
	}
	st, _, err := setupStacks(e, pickBest)
	if err != nil {
		return err
	}
	defer st.close()
	// S-MAE of the set-up's deployment, trained on the campaign's first
	// runs, over the held-out runs after them.
	refs, err := buildRefs(st.dep, st.camp.held)
	if err != nil {
		return err
	}
	s, err := smae(refs)
	if err != nil {
		return err
	}
	e.set("smae_s", s)
	k := newSink(e, []string{"replay"})
	st.sink.Store(k)
	ss, err := st.svc.StartSession("replay")
	if err != nil {
		return err
	}
	rt := &retrain{e: e, st: st, k: k, ss: ss}

	e.tr.on.Store(false)
	phase := e.dur
	if e.traced {
		phase = e.dur / 2
	}
	m0 := markRuntime()
	plain, err := rt.rounds(phase)
	if err != nil {
		return err
	}
	m1 := markRuntime()
	if !e.traced {
		var sps, eps, p50, aps []float64
		for _, r := range plain {
			sps = append(sps, float64(r.replay.samples)/r.replay.dur.Seconds())
			eps = append(eps, float64(r.replay.windows)/r.replay.dur.Seconds())
			p50 = append(p50, percentile(r.replay.lat, 50))
			aps = append(aps, float64(r.allocs)/float64(r.consumed))
		}
		e.set("samples_per_s", fastRate(sps))
		e.set("estimates_per_s", fastRate(eps))
		e.set("estimate_latency_p50_ms", fastTime(p50))
		e.set("allocs_per_sample", medianOf(aps))
		e.setLifecycle(&rt.life)
		// End on the set-up's training stretch, so the live heap does
		// not depend on which stretch the last timed round drew.
		if _, err := st.lifecycleRound(0); err != nil {
			return err
		}
		st.checkLifecycle()
		e.set("live_heap_mb", liveHeapMB())
		e.logf("retrain: %d rounds", len(plain))
	} else {
		var consumed int64
		for _, r := range plain {
			consumed += r.consumed
		}
		e.setRuntime(m0, m1, consumed)
		k.startTrace()
		e.tr.on.Store(true)
		rt.life = lifecycle{}
		traced, err := rt.rounds(phase)
		if err != nil {
			return err
		}
		e.setLifecycle(&rt.life)
		work := func(rs []retrainRound) float64 {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.work.Seconds())
			}
			return medianOf(xs)
		}
		e.set("trace.overhead_pct", 100*(work(traced)/work(plain)-1))
		if err := e.probeMonitor(st.camp.held, e.sc.probeSamples); err != nil {
			return err
		}
		e.tr.on.Store(false)
		loads := st.svc.Stats().ShardLoads
		e.setServeLayer(st, k, shardSkew(nil, loads), &rt.depth)
		if err := e.setStandalone(st, refs); err != nil {
			return err
		}
	}
	k.check()
	checkStats(e, st.svc, k.delivered.Load())
	return nil
}

// retrain holds the retrain workload's state.
type retrain struct {
	e     *env
	st    *stack
	k     *sink
	ss    *serve.Session
	next  int // index of the next held-out run to replay
	n     int // lifecycle rounds run
	life  lifecycle
	depth depthGauge
}

func (rt *retrain) rounds(phase time.Duration) ([]retrainRound, error) {
	var out []retrainRound
	start := time.Now()
	for len(out) == 0 || time.Since(start) < phase {
		r, err := rt.runRound()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (rt *retrain) runRound() (retrainRound, error) {
	e, st, sc := rt.e, rt.st, rt.e.sc
	var out retrainRound
	st.life = lifecycle{}
	m0 := markRuntime()
	rt.n++
	work, err := st.lifecycleRound(rt.n)
	if err != nil {
		return out, err
	}
	m1 := markRuntime()
	st.checkLifecycle()
	rt.life.merge(&st.life)
	for _, r := range st.camp.runs[st.from : st.from+sc.initRuns+sc.updateRuns] {
		out.consumed += int64(len(r.Datapoints))
	}
	if e.tr.on.Load() {
		if err := st.traceServed(); err != nil {
			return out, err
		}
	}
	held := st.camp.held
	var runs []*runRef
	for j := 0; j < sc.replayRuns; j++ {
		ref, err := buildRef(st.dep, &held[(rt.next+j)%len(held)])
		if err != nil {
			return out, err
		}
		runs = append(runs, ref)
	}
	rt.next += sc.replayRuns

	m2 := markRuntime()
	replay, err := rt.replay(runs)
	if err != nil {
		return out, err
	}
	m3 := markRuntime()
	out.replay = replay
	out.work = work + replay.dur
	out.consumed += replay.samples
	out.allocs = (m1.mallocs - m0.mallocs) + (m3.mallocs - m2.mallocs)
	return out, nil
}

// replay pushes the runs through the node's session in a closed loop
// (each push as soon as the previous returned, EndRun after each run)
// and waits for every estimate.
func (rt *retrain) replay(runs []*runRef) (round, error) {
	e := rt.e
	traced := e.tr.on.Load()
	delivered0 := rt.k.delivered.Load()
	s := &stream{rec: rt.k.recs["replay"], ss: rt.ss, refs: runs, ref: runs[0], run: 1 % len(runs), weight: 1}
	var pushes, owed int64
	start := e.now()
	for _, r := range runs {
		for range r.run.Datapoints {
			o, ops, err := s.step(e, e.now(), traced)
			e.attempted += int64(ops)
			if err != nil {
				e.failed++
				return round{}, fmt.Errorf("replay push: %w", err)
			}
			owed += int64(o)
			pushes++
			if traced && pushes%64 == 0 {
				rt.depth.sample(rt.st)
			}
		}
	}
	end := e.now()
	last, err := rt.k.drain(delivered0 + owed)
	if err != nil {
		return round{}, err
	}
	end = max(end, last)
	return round{samples: pushes, windows: owed, dur: time.Duration(end - start), lat: rt.k.collectLatencies()}, nil
}

// checkParity asserts that the incrementally maintained LS-SVM models
// (Cholesky extend and downdate) predict like fresh fits on the
// training rows the pipeline retains, within 1e-6; a fresh fit reuses
// the incremental model's frozen preprocessing. It returns the largest
// relative gap between each incremental Lasso model and a fresh fit on
// the same rows, which is reported rather than checked: the Lasso
// solver stops on a per-sweep coefficient change of 1e-6 or after 1500
// sweeps, which leaves both fits up to several percent from the
// optimum at small λ, so no tolerance near 1e-6 holds (see README.md).
func checkParity(e *env, pipe *core.Pipeline, rep *core.Report) (lassoGap float64) {
	checks := 0
	for _, fs := range []core.FeatureSet{core.AllParams, core.LassoParams} {
		train, _, ok := pipe.Datasets(fs)
		if !ok {
			continue
		}
		for i := range rep.Results {
			res := &rep.Results[i]
			lasso := strings.HasPrefix(res.Spec.Name, "lasso-")
			if res.Features != fs || res.Err != nil || (res.Spec.Name != "svm2" && !lasso) {
				continue
			}
			fresh, err := res.Spec.New()
			if err != nil {
				e.errorf("parity %s/%s: %v", res.Spec.Name, fs, err)
				continue
			}
			if pin, ok := fresh.(ml.PreprocessPinner); ok {
				if err := pin.PinPreprocessing(res.Model); err != nil {
					e.errorf("parity %s/%s: pin: %v", res.Spec.Name, fs, err)
					continue
				}
			}
			if err := fresh.Fit(train.X, train.RTTF); err != nil {
				e.errorf("parity %s/%s: fit: %v", res.Spec.Name, fs, err)
				continue
			}
			want := ml.PredictAll(fresh, train.X)
			got := ml.PredictAll(res.Model, train.X)
			if lasso {
				for j := range want {
					lassoGap = max(lassoGap, math.Abs(got[j]-want[j])/math.Max(1, math.Abs(want[j])))
				}
				continue
			}
			checks++
			for j := range want {
				if !relClose(got[j], want[j], 1e-6) {
					e.errorf("parity %s/%s: row %d: incremental %.12g, fresh fit %.12g", res.Spec.Name, fs, j, got[j], want[j])
					break
				}
			}
		}
	}
	if checks == 0 {
		e.errorf("parity: no LS-SVM model to check")
	}
	return lassoGap
}
