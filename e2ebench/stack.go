package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml/modelio"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/trace"
)

// campaign is the seeded TPC-W campaign every workload starts from:
// the first initRuns failed runs train the pipeline, the next
// updateRuns are folded in one Pipeline.Update each, and the remaining
// held-out runs are what the clients, sessions and replays stream.
type campaign struct {
	cfg  experiments.Config
	agg  aggregate.Config
	runs []trace.Run // failed runs, in campaign order
	held []trace.Run
}

func generateCampaign(seed uint64, sc scale) (*campaign, error) {
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	cfg.TotalVirtualSec = sc.virtualSec
	cfg.IncludeSVMs = true
	cfg.WindowSec = 30
	res, err := experiments.GenerateData(cfg)
	if err != nil {
		return nil, err
	}
	runs := res.History.FailedRuns()
	need := sc.initRuns + sc.updateRuns + 1
	if len(runs) < need {
		return nil, fmt.Errorf("campaign seed %d has %d failed runs, need %d", seed, len(runs), need)
	}
	return &campaign{
		cfg:  cfg,
		agg:  aggregate.Config{WindowSec: cfg.WindowSec, IncludeSlopes: true, IncludeIntergen: true},
		runs: runs,
		held: runs[sc.initRuns+sc.updateRuns:],
	}, nil
}

// history returns n failed runs from the from-th on as a history.
func (c *campaign) history(from, n int) *trace.History {
	return &trace.History{Runs: c.runs[from : from+n]}
}

// pipelineConfig is the paper's full roster (five methods plus the
// Lasso λ grid, both feature families) under a sliding window of
// initRuns runs, so every update evicts the oldest run.
func (c *campaign) pipelineConfig(sc scale) core.Config {
	pc := core.DefaultConfig()
	pc.Aggregation = c.agg
	pc.SelectionLambda = c.cfg.SelectionLambda
	pc.Window = core.WindowPolicy{MaxRuns: sc.initRuns}
	return pc
}

// picker chooses the deployment a workload serves from a report.
type picker func(*core.Report) (*serve.Deployment, error)

// pickBest deploys the report's best model (lowest S-MAE).
func pickBest(rep *core.Report) (*serve.Deployment, error) { return serve.FromReport(rep) }

// pickSVM2 deploys the LS-SVM trained on all parameters.
func pickSVM2(rep *core.Report) (*serve.Deployment, error) {
	res := rep.ByName("svm2", core.AllParams)
	if res == nil || res.Err != nil {
		return nil, fmt.Errorf("report has no svm2/all model")
	}
	return &serve.Deployment{Model: res.Model, Name: res.Spec.Name, Aggregation: rep.Aggregation}, nil
}

// lifecycle collects the timings and counts of training, updating and
// publishing models.
type lifecycle struct {
	train          []time.Duration // Pipeline.Run
	updates        []time.Duration // the sequence of Pipeline.Update calls, summed
	publishToServe []time.Duration
	publish        []time.Duration
	refresh        []time.Duration
	envelopeBytes  int
	incremental    int // models updated incrementally, over all updates
	refit          int // models refit, over all updates
	nUpdates       int
	report         *core.Report // report of the latest Pipeline.Run
}

// stack is a trained pipeline plus the serving side it feeds: a model
// registry over loopback HTTP and a prediction service (the node) that
// pulls its model from the registry through an HTTPModelSource.
type stack struct {
	e    *env
	camp *campaign
	pick picker

	// from is the first campaign run the pipeline trains on: 0 in the
	// set-up, a different stretch of the campaign in each later
	// lifecycle round.
	from int
	pipe *core.Pipeline
	rep  *core.Report
	dep  *serve.Deployment // last published deployment
	etag string            // its registry ETag

	regSrv  *http.Server
	regDone chan struct{} // closed when the registry server's Serve returns
	regc    *registry.Client

	src    *serve.HTTPModelSource
	svc    *serve.Service
	shards int
	sink   atomic.Pointer[sink]

	life lifecycle
}

// buildStack runs one set-up: campaign generation, Pipeline.Run on
// the initial runs, registry and node start, then the update sequence,
// each update published and served.
func buildStack(e *env, pick picker) (*stack, time.Duration, error) {
	start := time.Now()
	camp, err := generateCampaign(e.seed, e.sc)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{e: e, camp: camp, pick: pick}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	st.regSrv = &http.Server{Handler: registry.New()}
	st.regDone = make(chan struct{})
	go func() {
		defer close(st.regDone)
		_ = st.regSrv.Serve(ln)
	}()
	regURL := "http://" + ln.Addr().String()
	st.regc = registry.NewClient(regURL, nil)

	if err := st.train(); err != nil {
		st.close()
		return nil, 0, err
	}
	st.src = serve.NewHTTPModelSource(regURL, serve.HTTPSourceConfig{})
	st.svc, err = serve.New(context.Background(),
		serve.WithModelSource(st.src),
		serve.WithEstimateFunc(st.onEstimate),
		serve.WithBatchFailpoint(e.tr.onBatch))
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.shards = st.svc.Stats().Shards
	if st.src.ETag() != st.etag {
		st.close()
		return nil, 0, fmt.Errorf("node started on ETag %q, registry has %q", st.src.ETag(), st.etag)
	}
	if err := st.updates(); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// train runs a fresh pipeline on the initial runs and publishes its
// deployment.
func (st *stack) train() error {
	pipe, err := core.New(st.camp.pipelineConfig(st.e.sc))
	if err != nil {
		return err
	}
	g := st.e.tr.group()
	t0 := st.e.now()
	rep, err := pipe.Run(st.camp.history(st.from, st.e.sc.initRuns))
	t1 := st.e.now()
	st.e.attempted++
	if err != nil {
		st.e.failed++
		return fmt.Errorf("pipeline run: %w", err)
	}
	st.e.tr.add(span{name: "core.run", group: g, sess: "lifecycle", start: t0, end: t1})
	st.life.train = append(st.life.train, time.Duration(t1-t0))
	st.life.report = rep
	st.pipe, st.rep = pipe, rep
	return st.publishAndServe()
}

// updates folds the update runs in, one Pipeline.Update each, and
// publishes and serves the deployment after every update.
func (st *stack) updates() error {
	var total time.Duration
	for i := 1; i <= st.e.sc.updateRuns; i++ {
		g := st.e.tr.group()
		t0 := st.e.now()
		rep, err := st.pipe.Update(st.camp.history(st.from, st.e.sc.initRuns+i))
		t1 := st.e.now()
		st.e.attempted++
		if err != nil {
			st.e.failed++
			return fmt.Errorf("pipeline update %d: %w", i, err)
		}
		st.e.tr.add(span{name: "core.update", group: g, sess: "lifecycle", key: float64(i), start: t0, end: t1})
		total += time.Duration(t1 - t0)
		st.life.nUpdates++
		for _, r := range rep.Results {
			if r.Err != nil {
				continue
			}
			if r.Update.Incremental {
				st.life.incremental++
			} else {
				st.life.refit++
			}
		}
		st.rep = rep
		if err := st.publishAndServe(); err != nil {
			return err
		}
	}
	st.life.updates = append(st.life.updates, total)
	return nil
}

// publishAndServe encodes the picked deployment, publishes it to the
// registry over HTTP and, once a node runs, refreshes the node until
// it serves the new ETag.
func (st *stack) publishAndServe() error {
	dep, err := st.pick(st.rep)
	if err != nil {
		return err
	}
	ctx := context.Background()
	g := st.e.tr.group()
	t0 := st.e.now()
	var buf bytes.Buffer
	if err := modelio.SaveWithMeta(&buf, dep.Model, dep.Meta()); err != nil {
		return fmt.Errorf("encoding deployment: %w", err)
	}
	tEnc := st.e.now()
	res, err := st.regc.Publish(ctx, buf.Bytes())
	t1 := st.e.now()
	st.e.attempted++
	if err != nil {
		st.e.failed++
		return err
	}
	st.e.tr.add(span{name: "modelio.encode", parent: "registry.publish", group: g, sess: "lifecycle", start: t0, end: tEnc})
	st.e.tr.add(span{name: "registry.publish", group: g, sess: "lifecycle", start: t0, end: t1})
	st.life.publish = append(st.life.publish, time.Duration(t1-t0))
	st.life.envelopeBytes = buf.Len()
	st.dep, st.etag = dep, res.ETag
	if st.svc == nil {
		return nil
	}
	for i := 0; st.src.ETag() != res.ETag; i++ {
		if i == 3 {
			return fmt.Errorf("node still serves ETag %q after %d refreshes, want %q", st.src.ETag(), i, res.ETag)
		}
		st.e.attempted++
		if _, err := st.svc.Refresh(ctx); err != nil {
			st.e.failed++
			return err
		}
	}
	t2 := st.e.now()
	st.e.tr.add(span{name: "serve.refresh", group: g, sess: "lifecycle", start: t1, end: t2})
	st.life.refresh = append(st.life.refresh, time.Duration(t2-t1))
	st.life.publishToServe = append(st.life.publishToServe, time.Duration(t2-t0))
	return nil
}

// traceServed swaps the node's model for a traced copy of the model it
// serves, so PredictBatch calls show up as ml.predict spans.
func (st *stack) traceServed() error {
	dep, ok := st.src.LastGood()
	if !ok {
		return errors.New("node has no last-good deployment")
	}
	_, err := st.svc.Deploy(traceDeployment(dep, st.e.tr))
	return err
}

// onEstimate is the node's service-wide estimate consumer.
func (st *stack) onEstimate(est serve.Estimate) {
	if k := st.sink.Load(); k != nil {
		k.consume(est)
	}
}

func (st *stack) close() {
	if st.svc != nil {
		st.svc.Close()
	}
	if st.regSrv != nil {
		st.regSrv.Close()
		<-st.regDone
	}
}

// setupStacks runs the set-up sc.setups times, closing all but the
// last stack, reports setup_s (the fast quartile of the set-ups, the
// fastest of three) and returns the lifecycle figures of the set-ups.
func setupStacks(e *env, pick picker) (*stack, *lifecycle, error) {
	var times []time.Duration
	life := &lifecycle{}
	var st *stack
	for i := 0; i < e.sc.setups; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		var err error
		st, d, err = buildStack(e, pick)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d)
		life.merge(&st.life)
	}
	e.set("setup_s", fastTime(durations(times, time.Second)))
	st.checkLifecycle()
	e.logf("set-up: %d times (%v); deployment %s, %d held-out runs",
		len(times), times, st.dep.Name, len(st.camp.held))
	return st, life, nil
}

// lifecycleRound trains a fresh pipeline and runs the update sequence,
// publishing and serving after every step, and returns the time that
// took. Round r trains on its own stretch of the campaign, so a run's
// figures cover many training sets and depend less on what one seed's
// first runs happen to be.
func (st *stack) lifecycleRound(r int) (time.Duration, error) {
	span := len(st.camp.runs) - st.e.sc.initRuns - st.e.sc.updateRuns + 1
	st.from = (r * 41) % span
	t0 := time.Now()
	if err := st.train(); err != nil {
		return 0, err
	}
	if err := st.updates(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// checkLifecycle checks the incremental models against fresh fits and
// that the node serves the last published ETag.
func (st *stack) checkLifecycle() {
	st.e.set("core.lasso_parity_rel", checkParity(st.e, st.pipe, st.rep))
	if got := st.src.ETag(); got != st.etag {
		st.e.errorf("node serves ETag %q, last published %q", got, st.etag)
	}
}

// lifecycleTail runs lifecycle rounds for length and returns their
// figures: the serving workloads measure the model lifecycle this way
// after their serving phase. The models are checked after the last
// round.
func (st *stack) lifecycleTail(length time.Duration) (*lifecycle, error) {
	life := &lifecycle{}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < length; n++ {
		st.life = lifecycle{}
		if _, err := st.lifecycleRound(n + 1); err != nil {
			return nil, err
		}
		life.merge(&st.life)
	}
	st.checkLifecycle()
	return life, nil
}

func (l *lifecycle) merge(o *lifecycle) {
	l.train = append(l.train, o.train...)
	l.updates = append(l.updates, o.updates...)
	l.publishToServe = append(l.publishToServe, o.publishToServe...)
	l.publish = append(l.publish, o.publish...)
	l.refresh = append(l.refresh, o.refresh...)
	l.envelopeBytes = o.envelopeBytes
	l.incremental += o.incremental
	l.refit += o.refit
	l.nUpdates += o.nUpdates
	l.report = o.report
}

// setLifecycle reports the training and publishing figures.
func (e *env) setLifecycle(l *lifecycle) {
	e.set("train_s", fastTime(durations(l.train, time.Second)))
	e.set("update_s", fastTime(durations(l.updates, time.Second)))
	e.set("publish_to_serve_ms", fastTime(durations(l.publishToServe, time.Millisecond)))
	e.set("serve.refresh_ms", medianOf(durations(l.refresh, time.Millisecond)))
	e.set("registry.publish_ms", medianOf(durations(l.publish, time.Millisecond)))
	e.set("registry.envelope_bytes", float64(l.envelopeBytes))
	e.set("core.update_incremental", float64(l.incremental)/float64(l.nUpdates))
	e.set("core.update_refit", float64(l.refit)/float64(l.nUpdates))
	for _, m := range trainedModels {
		for _, fs := range []core.FeatureSet{core.AllParams, core.LassoParams} {
			name := "ml." + m + "." + string(fs) + ".train_s"
			if r := l.report.ByName(m, fs); r != nil && r.Err == nil {
				e.set(name, r.Report.TrainingTime.Seconds())
			} else {
				e.errorf("report has no trained %s/%s", m, fs)
			}
		}
	}
}
