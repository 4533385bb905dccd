package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/featsel"
	"repro/internal/ml"
	"repro/internal/ml/modelio"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// depthGauge keeps the largest queue depth sampled from Stats during a
// traced phase.
type depthGauge struct{ max atomic.Int64 }

func (g *depthGauge) sample(st *stack) {
	d := int64(st.svc.Stats().QueueDepth)
	for {
		m := g.max.Load()
		if d <= m || g.max.CompareAndSwap(m, d) {
			return
		}
	}
}

// setServeLayer reports the serve layer of a traced phase: push time,
// window wait, batch sizes, queue depth and shard skew.
func (e *env) setServeLayer(st *stack, k *sink, skew float64, depth *depthGauge) {
	e.set("serve.push_us", percentile(e.tr.spanDurations("serve.push"), 50))
	waits := e.tr.linkWindows(k.list(), st.shards)
	e.set("serve.window_wait_p50_us", percentile(waits, 50))
	e.set("serve.window_wait_p99_us", percentile(waits, 99))
	sizes := e.tr.batchSizes()
	var sum, mx float64
	for _, s := range sizes {
		sum += s
		mx = max(mx, s)
	}
	if len(sizes) > 0 {
		e.set("serve.batch_size_mean", sum/float64(len(sizes)))
	}
	e.set("serve.batch_size_max", mx)
	e.set("serve.queue_depth_max", float64(depth.max.Load()))
	e.set("serve.shard_skew", skew)
	for l, v := range e.tr.selfPct() {
		e.set(l+".self_pct", v)
	}
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return time.Duration(medianOf(durations(ds, 1))), nil
}

// setStandalone times the layers the workload's path does not expose
// from outside, each called on its own on the workload's data:
// LiveAggregator.Push, the deployed model's PredictBatch, the modelio
// envelope codec, training-side aggregation and the Lasso path.
func (e *env) setStandalone(st *stack, refs []*runRef) error {
	agg := st.camp.agg
	var pushes int
	d, err := timeMedian(3, func() error {
		la, err := aggregate.NewLiveAggregator(agg)
		if err != nil {
			return err
		}
		pushes = 0
		for _, r := range refs {
			for _, dp := range r.run.Datapoints {
				la.Push(dp)
				pushes++
			}
			la.Flush()
			la.Reset()
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.set("aggregate.push_us", float64(d)/1e3/float64(pushes))

	var rows [][]float64
	for _, r := range refs {
		ds, err := aggregate.Aggregate(&trace.History{Runs: []trace.Run{*r.run}}, agg)
		if err != nil {
			return err
		}
		if len(st.dep.Features) > 0 {
			if ds, err = ds.Project(st.dep.Features); err != nil {
				return err
			}
		}
		rows = append(rows, ds.X...)
	}
	d, err = timeMedian(5, func() error { ml.PredictAll(st.dep.Model, rows); return nil })
	if err != nil {
		return err
	}
	e.set("ml.predict_us_per_row", float64(d)/1e3/float64(len(rows)))

	var env []byte
	d, err = timeMedian(5, func() error {
		var buf bytes.Buffer
		err := modelio.SaveWithMeta(&buf, st.dep.Model, st.dep.Meta())
		env = buf.Bytes()
		return err
	})
	if err != nil {
		return err
	}
	e.set("modelio.encode_ms", float64(d)/1e6)
	d, err = timeMedian(5, func() error {
		_, _, err := modelio.LoadWithMeta(bytes.NewReader(env))
		return err
	})
	if err != nil {
		return err
	}
	e.set("modelio.decode_ms", float64(d)/1e6)

	hist := st.camp.history(0, e.sc.initRuns)
	var ds *aggregate.Dataset
	d, err = timeMedian(3, func() error {
		var err error
		ds, err = aggregate.Aggregate(hist, agg)
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.aggregate_s", d.Seconds())
	cfg := st.camp.pipelineConfig(e.sc)
	train, _, err := aggregate.Split(aggregate.DropUnlabeled(ds), cfg.SplitMode, cfg.ValidationFrac, cfg.SplitSeed)
	if err != nil {
		return err
	}
	d, err = timeMedian(3, func() error {
		_, err := featsel.Path(train, cfg.FeatureLambdas)
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.lasso_path_s", d.Seconds())
	return nil
}

// probeHandler counts what reached a bare FMS and when.
type probeHandler struct {
	e       *env
	handled atomic.Int64
	entry   []int64 // one client, so one connection goroutine appends
}

func (h *probeHandler) HandleDatapoint(id string, d trace.Datapoint) {
	h.entry = append(h.entry, h.e.now())
	h.handled.Add(1)
}

func (h *probeHandler) HandleFail(string, float64) {}

// probeMonitor measures the monitor layer standalone, for the
// workloads whose path has no TCP ingest: one FMC client sends n of
// the workload's datapoints, a fail event after each run, to an FMS
// with no service behind it.
func (e *env) probeMonitor(runs []trace.Run, n int) error {
	h := &probeHandler{e: e}
	srv, err := monitor.NewServer("127.0.0.1:0", monitor.WithStream(h))
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := monitor.Dial(srv.Addr(), "probe")
	if err != nil {
		return err
	}
	var sends []float64
	var sendRet []int64
	w0, b0, err := procIO()
	if err != nil {
		return fmt.Errorf("reading write counters: %w", err)
	}
	for ri := 0; len(sends) < n; ri++ {
		run := &runs[ri%len(runs)]
		for i := range run.Datapoints {
			if len(sends) == n {
				break
			}
			t0 := e.now()
			if err := cli.SendDatapoint(&run.Datapoints[i]); err != nil {
				return err
			}
			t1 := e.now()
			e.tr.add(span{name: "monitor.send", sess: "probe", key: run.Datapoints[i].Tgen, start: t0, end: t1})
			sends = append(sends, float64(t1-t0)/1e3)
			sendRet = append(sendRet, t1)
		}
		if err := cli.SendFail(run.FailTime); err != nil {
			return err
		}
	}
	w1, b1, err := procIO()
	if err != nil {
		return fmt.Errorf("reading write counters: %w", err)
	}
	if err := cli.Close(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for h.handled.Load() < int64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("monitor probe: %d of %d samples arrived", h.handled.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	var lags []float64
	for i := range sendRet {
		lags = append(lags, float64(h.entry[i]-sendRet[i])/1e3)
		e.tr.add(span{name: "monitor.arrival", sess: "probe", start: min(sendRet[i], h.entry[i]), end: h.entry[i]})
	}
	e.set("monitor.send_us", percentile(sends, 50))
	e.set("monitor.arrival_lag_us", percentile(lags, 50))
	e.set("monitor.write_syscalls_per_sample", float64(w1-w0)/float64(n))
	e.set("monitor.wire_bytes_per_sample", float64(b1-b0)/float64(n))
	return nil
}
