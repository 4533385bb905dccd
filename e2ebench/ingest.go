package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/trace"
)

// ingestHandler sits between the FMS and the prediction service, as
// the path `fms -serve-model` runs: it forwards every event and counts
// the datapoints that reached the service, which is how a round knows
// all its samples arrived without closing the server early (Close
// discards bytes still unread in the socket).
type ingestHandler struct {
	e       *env
	svc     *serve.Service
	k       *sink
	window  float64
	handled atomic.Int64
	lastAt  atomic.Int64
}

func (h *ingestHandler) HandleDatapoint(id string, d trace.Datapoint) {
	if !h.e.tr.on.Load() {
		h.svc.HandleDatapoint(id, d)
		h.handled.Add(1)
		h.lastAt.Store(h.e.now())
		return
	}
	r := h.k.recs[id]
	t0 := h.e.now()
	h.svc.HandleDatapoint(id, d)
	t1 := h.e.now()
	if r.nEntry%sampleEvery == 0 {
		r.entry = append(r.entry, t0)
		h.e.tr.add(span{name: "serve.push", sess: id, key: d.Tgen, start: t0, end: t1, weight: sampleEvery})
	}
	r.nEntry++
	// Follow the live windowing rule to know which push closed which
	// window (the FMS calls are sequential per client).
	w := int(d.Tgen / h.window)
	if r.hFirst {
		r.hFirst = false
	} else if w != r.hWin {
		r.pushed(r.hOrd, t1)
		r.hOrd++
	}
	r.hWin = w
	h.handled.Add(1)
	h.lastAt.Store(t1)
}

func (h *ingestHandler) HandleFail(id string, tgen float64) {
	h.svc.HandleFail(id, tgen)
	if h.e.tr.on.Load() {
		r := h.k.recs[id]
		r.pushed(r.hOrd, h.e.now())
		r.hOrd++
		r.hFirst = true
	}
}

// runIngest is the ingest workload: nproc FMC clients replay held-out
// runs, a fail event after each, over loopback TCP into a
// monitor.Server that streams into the node. Each round opens a fresh
// FMS and fresh connections, has every client send clientRuns whole
// runs in a closed loop (the next sample goes as soon as the previous
// send returns), and ends when every sample reached the service and
// every window's estimate was delivered.
func runIngest(e *env) error {
	if e.traced {
		e.tr.on.Store(true)
	}
	st, life, err := setupStacks(e, pickBest)
	if err != nil {
		return err
	}
	defer st.close()
	refs, err := buildRefs(st.dep, st.camp.held)
	if err != nil {
		return err
	}
	s, err := smae(refs)
	if err != nil {
		return err
	}
	e.set("smae_s", s)

	nc := e.nproc
	ids := make([]string, nc)
	for c := range ids {
		ids[c] = fmt.Sprintf("fmc-%d", c)
	}
	k := newSink(e, ids)
	st.sink.Store(k)
	h := &ingestHandler{e: e, svc: st.svc, k: k, window: st.camp.agg.WindowSec}
	in := &ingest{e: e, st: st, refs: refs, ids: ids, k: k, h: h}
	defer in.closeServer()

	e.tr.on.Store(false)
	phase := e.dur * 2 / 3
	if e.traced {
		phase = e.dur / 2
	}
	io0w, io0b, ioErr0 := procIO()
	m0 := markRuntime()
	plain, err := in.rounds(phase)
	if err != nil {
		return err
	}
	m1 := markRuntime()
	io1w, io1b, ioErr1 := procIO()
	var sent int64
	for _, r := range plain {
		sent += r.samples
	}
	if !e.traced {
		var eps, p50, apS []float64
		for _, r := range plain {
			eps = append(eps, float64(r.windows)/r.dur.Seconds())
			p50 = append(p50, percentile(r.lat, 50))
			apS = append(apS, float64(r.allocs)/float64(r.samples))
		}
		e.set("samples_per_s", fastRate(sampleRates(plain)))
		e.set("estimates_per_s", fastRate(eps))
		e.set("estimate_latency_p50_ms", fastTime(p50))
		e.set("allocs_per_sample", medianOf(apS))
		e.set("live_heap_mb", liveHeapMB())
		e.logf("ingest: %d rounds, %d samples", len(plain), sent)
		tail, err := st.lifecycleTail(e.dur / 3)
		if err != nil {
			return err
		}
		e.setLifecycle(tail)
	} else {
		e.setLifecycle(life)
		e.setRuntime(m0, m1, sent)
		if err := errors.Join(ioErr0, ioErr1); err != nil {
			return fmt.Errorf("reading write counters: %w", err)
		}
		e.set("monitor.write_syscalls_per_sample", float64(io1w-io0w)/float64(sent))
		e.set("monitor.wire_bytes_per_sample", float64(io1b-io0b)/float64(sent))
		k.startTrace()
		for _, r := range k.recs {
			r.hFirst, r.hOrd = true, r.expected
		}
		e.tr.on.Store(true)
		if err := st.traceServed(); err != nil {
			return err
		}
		traced, err := in.rounds(phase)
		if err != nil {
			return err
		}
		e.tr.on.Store(false)
		e.set("trace.overhead_pct", overheadPct(plain, traced))
		var lags []float64
		e.tr.on.Store(true)
		for _, r := range k.recs {
			for i := range r.entry {
				if i < len(r.sendRet) {
					lags = append(lags, float64(r.entry[i]-r.sendRet[i])/1e3)
					a, b := min(r.sendRet[i], r.entry[i]), r.entry[i]
					e.tr.add(span{name: "monitor.arrival", sess: r.id, start: a, end: b, weight: sampleEvery})
				}
			}
		}
		e.tr.on.Store(false)
		e.set("monitor.arrival_lag_us", percentile(lags, 50))
		e.set("monitor.send_us", percentile(e.tr.spanDurations("monitor.send"), 50))
		e.setServeLayer(st, k, shardSkew(in.loads0, in.loads1), &in.depth)
		if err := e.setStandalone(st, refs); err != nil {
			return err
		}
	}
	k.check()
	checkStats(e, st.svc, k.delivered.Load())
	return nil
}

// ingest holds the state of the ingest rounds.
type ingest struct {
	e    *env
	st   *stack
	refs []*runRef
	ids  []string
	k    *sink
	h    *ingestHandler
	srv  *monitor.Server
	next int // schedule position: index of the next held-out run to send

	depth          depthGauge
	loads0, loads1 []serve.ShardLoad // shard loads around the last phase
}

func (in *ingest) closeServer() {
	if in.srv != nil {
		in.srv.Close()
		in.srv = nil
	}
}

// rounds runs whole rounds until the phase length has passed.
func (in *ingest) rounds(phase time.Duration) ([]round, error) {
	in.loads0 = in.st.svc.Stats().ShardLoads
	var out []round
	start := time.Now()
	for len(out) == 0 || time.Since(start) < phase {
		r, err := in.runRound()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	in.loads1 = in.st.svc.Stats().ShardLoads
	return out, nil
}

func (in *ingest) runRound() (round, error) {
	e := in.e
	// The previous round's FMS is closed only now: every sample it was
	// sent has been handled, and it stays live until here so the live
	// heap is measured with a server in place.
	in.closeServer()
	srv, err := monitor.NewServer("127.0.0.1:0", monitor.WithStream(in.h))
	if err != nil {
		return round{}, err
	}
	in.srv = srv
	clients := make([]*monitor.Client, len(in.ids))
	for c, id := range in.ids {
		if clients[c], err = monitor.Dial(srv.Addr(), id); err != nil {
			return round{}, err
		}
	}
	handled0 := in.h.handled.Load()
	delivered0 := in.k.delivered.Load()
	runsEach := e.sc.clientRuns
	first := in.next
	in.next += len(clients) * runsEach
	traced := e.tr.on.Load()

	m0 := markRuntime()
	start := e.now()
	type tally struct{ sent, owed, attempted, failed int64 }
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, r, t := clients[c], in.k.recs[in.ids[c]], &tallies[c]
			for j := 0; j < runsEach; j++ {
				ref := in.refs[(first+c*runsEach+j)%len(in.refs)]
				win := 0
				for i := range ref.run.Datapoints {
					d := &ref.run.Datapoints[i]
					t0 := e.now()
					if ref.closes[i] {
						r.owe(expect{ref.tgen[win], ref.pred[win], t0}, traced)
						win++
						t.owed++
					}
					err := cli.SendDatapoint(d)
					t1 := e.now()
					t.attempted++
					if err != nil {
						t.failed++
						return
					}
					t.sent++
					if traced {
						if r.nSent%sampleEvery == 0 {
							e.tr.add(span{name: "monitor.send", sess: r.id, key: d.Tgen, start: t0, end: t1, weight: sampleEvery})
							r.sendRet = append(r.sendRet, t1)
							in.depth.sample(in.st)
						}
						r.nSent++
					}
				}
				r.owe(expect{ref.tgen[win], ref.pred[win], e.now()}, traced)
				t.owed++
				t.attempted++
				if err := cli.SendFail(ref.run.FailTime); err != nil {
					t.failed++
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, cli := range clients {
		cli.Close()
	}
	var sent, owed int64
	for _, t := range tallies {
		sent += t.sent
		owed += t.owed
		e.attempted += t.attempted
		e.failed += t.failed
		if t.failed > 0 {
			return round{}, fmt.Errorf("an FMC send failed")
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for in.h.handled.Load()-handled0 < sent {
		if time.Now().After(deadline) {
			return round{}, fmt.Errorf("only %d of %d samples reached the service", in.h.handled.Load()-handled0, sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := in.h.handled.Load() - handled0; got != sent {
		return round{}, fmt.Errorf("%d samples reached the service, %d were sent", got, sent)
	}
	last, err := in.k.drain(delivered0 + owed)
	if err != nil {
		return round{}, err
	}
	end := max(last, in.h.lastAt.Load())
	m1 := markRuntime()
	return round{
		samples: sent, windows: owed, dur: time.Duration(end - start),
		allocs: m1.mallocs - m0.mallocs, lat: in.k.collectLatencies(),
	}, nil
}

// shardSkew is the shard skew over a phase: the max over the mean of
// the windows each shard accepted.
func shardSkew(a, b []serve.ShardLoad) float64 {
	var mx, sum float64
	for i := range b {
		d := float64(b[i].Windows)
		if i < len(a) {
			d -= float64(a[i].Windows)
		}
		sum += d
		mx = max(mx, d)
	}
	if sum == 0 {
		return 0
	}
	return mx / (sum / float64(len(b)))
}
