package main

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/trace"
)

// stream is one session's datapoint stream: it replays held-out runs
// one after another, ending each with EndRun (the fail event), and
// owes the sink an estimate for every window a push completes.
type stream struct {
	rec    *sessRec
	ss     *serve.Session
	refs   []*runRef // held-out run references
	ref    *runRef   // the run being replayed
	run    int       // index of the next run in refs
	pos    int       // next datapoint of ref
	win    int       // next window of ref
	weight int       // pushes per turn / rate multiple (hot sessions)
}

// step pushes the stream's next datapoint, due at due (ns), and
// returns the windows it completed and the operations it attempted.
func (s *stream) step(e *env, due int64, traced bool) (owed, ops int, err error) {
	ref := s.ref
	d := &ref.run.Datapoints[s.pos]
	ord := -1
	if ref.closes[s.pos] {
		ord = s.rec.owe(expect{ref.tgen[s.win], ref.pred[s.win], due}, traced)
		s.win++
		owed++
	}
	t0 := e.now()
	err = s.ss.Push(*d)
	t1 := e.now()
	ops++
	if err != nil {
		return owed, ops, err
	}
	if traced {
		if s.rec.nPush%sampleEvery == 0 {
			e.tr.add(span{name: "serve.push", sess: s.rec.id, key: d.Tgen, start: t0, end: t1, weight: sampleEvery})
		}
		s.rec.nPush++
		if ord >= 0 {
			s.rec.pushed(ord, t1)
		}
	}
	s.pos++
	if s.pos < len(ref.run.Datapoints) {
		return owed, ops, nil
	}
	ord = s.rec.owe(expect{ref.tgen[s.win], ref.pred[s.win], due}, traced)
	owed++
	err = s.ss.EndRun()
	ops++
	if traced {
		s.rec.pushed(ord, e.now())
	}
	s.ref, s.pos, s.win = s.refs[s.run], 0, 0
	s.run = (s.run + 1) % len(s.refs)
	return owed, ops, err
}

// event is one scheduled push of the open-loop generator.
type event struct {
	at       int64 // ns after the round start
	interval int64
	s        *stream
}

type schedule []*event

func (h schedule) Len() int            { return len(h) }
func (h schedule) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h schedule) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *schedule) Push(x any)         { *h = append(*h, x.(*event)) }
func (h *schedule) Pop() any           { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
func (h schedule) peek() *event        { return h[0] }
func (h *schedule) reset(evs []*event) { *h = append((*h)[:0], evs...); heap.Init(h) }

// generator drives a set of sessions from one goroutine.
type generator struct {
	streams []*stream
	phases  []int64 // per stream: offset of its first push in a phase A round
	cursor  int     // phase B round-robin position
	late    []float64
}

// fleet holds the fleet workload's state.
type fleet struct {
	e     *env
	st    *stack
	k     *sink
	gens  []*generator // phase B: one per CPU, each owning a share of the sessions
	open  *generator   // phase A: one goroutine driving every session
	depth depthGauge
	// weights is the sum of the sessions' rate multiples.
	weights int
}

// runFleet is the fleet workload: thousands of sessions on the node,
// fed through Session.Push by nproc generator goroutines, no sockets.
// The deployment is the LS-SVM on all parameters. Phase A is an open
// loop at a fixed rate, timed from each datapoint's due time; phase B
// is a flat-out closed loop.
func runFleet(e *env) error {
	if e.traced {
		e.tr.on.Store(true)
	}
	st, life, err := setupStacks(e, pickSVM2)
	if err != nil {
		return err
	}
	defer st.close()
	held := st.camp.held
	refs, err := buildRefs(st.dep, held)
	if err != nil {
		return err
	}
	s, err := smae(refs)
	if err != nil {
		return err
	}
	e.set("smae_s", s)

	f, err := newFleet(e, st, refs)
	if err != nil {
		return err
	}
	e.tr.on.Store(false)
	phase := e.dur * 2 / 3
	if e.traced {
		phase = e.dur / 2
	}
	m0 := markRuntime()
	a, b, err := f.phases(phase)
	if err != nil {
		return err
	}
	m1 := markRuntime()
	if !e.traced {
		var p50, eps, aps []float64
		for _, r := range a {
			p50 = append(p50, percentile(r.lat, 50))
		}
		for _, r := range b {
			eps = append(eps, float64(r.windows)/r.dur.Seconds())
			aps = append(aps, float64(r.allocs)/float64(r.samples))
		}
		e.set("estimate_latency_p50_ms", fastTime(p50))
		e.set("samples_per_s", fastRate(sampleRates(b)))
		e.set("estimates_per_s", fastRate(eps))
		e.set("allocs_per_sample", medianOf(aps))
		e.set("live_heap_mb", liveHeapMB())
		tail, err := st.lifecycleTail(e.dur / 3)
		if err != nil {
			return err
		}
		e.setLifecycle(tail)
	} else {
		e.setLifecycle(life)
		var samples int64
		for _, r := range append(a, b...) {
			samples += r.samples
		}
		e.setRuntime(m0, m1, samples)
		f.k.startTrace()
		e.tr.on.Store(true)
		if err := st.traceServed(); err != nil {
			return err
		}
		loads0 := st.svc.Stats().ShardLoads
		ta, tb, err := f.phases(phase)
		if err != nil {
			return err
		}
		_ = ta
		loads1 := st.svc.Stats().ShardLoads
		e.set("trace.overhead_pct", overheadPct(b, tb))
		if err := e.probeMonitor(held, e.sc.probeSamples); err != nil {
			return err
		}
		e.tr.on.Store(false)
		e.setServeLayer(st, f.k, shardSkew(loads0, loads1), &f.depth)
		if err := e.setStandalone(st, refs); err != nil {
			return err
		}
	}
	f.k.check()
	checkStats(e, st.svc, f.k.delivered.Load())
	return nil
}

// newFleet starts the sessions. Session i starts at a seeded random
// point of held-out run i mod H, so window completions spread out, and
// every hotEvery-th session is hot: it sends hotMult times as often.
func newFleet(e *env, st *stack, refs []*runRef) (*fleet, error) {
	sc := e.sc
	ids := make([]string, sc.sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%05d", i)
	}
	f := &fleet{e: e, st: st, k: newSink(e, ids)}
	st.sink.Store(f.k)
	rng := randx.New(e.seed ^ 0x9e3779b97f4a7c15)
	f.gens = make([]*generator, e.nproc)
	for g := range f.gens {
		f.gens[g] = &generator{}
	}
	held := st.camp.held
	for i, id := range ids {
		ss, err := st.svc.StartSession(id)
		if err != nil {
			return nil, err
		}
		r := i % len(held)
		full := &held[r]
		off := rng.Intn(len(full.Datapoints))
		part := &trace.Run{Datapoints: full.Datapoints[off:], Failed: true, FailTime: full.FailTime}
		pref, err := buildRef(st.dep, part)
		if err != nil {
			return nil, err
		}
		s := &stream{rec: f.k.recs[id], ss: ss, refs: refs, ref: pref, run: (r + 1) % len(refs), weight: 1}
		if i%sc.hotEvery == 0 {
			s.weight = sc.hotMult
		}
		f.weights += s.weight
		g := f.gens[i%len(f.gens)]
		g.streams = append(g.streams, s)
	}
	// Phase A: session s pushes every weights/(rateA·weight_s) seconds,
	// starting at a seeded offset within its first interval. One
	// goroutine paces the whole schedule, so the waiting it does while
	// spinning towards a due time costs one CPU, not all of them.
	f.open = &generator{}
	for _, g := range f.gens {
		for _, s := range g.streams {
			f.open.streams = append(f.open.streams, s)
			f.open.phases = append(f.open.phases, int64(rng.Float64()*float64(f.interval(s))))
		}
	}
	return f, nil
}

// interval is stream s's phase A push interval in ns.
func (f *fleet) interval(s *stream) int64 {
	return int64(float64(f.weights) / (f.e.sc.rateA * float64(s.weight)) * 1e9)
}

// phases runs phase A rounds for shareA of the phase length, then
// phase B rounds for the rest; each phase runs at least one round.
func (f *fleet) phases(length time.Duration) (a, b []round, err error) {
	start := time.Now()
	for len(a) == 0 || time.Since(start) < time.Duration(f.e.sc.shareA*float64(length)) {
		r, err := f.runRound(true)
		if err != nil {
			return nil, nil, err
		}
		a = append(a, r)
	}
	for len(b) == 0 || time.Since(start) < length {
		r, err := f.runRound(false)
		if err != nil {
			return nil, nil, err
		}
		b = append(b, r)
	}
	q1, md, q3 := quartiles(sampleRates(b))
	f.e.logf("fleet: phase B round rates q1 %.0f median %.0f q3 %.0f samples/s", q1, md, q3)
	var pooled []float64
	for _, r := range a {
		pooled = append(pooled, r.lat...)
	}
	late := f.open.late
	f.open.late = f.open.late[:0]
	f.e.logf("fleet: %d phase A rounds at %.0f samples/s (generator lateness p50 %.1fµs p99 %.1fµs; estimate latency over all rounds p90 %.3fms p99 %.3fms), %d phase B rounds",
		len(a), f.e.sc.rateA, percentile(late, 50), percentile(late, 99), percentile(pooled, 90), percentile(pooled, 99), len(b))
	return a, b, nil
}

// round runs one round of phase A (open) or B (closed) on every
// generator, then waits until every owed estimate was delivered.
func (f *fleet) runRound(open bool) (round, error) {
	e := f.e
	delivered0 := f.k.delivered.Load()
	traced := e.tr.on.Load()
	type tally struct {
		pushes, owed, ops int64
		end               int64
		err               error
	}
	gens := f.gens
	if open {
		gens = []*generator{f.open}
	}
	tallies := make([]tally, len(gens))
	m0 := markRuntime()
	start := e.now()
	var wg sync.WaitGroup
	for gi, g := range gens {
		wg.Add(1)
		go func(g *generator, t *tally) {
			defer wg.Done()
			push := func(s *stream, due int64) bool {
				owed, ops, err := s.step(e, due, traced)
				t.owed += int64(owed)
				t.ops += int64(ops)
				t.pushes++
				if err != nil {
					t.err = err
					return false
				}
				if traced && t.pushes%64 == 0 {
					f.depth.sample(f.st)
				}
				return true
			}
			if open {
				f.openLoop(g, start, push)
			} else {
				for n := 0; n < e.sc.pushesB; {
					s := g.streams[g.cursor]
					g.cursor = (g.cursor + 1) % len(g.streams)
					for j := 0; j < s.weight && n < e.sc.pushesB; j++ {
						for f.k.owed.Load()-f.k.delivered.Load() >= int64(e.sc.inflightB) {
							runtime.Gosched()
						}
						if !push(s, e.now()) {
							t.end = e.now()
							return
						}
						n++
					}
				}
			}
			t.end = e.now()
		}(g, &tallies[gi])
	}
	wg.Wait()
	var pushes, owed, end int64
	for _, t := range tallies {
		pushes += t.pushes
		owed += t.owed
		e.attempted += t.ops
		end = max(end, t.end)
		if t.err != nil {
			e.failed++
			return round{}, fmt.Errorf("session push: %w", t.err)
		}
	}
	last, err := f.k.drain(delivered0 + owed)
	if err != nil {
		return round{}, err
	}
	end = max(end, last)
	m1 := markRuntime()
	return round{samples: pushes, windows: owed, dur: time.Duration(end - start),
		allocs: m1.mallocs - m0.mallocs, lat: f.k.collectLatencies()}, nil
}

// openLoop pushes one generator's phase A schedule for one round. A
// push waits for its due time — sleeping while that is more than a
// millisecond and a half away, yielding otherwise, since a sleep on
// Linux overshoots by up to a millisecond — and is never held back by
// a late predecessor; its latency counts from the due time.
func (f *fleet) openLoop(g *generator, start int64, push func(*stream, int64) bool) {
	e := f.e
	round := int64(e.sc.roundA)
	var evs []*event
	for i, s := range g.streams {
		if g.phases[i] < round {
			evs = append(evs, &event{at: g.phases[i], interval: f.interval(s), s: s})
		}
	}
	var h schedule
	h.reset(evs)
	for h.Len() > 0 {
		ev := h.peek()
		due := start + ev.at
		for {
			now := e.now()
			if now >= due {
				g.late = append(g.late, float64(now-due)/1e3)
				break
			}
			if due-now > int64(1500*time.Microsecond) {
				time.Sleep(time.Duration(due - now - int64(time.Millisecond)))
			} else {
				runtime.Gosched()
			}
		}
		if !push(ev.s, due) {
			return
		}
		ev.at += ev.interval
		if ev.at < round {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
}
