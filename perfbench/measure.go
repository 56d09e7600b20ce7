package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/transport"
)

// roundResult is what one round measured and checked.
type roundResult struct {
	setups []time.Duration
	live   liveSamples
	// verdicts and states are the timed explorations (mc-faults).
	verdicts []time.Duration
	states   []int
	// attempted and failed count the round's operations.
	attempted, failed int
	// commits are virtual submission-to-decision times (paxos-steer);
	// treeDepth is the final mean depth of joined nodes (randtree-churn).
	commits   []time.Duration
	treeDepth float64
	digest    uint64
	checkErr  error
	lay       layers
}

// liveSamples are the samples of a deployment's measured phase, one per
// engine step (see stepper.run for how a step is timed).
type liveSamples struct {
	deliver []time.Duration // steps that delivered an application message
	ckpt    []time.Duration // steps that delivered a checkpoint message
	ops     []time.Duration // steps that resolved at least one choice
	busy    time.Duration   // all steps
	loop    time.Duration   // process CPU of the stepping loop, bookkeeping included
	vsec    float64         // virtual seconds covered
	steps   int
	// lookStates counts the runtime's lookahead states (Stats.LookaheadStates).
	lookStates uint64
}

func (l *liveSamples) add(o *liveSamples) {
	l.deliver = append(l.deliver, o.deliver...)
	l.ckpt = append(l.ckpt, o.ckpt...)
	l.ops = append(l.ops, o.ops...)
	l.busy += o.busy
	l.loop += o.loop
	l.vsec += o.vsec
	l.steps += o.steps
	l.lookStates += o.lookStates
}

// layers holds the per-layer counters of a traced round.
type layers struct {
	delivered, appMsgs, appBytes                float64
	ckptIntegrated                              float64
	steerChecks, steered, droppedWindows        float64
	steerOnlyChecks, steerOnlyStates            float64
	steerBusy                                   time.Duration
	predictions, predStates, predSteerChecks    float64
	resolveDeliver                              []time.Duration
	cacheHits, cacheMisses                      float64
	classHits, classMisses, classInvalidations  float64
	lookaheadStates                             float64
	buildWorld, materialize, clone, digest      callStat
	decided                                     float64
	exStates, exViolations, exClasses, exFaults float64
	exAllocs, exBytes, exStealMisses, exHigh    float64
	exCPU                                       time.Duration // process CPU of the timed explorations
	checkNs, scoreCalls, scoreNs                float64
	gcCycles, gcPauseNs, allocBytes             float64
}

// callStat accumulates sampled public-call timings.
type callStat struct {
	n  int
	ns time.Duration
}

func (c *callStat) add(d time.Duration) { c.n++; c.ns += d }

func (c callStat) meanUs() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.n) / 1e3
}

// probe wraps the Property and Objective extension points: it counts
// failing checks and objective scores, and in traced rounds times every
// call.
type probe struct {
	timed                           bool
	fails, checkNs, scores, scoreNs atomic.Int64
}

func (p *probe) properties(props []explore.Property) []explore.Property {
	out := make([]explore.Property, len(props))
	for i, pr := range props {
		check := pr.Check
		out[i] = explore.Property{Name: pr.Name, Check: func(w *explore.World) bool {
			var t0 time.Time
			if p.timed {
				t0 = time.Now()
			}
			ok := check(w)
			if p.timed {
				p.checkNs.Add(int64(time.Since(t0)))
			}
			if !ok {
				p.fails.Add(1)
			}
			return ok
		}}
	}
	return out
}

func (p *probe) objective(o explore.Objective) explore.Objective {
	return explore.ObjectiveFunc{ObjectiveName: o.Name(), Fn: func(w *explore.World) float64 {
		t0 := time.Now()
		s := o.Score(w)
		p.scoreNs.Add(int64(time.Since(t0)))
		p.scores.Add(1)
		return s
	}}
}

func (p *probe) into(l *layers) {
	l.checkNs += float64(p.checkNs.Load())
	l.scoreCalls += float64(p.scores.Load())
	l.scoreNs += float64(p.scoreNs.Load())
}

type stepKind uint8

const (
	stepOther stepKind = iota // timers and runtime-internal events
	stepApp                   // an application message delivery
	stepCkpt                  // a checkpoint message delivery
)

var stepNames = [...]string{"step:other", "step:app", "step:ckpt"}

// stepper drives an engine one event at a time through sim.Engine.Step,
// timing each step and classifying it by what transport.Network.Monitor
// saw delivered. Between steps (outside the stopwatch) it takes
// Cluster.Stats deltas, which say whether the step resolved a choice and,
// in traced rounds, which runtime layer did the work.
type stepper struct {
	eng *sim.Engine
	cl  *core.Cluster
	tr  *tracer
	lay *layers
	// sample, when set in traced rounds, is called between steps at every
	// whole virtual second.
	sample     func()
	nextSample sim.Time
	cur        stepKind
	appBytes   int
	prev       core.Stats
	live       liveSamples
	// replay, when set, times steps by the wall clock alone and records
	// them in order in seq, for foldFastest.
	replay bool
	seq    []stepRec
}

// stepRec is one timed step of a replayed deployment.
type stepRec struct {
	kind stepKind
	op   bool
	d    time.Duration
}

func newStepper(cl *core.Cluster, net *transport.Network, tr *tracer, lay *layers) *stepper {
	s := &stepper{eng: cl.Engine(), cl: cl, tr: tr, lay: lay}
	net.Monitor = func(m *transport.Message) {
		if strings.HasPrefix(m.Kind, "cb.ckpt.") {
			s.cur = stepCkpt
			return
		}
		s.cur = stepApp
		s.appBytes += m.Size
	}
	return s
}

// reset starts a new measured phase.
func (s *stepper) reset() {
	s.live = liveSamples{}
	s.seq = nil
	s.prev = s.cl.Stats()
}

// run executes every event up to and including until, then advances the
// clock to until — exactly what Engine.Run does, one step at a time.
func (s *stepper) run(until sim.Time, parent int32) {
	from := s.eng.Now()
	start := processCPU()
	for {
		at, ok := s.eng.NextEventAt()
		if !ok || at > until {
			break
		}
		if s.sample != nil && at >= s.nextSample {
			s.sample()
			s.nextSample = at - at%sim.Time(time.Second) + sim.Time(time.Second)
		}
		s.cur = stepOther
		s.appBytes = 0
		var span int32
		if s.tr != nil {
			span = s.tr.begin("", parent)
		}
		// A step's time is the lesser of its wall time and its thread CPU
		// time. Both exceed the step's own work: time stolen by the
		// hypervisor or taken by another thread inflates the first, the
		// CPU clock's system call (about 0.5us) the second. A replayed
		// deployment's steps are timed by the wall clock alone: on steps
		// under a microsecond the system call next to the step cost more
		// than the step, and foldFastest drops the stolen time instead.
		var d time.Duration
		if s.replay {
			t0 := time.Now()
			s.eng.Step()
			d = time.Since(t0)
		} else {
			c0 := threadCPU()
			t0 := time.Now()
			s.eng.Step()
			d = min(time.Since(t0), threadCPU()-c0)
		}
		if s.tr != nil {
			s.tr.endAs(span, stepNames[s.cur])
		}
		s.account(d)
	}
	s.eng.Run(until)
	s.live.loop += processCPU() - start
	s.live.vsec += time.Duration(until - from).Seconds()
}

func (s *stepper) account(d time.Duration) {
	s.live.steps++
	s.live.busy += d
	switch s.cur {
	case stepApp:
		s.live.deliver = append(s.live.deliver, d)
	case stepCkpt:
		s.live.ckpt = append(s.live.ckpt, d)
	}
	st := s.cl.Stats()
	p := s.prev
	s.prev = st
	op := st.Choices > p.Choices
	if op {
		s.live.ops = append(s.live.ops, d)
	}
	if s.replay {
		s.seq = append(s.seq, stepRec{s.cur, op, d})
	}
	s.live.lookStates += st.LookaheadStates - p.LookaheadStates
	l := s.lay
	if l == nil {
		return
	}
	if s.cur == stepApp {
		l.appMsgs++
		l.appBytes += float64(s.appBytes)
	}
	checks := float64(st.SteeringChecks - p.SteeringChecks)
	preds := float64(st.Predictions - p.Predictions)
	states := float64(st.LookaheadStates - p.LookaheadStates)
	l.steerChecks += checks
	l.steered += float64(st.Steered - p.Steered)
	l.droppedWindows += float64(st.DroppedWindows - p.DroppedWindows)
	l.ckptIntegrated += float64(st.Checkpoints - p.Checkpoints)
	l.predictions += preds
	l.cacheHits += float64(st.CacheHits - p.CacheHits)
	l.cacheMisses += float64(st.CacheMisses - p.CacheMisses)
	l.classHits += float64(st.ClassCacheHits - p.ClassCacheHits)
	l.classMisses += float64(st.ClassCacheMisses - p.ClassCacheMisses)
	l.classInvalidations += float64(st.ClassInvalidations - p.ClassInvalidations)
	l.lookaheadStates += states
	switch {
	case preds > 0:
		l.predStates += states
		l.predSteerChecks += checks
		l.resolveDeliver = append(l.resolveDeliver, d)
	case checks > 0:
		l.steerOnlyChecks += checks
		l.steerOnlyStates += states
		l.steerBusy += d
	}
}

// foldFastest folds one replay of a deterministic deployment into fast,
// each step's least time over the earlier replays, which drops what the
// host added to a step in some of them (stolen time, a busy sibling
// hyperthread, another thread's interference). The replays must step
// through the same events.
func foldFastest(fast, seq []stepRec) ([]stepRec, error) {
	if fast == nil {
		return slices.Clone(seq), nil
	}
	if len(seq) != len(fast) {
		return nil, fmt.Errorf("replays of one deployment took %d and %d steps", len(fast), len(seq))
	}
	for i, r := range seq {
		if r.kind != fast[i].kind || r.op != fast[i].op {
			return nil, fmt.Errorf("replays of one deployment differ at step %d", i)
		}
		fast[i].d = min(fast[i].d, r.d)
	}
	return fast, nil
}

// stepSamples turns the recorded steps of a deployment that covered vsec
// virtual seconds into samples.
func stepSamples(seq []stepRec, vsec float64) liveSamples {
	out := liveSamples{vsec: vsec, steps: len(seq)}
	for _, r := range seq {
		out.busy += r.d
		switch r.kind {
		case stepApp:
			out.deliver = append(out.deliver, r.d)
		case stepCkpt:
			out.ckpt = append(out.ckpt, r.d)
		}
		if r.op {
			out.ops = append(out.ops, r.d)
		}
	}
	return out
}

// livePhase runs a deployment's measured phase from its current instant
// to end, one step at a time, then drains it untimed to drainTo. In traced
// rounds it samples the public calls every virtual second and records the
// layer counters of the measured phase.
func livePhase(cl *core.Cluster, net *transport.Network, timers []string, end, drainTo sim.Time, tr *tracer, lay *layers, pb *probe) liveSamples {
	st := newStepper(cl, net, tr, lay)
	measureSpan := tr.begin("phase:measure", tr.run())
	mem := startMem()
	delivered := net.Stats().Delivered
	if tr != nil {
		st.sample = func() { sampleCalls(cl, timers, tr, measureSpan, lay) }
	}
	st.reset()
	st.run(end, measureSpan)
	tr.end(measureSpan)
	if lay != nil {
		mem.into(lay)
		lay.delivered = float64(net.Stats().Delivered - delivered)
		pb.into(lay)
	}
	drainSpan := tr.begin("phase:drain", tr.run())
	cl.Engine().Run(drainTo)
	tr.end(drainSpan)
	return st.live
}

// sampleCalls times the model, checkpoint-materialization and service
// public calls on the live cluster without changing it: per live node a
// Service.Clone, a Service.Digest and a Model.BuildWorld over a clone, and
// one Cluster.MaterializeWorld.
func sampleCalls(cl *core.Cluster, timers []string, tr *tracer, parent int32, l *layers) {
	ph := tr.begin("phase:sample", parent)
	now := time.Duration(cl.Engine().Now())
	for _, n := range cl.Nodes() {
		if n.Down() {
			continue
		}
		sp := tr.begin("call:Service.Clone", ph)
		t0 := time.Now()
		c := n.Service().Clone()
		l.clone.add(time.Since(t0))
		tr.end(sp)
		sp = tr.begin("call:Service.Digest", ph)
		t0 = time.Now()
		_ = c.Digest()
		l.digest.add(time.Since(t0))
		tr.end(sp)
		sp = tr.begin("call:Model.BuildWorld", ph)
		t0 = time.Now()
		_ = n.Model().BuildWorld(c, now, explore.FirstPolicy, 0)
		l.buildWorld.add(time.Since(t0))
		tr.end(sp)
	}
	sp := tr.begin("call:Cluster.MaterializeWorld", ph)
	t0 := time.Now()
	_ = cl.MaterializeWorld(explore.FirstPolicy, 0, timers)
	l.materialize.add(time.Since(t0))
	tr.end(sp)
	tr.end(ph)
}

// finalDigest materializes the cluster and checks that the maintained
// world digest equals a from-scratch one.
func finalDigest(cl *core.Cluster, timers []string) (uint64, error) {
	w := cl.MaterializeWorld(explore.FirstPolicy, 0, timers)
	d, full := w.Digest(), w.DigestFull()
	if d != full {
		return d, checkFailf("final Digest %016x != DigestFull %016x", d, full)
	}
	return d, nil
}

// memDelta records Go runtime counters around the measured work.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) into(l *layers) (mallocs, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	l.gcCycles += float64(after.NumGC - m.before.NumGC)
	l.gcPauseNs += float64(after.PauseTotalNs - m.before.PauseTotalNs)
	l.allocBytes += float64(after.TotalAlloc - m.before.TotalAlloc)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// rememberDigest checks that a sub-seed's final digest repeats across
// runs in the same checkout: the first run records it under
// .bench_build/digests, later runs compare.
func rememberDigest(name string, sub int64, d uint64) error {
	dir := filepath.Join(".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d", name, sub))
	want := fmt.Sprintf("%016x\n", d)
	got, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, []byte(want), 0o644)
	}
	if err != nil {
		return err
	}
	if string(got) != want {
		return checkFailf("sub-seed %d ended on digest %s, an earlier run on %s", sub, strings.TrimSpace(want), strings.TrimSpace(string(got)))
	}
	return nil
}
