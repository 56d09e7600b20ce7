package main

import (
	"math"
	"strings"
	"time"
)

// agg folds a run's rounds, one pass over the sub-seeds at a time.
type agg struct {
	rounds            []*roundResult
	passes            int
	attempted, failed int
	live              liveSamples
	setups            []float64 // seconds
	busyPerVsec       []float64 // ms per virtual second, per round
	timed             []float64 // seconds of timed work per round
	statesPerS        []float64
	commits           []time.Duration
	treeDepth         []float64
	// passQ holds, per latency percentile, its value in each pass.
	passQ map[string][]float64
	lay   layers
}

// latencyQuantiles are the step-latency percentiles reported end to end.
var latencyQuantiles = []struct {
	name string
	ops  bool
	q    float64
}{
	{"deliver_p50_us", false, 0.50},
	{"deliver_p90_us", false, 0.90},
	{"deliver_p99_us", false, 0.99},
	{"op_p50_us", true, 0.50},
	{"op_p90_us", true, 0.90},
}

func newAgg() *agg { return &agg{passQ: make(map[string][]float64)} }

// addPass folds one pass over the sub-seeds. A latency percentile is
// taken per pass and the run reports its median over the passes, so a
// pass that a burst of contention on the host slowed does not move it.
// Unless keep is set, the pass's step samples are dropped once folded:
// a heap that grew with every pass would make the collector run less
// often in later passes and their steps cheaper.
func (a *agg) addPass(pass []*roundResult, keep bool) {
	var live liveSamples
	for _, r := range pass {
		live.add(&r.live)
	}
	a.addQuantiles(&live)
	first := a.passes == 0
	a.passes++
	for _, r := range pass {
		a.attempted += r.attempted
		a.failed += r.failed
		for _, d := range r.setups {
			a.setups = append(a.setups, d.Seconds())
		}
		if r.live.vsec > 0 {
			a.busyPerVsec = append(a.busyPerVsec, r.live.busy.Seconds()*1e3/r.live.vsec)
		}
		if len(r.verdicts) > 0 {
			for i, v := range r.verdicts {
				a.timed = append(a.timed, v.Seconds())
				a.statesPerS = append(a.statesPerS, float64(r.states[i])/v.Seconds())
			}
		} else {
			a.timed = append(a.timed, r.live.busy.Seconds())
			a.statesPerS = append(a.statesPerS, float64(r.live.lookStates)/r.live.busy.Seconds())
		}
		a.lay.add(&r.lay)
		// Virtual-time outcomes are exact per input: take them from the
		// first pass only, so they do not depend on how many passes the
		// wall-clock budget allowed.
		if first {
			a.commits = append(a.commits, r.commits...)
			if r.treeDepth > 0 {
				a.treeDepth = append(a.treeDepth, r.treeDepth)
			}
		}
		if !keep {
			r.live.deliver, r.live.ckpt, r.live.ops = nil, nil, nil
		}
	}
	if !keep {
		live.deliver, live.ckpt, live.ops = nil, nil, nil
	}
	a.live.add(&live)
	a.rounds = append(a.rounds, pass...)
}

// useFastest replaces the step metrics of the passes with those of a
// replayer's fastest steps.
func (a *agg) useFastest(live liveSamples) {
	a.passQ = make(map[string][]float64)
	a.addQuantiles(&live)
	a.busyPerVsec = []float64{live.busy.Seconds() * 1e3 / live.vsec}
}

// addQuantiles records the step-latency percentiles of one set of samples.
func (a *agg) addQuantiles(live *liveSamples) {
	for _, lq := range latencyQuantiles {
		xs := live.deliver
		if lq.ops {
			xs = live.ops
		}
		a.passQ[lq.name] = append(a.passQ[lq.name], durQuantile(xs, lq.q, time.Microsecond))
	}
}

// tracedWork is the CPU time of the run's timed work, with whatever
// bookkeeping tracing adds: the measured phases' stepping loops, or the
// timed explorations.
func (a *agg) tracedWork() time.Duration {
	var d time.Duration
	for _, r := range a.rounds {
		if len(r.verdicts) > 0 {
			d += sumDur(r.verdicts)
		} else {
			d += r.live.loop
		}
	}
	return d
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// endToEnd reports the metrics a user of the system sees. Every workload
// reports every one; README.md says what each means per workload.
func (a *agg) endToEnd(rssMB float64) map[string]metric {
	m := map[string]metric{
		"setup_s":          {median(a.setups), "s"},
		"peak_rss_mb":      {rssMB, "MB"},
		"busy_ms_per_vsec": {median(a.busyPerVsec), "ms/s"},
		"states_per_s":     {median(a.statesPerS), "1/s"},
		"verdict_s":        {median(a.timed), "s"},
	}
	for _, lq := range latencyQuantiles {
		m[lq.name] = metric{median(a.passQ[lq.name]), "us"}
	}
	return m
}

// quality reports the virtual-time outcomes: exact for a given input and
// build, so their spread is the spread across seeds.
func (a *agg) quality() map[string]float64 {
	ms := time.Millisecond
	q := map[string]float64{}
	if len(a.commits) > 0 {
		q["commit_p50_ms"] = durQuantile(a.commits, 0.50, ms)
		q["commit_p90_ms"] = durQuantile(a.commits, 0.90, ms)
	}
	if len(a.treeDepth) > 0 {
		q["tree_mean_depth"] = mean(a.treeDepth)
	}
	return q
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0: a layer the workload does not use
// reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// perLayer reports the layer metrics of the traced rounds. Counts are per
// round (the mean over the traced rounds).
func (a *agg) perLayer(tr *tracer) map[string]metric {
	l := &a.lay
	n := float64(len(a.rounds))
	us := time.Microsecond
	vsec := a.live.vsec
	commits := float64(len(a.commits))
	m := map[string]metric{
		"sim.steps":                      {float64(a.live.steps) / n, "count"},
		"sim.steps_per_s":                {ratio(float64(a.live.steps), a.live.busy.Seconds()), "1/s"},
		"transport.delivered":            {l.delivered / n, "count"},
		"transport.msgs_per_commit":      {ratio(l.appMsgs/n, commits/n), "count"},
		"transport.bytes_per_commit":     {ratio(l.appBytes/n, commits/n), "B"},
		"checkpoint.deliver_p50_us":      {orZero(durQuantile(a.live.ckpt, 0.5, us)), "us"},
		"checkpoint.busy_ms_per_vsec":    {ratio(sumDur(a.live.ckpt).Seconds()*1e3, vsec), "ms/s"},
		"checkpoint.integrated":          {l.ckptIntegrated / n, "count"},
		"model.buildworld_us":            {l.buildWorld.meanUs(), "us"},
		"core.steer_checks":              {l.steerChecks / n, "count"},
		"core.steered":                   {l.steered / n, "count"},
		"core.steer_states_per_check":    {ratio(l.steerOnlyStates, l.steerOnlyChecks), "count"},
		"core.steer_busy_ms_per_vsec":    {ratio(l.steerBusy.Seconds()*1e3, vsec), "ms/s"},
		"core.dropped_windows":           {l.droppedWindows / n, "count"},
		"core.predictions":               {l.predictions / n, "count"},
		"core.resolve_states_per_pred":   {ratio(l.predStates-l.predSteerChecks*ratio(l.steerOnlyStates, l.steerOnlyChecks), l.predictions), "count"},
		"core.resolve_deliver_p50_us":    {orZero(durQuantile(l.resolveDeliver, 0.5, us)), "us"},
		"core.cache_hit_ratio":           {ratio(l.cacheHits, l.cacheHits+l.cacheMisses), "ratio"},
		"core.classcache_hit_ratio":      {ratio(l.classHits, l.classHits+l.classMisses), "ratio"},
		"core.class_invalidations":       {l.classInvalidations / n, "count"},
		"core.materialize_us":            {l.materialize.meanUs(), "us"},
		"sm.clone_us":                    {l.clone.meanUs(), "us"},
		"sm.digest_us":                   {l.digest.meanUs(), "us"},
		"paxos.decided":                  {l.decided / n, "count"},
		"explore.states":                 {l.exStates / n, "count"},
		"explore.violations":             {l.exViolations / n, "count"},
		"explore.classes":                {l.exClasses / n, "count"},
		"explore.faults_injected":        {l.exFaults / n, "count"},
		"explore.check_ns_per_state":     {ratio(l.checkNs, l.exStates+l.lookaheadStates), "ns"},
		"explore.check_share":            {ratio(l.checkNs, float64(l.exCPU)), "ratio"},
		"explore.allocs_per_state":       {ratio(l.exAllocs, l.exStates), "count"},
		"explore.bytes_per_state":        {ratio(l.exBytes, l.exStates), "B"},
		"explore.steal_misses":           {l.exStealMisses / n, "count"},
		"explore.worker_high_water":      {l.exHigh / n, "count"},
		"explore.lookahead_states":       {l.lookaheadStates / n, "count"},
		"explore.objective_ns_per_score": {ratio(l.scoreNs, l.scoreCalls), "ns"},
		"go.gc_cycles":                   {l.gcCycles / n, "count"},
		"go.gc_pause_ms":                 {l.gcPauseNs / n / 1e6, "ms"},
		"go.alloc_mb":                    {l.allocBytes / n / (1 << 20), "MB"},
		"app.commit_p50_ms":              {0, "ms"},
		"app.commit_p90_ms":              {0, "ms"},
		"app.tree_mean_depth":            {0, "levels"},
	}
	for k, v := range a.quality() {
		name := "app." + k
		mm := m[name]
		mm.Value = v
		m[name] = mm
	}
	self := tr.selfTimes()
	for _, name := range selfTimeSpans {
		m["self_ms."+strings.NewReplacer(":", "_", ".", "_").Replace(name)] = metric{float64(self[name]) / 1e6 / n, "ms"}
	}
	return m
}

// selfTimeSpans are the span names whose self time the traced run
// reports, per round.
var selfTimeSpans = []string{
	"phase:setup", "phase:drain", "step:app", "step:ckpt", "step:other",
	"call:Explorer.Explore", "call:Cluster.MaterializeWorld",
	"call:Model.BuildWorld", "call:Service.Clone", "call:Service.Digest",
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func (l *layers) add(o *layers) {
	l.delivered += o.delivered
	l.appMsgs += o.appMsgs
	l.appBytes += o.appBytes
	l.ckptIntegrated += o.ckptIntegrated
	l.steerChecks += o.steerChecks
	l.steered += o.steered
	l.droppedWindows += o.droppedWindows
	l.steerOnlyChecks += o.steerOnlyChecks
	l.steerOnlyStates += o.steerOnlyStates
	l.steerBusy += o.steerBusy
	l.predictions += o.predictions
	l.predStates += o.predStates
	l.predSteerChecks += o.predSteerChecks
	l.resolveDeliver = append(l.resolveDeliver, o.resolveDeliver...)
	l.cacheHits += o.cacheHits
	l.cacheMisses += o.cacheMisses
	l.classHits += o.classHits
	l.classMisses += o.classMisses
	l.classInvalidations += o.classInvalidations
	l.lookaheadStates += o.lookaheadStates
	for _, p := range [][2]*callStat{{&l.buildWorld, &o.buildWorld}, {&l.materialize, &o.materialize}, {&l.clone, &o.clone}, {&l.digest, &o.digest}} {
		p[0].n += p[1].n
		p[0].ns += p[1].ns
	}
	l.decided += o.decided
	l.exStates += o.exStates
	l.exViolations += o.exViolations
	l.exClasses += o.exClasses
	l.exFaults += o.exFaults
	l.exAllocs += o.exAllocs
	l.exBytes += o.exBytes
	l.exStealMisses += o.exStealMisses
	l.exHigh += o.exHigh
	l.exCPU += o.exCPU
	l.checkNs += o.checkNs
	l.scoreCalls += o.scoreCalls
	l.scoreNs += o.scoreNs
	l.gcCycles += o.gcCycles
	l.gcPauseNs += o.gcPauseNs
	l.allocBytes += o.allocBytes
}
