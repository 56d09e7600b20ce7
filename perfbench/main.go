// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock time, checks the program's outputs, and
// prints one JSON result line:
//
//	perfbench --workload paxos-steer --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports the per-layer metrics, writes its spans
// under .bench_build/spans/ and compares its final digest with an
// untraced run of the same seed. See README.md for the workloads, the
// metric definitions and the noise observations behind the design.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one benchmark input family. A run executes whole rounds,
// cycling through the workload's sub-seeds, until the measuring time is
// spent; every round is set up from scratch and checked.
type workload interface {
	// subSeeds derives the rounds' inputs from the run's seed.
	subSeeds(seed int64) []int64
	// round runs one whole round. tr is nil in untraced rounds.
	round(sub int64, tr *tracer) (*roundResult, error)
}

// replayer is a workload whose live deployment repeats the same steps in
// every round. Its end-to-end step metrics come from each step's fastest
// time over the run.
type replayer interface {
	fastestSteps() liveSamples
}

var workloads = map[string]func() workload{
	"paxos-steer":    func() workload { return &paxosSteer{} },
	"randtree-churn": func() workload { return &randtreeChurn{} },
	"mc-faults":      func() workload { return &mcFaults{} },
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "paxos-steer | randtree-churn | mc-faults")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "wall-clock seconds to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paxos-steer|randtree-churn|mc-faults), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	// At most two goroutines do work: the engine's, or the explorer's two
	// workers. The engine's goroutine keeps its thread, so the thread's
	// CPU clock times its steps.
	runtime.GOMAXPROCS(2)
	runtime.LockOSThread()
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(*name, mk(), *seed)
	} else {
		res, err = runMeasured(*name, mk(), *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runMeasured runs untraced rounds until budget is spent and at least one
// pass over the sub-seeds is done, then reports the end-to-end metrics.
// An output check that fails makes the whole run fail: correct=false.
func runMeasured(name string, w workload, seed int64, budget time.Duration) (*result, error) {
	subs := w.subSeeds(seed)
	start := time.Now()
	a := newAgg()
	var pass []*roundResult
	var checkErr error
	var rss float64
	var deliveries, ops int
	// Whole passes over the sub-seeds, so every run mixes its inputs in
	// the same proportion.
	for a.passes == 0 || time.Since(start) < budget {
		for _, sub := range subs {
			// Every round starts from a collected heap, so the garbage
			// one round leaves does not tax the next.
			runtime.GC()
			r, err := w.round(sub, nil)
			if err == nil {
				err = checkDigest(name, sub, r, &checkErr)
			}
			if err != nil {
				return nil, err
			}
			pass = append(pass, r)
		}
		if a.passes == 0 {
			// The peak of one pass over the inputs, so that it does not
			// depend on how many passes the budget allowed.
			rss = peakRSSMB()
			for _, r := range pass {
				deliveries += len(r.live.deliver)
				ops += len(r.live.ops)
			}
		}
		a.addPass(pass, false)
		pass = nil
	}
	if rp, ok := w.(replayer); ok {
		a.useFastest(rp.fastestSteps())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes of %d rounds in %.1fs; per pass %d deliveries, %d ops; %d commits\n",
		name, seed, a.passes, len(subs), time.Since(start).Seconds(), deliveries, ops, len(a.commits))
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", checkErr)
	}
	if b, err := json.Marshal(a.quality()); err == nil {
		fmt.Printf("quality %s\n", b)
	}
	return &result{
		Correct:   checkErr == nil,
		Attempted: a.attempted,
		Failed:    a.failed,
		Metrics:   a.endToEnd(rss),
	}, nil
}

// runTraced runs, per sub-seed, one untraced and one traced round of the
// same input. The traced round must end on the untraced round's digest;
// the per-layer metrics come from the traced rounds, and the overhead of
// tracing from the CPU time of the two rounds' timed work.
func runTraced(name string, w workload, seed int64) (*result, error) {
	var plain, traced []*roundResult
	subs := w.subSeeds(seed)
	tr := newTracer()
	runSpan := tr.begin("run:"+name, 0)
	tr.root = runSpan
	var checkErr error
	for _, sub := range subs {
		runtime.GC()
		p, err := w.round(sub, nil)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t, err := w.round(sub, tr)
		if err != nil {
			return nil, err
		}
		for _, r := range []*roundResult{p, t} {
			if err := checkDigest(name, sub, r, &checkErr); err != nil {
				return nil, err
			}
		}
		if p.digest != t.digest {
			return nil, fmt.Errorf("sub-seed %d: traced run ended on digest %016x, untraced on %016x", sub, t.digest, p.digest)
		}
		plain = append(plain, p)
		traced = append(traced, t)
	}
	tr.end(runSpan)
	if err := tr.dump(fmt.Sprintf("%s-seed%d", name, seed)); err != nil {
		return nil, err
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", checkErr)
	}
	pa, ta := newAgg(), newAgg()
	pa.addPass(plain, true)
	ta.addPass(traced, true)
	m := ta.perLayer(tr)
	m["trace.overhead_pct"] = metric{Value: 100 * (ta.tracedWork().Seconds()/pa.tracedWork().Seconds() - 1), Unit: "%"}
	return &result{Correct: checkErr == nil, Attempted: ta.attempted, Failed: ta.failed, Metrics: m}, nil
}

// checkDigest checks that a round's final digest repeats across runs and
// keeps the run's first failed output check in *first.
func checkDigest(name string, sub int64, r *roundResult, first *error) error {
	if err := rememberDigest(name, sub, r.digest); err != nil {
		if !errors.Is(err, errCheck) {
			return err
		}
		r.checkErr = err
	}
	if r.checkErr != nil && *first == nil {
		*first = fmt.Errorf("sub-seed %d: %w", sub, r.checkErr)
	}
	return nil
}

// errCheck marks an output check failure (as opposed to a harness error).
var errCheck = errors.New("output check")

func checkFailf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}
