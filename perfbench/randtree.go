package main

import (
	"math/rand"
	"time"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// randtree-churn: a 63-node RandTree in the Choice-CrystalBall setup on
// the transit-stub topology, with execution steering over all three tree
// properties and the class-keyed verdict cache on. After the tree forms,
// a seeded schedule of cold resets runs through the measured phase.
const (
	rtNodes       = 63
	rtJoinSpacing = 200 * time.Millisecond
	rtJoin        = rtNodes*rtJoinSpacing + 5*time.Second // join phase: set-up
	rtMeasure     = 10 * time.Second                      // churn phase: measured
	rtResets      = 12                                    // cold resets in the churn phase
	rtResetWindow = 8 * time.Second                       // resets land in the phase's first 8s
	rtDrain       = 20 * time.Second                      // untimed, until the tree has healed
	rtSubSeeds    = 4
)

type randtreeChurn struct{}

func (randtreeChurn) subSeeds(seed int64) []int64 { return subSeedsOf(seed, rtSubSeeds) }

func (randtreeChurn) round(sub int64, tr *tracer) (*roundResult, error) {
	rs := &roundResult{}
	var lay *layers
	var pb *probe
	if tr != nil {
		lay = &rs.lay
		pb = &probe{timed: true}
	}
	setupSpan := tr.begin("phase:setup", tr.run())
	t0 := processCPU()
	const setup = randtree.SetupChoiceCrystalBall
	eng := sim.NewEngine(sub)
	top := netmodel.TransitStub(rtNodes, netmodel.DefaultInternetLike(), eng.Fork())
	net := transport.New(eng, top)
	props := randtree.Properties()
	var obj explore.Objective = randtree.BalanceObjective()
	if pb != nil {
		props = pb.properties(props)
		obj = pb.objective(obj)
	}
	// The configuration of randtree.NewExperiment's Choice-CrystalBall
	// setup with steering, built here so the benchmark can wrap the
	// objective and the properties.
	cl := core.NewCluster(eng, net, core.Config{
		NewResolver:         func(*core.Node) core.Resolver { return core.NewPredictive(3) },
		ObjectiveFor:        func(*core.Node) explore.Objective { return obj },
		CheckpointInterval:  150 * time.Millisecond,
		Steering:            true,
		Properties:          props,
		LookaheadClassCache: true,
		InitialState:        func(id sm.NodeID) sm.Service { return randtree.FreshService(setup, id) },
	})
	randtree.Deploy(cl, setup, rtNodes, rtJoinSpacing)
	cl.Start()
	resets := resetSchedule(sub)
	for _, r := range resets {
		id := r.node
		eng.ScheduleAt(sim.Time(rtJoin+r.at), func() {
			cl.Crash(id)
			cl.Restart(id, randtree.FreshService(setup, id))
		})
	}
	eng.Run(sim.Time(rtJoin))
	rs.setups = []time.Duration{processCPU() - t0}
	tr.end(setupSpan)
	rs.live = livePhase(cl, net, randtree.Timers(), sim.Time(rtJoin+rtMeasure), sim.Time(rtJoin+rtMeasure+rtDrain), tr, lay, pb)

	views := make(map[sm.NodeID]randtree.TreeView, rtNodes)
	for _, n := range cl.Nodes() {
		if !n.Down() {
			views[n.ID()] = n.Service().(randtree.TreeView)
		}
	}
	resetIDs := make([]sm.NodeID, len(resets))
	for i, r := range resets {
		resetIDs[i] = r.node
	}
	rs.attempted = rtNodes + len(resets)
	var depth float64
	depth, rs.failed, rs.checkErr = checkTree(views, rtNodes, resetIDs)
	rs.treeDepth = depth
	d, err := finalDigest(cl, randtree.Timers())
	rs.digest = d
	if rs.checkErr == nil {
		rs.checkErr = err
	}
	return rs, nil
}

type churnReset struct {
	at   time.Duration
	node sm.NodeID
}

// resetSchedule draws rtResets cold resets of distinct non-root nodes at
// seeded instants of the churn phase.
func resetSchedule(sub int64) []churnReset {
	rng := rand.New(rand.NewSource(sub))
	perm := rng.Perm(rtNodes - 1)
	out := make([]churnReset, rtResets)
	for i := range out {
		out[i] = churnReset{
			at:   time.Duration(rng.Int63n(int64(rtResetWindow))),
			node: sm.NodeID(perm[i] + 1),
		}
	}
	return out
}

// checkTree checks the final tree: all n nodes joined, parent and child
// agree on every edge, every parent chain reaches the root (node 0)
// without a cycle, no node exceeds the degree bound, and every reset node
// has rejoined. It returns the mean depth of the joined nodes (root = 1)
// and the number of nodes that are not joined.
func checkTree(views map[sm.NodeID]randtree.TreeView, n int, reset []sm.NodeID) (float64, int, error) {
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = checkFailf(format, args...)
		}
	}
	joined := func(id sm.NodeID) bool { v, ok := views[id]; return ok && v.TreeJoined() }
	failed := 0
	for i := 0; i < n; i++ {
		if !joined(sm.NodeID(i)) {
			failed++
			fail("node %d is not joined", i)
		}
	}
	for _, id := range reset {
		if !joined(id) {
			fail("reset node %d has not rejoined", id)
		}
	}
	sum, cnt := 0, 0
	for i := 0; i < n; i++ {
		id := sm.NodeID(i)
		v, ok := views[id]
		if !ok || !v.TreeJoined() {
			continue
		}
		if v.TreeChildCount() > randtree.MaxChildren {
			fail("node %d has %d children, bound %d", id, v.TreeChildCount(), randtree.MaxChildren)
		}
		for c := 0; c < n; c++ {
			if v.TreeHasChild(sm.NodeID(c)) {
				if cv, ok := views[sm.NodeID(c)]; !ok || cv.TreeParent() != id {
					fail("node %d lists child %d, whose parent is not %d", id, c, id)
				}
			}
		}
		if id == 0 {
			sum++
			cnt++
			continue
		}
		p := v.TreeParent()
		if pv, ok := views[p]; !ok || !pv.TreeHasChild(id) {
			fail("node %d names parent %d, which does not list it", id, p)
		}
		depth, cur := 1, id
		for cur != 0 {
			cv, ok := views[cur]
			if !ok || !cv.TreeJoined() || depth > n {
				fail("parent chain of node %d does not reach the root", id)
				break
			}
			cur = cv.TreeParent()
			depth++
		}
		if cur == 0 {
			sum += depth
			cnt++
		}
	}
	mean := 0.0
	if cnt > 0 {
		mean = float64(sum) / float64(cnt)
	}
	return mean, failed, firstErr
}
