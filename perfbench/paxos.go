package main

import (
	"math/rand"
	"slices"
	"time"

	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/iplane"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// paxos-steer: a 5-site Paxos on the asymmetric WAN of paxos.DefaultWAN,
// fed open-loop client commands at pxRate per virtual second from random
// origins. Execution steering guards px.agreement on every delivery and
// every command's proposer is chosen by predictive resolution against
// paxos.LatencyObjective, configured as experiment E7 configures it.
const (
	pxSites    = 5
	pxRate     = 7                // commands per virtual second
	pxWarm     = 2 * time.Second  // warm-up: commands at the same rate, untimed
	pxMeasure  = 10 * time.Second // measured phase; part of the workload's definition
	pxDrain    = 20 * time.Second // untimed, until every command is decided
	pxSubSeeds = 2
)

type paxosSteer struct{}

func (paxosSteer) subSeeds(seed int64) []int64 { return subSeedsOf(seed, pxSubSeeds) }

// subSeedsOf derives n distinct round inputs from a run seed.
func subSeedsOf(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i)
	}
	return out
}

// pxCmd is one submitted command.
type pxCmd struct {
	id     int
	origin sm.NodeID
}

func (paxosSteer) round(sub int64, tr *tracer) (*roundResult, error) {
	rs := &roundResult{}
	var lay *layers
	var pb *probe
	if tr != nil {
		lay = &rs.lay
		pb = &probe{timed: true}
	}
	setupSpan := tr.begin("phase:setup", tr.run())
	t0 := processCPU()
	wan := paxos.DefaultWAN()
	eng := sim.NewEngine(sub)
	top := netmodel.WANClusters(pxSites, 1, time.Millisecond, wan, 0)
	net := transport.New(eng, top)
	plane := iplane.New(top, sub+1)
	plane.NoiseFrac = 0.05
	props := []explore.Property{paxos.AgreementProperty()}
	objFor := paxos.LatencyObjective(plane, pxSites)
	if pb != nil {
		props = pb.properties(props)
		base := objFor
		objFor = func(n *core.Node) explore.Objective { return pb.objective(base(n)) }
	}
	cl := core.NewCluster(eng, net, core.Config{
		NewResolver:        func(*core.Node) core.Resolver { return core.NewPredictive(2) },
		ObjectiveFor:       objFor,
		CheckpointInterval: 300 * time.Millisecond,
		Steering:           true,
		Properties:         props,
	})
	paxos.Deploy(cl, pxSites, 0)
	cl.Start()
	// Open loop: command c is due at c/pxRate whatever the system's
	// progress; the warm-up's commands fill the caches and the replicas'
	// logs before the measured phase.
	rng := rand.New(rand.NewSource(sub))
	cmds := make([]pxCmd, int((pxWarm+pxMeasure).Seconds())*pxRate)
	for c := range cmds {
		cmds[c] = pxCmd{id: c, origin: sm.NodeID(rng.Intn(pxSites))}
		at := time.Duration(c) * time.Second / pxRate
		origin, id := cmds[c].origin, c
		eng.ScheduleAt(sim.Time(at), func() { paxos.SubmitCmd(cl, origin, id) })
	}
	eng.Run(sim.Time(pxWarm))
	rs.setups = []time.Duration{processCPU() - t0}
	tr.end(setupSpan)
	rs.live = livePhase(cl, net, paxos.Timers(), sim.Time(pxWarm+pxMeasure), sim.Time(pxWarm+pxMeasure+pxDrain), tr, lay, pb)

	reps := make([]*paxos.Replica, pxSites)
	for i := range reps {
		reps[i] = cl.Node(sm.NodeID(i)).Service().(*paxos.Replica)
	}
	rs.attempted = len(cmds)
	var commits []time.Duration
	commits, rs.failed, rs.checkErr = checkPaxos(reps, cmds, wan)
	// Commit latencies of the measured phase's commands only.
	for _, lat := range commits[int(pxWarm.Seconds())*pxRate:] {
		if lat >= 0 {
			rs.commits = append(rs.commits, lat)
		}
	}
	d, err := finalDigest(cl, paxos.Timers())
	rs.digest = d
	if rs.checkErr == nil {
		rs.checkErr = err
	}
	if lay != nil {
		lay.decided = float64(len(reps[0].Decided))
	}
	return rs, nil
}

// checkPaxos checks a drained deployment: every command is decided at its
// origin, all replicas hold the same decisions, and no commit beat the
// fastest quorum path the WAN matrix allows. It returns each command's
// commit latency (-1 when undecided) and the number of undecided commands.
func checkPaxos(reps []*paxos.Replica, cmds []pxCmd, wan [][]time.Duration) ([]time.Duration, int, error) {
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = checkFailf(format, args...)
		}
	}
	for i, r := range reps[1:] {
		if len(r.Decided) != len(reps[0].Decided) {
			fail("replica %d decided %d instances, replica 0 %d", i+1, len(r.Decided), len(reps[0].Decided))
		}
		for inst, v := range r.Decided {
			if w, ok := reps[0].Decided[inst]; ok && w.ID != v.ID {
				fail("instance %d decided as command %d at replica %d, %d at replica 0", inst, v.ID, i+1, w.ID)
			}
		}
	}
	bound := fastestCommit(wan)
	commits := make([]time.Duration, len(cmds))
	failed := 0
	for i, c := range cmds {
		commits[i] = -1
		r := reps[c.origin]
		at, ok := r.DecidedAt[c.id]
		if !ok {
			failed++
			fail("command %d not decided at its origin %d", c.id, c.origin)
			continue
		}
		var submit time.Duration = -1
		for _, v := range r.Decided {
			if v.ID == c.id {
				submit = v.SubmitAt
				break
			}
		}
		if submit < 0 {
			fail("command %d learned at origin %d but absent from its decisions", c.id, c.origin)
			continue
		}
		lat := at - submit
		if lat < bound[c.origin] {
			fail("command %d committed in %v, faster than the fastest quorum path %v", c.id, lat, bound[c.origin])
		}
		commits[i] = lat
	}
	return commits, failed, firstErr
}

// fastestCommit returns, per origin, the least virtual time a command can
// take from submission to decision at its origin: forward to a proposer,
// two quorum round trips (the proposer counts itself), and the decision's
// way back — minimized over proposers.
func fastestCommit(wan [][]time.Duration) []time.Duration {
	n := len(wan)
	quorum := n/2 + 1
	rtt := make([]time.Duration, n)
	for p := 0; p < n; p++ {
		oneWay := slices.Clone(wan[p])
		oneWay[p] = 0
		slices.Sort(oneWay)
		rtt[p] = 2 * oneWay[quorum-1]
	}
	out := make([]time.Duration, n)
	for o := 0; o < n; o++ {
		best := time.Duration(-1)
		for p := 0; p < n; p++ {
			hop := wan[o][p]
			if o == p {
				hop = 0
			}
			if t := 2*hop + 2*rtt[p]; best < 0 || t < best {
				best = t
			}
		}
		out[o] = best
	}
	return out
}
