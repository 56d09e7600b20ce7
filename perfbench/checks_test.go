package main

import (
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// Each output check must pass on a correct outcome and fail on a planted
// fault.

// decidedReplicas returns n replicas that all decided cmds, command i in
// instance i, each learned at its origin lat after submission.
func decidedReplicas(n int, cmds []pxCmd, lat time.Duration) []*paxos.Replica {
	reps := make([]*paxos.Replica, n)
	for i := range reps {
		reps[i] = paxos.New(sm.NodeID(i), n)
	}
	for inst, c := range cmds {
		v := paxos.Cmd{ID: c.id, Origin: c.origin, SubmitAt: time.Duration(inst) * time.Second}
		for _, r := range reps {
			r.Decided[inst] = v
		}
		reps[c.origin].DecidedAt[c.id] = v.SubmitAt + lat
	}
	return reps
}

func TestPaxosCheck(t *testing.T) {
	wan := paxos.DefaultWAN()
	cmds := []pxCmd{{0, 1}, {1, 0}, {2, 4}}
	ok := func() []*paxos.Replica { return decidedReplicas(pxSites, cmds, time.Second) }
	if _, failed, err := checkPaxos(ok(), cmds, wan); err != nil || failed != 0 {
		t.Fatalf("correct outcome: failed=%d err=%v", failed, err)
	}

	forged := ok()
	forged[3].Decided[1] = paxos.Cmd{ID: 99, Origin: 2}
	if _, _, err := checkPaxos(forged, cmds, wan); !errors.Is(err, errCheck) {
		t.Errorf("forged conflicting Decided entry passed: %v", err)
	}

	missing := ok()
	delete(missing[4].Decided, 2)
	if _, _, err := checkPaxos(missing, cmds, wan); !errors.Is(err, errCheck) {
		t.Errorf("replica missing a decision passed: %v", err)
	}

	undecided := ok()
	delete(undecided[0].DecidedAt, 1)
	if _, failed, err := checkPaxos(undecided, cmds, wan); failed != 1 || !errors.Is(err, errCheck) {
		t.Errorf("undecided command: failed=%d err=%v", failed, err)
	}

	// Origin 1 reaches a quorum no faster than 2x2x20ms (proposer 1 or 3).
	if b := fastestCommit(wan)[1]; b != 80*time.Millisecond {
		t.Errorf("fastest commit from site 1 = %v, want 80ms", b)
	}
	fast := decidedReplicas(pxSites, cmds, 79*time.Millisecond)
	if _, _, err := checkPaxos(fast, cmds, wan); !errors.Is(err, errCheck) {
		t.Errorf("commit faster than the fastest quorum path passed: %v", err)
	}
}

// fakeTree implements randtree.TreeView.
type fakeTree struct {
	joined   bool
	parent   sm.NodeID
	children map[sm.NodeID]bool
}

func (f *fakeTree) TreeDepth() int                 { return 0 }
func (f *fakeTree) TreeDepthBelow() int            { return 0 }
func (f *fakeTree) TreeRouted() int                { return 0 }
func (f *fakeTree) TreeJoined() bool               { return f.joined }
func (f *fakeTree) TreeParent() sm.NodeID          { return f.parent }
func (f *fakeTree) TreeHasChild(id sm.NodeID) bool { return f.children[id] }
func (f *fakeTree) TreeChildCount() int            { return len(f.children) }

// binaryTree returns a complete binary tree of n nodes rooted at 0.
func binaryTree(n int) map[sm.NodeID]*fakeTree {
	nodes := make(map[sm.NodeID]*fakeTree, n)
	for i := 0; i < n; i++ {
		nodes[sm.NodeID(i)] = &fakeTree{joined: true, parent: sm.NodeID((i - 1) / 2), children: map[sm.NodeID]bool{}}
	}
	nodes[0].parent = -1
	for i := 1; i < n; i++ {
		nodes[sm.NodeID((i-1)/2)].children[sm.NodeID(i)] = true
	}
	return nodes
}

func treeCheck(nodes map[sm.NodeID]*fakeTree, n int, reset []sm.NodeID) (float64, int, error) {
	views := make(map[sm.NodeID]randtree.TreeView, len(nodes))
	for id, v := range nodes {
		views[id] = v
	}
	return checkTree(views, n, reset)
}

func TestTreeCheck(t *testing.T) {
	depth, failed, err := treeCheck(binaryTree(7), 7, []sm.NodeID{5})
	if err != nil || failed != 0 {
		t.Fatalf("correct tree: failed=%d err=%v", failed, err)
	}
	if want := 17.0 / 7; depth != want {
		t.Errorf("mean depth %v, want %v", depth, want)
	}

	// A parent two-cycle: 3 and 4 adopt each other, off the root's tree.
	cycle := binaryTree(7)
	delete(cycle[1].children, 3)
	delete(cycle[1].children, 4)
	cycle[3].parent, cycle[3].children[4] = 4, true
	cycle[4].parent, cycle[4].children[3] = 3, true
	if _, _, err := treeCheck(cycle, 7, nil); !errors.Is(err, errCheck) {
		t.Errorf("parent two-cycle passed: %v", err)
	}

	disagree := binaryTree(7)
	delete(disagree[2].children, 6)
	if _, _, err := treeCheck(disagree, 7, nil); !errors.Is(err, errCheck) {
		t.Errorf("parent that does not list its child passed: %v", err)
	}

	degree := binaryTree(7)
	degree[5].parent = 0
	delete(degree[2].children, 5)
	degree[0].children[5] = true
	if _, _, err := treeCheck(degree, 7, nil); !errors.Is(err, errCheck) {
		t.Errorf("degree bound exceeded passed: %v", err)
	}

	notRejoined := binaryTree(7)
	notRejoined[6].joined = false
	delete(notRejoined[2].children, 6)
	if _, failed, err := treeCheck(notRejoined, 7, []sm.NodeID{6}); failed != 1 || !errors.Is(err, errCheck) {
		t.Errorf("reset node not rejoined: failed=%d err=%v", failed, err)
	}
}

// smallExploration explores the mc-faults snapshot with a small budget.
func smallExploration(t *testing.T, budget int) (*explore.Report, int64) {
	t.Helper()
	w, _ := mcSnapshot(mcSeed, nil, nil, 0)
	pb := &probe{}
	x := mcExplorer(1, pb)
	x.Depth = 4
	x.MaxStates = budget
	return x.Explore(w), pb.fails.Load()
}

func TestExplorationCheck(t *testing.T) {
	r, fails := smallExploration(t, mcBudget)
	if err := checkExploration(r, fails); err != nil {
		t.Fatalf("correct exploration: %v", err)
	}
	if len(r.Violations) == 0 {
		t.Fatal("snapshot yields no violations at depth 4; the planted faults below need one")
	}
	if err := checkExploration(r, fails+1); !errors.Is(err, errCheck) {
		t.Errorf("failing check without a violation passed: %v", err)
	}

	deep := *r
	deep.Violations = append([]explore.Violation(nil), r.Violations...)
	deep.Violations[0].Depth = mcDepth + 1
	if err := checkExploration(&deep, fails); !errors.Is(err, errCheck) {
		t.Errorf("witness deeper than the bound passed: %v", err)
	}

	faulty := *r
	faulty.Violations = append([]explore.Violation(nil), r.Violations...)
	faulty.Violations[0].Trace = []string{"crash node1", "recover node1", "reset node2"}
	if err := checkExploration(&faulty, fails); !errors.Is(err, errCheck) {
		t.Errorf("witness over the fault budget passed: %v", err)
	}

	cut, cutFails := smallExploration(t, 100)
	if err := checkExploration(cut, cutFails); !errors.Is(err, errCheck) {
		t.Errorf("truncated exploration passed: %v", err)
	}

	a := classSet(r)
	if !sameClasses(a, classSet(r)) {
		t.Error("a class set differs from itself")
	}
	b := classSet(r)
	for d := range b {
		delete(b, d)
		b[d^1] = true
		break
	}
	if sameClasses(a, b) {
		t.Error("class sets that differ in one member compare equal")
	}
}

func TestDigestRepeats(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := rememberDigest("w", 1, 42); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := rememberDigest("w", 1, 42); err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if err := rememberDigest("w", 1, 43); !errors.Is(err, errCheck) {
		t.Errorf("changed digest passed: %v", err)
	}
}

// foldFastest keeps each step's least time over identical replays and
// refuses replays that stepped through different events.
func TestFoldFastest(t *testing.T) {
	us := time.Microsecond
	a := []stepRec{{stepApp, false, 3 * us}, {stepOther, true, 1 * us}, {stepCkpt, false, 5 * us}}
	b := []stepRec{{stepApp, false, 2 * us}, {stepOther, true, 4 * us}, {stepCkpt, false, 5 * us}}
	fast, err := foldFastest(nil, a)
	if err == nil {
		fast, err = foldFastest(fast, b)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := stepSamples(fast, 2)
	if s.busy != 8*us || len(s.deliver) != 1 || s.deliver[0] != 2*us || len(s.ops) != 1 || s.ops[0] != us || len(s.ckpt) != 1 || s.steps != 3 {
		t.Errorf("folded samples %+v", s)
	}
	if _, err := foldFastest(fast, a[:2]); err == nil {
		t.Error("a replay with fewer steps was folded")
	}
	c := slices.Clone(b)
	c[1].kind = stepApp
	if _, err := foldFastest(fast, c); err == nil {
		t.Error("a replay that delivered another kind of message was folded")
	}
}
