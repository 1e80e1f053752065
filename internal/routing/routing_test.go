package routing

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/models"
	"routetab/internal/shortestpath"
)

// tableScheme is a test fixture: a literal next-hop port table built from
// BFS trees, valid in every model (requirements empty).
type tableScheme struct {
	n    int
	next [][]int // next[u][v] = port at u towards v
	req  models.Requirements
}

func newTableScheme(t *testing.T, g *graph.Graph, ports *graph.Ports) *tableScheme {
	t.Helper()
	n := g.N()
	s := &tableScheme{n: n, next: make([][]int, n+1)}
	for u := 1; u <= n; u++ {
		res, err := shortestpath.BFS(g, u)
		if err != nil {
			t.Fatal(err)
		}
		s.next[u] = make([]int, n+1)
		for v := 1; v <= n; v++ {
			if v == u || res.Dist[v] == shortestpath.Unreachable {
				continue
			}
			// Walk back from v to the neighbour of u on the path.
			w := v
			for res.Parent[w] != u {
				w = res.Parent[w]
			}
			port, err := ports.PortTo(u, w)
			if err != nil {
				t.Fatal(err)
			}
			s.next[u][v] = port
		}
	}
	return s
}

func (s *tableScheme) Name() string                      { return "test-table" }
func (s *tableScheme) N() int                            { return s.n }
func (s *tableScheme) Requirements() models.Requirements { return s.req }
func (s *tableScheme) Label(u int) Label                 { return Label{ID: u} }
func (s *tableScheme) FunctionBits(u int) int            { return 10 * s.n }
func (s *tableScheme) LabelBits(u int) int               { return 0 }

func (s *tableScheme) Route(u int, _ Env, dest Label, hdr uint64, _ int) (int, uint64, error) {
	port := s.next[u][dest.ID]
	if port == 0 {
		return 0, 0, ErrNoRoute
	}
	return port, hdr, nil
}

// loopScheme always forwards over port 1: never delivers on a cycle.
type loopScheme struct{ n int }

func (s loopScheme) Name() string                      { return "loop" }
func (s loopScheme) N() int                            { return s.n }
func (s loopScheme) Requirements() models.Requirements { return models.Requirements{} }
func (s loopScheme) Label(u int) Label                 { return Label{ID: u} }
func (s loopScheme) FunctionBits(int) int              { return 1 }
func (s loopScheme) LabelBits(int) int                 { return 0 }
func (s loopScheme) Route(int, Env, Label, uint64, int) (int, uint64, error) {
	return 1, 0, nil
}

// nosyScheme reports what the environment granted it.
type nosyScheme struct {
	n       int
	req     models.Requirements
	granted *bool
}

func (s nosyScheme) Name() string                      { return "nosy" }
func (s nosyScheme) N() int                            { return s.n }
func (s nosyScheme) Requirements() models.Requirements { return s.req }
func (s nosyScheme) Label(u int) Label                 { return Label{ID: u} }
func (s nosyScheme) FunctionBits(int) int              { return 1 }
func (s nosyScheme) LabelBits(int) int                 { return 0 }
func (s nosyScheme) Route(u int, e Env, dest Label, hdr uint64, _ int) (int, uint64, error) {
	_, ok := e.KnownNeighborIDs()
	*s.granted = ok
	if port, ok := e.PortOfNeighbor(dest.ID); ok {
		return port, hdr, nil
	}
	return 1, hdr, nil
}

func chainFixture(t *testing.T, n int) (*graph.Graph, *graph.Ports) {
	t.Helper()
	g, err := gengraph.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.SortedPorts(g)
}

func TestLabelEqualAndBits(t *testing.T) {
	a := Label{ID: 3, Aux: []int{1, 2}}
	b := Label{ID: 3, Aux: []int{1, 2}}
	c := Label{ID: 3, Aux: []int{2, 1}}
	d := Label{ID: 4}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) || d.Equal(a) {
		t.Fatal("Label.Equal wrong")
	}
	// n=100 → ⌈log 101⌉ = 7 bits per field; 3 fields.
	if got := a.Bits(100); got != 21 {
		t.Fatalf("Bits = %d, want 21", got)
	}
	if got := d.Bits(100); got != 7 {
		t.Fatalf("Bits = %d, want 7", got)
	}
}

func TestSimRouteChain(t *testing.T) {
	g, ports := chainFixture(t, 8)
	scheme := newTableScheme(t, g, ports)
	sim, err := NewSim(g, ports, scheme)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.RouteByNode(1, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Hops != 7 {
		t.Fatalf("hops = %d, want 7", tr.Hops)
	}
	if err := VerifyTraceIsWalk(g, tr); err != nil {
		t.Fatal(err)
	}
	// Route to self-adjacent and reverse direction.
	tr, err = sim.RouteByNode(5, 2, 100)
	if err != nil || tr.Hops != 3 {
		t.Fatalf("5→2: hops=%d err=%v", tr.Hops, err)
	}
}

func TestSimHopLimit(t *testing.T) {
	g, err := gengraph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	sim, err := NewSim(g, ports, loopScheme{n: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Port 1 of node 1 leads to node 2; from 2 port 1 leads back to 1 — the
	// message ping-pongs and must hit the hop limit en route to node 4.
	if _, err := sim.RouteByNode(1, 4, 20); !errors.Is(err, ErrHopLimit) {
		t.Fatalf("err = %v, want ErrHopLimit", err)
	}
}

func TestSimValidation(t *testing.T) {
	g, ports := chainFixture(t, 5)
	scheme := newTableScheme(t, g, ports)
	g2, _ := chainFixture(t, 6)
	if _, err := NewSim(g2, ports, scheme); err == nil {
		t.Error("size mismatch accepted")
	}
	// Stale ports: mutate graph after building them.
	if err := g.AddEdge(1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSim(g, ports, scheme); err == nil {
		t.Error("stale port table accepted")
	}
}

func TestSimRouteArgumentErrors(t *testing.T) {
	g, ports := chainFixture(t, 5)
	scheme := newTableScheme(t, g, ports)
	sim, err := NewSim(g, ports, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RouteByNode(0, 3, 10); err == nil {
		t.Error("source 0 accepted")
	}
	if _, err := sim.RouteByNode(1, 9, 10); err == nil {
		t.Error("destination 9 accepted")
	}
	if _, err := sim.Route(1, 999, 10); !errors.Is(err, ErrBadDestination) {
		t.Errorf("unknown label: err = %v, want ErrBadDestination", err)
	}
	// Routing to self is a zero-hop delivery.
	tr, err := sim.RouteByNode(3, 3, 10)
	if err != nil || tr.Hops != 0 {
		t.Errorf("self route: hops=%d err=%v", tr.Hops, err)
	}
}

func TestEnvGrantGating(t *testing.T) {
	g, err := gengraph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)

	var granted bool
	denied := nosyScheme{n: 5, granted: &granted}
	sim, err := NewSim(g, ports, denied)
	if err != nil {
		t.Fatal(err)
	}
	if sim.GrantsNeighborKnowledge() {
		t.Fatal("empty requirements should not grant II")
	}
	if _, err := sim.RouteByNode(1, 2, 10); err != nil {
		// Without the grant it forwards blindly over port 1 → node 2: fine.
		t.Fatalf("route: %v", err)
	}
	if granted {
		t.Fatal("environment leaked neighbour knowledge to an IA scheme")
	}

	allowed := nosyScheme{n: 5, req: models.Requirements{NeighborsKnown: true}, granted: &granted}
	sim, err = NewSim(g, ports, allowed)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.GrantsNeighborKnowledge() {
		t.Fatal("II requirements should grant knowledge")
	}
	tr, err := sim.RouteByNode(1, 4, 10)
	if err != nil || tr.Hops != 1 {
		t.Fatalf("II route: hops=%d err=%v", tr.Hops, err)
	}
	if !granted {
		t.Fatal("environment denied knowledge to a II scheme")
	}
}

func TestEnvNeighborQueries(t *testing.T) {
	g, ports := chainFixture(t, 4)
	scheme := nosyScheme{n: 4, req: models.Requirements{NeighborsKnown: true}, granted: new(bool)}
	sim, err := NewSim(g, ports, scheme)
	if err != nil {
		t.Fatal(err)
	}
	e := env{sim: sim, node: 2}
	if e.Node() != 2 || e.Degree() != 2 {
		t.Fatalf("env basics: node=%d degree=%d", e.Node(), e.Degree())
	}
	ids, ok := e.KnownNeighborIDs()
	if !ok || len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("KnownNeighborIDs = %v, %t", ids, ok)
	}
	lbl, ok := e.NeighborLabelByPort(1)
	if !ok || lbl.ID != 1 {
		t.Fatalf("NeighborLabelByPort(1) = %v, %t", lbl, ok)
	}
	if _, ok := e.NeighborLabelByPort(5); ok {
		t.Fatal("invalid port granted")
	}
	port, ok := e.PortOfNeighbor(3)
	if !ok || port != 2 {
		t.Fatalf("PortOfNeighbor(3) = %d, %t", port, ok)
	}
	if _, ok := e.PortOfNeighbor(4); ok {
		t.Fatal("non-neighbour resolved to a port")
	}
	if _, ok := e.PortOfNeighbor(99); ok {
		t.Fatal("unknown ID resolved to a port")
	}
}

func TestMeasureSpace(t *testing.T) {
	g, ports := chainFixture(t, 6)
	scheme := newTableScheme(t, g, ports)
	sp, err := MeasureSpace(scheme, models.IAAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if sp.FunctionBits != 6*60 || sp.Total != 360 || sp.MaxFunctionBits != 60 {
		t.Fatalf("space = %+v", sp)
	}
	// γ charges labels; the table scheme has zero-bit labels.
	sp, err = MeasureSpace(scheme, models.IAGamma)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Total != 360 {
		t.Fatalf("γ total = %d", sp.Total)
	}
	// Model support enforcement.
	ii := nosyScheme{n: 6, req: models.Requirements{NeighborsKnown: true}, granted: new(bool)}
	if _, err := MeasureSpace(ii, models.IAAlpha); err == nil {
		t.Error("II scheme measured under IA")
	}
	if _, err := MeasureSpace(scheme, models.Model{}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestVerifyAllChainStretchOne(t *testing.T) {
	g, ports := chainFixture(t, 7)
	scheme := newTableScheme(t, g, ports)
	sim, err := NewSim(g, ports, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyAll(sim, dm, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 42 || !rep.AllDelivered() {
		t.Fatalf("report = %s", rep)
	}
	if rep.MaxStretch != 1 || rep.MeanStretch != 1 {
		t.Fatalf("stretch = %v/%v, want 1/1", rep.MaxStretch, rep.MeanStretch)
	}
	if rep.MaxHops != 6 {
		t.Fatalf("maxHops = %d, want 6", rep.MaxHops)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestVerifySampled(t *testing.T) {
	g, err := gengraph.GnHalf(30, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	scheme := newTableScheme(t, g, ports)
	sim, err := NewSim(g, ports, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifySampled(sim, dm, 200, rand.New(rand.NewSource(2)), 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 || !rep.AllDelivered() || rep.MaxStretch != 1 {
		t.Fatalf("report = %s", rep)
	}
}

func TestVerifyRecordsFailures(t *testing.T) {
	g, err := gengraph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	sim, err := NewSim(g, ports, loopScheme{n: 6})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyAll(sim, dm, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllDelivered() {
		t.Fatal("loop scheme delivered everything?")
	}
	if len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], "hop limit") {
		t.Fatalf("failures = %v", rep.Failures)
	}
	if len(rep.Failures) > 8 {
		t.Fatalf("failure list unbounded: %d", len(rep.Failures))
	}
}

func TestVerifyTraceIsWalkRejects(t *testing.T) {
	g, _ := chainFixture(t, 4)
	bad := &Trace{Source: 1, Dest: 3, Path: []int{1, 3}, Hops: 1}
	if err := VerifyTraceIsWalk(g, bad); err == nil {
		t.Error("non-edge step accepted")
	}
	bad = &Trace{Source: 1, Dest: 2, Path: []int{1, 2}, Hops: 5}
	if err := VerifyTraceIsWalk(g, bad); err == nil {
		t.Error("inconsistent hops accepted")
	}
	bad = &Trace{Source: 2, Dest: 2, Path: []int{1}, Hops: 0}
	if err := VerifyTraceIsWalk(g, bad); err == nil {
		t.Error("wrong start accepted")
	}
	bad = &Trace{Source: 1, Dest: 2, Path: []int{1}, Hops: 0}
	if err := VerifyTraceIsWalk(g, bad); err == nil {
		t.Error("wrong end accepted")
	}
	if err := VerifyTraceIsWalk(g, &Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestDefaultHopLimit(t *testing.T) {
	if DefaultHopLimit(2) <= 4 {
		t.Fatal("hop limit too small for tiny graphs")
	}
	// Must dominate 2(c+3)log n for c=3 at n=1024: 2·6·10 = 120.
	if DefaultHopLimit(1024) < 120 {
		t.Fatalf("hop limit %d < 120 at n=1024", DefaultHopLimit(1024))
	}
}

func TestCheckModel(t *testing.T) {
	g, ports := chainFixture(t, 4)
	scheme := newTableScheme(t, g, ports)
	if err := CheckModel(scheme, models.IAAlpha); err != nil {
		t.Fatal(err)
	}
	ii := nosyScheme{n: 4, req: models.Requirements{NeighborsKnown: true}, granted: new(bool)}
	if err := CheckModel(ii, models.IBAlpha); err == nil {
		t.Fatal("II scheme passed under IB")
	}
}

func TestVerifyPairsParallelMatchesSequential(t *testing.T) {
	g, err := gengraph.GnHalf(40, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	scheme := newTableScheme(t, g, ports)
	sim, err := NewSim(g, ports, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for u := 1; u <= 40; u++ {
		for v := 1; v <= 40; v++ {
			if u != v {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	seq, err := VerifyPairs(sim, dm, pairs, 64)
	if err != nil {
		t.Fatal(err)
	}
	par, err := VerifyPairsParallel(sim, dm, pairs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Pairs != par.Pairs || seq.Delivered != par.Delivered ||
		seq.MaxStretch != par.MaxStretch || seq.MaxHops != par.MaxHops {
		t.Fatalf("sequential %s vs parallel %s", seq, par)
	}
	if diff := seq.MeanStretch - par.MeanStretch; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean stretch %v vs %v", seq.MeanStretch, par.MeanStretch)
	}
}

func TestVerifyPairsParallelRecordsFailures(t *testing.T) {
	g, err := gengraph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	ports := graph.SortedPorts(g)
	sim, err := NewSim(g, ports, loopScheme{n: 8})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := shortestpath.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for u := 1; u <= 8; u++ {
		for v := 1; v <= 8; v++ {
			if u != v {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	rep, err := VerifyPairsParallel(sim, dm, pairs, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllDelivered() {
		t.Fatal("loop scheme delivered everything")
	}
	if len(rep.Failures) == 0 || len(rep.Failures) > 8 {
		t.Fatalf("failures = %d", len(rep.Failures))
	}
}

func TestFuncSchemeAdapter(t *testing.T) {
	g, ports := chainFixture(t, 6)
	table := newTableScheme(t, g, ports)
	fs := &FuncScheme{
		SchemeName: "wrapped-table",
		Nodes:      6,
		RouteFn: func(u int, env Env, dest Label, hdr uint64, arrival int) (int, uint64, error) {
			return table.Route(u, env, dest, hdr, arrival)
		},
		BitsFn: func(u int) int { return 7 },
	}
	if fs.Name() != "wrapped-table" || fs.N() != 6 {
		t.Fatal("metadata wrong")
	}
	sim, err := NewSim(g, ports, fs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.RouteByNode(1, 6, 10)
	if err != nil || tr.Hops != 5 {
		t.Fatalf("route: %v %v", tr, err)
	}
	sp, err := MeasureSpace(fs, models.IAAlpha)
	if err != nil || sp.Total != 42 {
		t.Fatalf("space = %+v, %v", sp, err)
	}
	// Defaults: no name, no bits, no labels, no route func.
	empty := &FuncScheme{Nodes: 6}
	if empty.Name() != "func-scheme" || empty.FunctionBits(1) != 0 || empty.LabelBits(1) != 0 {
		t.Fatal("defaults wrong")
	}
	if empty.Label(3).ID != 3 {
		t.Fatal("default label wrong")
	}
	if _, _, err := empty.Route(1, nil, Label{ID: 2}, 0, 0); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("nil RouteFn: err = %v", err)
	}
	// Custom labels are charged under γ.
	labelled := &FuncScheme{
		Nodes:   6,
		LabelFn: func(u int) Label { return Label{ID: u, Aux: []int{u}} },
		RouteFn: fs.RouteFn,
	}
	if labelled.LabelBits(2) != (Label{ID: 2, Aux: []int{2}}).Bits(6) {
		t.Fatal("label bits wrong")
	}
}

// TestSimLabelIDs covers the dense label table: IDs that permute the nodes,
// as interval's DFS numbers do, resolve to their nodes in Route and in the
// env's neighbour probe, and duplicate or out-of-range IDs are rejected.
func TestSimLabelIDs(t *testing.T) {
	g, ports := chainFixture(t, 6)
	table := newTableScheme(t, g, ports)
	reversed := &FuncScheme{
		Nodes:   6,
		Needs:   models.Requirements{NeighborsKnown: true},
		LabelFn: func(u int) Label { return Label{ID: 7 - u} },
		RouteFn: func(u int, env Env, dest Label, hdr uint64, arrival int) (int, uint64, error) {
			return table.Route(u, env, Label{ID: 7 - dest.ID}, hdr, arrival)
		},
	}
	sim, err := NewSim(g, ports, reversed)
	if err != nil {
		t.Fatal(err)
	}
	for dest := 1; dest <= 6; dest++ {
		tr, err := sim.Route(1, 7-dest, 10)
		if err != nil || tr.Dest != dest || tr.Hops != dest-1 {
			t.Fatalf("Route(1, ID %d) = %+v, %v; want node %d", 7-dest, tr, err, dest)
		}
	}
	// Node 2 (ID 5) is behind node 1's only port; node 3 (ID 4) is not adjacent.
	if port, ok := sim.envs[1].PortOfNeighbor(5); !ok || port != 1 {
		t.Fatalf("PortOfNeighbor(5) at node 1 = %d, %v; want 1, true", port, ok)
	}
	if _, ok := sim.envs[1].PortOfNeighbor(4); ok {
		t.Fatal("PortOfNeighbor(4) at node 1: non-neighbour resolved")
	}
	for _, id := range []int{-1, 0, 7} {
		if _, err := sim.Route(1, id, 10); !errors.Is(err, ErrBadDestination) {
			t.Errorf("Route(1, ID %d): err = %v, want ErrBadDestination", id, err)
		}
		if _, ok := sim.envs[1].PortOfNeighbor(id); ok {
			t.Errorf("PortOfNeighbor(%d) resolved", id)
		}
	}

	dup := &FuncScheme{Nodes: 6, LabelFn: func(u int) Label { return Label{ID: 1 + u%5} }}
	if _, err := NewSim(g, ports, dup); err == nil || !strings.Contains(err.Error(), "non-unique") {
		t.Errorf("duplicate IDs: err = %v", err)
	}
	shifted := &FuncScheme{Nodes: 6, LabelFn: func(u int) Label { return Label{ID: u - 1} }}
	if _, err := NewSim(g, ports, shifted); err == nil || !strings.Contains(err.Error(), "outside [1,6]") {
		t.Errorf("ID 0: err = %v", err)
	}
}
