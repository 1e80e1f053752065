//rt:hotpath — the env accessors below answer every served lookup through
// Snapshot.NextHop, so this file holds no maps and must not allocate on
// success paths.

package routing

import (
	"fmt"

	"routetab/internal/graph"
	"routetab/internal/models"
)

// Sim forwards messages through a graph using only a scheme's local routing
// functions and the port tables — the carrier never consults global
// topology. It is the single-message reference simulator; internal/netsim
// runs the concurrent goroutine-per-node variant.
type Sim struct {
	g       *graph.Graph
	ports   *graph.Ports
	scheme  Scheme
	grantII bool
	nodeOf  []int32 // nodeOf[id] = the node labelled id, for every id in 1…n

	// envs holds one env per node, built at construction: the serving hot
	// path (FirstHop) passes &envs[u], a pointer, which boxes into the Env
	// interface without allocating, where an env value would be copied to
	// the heap on every lookup — the single allocation on an otherwise
	// allocation-free next-hop answer. Construction allocates the array once.
	envs []env
}

// NewSim validates the pieces against each other and builds a simulator. The
// environment grants neighbour knowledge exactly when the scheme's
// requirements include it (II, or IB schemes that store the vector).
func NewSim(g *graph.Graph, ports *graph.Ports, scheme Scheme) (*Sim, error) {
	if scheme.N() != g.N() {
		return nil, fmt.Errorf("routing: scheme for n=%d used with n=%d", scheme.N(), g.N())
	}
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	req := scheme.Requirements()
	nodeOf := make([]int32, g.N()+1)
	for u := 1; u <= g.N(); u++ {
		id := scheme.Label(u).ID
		if id < 1 || id > g.N() {
			return nil, fmt.Errorf("routing: scheme %s assigns label ID %d outside [1,%d]", scheme.Name(), id, g.N())
		}
		if nodeOf[id] != 0 {
			return nil, fmt.Errorf("routing: scheme %s assigns non-unique label IDs", scheme.Name())
		}
		nodeOf[id] = int32(u)
	}
	s := &Sim{
		g:       g,
		ports:   ports,
		scheme:  scheme,
		grantII: req.NeighborsKnown || req.NeighborsOrFreePorts,
		nodeOf:  nodeOf,
	}
	s.envs = make([]env, g.N()+1)
	for u := 1; u <= g.N(); u++ {
		s.envs[u] = env{sim: s, node: u}
	}
	return s, nil
}

// Scheme returns the scheme under simulation.
func (s *Sim) Scheme() Scheme { return s.scheme }

// nodeLabelled returns the node whose label ID is id.
func (s *Sim) nodeLabelled(id int) (int, bool) {
	if id < 1 || id >= len(s.nodeOf) {
		return 0, false
	}
	return int(s.nodeOf[id]), true
}

// env implements Env for one node.
type env struct {
	sim  *Sim
	node int
}

var _ Env = (*env)(nil)

func (e *env) Node() int   { return e.node }
func (e *env) Degree() int { return e.sim.ports.Degree(e.node) }

func (e *env) NeighborLabelByPort(port int) (Label, bool) {
	if !e.sim.grantII {
		return Label{}, false
	}
	v, err := e.sim.ports.Neighbor(e.node, port)
	if err != nil {
		return Label{}, false
	}
	return e.sim.scheme.Label(v), true
}

func (e *env) PortOfNeighbor(id int) (int, bool) {
	if !e.sim.grantII {
		return 0, false
	}
	node, ok := e.sim.nodeLabelled(id)
	if !ok {
		return 0, false
	}
	// PortToOK, not PortTo: this probe misses on every non-neighbour
	// destination, and the serving hot path cannot afford a discarded
	// error allocation per miss.
	return e.sim.ports.PortToOK(e.node, node)
}

func (e *env) KnownNeighborIDs() ([]int, bool) {
	if !e.sim.grantII {
		return nil, false
	}
	// Neighbour IDs are original labels, so the sorted adjacency list is
	// already in increasing ID order.
	nb := e.sim.g.Neighbors(e.node)
	out := make([]int, len(nb))
	for i, v := range nb {
		out[i] = e.sim.scheme.Label(v).ID
	}
	return out, true
}

// Trace records one delivered (or failed) routing attempt.
type Trace struct {
	Source, Dest int
	// Path lists the visited nodes, source first, destination last.
	Path []int
	// Hops is len(Path)−1: the number of edges traversed, counting repeats
	// (Theorem 5's walker legitimately revisits its origin).
	Hops int
}

// Route carries one message from src to the node labelled dst using only
// local decisions, up to maxHops edge traversals.
func (s *Sim) Route(src, dst int, maxHops int) (*Trace, error) {
	if src < 1 || src > s.g.N() {
		return nil, fmt.Errorf("%w: source %d", graph.ErrNodeRange, src)
	}
	destNode, ok := s.nodeLabelled(dst)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadDestination, dst)
	}
	destLabel := s.scheme.Label(destNode)
	tr := &Trace{Source: src, Dest: destNode, Path: []int{src}}
	cur := src
	var hdr uint64
	arrival := 0
	for cur != destNode {
		if tr.Hops >= maxHops {
			return tr, fmt.Errorf("%w: %d hops from %d to %d", ErrHopLimit, tr.Hops, src, destNode)
		}
		port, newHdr, err := s.scheme.Route(cur, &s.envs[cur], destLabel, hdr, arrival)
		if err != nil {
			return tr, fmt.Errorf("routing: at node %d: %w", cur, err)
		}
		next, err := s.ports.Neighbor(cur, port)
		if err != nil {
			return tr, fmt.Errorf("routing: at node %d: %w", cur, err)
		}
		// The arrival port at `next` is the port of the reverse edge.
		backPort, err := s.ports.PortTo(next, cur)
		if err != nil {
			return tr, fmt.Errorf("routing: reverse port %d→%d: %w", next, cur, err)
		}
		cur = next
		hdr = newHdr
		arrival = backPort
		tr.Path = append(tr.Path, cur)
		tr.Hops++
	}
	return tr, nil
}

// FirstHop asks src's local routing function for its first forwarding
// decision towards destNode and returns the neighbour behind the chosen
// port. Lower-bound experiments (Theorem 9) use this to read a scheme's
// answers without running the whole route.
func (s *Sim) FirstHop(src, destNode int) (int, error) {
	if src < 1 || src > s.g.N() {
		return 0, fmt.Errorf("%w: source %d", graph.ErrNodeRange, src)
	}
	if destNode < 1 || destNode > s.g.N() {
		return 0, fmt.Errorf("%w: destination %d", graph.ErrNodeRange, destNode)
	}
	destLabel := s.scheme.Label(destNode)
	port, _, err := s.scheme.Route(src, &s.envs[src], destLabel, 0, 0)
	if err != nil {
		return 0, err
	}
	return s.ports.Neighbor(src, port)
}

// RouteByNode is Route addressed by destination node instead of label ID
// (identical in this package since IDs are original labels; kept for
// call-site clarity).
func (s *Sim) RouteByNode(src, destNode, maxHops int) (*Trace, error) {
	if destNode < 1 || destNode > s.g.N() {
		return nil, fmt.Errorf("%w: destination %d", graph.ErrNodeRange, destNode)
	}
	return s.Route(src, s.scheme.Label(destNode).ID, maxHops)
}

// GrantsNeighborKnowledge reports whether the simulator's environment grants
// model-II queries to this scheme.
func (s *Sim) GrantsNeighborKnowledge() bool { return s.grantII }

// DefaultHopLimit returns a generous hop budget: diameter-2 constructions
// need ≤ 4 hops, the Theorem 5 walker needs ≤ 2(c+3)log n; 16·(⌈log n⌉+1)+16
// dominates both for every c ≤ 5 used in the experiments.
func DefaultHopLimit(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return 16*(lg+1) + 16
}

// CheckModel verifies a scheme/model pairing is coherent before measuring.
func CheckModel(s Scheme, m models.Model) error {
	if !m.Supports(s.Requirements()) {
		return fmt.Errorf("routing: scheme %s not valid in model %s", s.Name(), m)
	}
	return nil
}
