// Package fulltable implements the trivial universal routing scheme: every
// node stores, for every destination, the outgoing port on a shortest path.
//
// This is the paper's O(n² log n) baseline — the upper bound that Theorem 8
// shows is optimal in model IA ∧ α, where neither relabelling nor port
// re-assignment can simplify anything. It works in all nine models because it
// assumes nothing: destinations index directly into a packed port table.
package fulltable

import (
	"errors"
	"fmt"
	"sync"

	"routetab/internal/bitio"
	"routetab/internal/graph"
	"routetab/internal/models"
	"routetab/internal/par"
	"routetab/internal/routing"
	"routetab/internal/shortestpath"
)

// ErrDisconnected indicates the graph has unreachable pairs; the scheme
// requires a connected graph so that every table entry is meaningful.
var ErrDisconnected = errors.New("fulltable: graph is disconnected")

// Scheme is a full shortest-path port table.
type Scheme struct {
	n int
	// table[u][v] is the 1-based port at u on a shortest path to v; 0 on the
	// diagonal.
	table [][]uint16
	// width[u] is the fixed field width ⌈log(d(u)+1)⌉ used to charge node
	// u's table: n−1 entries of width bits each.
	width []int
}

var _ routing.Scheme = (*Scheme)(nil)

// Build constructs the table from per-source BFS trees, using the given port
// assignment verbatim (it never re-assigns ports, hence IA-compatibility).
// Entry (u, v) is the port of the smallest-labelled neighbour of u on a
// shortest u→v path (shortestpath.FirstHopRow), so the table depends on the
// graph and the port assignment alone. The per-source rows are independent,
// so construction fans out over a bounded worker pool; every worker writes
// only its own source's slots.
func Build(g *graph.Graph, ports *graph.Ports) (*Scheme, error) {
	if err := ports.Validate(g); err != nil {
		return nil, fmt.Errorf("fulltable: %w", err)
	}
	n := g.N()
	s := &Scheme{
		n:     n,
		table: make([][]uint16, n+1),
		width: make([]int, n+1),
	}
	g.Neighbors(1) // one up-front rebuild instead of n racing (safe) rebuilds
	err := par.ForEach(n, func(i int) error { return s.buildRow(g, ports, i+1) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildRow sets u's table row from its first-hop row, and u's width. It
// writes only u's slots.
func (s *Scheme) buildRow(g *graph.Graph, ports *graph.Ports, u int) error {
	n := s.n
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(n)
	if err := shortestpath.FirstHopRow(g, u, sc.hop); err != nil {
		return err
	}
	for p := 1; p <= ports.Degree(u); p++ {
		w, err := ports.Neighbor(u, p)
		if err != nil {
			return err
		}
		sc.port[w] = uint16(p)
	}
	row := make([]uint16, n+1)
	for v := 1; v <= n; v++ {
		if v == u {
			continue
		}
		h := sc.hop[v]
		if h == 0 {
			return fmt.Errorf("%w: no path %d→%d", ErrDisconnected, u, v)
		}
		row[v] = sc.port[h]
	}
	s.table[u] = row
	s.width[u] = bitio.CeilLogPlus1(g.Degree(u))
	return nil
}

// scratch is one source's working space in Build: its first-hop row and
// the dense inverse of its port table (port[w] is the port of u leading to
// neighbour w). Pooled, since Build needs n of them.
type scratch struct {
	hop  []int32
	port []uint16
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func (sc *scratch) reset(n int) {
	if cap(sc.hop) < n+1 {
		sc.hop = make([]int32, n+1)
		sc.port = make([]uint16, n+1)
		return
	}
	sc.hop = sc.hop[:n+1]
	sc.port = sc.port[:n+1]
	clear(sc.port)
}

// encodeRow packs the n−1 port entries (skipping the diagonal) at fixed
// width.
func encodeRow(row []uint16, u, width int) (*bitio.Writer, error) {
	w := bitio.NewWriter((len(row) - 1) * width)
	for v := 1; v < len(row); v++ {
		if v == u {
			continue
		}
		if err := w.WriteBits(uint64(row[v]-1), width); err != nil {
			return nil, fmt.Errorf("fulltable: encode port of %d→%d: %w", u, v, err)
		}
	}
	return w, nil
}

// DecodeRow unpacks an encoded row; exported for the round-trip tests and
// the Theorem 8 experiment, which measures how compressible these rows are
// under adversarial port assignments.
func DecodeRow(enc *bitio.Writer, u, n, width int) ([]uint16, error) {
	r := bitio.ReaderFor(enc)
	row := make([]uint16, n+1)
	for v := 1; v <= n; v++ {
		if v == u {
			continue
		}
		p, err := r.ReadBits(width)
		if err != nil {
			return nil, err
		}
		row[v] = uint16(p + 1)
	}
	return row, nil
}

// Name implements routing.Scheme.
func (s *Scheme) Name() string { return "fulltable" }

// N implements routing.Scheme.
func (s *Scheme) N() int { return s.n }

// Requirements implements routing.Scheme: none — the scheme is valid in every
// model, including IA ∧ α.
func (s *Scheme) Requirements() models.Requirements { return models.Requirements{} }

// Label implements routing.Scheme: original labels.
func (s *Scheme) Label(u int) routing.Label { return routing.Label{ID: u} }

// Route implements routing.Scheme by table lookup.
func (s *Scheme) Route(u int, _ routing.Env, dest routing.Label, hdr uint64, _ int) (int, uint64, error) {
	if u < 1 || u > s.n || dest.ID < 1 || dest.ID > s.n {
		return 0, 0, fmt.Errorf("%w: %d→%d", routing.ErrNoRoute, u, dest.ID)
	}
	port := s.table[u][dest.ID]
	if port == 0 {
		return 0, 0, fmt.Errorf("%w: %d→%d", routing.ErrNoRoute, u, dest.ID)
	}
	return int(port), hdr, nil
}

// FunctionBits implements routing.Scheme: the exact packed table size,
// (n−1)·⌈log(d(u)+1)⌉ bits, the length of EncodedRow(u).
func (s *Scheme) FunctionBits(u int) int {
	if u < 1 || u > s.n {
		return 0
	}
	return (s.n - 1) * s.width[u]
}

// LabelBits implements routing.Scheme: labels stay in {1,…,n}.
func (s *Scheme) LabelBits(int) int { return 0 }

// EncodedRow encodes node u's packed table, FunctionBits(u) bits long, for
// compressibility experiments, and returns it with its field width.
func (s *Scheme) EncodedRow(u int) (*bitio.Writer, int, error) {
	if u < 1 || u > s.n {
		return nil, 0, fmt.Errorf("fulltable: node %d out of range", u)
	}
	enc, err := encodeRow(s.table[u], u, s.width[u])
	if err != nil {
		return nil, 0, err
	}
	return enc, s.width[u], nil
}
