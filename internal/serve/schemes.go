package serve

import (
	"fmt"
	"sort"

	"routetab/internal/graph"
	"routetab/internal/routing"
	"routetab/internal/schemes/centers"
	"routetab/internal/schemes/compact"
	"routetab/internal/schemes/fullinfo"
	"routetab/internal/schemes/fulltable"
	"routetab/internal/schemes/hub"
	"routetab/internal/schemes/interval"
	"routetab/internal/schemes/landmark"
	"routetab/internal/shortestpath"
)

// builders maps scheme names to their constructors — the one registry the
// serving engine, the resilience sweep, and the CLI all dispatch through.
// A scheme may also register an update: the full-tier scheme of a graph one
// edge flip {x,y} away from prev's, given that graph's all-pairs matrix and
// the sources whose matrix row changed. An update must return exactly what
// build returns on the new matrix, or an error, on which the engine builds
// in full.
var builders = map[string]struct {
	build  func(g *graph.Graph, ports *graph.Ports, dm *shortestpath.Distances) (routing.Scheme, error)
	update func(prev *Snapshot, dm *shortestpath.Distances, changed []int, g *graph.Graph, ports *graph.Ports, x, y int) (routing.Scheme, error)
}{
	"fulltable": {
		build: func(g *graph.Graph, ports *graph.Ports, _ *shortestpath.Distances) (routing.Scheme, error) {
			return fulltable.Build(g, ports)
		},
		update: func(prev *Snapshot, dm *shortestpath.Distances, changed []int, g *graph.Graph, ports *graph.Ports, x, y int) (routing.Scheme, error) {
			ps, ok := prev.scheme.(*fulltable.Scheme)
			if !ok {
				return nil, fmt.Errorf("serve: snapshot scheme is %T, not a fulltable scheme", prev.scheme)
			}
			return fulltable.Update(ps, prev.Dist, dm, changed, g, ports, x, y)
		},
	},
	"compact": {build: func(g *graph.Graph, _ *graph.Ports, _ *shortestpath.Distances) (routing.Scheme, error) {
		return compact.Build(g, compact.DefaultOptions())
	}},
	"hub": {build: func(g *graph.Graph, _ *graph.Ports, _ *shortestpath.Distances) (routing.Scheme, error) {
		return hub.Build(g, 1)
	}},
	"interval": {build: func(g *graph.Graph, ports *graph.Ports, _ *shortestpath.Distances) (routing.Scheme, error) {
		return interval.Build(g, ports, 1)
	}},
	"fullinfo": {build: func(g *graph.Graph, ports *graph.Ports, dm *shortestpath.Distances) (routing.Scheme, error) {
		return fullinfo.Build(g, ports, dm)
	}},
	"centers": {build: func(g *graph.Graph, _ *graph.Ports, _ *shortestpath.Distances) (routing.Scheme, error) {
		return centers.Build(g, 1)
	}},
	"landmark": {build: func(g *graph.Graph, ports *graph.Ports, _ *shortestpath.Distances) (routing.Scheme, error) {
		return landmark.Build(g, ports, landmark.DefaultOptions())
	}},
}

// DistEstimator is the distance side-channel a tables-tier snapshot serves
// from: an upper bound on d(u, v) computable from the scheme's own tables,
// allocation-free. Exact-distance callers (Result.Dist/NextDist, detour
// budgets) degrade to these bounds when the all-pairs matrix is absent.
type DistEstimator interface {
	EstimateDist(u, v int) int
}

// TableScheme is the contract a scheme must satisfy to serve the tables tier:
// beyond routing, it estimates distances from its own tables, serialises
// them deterministically so snapshots can persist and ship the tables instead
// of the O(n²) matrix, and fingerprints them for replication.
type TableScheme interface {
	routing.Scheme
	DistEstimator
	// EncodeTables assembles the table encoding; the caller owns the slice.
	EncodeTables() []byte
	// TablesLen returns the encoding's length without assembling it.
	TablesLen() int
	// TablesCRC returns the tables fingerprint computed when the scheme was
	// made; RehashTables recomputes it from the tables' bytes.
	TablesCRC() uint32
	RehashTables() uint32
}

// tableBuilders registers the tables-tier constructions: build from topology
// alone (no all-pairs matrix — that absence is the tier's point), decode
// from a persisted table blob, and update the scheme of a graph one edge
// flip {x,y} away. An update must return exactly what build followed by
// prev's restriction returns, or an error, on which the engine builds in
// full.
var tableBuilders = map[string]struct {
	build  func(g *graph.Graph, ports *graph.Ports) (TableScheme, error)
	decode func(g *graph.Graph, ports *graph.Ports, tables []byte) (TableScheme, error)
	update func(prev *Snapshot, g *graph.Graph, ports *graph.Ports, x, y int) (TableScheme, error)
}{
	"landmark": {
		build: func(g *graph.Graph, ports *graph.Ports) (TableScheme, error) {
			return landmark.Build(g, ports, landmark.DefaultOptions())
		},
		decode: func(g *graph.Graph, ports *graph.Ports, tables []byte) (TableScheme, error) {
			return landmark.DecodeTables(g, ports, tables)
		},
		update: func(prev *Snapshot, g *graph.Graph, ports *graph.Ports, x, y int) (TableScheme, error) {
			ps, ok := prev.scheme.(*landmark.Scheme)
			if !ok {
				return nil, fmt.Errorf("serve: snapshot scheme is %T, not a landmark scheme", prev.scheme)
			}
			return landmark.Update(ps, prev.Ports, g, ports, x, y)
		},
	},
}

// TableCapable reports whether the named scheme can serve the tables tier.
func TableCapable(name string) bool {
	_, ok := tableBuilders[name]
	return ok
}

// BuildTableScheme constructs the named scheme for the tables tier, without
// an all-pairs matrix.
func BuildTableScheme(name string, g *graph.Graph, ports *graph.Ports) (TableScheme, error) {
	reg, ok := tableBuilders[name]
	if !ok {
		return nil, fmt.Errorf("serve: scheme %q cannot serve the tables tier", name)
	}
	return reg.build(g, ports)
}

// DecodeTableScheme reconstructs a tables-tier scheme from its persisted
// table blob against the same topology.
func DecodeTableScheme(name string, g *graph.Graph, ports *graph.Ports, tables []byte) (TableScheme, error) {
	reg, ok := tableBuilders[name]
	if !ok {
		return nil, fmt.Errorf("serve: scheme %q cannot serve the tables tier", name)
	}
	return reg.decode(g, ports, tables)
}

// shortestPathSchemes names the constructions that route along exact shortest
// paths, so every next hop must strictly decrease the distance to the
// destination — the property strict lookup validation checks.
var shortestPathSchemes = map[string]bool{
	"fulltable": true,
	"compact":   true,
	"fullinfo":  true,
}

// SchemeNames lists the scheme names BuildScheme understands, sorted.
func SchemeNames() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// KnownScheme reports whether name is a buildable scheme.
func KnownScheme(name string) bool {
	_, ok := builders[name]
	return ok
}

// IsShortestPath reports whether the named scheme guarantees shortest-path
// routes (stretch exactly 1), making strict next-hop validation sound.
func IsShortestPath(name string) bool { return shortestPathSchemes[name] }

// BuildScheme constructs the named scheme against g, its port assignment, and
// the graph's all-pairs matrix (only some builders consume dm).
func BuildScheme(name string, g *graph.Graph, ports *graph.Ports, dm *shortestpath.Distances) (routing.Scheme, error) {
	reg, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown scheme %q (have %v)", name, SchemeNames())
	}
	return reg.build(g, ports, dm)
}
