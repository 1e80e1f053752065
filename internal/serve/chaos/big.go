package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"routetab/internal/gengraph"
	"routetab/internal/serve"
	"routetab/internal/serve/loadgen"
	"routetab/internal/serve/spotgrade"
)

// BigConfig parameterises a large-graph serving run: a sparse seeded topology
// sized past the all-pairs ceiling, served from a tables-tier landmark
// snapshot and spot-graded against on-demand BFS ground truth.
type BigConfig struct {
	// N is the topology size (default 4096).
	N int
	// AvgDeg is the sparse topology's target average degree (default 8).
	AvgDeg float64
	// Seed keys the topology, the query streams, and the spot sample.
	Seed int64
	// Lookups is the total lookup target across workers (default 10_000).
	Lookups uint64
	// Workers is the closed-loop client count (default 4).
	Workers int
	// Swaps is how many hot topology swaps fire mid-load (default 2). Each
	// toggles an initially-absent edge, so connectivity is never at risk.
	Swaps int
}

func (c *BigConfig) setDefaults() {
	if c.N < 8 {
		c.N = 4096
	}
	if c.AvgDeg <= 0 {
		c.AvgDeg = 8
	}
	if c.Lookups == 0 {
		c.Lookups = 10_000
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
}

// BigReport is one large-graph run's outcome.
type BigReport struct {
	N             int           `json:"n"`
	Landmarks     int           `json:"landmarks"`
	BuildTime     time.Duration `json:"build_ns"`
	SnapshotBytes int           `json:"snapshot_bytes"`
	BytesPerNode  float64       `json:"bytes_per_node"`
	Load          *loadgen.Report
}

// String renders the headline figures.
func (r *BigReport) String() string {
	return fmt.Sprintf("big n=%d: %d landmarks, build %v, snapshot %d B (%.0f B/node); %d lookups, %d spot-graded, %d violations, max stretch %.3f",
		r.N, r.Landmarks, r.BuildTime.Round(time.Millisecond), r.SnapshotBytes, r.BytesPerNode,
		r.Load.Lookups, r.Load.SpotGraded, r.Load.SpotViolations,
		float64(r.Load.SpotMaxStretchMilli)/1000)
}

// RunBig builds a tables-tier landmark engine over a sparse seeded topology
// of cfg.N nodes, serves a seeded closed-loop workload with hot swaps, and
// spot-grades answers for reachability, neighbourship, and stretch ≤ 3. It
// errors if the snapshot is not o(n²) (the whole point of the tier), if
// nothing was graded, or if any graded answer broke the contract.
func RunBig(cfg BigConfig) (*BigReport, error) {
	cfg.setDefaults()
	g, err := gengraph.SparseConnected(cfg.N, cfg.AvgDeg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	eng, err := serve.NewTieredEngine(g, "landmark")
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)
	snap := eng.Current()
	if err := checkSubQuadratic(snap); err != nil {
		return nil, err
	}

	// The hot-swap edge: initially absent, toggled add/remove, so the graph
	// stays connected through every swap.
	var swap func() error
	if e := absentEdges(g, 1); len(e) > 0 {
		swap = func() error {
			_, err := eng.Mutate(toggle(e[0]))
			return err
		}
	}

	srv := serve.NewServer(eng, serve.ServerOptions{StretchSampleEvery: -1})
	defer srv.Close()
	grader := spotgrade.New(eng, spotgrade.Config{Seed: cfg.Seed, SampleEvery: 1})
	lrep, err := loadgen.Run(srv, loadgen.Config{
		Workers:  cfg.Workers,
		Lookups:  cfg.Lookups,
		Seed:     cfg.Seed,
		Validate: loadgen.ValidateSpot,
		Spot:     grader,
		HotSwaps: cfg.Swaps,
		SwapFn:   swap,
	})
	if err != nil {
		return nil, err
	}
	if lrep.SpotGraded == 0 {
		return nil, fmt.Errorf("chaos: no answers were spot-graded (lookups=%d)", lrep.Lookups)
	}

	size := snap.ArenaSize()
	rep := &BigReport{
		N:             cfg.N,
		BuildTime:     build,
		SnapshotBytes: size,
		BytesPerNode:  float64(size) / float64(cfg.N),
		Load:          lrep,
	}
	if lm, ok := snap.SchemeImpl().(interface{ K() int }); ok {
		rep.Landmarks = lm.K()
	}
	return rep, nil
}
