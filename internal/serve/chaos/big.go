package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"routetab/internal/gengraph"
	"routetab/internal/serve"
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
	// Swaps is how many hot topology swaps fire mid-load (0 = none). Each
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

// BigReport is one large-graph run's outcome. P50ns and P99ns are the
// server's own per-lookup latency (serve_latency_ns).
type BigReport struct {
	N             int           `json:"n"`
	Landmarks     int           `json:"landmarks"`
	BuildTime     time.Duration `json:"build_ns"`
	SnapshotBytes int           `json:"snapshot_bytes"`
	BytesPerNode  float64       `json:"bytes_per_node"`
	Lookups       uint64        `json:"lookups"`
	QPS           float64       `json:"qps"`
	P50ns         int64         `json:"p50_ns"`
	P99ns         int64         `json:"p99_ns"`
	SpotTotals
	SpotMeanStretchMilli int64 `json:"spot_mean_stretch_milli"`
}

// String renders the headline figures.
func (r *BigReport) String() string {
	return fmt.Sprintf("big n=%d: %d landmarks, build %v, snapshot %d B (%.0f B/node); %d lookups (%.0f qps), %d spot-graded, %d violations, stretch mean %.3f max %.3f",
		r.N, r.Landmarks, r.BuildTime.Round(time.Millisecond), r.SnapshotBytes, r.BytesPerNode,
		r.Lookups, r.QPS, r.SpotGraded, r.SpotViolations,
		float64(r.SpotMeanStretchMilli)/1000, float64(r.SpotMaxStretchMilli)/1000)
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

	// Each swap toggles one initially-absent edge, added then removed, so the
	// graph stays connected through every swap.
	var phases []phase
	if e := absentEdges(g, 1); len(e) > 0 {
		for i := 0; i < cfg.Swaps; i++ {
			phases = append(phases, phase{name: fmt.Sprintf("swap %d", i), run: func() error {
				_, err := eng.Mutate(toggle(e[0]))
				return err
			}})
		}
	}

	srv := serve.NewServer(eng, serve.ServerOptions{StretchSampleEvery: -1})
	defer srv.Close()
	grader := spotgrade.New(eng, spotgrade.Config{Seed: cfg.Seed, SampleEvery: 1})
	var t tally
	elapsed, err := loop{
		n: cfg.N, workers: cfg.Workers, batch: 16, seed: cfg.Seed, lookups: cfg.Lookups,
		answered: &t.answered, maxBackoff: 2 * time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			if err := srv.LookupBatch(pairs, out); err != nil {
				return 0, err
			}
			var backoff time.Duration
			for i := range out {
				b, _ := t.count(&out[i], nil)
				backoff = max(backoff, b)
				grader.Observe(pairs[i][0], pairs[i][1], &out[i])
			}
			return backoff, nil
		},
	}.run(phases)
	if err != nil {
		return nil, err
	}

	size := snap.ArenaSize()
	lat := srv.Metrics().Histogram("serve_latency_ns", nil)
	rep := &BigReport{
		N:             cfg.N,
		BuildTime:     build,
		SnapshotBytes: size,
		BytesPerNode:  float64(size) / float64(cfg.N),
		Lookups:       t.answered.Load(),
		P50ns:         lat.Quantile(0.50),
		P99ns:         lat.Quantile(0.99),
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Lookups) / elapsed.Seconds()
	}
	if lm, ok := snap.SchemeImpl().(interface{ K() int }); ok {
		rep.Landmarks = lm.K()
	}
	rep.SpotTotals, err = spotTotals([]*spotgrade.Grader{grader})
	rep.SpotMeanStretchMilli = grader.MeanStretchMilli()
	switch {
	case err != nil:
		return rep, err
	case rep.SpotGraded == 0:
		return rep, fmt.Errorf("chaos: no answers were spot-graded (lookups=%d)", rep.Lookups)
	}
	return rep, nil
}
