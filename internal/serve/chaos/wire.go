// The single-node run: one engine behind a real JSON-HTTP listener and a
// real RTBIN1 TCP listener, one closed loop alternating its batches between
// the two while snapshots swap mid-load. The two transports share one
// sharded pool, one engine, and one grader — the run proves that protocol
// plumbing (framing, pooling, error mapping) cannot corrupt an answer: every
// lookup over either wire is graded against the snapshot that served it.
//
// The scheme picks the tier. A shortest-path scheme serves the full tier on
// G(n, 1/2) and every answer is graded strictly. A table-capable scheme
// (landmark) serves the tables tier on a sparse topology past the all-pairs
// ceiling; every answer is spot-graded against on-demand BFS ground truth,
// and the snapshot must be o(n²).
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/serve"
	"routetab/internal/serve/httpapi"
	"routetab/internal/serve/spotgrade"
	"routetab/internal/serve/wire"
)

// NodeConfig parameterises one single-node run.
type NodeConfig struct {
	// N is the topology size.
	N int
	// Seed keys the topology, every worker's query stream, and the spot
	// sample.
	Seed int64
	// Scheme picks the tier (default "fulltable").
	Scheme string
	// Workers is the closed-loop client count.
	Workers int
	// Lookups is the total lookup target over both transports.
	Lookups uint64
	// Swaps is how many hot swaps land mid-load; each toggles one edge
	// absent from the initial topology, so the graph stays connected.
	Swaps int
}

// NodeReport is one single-node run's outcome. The strict counts grade the
// full tier and the spot totals the tables tier; P50ns and P99ns are the
// server's own per-lookup latency (serve_latency_ns).
type NodeReport struct {
	Scheme        string        `json:"scheme"`
	Tier          string        `json:"tier"`
	N             int           `json:"n"`
	Landmarks     int           `json:"landmarks"`
	BuildTime     time.Duration `json:"build_ns"`
	SnapshotBytes int           `json:"snapshot_bytes"`
	BytesPerNode  float64       `json:"bytes_per_node"`
	Ledger
	JSONLookups uint64 `json:"json_lookups"`
	BinLookups  uint64 `json:"bin_lookups"`
	Correct     uint64 `json:"correct"`
	Degraded    uint64 `json:"degraded"`
	Incorrect   uint64 `json:"incorrect"`
	SpotTotals
	SpotMeanStretchMilli int64  `json:"spot_mean_stretch_milli"`
	Swaps                uint64 `json:"swaps"`
	SeqsSeen             int    `json:"seqs_seen"`
	P50ns                int64  `json:"p50_ns"`
	P99ns                int64  `json:"p99_ns"`
}

// String renders the headline figures.
func (r *NodeReport) String() string {
	return fmt.Sprintf("node %s/%s n=%d: %d json + %d binary lookups in %v (%.0f qps, swaps=%d, seqs=%d; correct=%d degraded=%d incorrect=%d rejected=%d errored=%d; spot graded=%d violations=%d stretch mean %.3f max %.3f), %d landmarks, build %v, snapshot %d B (%.0f B/node)",
		r.Scheme, r.Tier, r.N, r.JSONLookups, r.BinLookups, r.Elapsed.Round(time.Millisecond), r.QPS,
		r.Swaps, r.SeqsSeen, r.Correct, r.Degraded, r.Incorrect, r.Rejected, r.Errored,
		r.SpotGraded, r.SpotViolations, float64(r.SpotMeanStretchMilli)/1000, float64(r.SpotMaxStretchMilli)/1000,
		r.Landmarks, r.BuildTime.Round(time.Millisecond), r.SnapshotBytes, r.BytesPerNode)
}

// Passed reports whether the run held its invariants: no wrong or errored
// answer on either protocol — graded strictly on the full tier, and on the
// tables tier by a spot sample that graded something — both protocols
// actually served, and the swaps landed (more than one snapshot seq observed
// by clients).
func (r *NodeReport) Passed() bool {
	return r.Incorrect == 0 && r.SpotViolations == 0 && r.Errored == 0 &&
		(r.Tier == serve.TierFull || r.SpotGraded > 0) &&
		r.JSONLookups > 0 && r.BinLookups > 0 &&
		r.Swaps > 0 && r.SeqsSeen > 1
}

// listenBoth serves srv on a real loopback HTTP listener (the pooled httpapi
// batch handler) and a real RTBIN1 TCP listener — true sockets, framing and
// connection reuse, not httptest shortcuts — and returns a client of each and
// a func that closes clients and listeners.
func listenBoth(srv *serve.Server) (*httpapi.BatchClient, *wire.Client, func(), error) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	hs := &http.Server{Handler: httpapi.NewBatchHandler(srv)}
	go hs.Serve(httpLn)
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hs.Close()
		return nil, nil, nil, err
	}
	ws := wire.NewServer(srv)
	go ws.Serve(binLn)
	binClient, err := wire.Dial("chaos", binLn.Addr().String())
	if err != nil {
		ws.Close()
		hs.Close()
		return nil, nil, nil, err
	}
	closeAll := func() {
		binClient.Close()
		ws.Close()
		hs.Close()
	}
	return httpapi.NewBatchClient("http://"+httpLn.Addr().String(), nil), binClient, closeAll, nil
}

// RunNode builds the scheme's engine on its tier's topology, stands it up
// behind both listeners, and races JSON and binary batches of one closed
// loop against progress-paced hot swaps, grading every answer. The report is
// complete even when the run fails; the error says which invariant broke.
func RunNode(cfg NodeConfig) (*NodeReport, error) {
	if cfg.Scheme == "" {
		cfg.Scheme = "fulltable"
	}
	plan, err := planFor(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	g, err := plan.topology(cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	swapEdge := absentEdges(g, 1)
	if len(swapEdge) == 0 {
		return nil, fmt.Errorf("chaos: no absent edge to swap (topology is complete)")
	}
	t0 := time.Now()
	eng, err := plan.newEngine(g, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)
	snap := eng.Current()
	if !plan.strict {
		if err := checkSubQuadratic(snap); err != nil {
			return nil, err
		}
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 4, QueueCap: 4096})
	defer srv.Close()
	jsonClient, binClient, closeAll, err := listenBoth(srv)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	// Each swap is a rebuild and atomic publish at a milestone of the lookup
	// target.
	var swapsDone uint64
	phases := make([]phase, cfg.Swaps)
	for i := range phases {
		phases[i] = phase{name: fmt.Sprintf("swap %d", i), run: func() error {
			if _, err := eng.Mutate(toggle(swapEdge[0])); err != nil {
				return err
			}
			swapsDone++
			return nil
		}}
	}

	// One closed loop alternates its batches between the two protocols, so
	// both race every swap, and feeds the tier's grader.
	gr := &grader{}
	spot := spotgrade.New(eng, spotgrade.Config{Seed: cfg.Seed, SampleEvery: 1})
	// The distinct snapshot seqs answers carried — the proof that clients
	// really raced a swap rather than finishing before it.
	var seqs sync.Map
	protos := [2]struct {
		lookupBatch func([][2]int, []serve.Result) error
		answered    atomic.Uint64
	}{{lookupBatch: jsonClient.LookupBatch}, {lookupBatch: binClient.LookupBatch}}
	var calls atomic.Uint64
	elapsed, err := loop{
		n: cfg.N, workers: cfg.Workers, batch: batchSize, seed: cfg.Seed,
		lookups: cfg.Lookups, answered: &gr.answered, maxBackoff: 2 * time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			p := &protos[calls.Add(1)%2]
			if err := p.lookupBatch(pairs, out); err != nil {
				return 0, err
			}
			p.answered.Add(uint64(len(pairs)))
			var backoff time.Duration
			for i := range out {
				if plan.strict {
					backoff = max(backoff, gr.grade(&out[i], nil))
				} else {
					b, _ := gr.count(&out[i], nil)
					backoff = max(backoff, b)
					spot.Observe(pairs[i][0], pairs[i][1], &out[i])
				}
				if out[i].Err == nil {
					seqs.Store(out[i].Seq, true)
				}
			}
			return backoff, nil
		},
	}.run(phases)
	if err != nil {
		return nil, err
	}

	size := snap.ArenaSize()
	lat := srv.Metrics().Histogram("serve_latency_ns", nil)
	rep := &NodeReport{
		Scheme:        cfg.Scheme,
		Tier:          plan.name,
		N:             cfg.N,
		BuildTime:     build,
		SnapshotBytes: size,
		BytesPerNode:  float64(size) / float64(cfg.N),
		Ledger:        gr.ledger(elapsed),
		JSONLookups:   protos[0].answered.Load(),
		BinLookups:    protos[1].answered.Load(),
		Correct:       gr.correct.Load(),
		Degraded:      gr.degraded.Load(),
		Incorrect:     gr.incorrect.Load(),
		Swaps:         swapsDone,
		P50ns:         lat.Quantile(0.50),
		P99ns:         lat.Quantile(0.99),
	}
	seqs.Range(func(any, any) bool { rep.SeqsSeen++; return true })
	if lm, ok := snap.SchemeImpl().(interface{ K() int }); ok {
		rep.Landmarks = lm.K()
	}
	rep.SpotTotals, err = spotTotals([]*spotgrade.Grader{spot})
	rep.SpotMeanStretchMilli = spot.MeanStretchMilli()
	switch {
	case err != nil:
		return rep, fmt.Errorf("%w: %v", ErrIncorrect, err)
	case !rep.Passed():
		return rep, fmt.Errorf("chaos: single-node run failed: %s", rep)
	}
	return rep, nil
}
