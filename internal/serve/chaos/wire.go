// Mixed-protocol chaos: JSON-HTTP and binary-TCP clients racing the same
// server through real listeners while snapshots swap mid-load. The two
// transports share one sharded pool, one engine, and one grader — the phase
// proves that protocol plumbing (framing, pooling, error mapping) cannot
// corrupt an answer: every lookup over either wire is graded against the
// snapshot that served it, exactly like the in-process harness.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/gengraph"
	"routetab/internal/serve"
	"routetab/internal/serve/httpapi"
	"routetab/internal/serve/wire"
)

// WireConfig parameterises one mixed-protocol run.
type WireConfig struct {
	// N is the node count (default 32).
	N int
	// Seed derives topology and every worker's query stream.
	Seed int64
	// Scheme must be shortest-path for strict grading (default fulltable).
	Scheme string
	// WorkersPerProto is the closed-loop client count per protocol
	// (default 2): 2×WorkersPerProto workers alternate their batches
	// between JSON and binary.
	WorkersPerProto int
	// Lookups is the per-protocol lookup target (default 20_000): the
	// closed loop issues 2×Lookups, half over each protocol.
	Lookups uint64
	// BatchSize is pairs per client batch (default 16).
	BatchSize int
	// Swaps is how many snapshot republishes land mid-load (default 2).
	Swaps int
}

func (c *WireConfig) setDefaults() {
	if c.N == 0 {
		c.N = 32
	}
	if c.Scheme == "" {
		c.Scheme = "fulltable"
	}
	if c.WorkersPerProto < 1 {
		c.WorkersPerProto = 2
	}
	if c.Lookups == 0 {
		c.Lookups = 20_000
	}
	if c.BatchSize < 1 {
		c.BatchSize = 16
	}
	if c.Swaps == 0 {
		c.Swaps = 2
	}
}

// WireReport is one mixed-protocol run's outcome. The invariant: Incorrect
// and Errored are zero — transports may slow answers down, never bend them.
type WireReport struct {
	Scheme      string        `json:"scheme"`
	N           int           `json:"n"`
	JSONLookups uint64        `json:"json_lookups"`
	BinLookups  uint64        `json:"bin_lookups"`
	Correct     uint64        `json:"correct"`
	Degraded    uint64        `json:"degraded"`
	Incorrect   uint64        `json:"incorrect"`
	Rejected    uint64        `json:"rejected"`
	Unavailable uint64        `json:"unavailable"`
	Errored     uint64        `json:"errored"`
	Swaps       uint64        `json:"swaps"`
	SeqsSeen    int           `json:"seqs_seen"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	QPS         float64       `json:"qps"`
}

// String renders the headline figures.
func (r *WireReport) String() string {
	return fmt.Sprintf("wire chaos %s n=%d: %d json + %d binary lookups in %v (%.0f qps, swaps=%d, seqs=%d; correct=%d degraded=%d incorrect=%d rejected=%d errored=%d)",
		r.Scheme, r.N, r.JSONLookups, r.BinLookups, r.Elapsed.Round(time.Millisecond), r.QPS,
		r.Swaps, r.SeqsSeen, r.Correct, r.Degraded, r.Incorrect, r.Rejected, r.Errored)
}

// Passed reports whether the run held its invariants: no wrong or errored
// answer on either protocol, both protocols actually served, and the swaps
// landed (more than one snapshot seq observed by clients).
func (r *WireReport) Passed() bool {
	return r.Incorrect == 0 && r.Errored == 0 &&
		r.JSONLookups > 0 && r.BinLookups > 0 &&
		r.Swaps > 0 && r.SeqsSeen > 1
}

// seqSet tracks distinct snapshot seqs observed in answers — the proof that
// clients really raced a swap rather than finishing before it.
type seqSet struct {
	mu   sync.Mutex
	seen map[uint64]bool
}

func (s *seqSet) add(seq uint64) {
	s.mu.Lock()
	if s.seen == nil {
		s.seen = map[uint64]bool{}
	}
	s.seen[seq] = true
	s.mu.Unlock()
}

func (s *seqSet) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
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

// RunWire stands up one engine behind both a real HTTP listener (the pooled
// httpapi batch handler) and a real RTBIN1 TCP listener, then races JSON and
// binary batches of one closed loop against progress-paced snapshot swaps,
// grading every answer.
func RunWire(cfg WireConfig) (*WireReport, error) {
	cfg.setDefaults()
	if !serve.IsShortestPath(cfg.Scheme) {
		return nil, fmt.Errorf("chaos: scheme %q is not shortest-path; strict grading needs stretch 1", cfg.Scheme)
	}
	g, err := gengraph.GnHalf(cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(g, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 4, QueueCap: 4096})
	defer srv.Close()
	jsonClient, binClient, closeAll, err := listenBoth(srv)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	// One closed loop alternates its batches between the two protocols, so
	// both race every swap, and feeds the shared strict grader.
	gr := &grader{}
	seqs := &seqSet{}
	protos := [2]struct {
		lookupBatch func([][2]int, []serve.Result) error
		answered    atomic.Uint64
	}{{lookupBatch: jsonClient.LookupBatch}, {lookupBatch: binClient.LookupBatch}}
	var calls atomic.Uint64

	// Each swap toggles edge (1,2) — a full off-path rebuild + atomic
	// publish — at a milestone of the combined lookup target.
	var swapsDone uint64
	phases := make([]phase, cfg.Swaps)
	for i := range phases {
		phases[i] = phase{name: fmt.Sprintf("swap %d", i), run: func() error {
			if _, err := eng.Mutate(toggle([2]int{1, 2})); err != nil {
				return err
			}
			swapsDone++
			return nil
		}}
	}

	elapsed, err := loop{
		n: cfg.N, workers: 2 * cfg.WorkersPerProto, batch: cfg.BatchSize, seed: cfg.Seed,
		lookups: 2 * cfg.Lookups, answered: &gr.answered, maxBackoff: 2 * time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			p := &protos[calls.Add(1)%2]
			if err := p.lookupBatch(pairs, out); err != nil {
				return 0, err
			}
			p.answered.Add(uint64(len(pairs)))
			var backoff time.Duration
			for i := range out {
				backoff = max(backoff, gr.grade(&out[i], nil))
				if out[i].Err == nil {
					seqs.add(out[i].Seq)
				}
			}
			return backoff, nil
		},
	}.run(phases)
	if err != nil {
		return nil, err
	}
	jsonAnswered, binAnswered := protos[0].answered.Load(), protos[1].answered.Load()

	rep := &WireReport{
		Scheme:      cfg.Scheme,
		N:           cfg.N,
		JSONLookups: jsonAnswered,
		BinLookups:  binAnswered,
		Correct:     gr.correct.Load(),
		Degraded:    gr.degraded.Load(),
		Incorrect:   gr.incorrect.Load(),
		Rejected:    gr.rejected.Load(),
		Unavailable: gr.unavailable.Load(),
		Errored:     gr.errored.Load(),
		Swaps:       swapsDone,
		SeqsSeen:    seqs.count(),
		Elapsed:     elapsed,
	}
	if elapsed > 0 {
		rep.QPS = float64(jsonAnswered+binAnswered) / elapsed.Seconds()
	}
	if !rep.Passed() {
		return rep, fmt.Errorf("chaos: wire phase failed: %s", rep)
	}
	return rep, nil
}
