package routetab

import (
	"routetab/internal/serve"
	"routetab/internal/serve/metrics"
)

// The serving layer (cmd/routetabd's engine), re-exported for the examples
// and downstream users: an in-memory query service holding one built scheme
// behind an immutable, versioned, atomically hot-swappable snapshot, with a
// sharded batching worker pool, explicit backpressure, and built-in metrics.
type (
	// ServeEngine owns the current topology and its published Snapshot;
	// Mutate rebuilds off the hot path and swaps atomically.
	ServeEngine = serve.Engine
	// ServeServer answers NextHop/LookupBatch through the sharded pool.
	ServeServer = serve.Server
	// ServeOptions sizes the server's shards, queues, and batches.
	ServeOptions = serve.ServerOptions
	// ServeSnapshot is one immutable published version: graph, ports,
	// distances, scheme, and monotonic Seq.
	ServeSnapshot = serve.Snapshot
	// LookupResult is one answered lookup with its serving snapshot's
	// distances and Seq, so callers can validate correctness and freshness.
	LookupResult = serve.Result
	// MetricsRegistry is the zero-dependency counter/gauge/histogram
	// registry every ServeServer carries (JSON-marshalable).
	MetricsRegistry = metrics.Registry
)

// NewServeEngine builds schemeName over a private clone of g and publishes
// the first snapshot. Scheme names are listed by ServeSchemes.
func NewServeEngine(g *Graph, schemeName string) (*ServeEngine, error) {
	return serve.NewEngine(g, schemeName)
}

// NewServeServer starts the sharded lookup service over eng. Callers must
// Close it.
func NewServeServer(eng *ServeEngine, opts ServeOptions) *ServeServer {
	return serve.NewServer(eng, opts)
}

// ServeSchemes lists the scheme names the serving layer can build.
func ServeSchemes() []string { return serve.SchemeNames() }
