package cluster

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"routetab/internal/graph"
)

// feedServer mounts the replication feed for p behind an httptest server and
// returns a Source pointing at it.
func feedServer(t *testing.T, provider SourceProvider) *HTTPSource {
	t.Helper()
	ts := httptest.NewServer(NewHTTPHandler(provider))
	t.Cleanup(ts.Close)
	return NewHTTPSource(ts.URL, ts.Client())
}

// TestHTTPReplicationEndToEnd drives the full replica lifecycle over real
// HTTP: join from /cluster/state, stream /cluster/wal, fall back through 410
// Gone after truncation, and converge byte-identically throughout.
func TestHTTPReplicationEndToEnd(t *testing.T) {
	p := testPrimary(t, 24, 3)
	src := feedServer(t, func() Source { return p })

	r, err := JoinReplica(src, ReplicaOptions{})
	if err != nil {
		t.Fatalf("join over http: %v", err)
	}
	defer r.Close()
	requireConverged(t, p, r)

	// Incremental replay over the wire.
	edges := p.Engine().Current().Graph.Edges()
	for i := 0; i < 3; i++ {
		e := edges[i*5]
		if _, err := p.Mutate(func(g *graph.Graph) error {
			if g.HasEdge(e[0], e[1]) {
				if err := g.RemoveEdge(e[0], e[1]); err != nil {
					return err
				}
				if !g.IsConnected() {
					return g.AddEdge(e[0], e[1])
				}
				return nil
			}
			return g.AddEdge(e[0], e[1])
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetLinkDown(edges[1][0], edges[1][1], true); err != nil {
		t.Fatal(err)
	}
	// The link event schedules a background repair rebuild whose publish
	// record could land between the sync and the convergence check.
	if err := p.Repairer().Flush(); err != nil {
		t.Fatal(err)
	}
	syncOK(t, r)
	requireConverged(t, p, r)
	if _, resyncs, _ := r.Stats(); resyncs != 0 {
		t.Fatalf("incremental path resynced %d times", resyncs)
	}

	// Truncate the WAL out from under the replica: the peer answers 410, the
	// source surfaces ErrGone, and the replica falls back to a state fetch.
	if _, err := p.Mutate(func(g *graph.Graph) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Log().TruncateTo(p.Log().LastSeq())
	syncOK(t, r)
	requireConverged(t, p, r)
	if _, resyncs, _ := r.Stats(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1 after truncation", resyncs)
	}
}

// TestHTTPSourceGone checks the 410 → ErrGone mapping directly.
func TestHTTPSourceGone(t *testing.T) {
	p := testPrimary(t, 16, 5)
	src := feedServer(t, func() Source { return p })
	if _, err := p.Mutate(func(g *graph.Graph) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Log().TruncateTo(p.Log().LastSeq())
	_, err := src.FetchWAL(0)
	if !errors.Is(err, ErrGone) {
		t.Fatalf("err = %v, want ErrGone", err)
	}
}

// TestHTTPFeedNotPrimary checks that a follower (nil provider) answers 503
// and the client reports it as a plain transport-level error, not ErrGone.
func TestHTTPFeedNotPrimary(t *testing.T) {
	src := feedServer(t, func() Source { return nil })
	if _, err := src.FetchState(); err == nil || errors.Is(err, ErrGone) {
		t.Fatalf("FetchState err = %v, want non-Gone error", err)
	}
	if _, err := src.FetchWAL(0); err == nil || errors.Is(err, ErrGone) {
		t.Fatalf("FetchWAL err = %v, want non-Gone error", err)
	}
	if _, err := src.FetchDigest(); err == nil {
		t.Fatal("FetchDigest succeeded against a follower")
	}
}

// TestHTTPSourceRejectsCorruptBody flips one bit of an otherwise-valid WAL
// response in transit; the codec must reject it as ErrBadRecord so the
// replica's resync fallback fires.
func TestHTTPSourceRejectsCorruptBody(t *testing.T) {
	p := testPrimary(t, 16, 9)
	if _, err := p.Mutate(func(g *graph.Graph) error { return nil }); err != nil {
		t.Fatal(err)
	}

	inner := NewHTTPHandler(func() Source { return p })
	var corrupt atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !corrupt.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body, _ := io.ReadAll(rec.Body)
		if len(body) > 12 {
			body[len(body)/2] ^= 0x10
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	src := NewHTTPSource(ts.URL, ts.Client())

	if _, err := src.FetchWAL(0); err != nil {
		t.Fatalf("clean fetch: %v", err)
	}
	corrupt.Store(true)
	if _, err := src.FetchWAL(0); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("corrupt fetch err = %v, want ErrBadRecord", err)
	}
}
