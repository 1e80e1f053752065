package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

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
	_, err := src.FetchWAL(NoWait, 0)
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
	if _, err := src.FetchWAL(NoWait, 0); err == nil || errors.Is(err, ErrGone) {
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

	if _, err := src.FetchWAL(NoWait, 0); err != nil {
		t.Fatalf("clean fetch: %v", err)
	}
	corrupt.Store(true)
	if _, err := src.FetchWAL(NoWait, 0); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("corrupt fetch err = %v, want ErrBadRecord", err)
	}
}

// probeSource records the context each FetchWAL was handed and answers an
// empty batch at once.
type probeSource struct {
	Source
	ctxs chan context.Context
}

func (s *probeSource) FetchWAL(ctx context.Context, after uint64) (*WALBatch, error) {
	s.ctxs <- ctx
	return &WALBatch{Epoch: 1}, nil
}

// feedGet issues a raw GET against the feed and decodes a 200 body.
func feedGet(t *testing.T, base, query string) (int, *WALBatch) {
	t.Helper()
	resp, err := http.Get(base + PathWAL + "?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	b, err := DecodeWALBatch(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestHTTPLongPollWakesOnAppend: a fetch parked with the longest wait
// returns with the record as soon as the primary appends it.
func TestHTTPLongPollWakesOnAppend(t *testing.T) {
	p := testPrimary(t, 16, 5)
	src := feedServer(t, func() Source { return p })
	after := p.Log().LastSeq()
	type result struct {
		b   *WALBatch
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		b, err := src.FetchWAL(context.Background(), after)
		done <- result{b, err}
	}()
	waitFor(t, "the request to park", func() bool { return parked(p.Log()) })
	toggleEdge(t, p, absentEdge(t, p))
	r := <-done
	if r.err != nil || len(r.b.Records) != 1 || r.b.Records[0].Seq != after+1 || r.b.Epoch != p.Epoch() {
		t.Fatalf("woken fetch: %+v, %v; want record %d under epoch %d", r.b, r.err, after+1, p.Epoch())
	}
	if took := time.Since(start); took >= MaxFeedWait {
		t.Fatalf("fetch took %v: it ran out its wait instead of waking", took)
	}
}

// TestHTTPLongPollTimesOut: with nothing new, a request without wait and a
// wait that runs out both answer 200 with an empty batch carrying the
// primary's epoch; a client whose own deadline ends the wait gets an empty
// batch and no error.
func TestHTTPLongPollTimesOut(t *testing.T) {
	p := testPrimary(t, 16, 5)
	ts := httptest.NewServer(NewHTTPHandler(func() Source { return p }))
	defer ts.Close()
	after := strconv.FormatUint(p.Log().LastSeq(), 10)
	for _, q := range []string{"after=" + after, "after=" + after + "&wait=20ms"} {
		code, b := feedGet(t, ts.URL, q)
		if code != http.StatusOK || len(b.Records) != 0 || b.Epoch != p.Epoch() {
			t.Fatalf("%s: %d %+v, want 200 with an empty epoch-%d batch", q, code, b, p.Epoch())
		}
	}

	src := NewHTTPSource(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	b, err := src.FetchWAL(ctx, p.Log().LastSeq())
	if err != nil || len(b.Records) != 0 {
		t.Fatalf("client deadline: %+v, %v; want an empty batch", b, err)
	}
}

// TestHTTPFeedWaitParameter: the handler caps the wait at MaxFeedWait,
// answers a request without wait through an already-done context (at once),
// and refuses a malformed or negative wait with 400.
func TestHTTPFeedWaitParameter(t *testing.T) {
	probe := &probeSource{ctxs: make(chan context.Context, 1)}
	ts := httptest.NewServer(NewHTTPHandler(func() Source { return probe }))
	defer ts.Close()

	sent := time.Now()
	if code, _ := feedGet(t, ts.URL, "after=0&wait=1h"); code != http.StatusOK {
		t.Fatalf("wait=1h: status %d", code)
	}
	answered := time.Now()
	// The handler set the deadline between sent and answered.
	dl, ok := (<-probe.ctxs).Deadline()
	if !ok || dl.Before(sent.Add(MaxFeedWait)) || dl.After(answered.Add(MaxFeedWait)) {
		t.Fatalf("wait=1h reached the source with deadline %v (set %v), want MaxFeedWait = %v after the request", dl.Sub(sent), ok, MaxFeedWait)
	}

	if code, _ := feedGet(t, ts.URL, "after=0"); code != http.StatusOK {
		t.Fatalf("no wait: status %d", code)
	}
	if ctx := <-probe.ctxs; ctx.Err() == nil {
		t.Fatal("a request without wait reached the source with a live context")
	}

	for _, q := range []string{"after=0&wait=soon", "after=0&wait=-1s", "after=0&wait="} {
		if code, _ := feedGet(t, ts.URL, q); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
	}
}

// TestHTTPLongPollStatusMapping: on the long-poll path too, 410 maps to
// ErrGone and a follower's 503 is a plain transport error.
func TestHTTPLongPollStatusMapping(t *testing.T) {
	p := testPrimary(t, 16, 5)
	toggleEdge(t, p, absentEdge(t, p))
	p.Log().TruncateTo(p.Log().LastSeq())
	if _, err := feedServer(t, func() Source { return p }).FetchWAL(context.Background(), 0); !errors.Is(err, ErrGone) {
		t.Fatalf("truncated position: err = %v, want ErrGone", err)
	}
	_, err := feedServer(t, func() Source { return nil }).FetchWAL(context.Background(), 0)
	if err == nil || errors.Is(err, ErrGone) {
		t.Fatalf("follower: err = %v, want a non-Gone transport error", err)
	}
}
