// HTTP transport for replication: NewHTTPHandler exposes a Primary's
// replication feed under /cluster/*, and HTTPSource is the matching client —
// a Source a replica can point at a routetabd peer. The wire bodies are the
// same CRC-framed binary forms used in-process (EncodeState/EncodeWALBatch),
// so a corrupted or truncated response is rejected by the codec and surfaces
// as ErrBadRecord, which drives the replica's full-resync fallback; digests
// travel as JSON. The WAL feed is a long poll: GET /cluster/wal?after=N&wait=D
// parks on the primary's change signal for at most D (capped at
// MaxFeedWait) and answers as soon as a record past N exists; without wait
// it answers at once. A follower answering the feed endpoints returns 503 — the
// caller treats that like any other transport failure and keeps serving its
// last-adopted state.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Replication feed paths, shared by handler and client.
const (
	PathState  = "/cluster/state"
	PathWAL    = "/cluster/wal"
	PathDigest = "/cluster/digest"
)

// MaxFeedWait caps the wait a /cluster/wal request may ask for, well under
// NewHTTPSource's 10 s default client timeout.
const MaxFeedWait = 5 * time.Second

// SourceProvider returns the Source to feed replicas from, or nil when this
// member is not currently a primary (the endpoints then answer 503). A
// provider instead of a fixed Source lets a daemon change roles — a promoted
// replica starts feeding without remounting its HTTP mux.
type SourceProvider func() Source

// NewHTTPHandler serves a replication feed under /cluster/state, /cluster/wal
// and /cluster/digest. Mount it at the mux root (the paths are absolute).
func NewHTTPHandler(provider SourceProvider) http.Handler {
	h := &httpFeed{provider: provider}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathState, h.state)
	mux.HandleFunc("GET "+PathWAL, h.wal)
	mux.HandleFunc("GET "+PathDigest, h.digest)
	return mux
}

type httpFeed struct {
	provider SourceProvider
}

func (h *httpFeed) source(w http.ResponseWriter) (Source, bool) {
	src := h.provider()
	if src == nil {
		httpError(w, http.StatusServiceUnavailable, errors.New("not primary"))
		return nil, false
	}
	return src, true
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (h *httpFeed) state(w http.ResponseWriter, _ *http.Request) {
	src, ok := h.source(w)
	if !ok {
		return
	}
	st, err := src.FetchState()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	// Encode to a buffer first so an encoding failure can still become a 500
	// instead of a torn 200 body.
	var buf bytes.Buffer
	if err := EncodeState(&buf, st); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (h *httpFeed) wal(w http.ResponseWriter, r *http.Request) {
	src, ok := h.source(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad after: %w", err))
		return
	}
	ctx := NoWait
	if q.Has("wait") {
		wait, err := time.ParseDuration(q.Get("wait"))
		if err != nil || wait < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", q.Get("wait")))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(r.Context(), min(wait, MaxFeedWait))
		defer cancel()
	}
	batch, err := src.FetchWAL(ctx, after)
	switch {
	case errors.Is(err, ErrGone):
		// 410 Gone is the wire form of ErrGone: the requested records were
		// truncated, fall back to a full state fetch.
		httpError(w, http.StatusGone, err)
		return
	case err != nil:
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	var buf bytes.Buffer
	if err := EncodeWALBatch(&buf, batch); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (h *httpFeed) digest(w http.ResponseWriter, _ *http.Request) {
	src, ok := h.source(w)
	if !ok {
		return
	}
	d, err := src.FetchDigest()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(d)
}

// HTTPSource implements Source over a peer's /cluster endpoints. Safe for
// concurrent use (the underlying http.Client is).
type HTTPSource struct {
	base string
	c    *http.Client
}

var _ Source = (*HTTPSource)(nil)

// NewHTTPSource builds a Source over the peer at base (e.g.
// "http://127.0.0.1:7353"). client may be nil for a default with a 10s
// timeout.
func NewHTTPSource(base string, client *http.Client) *HTTPSource {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &HTTPSource{base: strings.TrimRight(base, "/"), c: client}
}

// Base returns the peer URL this source fetches from.
func (s *HTTPSource) Base() string { return s.base }

// get performs one feed request and hands back the body. Status mapping: 410
// becomes ErrGone; anything else non-200 is a transport-level error carrying
// the peer's message.
func (s *HTTPSource) get(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := readErrBody(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			return nil, fmt.Errorf("%w: %s", ErrGone, msg)
		}
		return nil, fmt.Errorf("cluster: %s: %s (%s)", path, resp.Status, msg)
	}
	return resp.Body, nil
}

// readErrBody extracts the handler's JSON error message, falling back to the
// raw (truncated) body.
func readErrBody(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(raw) == 0 {
		return "no body"
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// FetchState implements Source.
func (s *HTTPSource) FetchState() (*State, error) {
	body, err := s.get(context.TODO(), PathState)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return DecodeState(body)
}

// FetchWAL implements Source. A truncated-away position surfaces as ErrGone
// (from the peer's 410); a corrupted body is rejected by the codec as
// ErrBadRecord — both drive the replica to a full resync. A live ctx becomes
// the request's wait: MaxFeedWait, or 7/8 of the time left before ctx's
// deadline, so the peer's empty answer (which carries its epoch) arrives
// before the deadline aborts the request. If ctx ends mid-request the batch
// is empty with Epoch 0.
func (s *HTTPSource) FetchWAL(ctx context.Context, after uint64) (*WALBatch, error) {
	path := PathWAL + "?after=" + strconv.FormatUint(after, 10)
	if ctx.Err() != nil {
		ctx = context.Background() // one poll: the peer answers at once
	} else {
		wait := MaxFeedWait
		if dl, ok := ctx.Deadline(); ok {
			wait = min(wait, time.Until(dl)*7/8)
		}
		path += "&wait=" + max(wait, 0).String()
	}
	body, err := s.get(ctx, path)
	if err != nil {
		if ctx.Err() != nil {
			return &WALBatch{}, nil
		}
		return nil, err
	}
	defer body.Close()
	b, err := DecodeWALBatch(body)
	if err != nil && ctx.Err() != nil {
		return &WALBatch{}, nil
	}
	return b, err
}

// FetchDigest implements Source.
func (s *HTTPSource) FetchDigest() (Digest, error) {
	body, err := s.get(context.TODO(), PathDigest)
	if err != nil {
		return Digest{}, err
	}
	defer body.Close()
	var d Digest
	if err := json.NewDecoder(body).Decode(&d); err != nil {
		return Digest{}, fmt.Errorf("cluster: digest decode: %w", err)
	}
	return d, nil
}
