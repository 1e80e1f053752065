// Package httpapi holds the JSON lookup API shared by routetabd, the
// benchmark harness, and the chaos suite: the wire shape of one lookup, the
// pooled POST /batch handler, and a client that maps answers back onto typed
// serve errors. Keeping encode and decode in one package pins the two sides
// to the same contract.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"routetab/internal/serve"
)

// LookupJSON is one lookup's JSON form. Degraded marks a failure-overlay
// detour (bounded within +2 hops of the snapshot distance); RetryAfterMs
// carries the shed hint for 429s at millisecond resolution, alongside the
// coarser integral-seconds Retry-After header.
type LookupJSON struct {
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	Next         int     `json:"next,omitempty"`
	Dist         int     `json:"dist"`
	NextDist     int     `json:"next_dist"`
	Seq          uint64  `json:"snapshot_seq"`
	Degraded     bool    `json:"degraded,omitempty"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// ToJSON converts one answered lookup.
func ToJSON(src, dst int, res serve.Result) LookupJSON {
	l := LookupJSON{Src: src, Dst: dst, Next: res.Next, Dist: res.Dist,
		NextDist: res.NextDist, Seq: res.Seq, Degraded: res.Degraded}
	if res.Err != nil {
		l.Error = res.Err.Error()
	}
	var oe *serve.OverloadedError
	if errors.As(res.Err, &oe) {
		l.RetryAfterMs = float64(oe.RetryAfter.Microseconds()) / 1000
	}
	return l
}

// Result maps a LookupJSON back onto a serve.Result with its errors.Is
// identity restored, so graders and routers treat HTTP answers exactly like
// in-process ones.
func (l LookupJSON) Result() serve.Result {
	res := serve.Result{Next: l.Next, Dist: l.Dist, NextDist: l.NextDist,
		Seq: l.Seq, Degraded: l.Degraded}
	if l.Error != "" {
		res.Next, res.Dist, res.NextDist = 0, 0, 0
		res.Err = decodeError(l.Error, l.RetryAfterMs)
	}
	return res
}

// decodeError recovers the typed error from its rendered string — the JSON
// protocol predates structured error codes, so identity rides on the
// sentinel messages, which are all distinct prefixes.
func decodeError(msg string, retryMs float64) error {
	switch {
	// Both the sentinel ("server overloaded, lookup rejected") and the
	// structured form ("shard N overloaded, retry after …") say so; a
	// retry-after hint is overload by definition.
	case retryMs > 0, strings.Contains(msg, "overloaded"):
		return &serve.OverloadedError{
			RetryAfter: time.Duration(retryMs * float64(time.Millisecond)),
		}
	case strings.Contains(msg, serve.ErrUnavailable.Error()):
		return serve.ErrUnavailable
	case strings.Contains(msg, serve.ErrSelfLookup.Error()):
		return serve.ErrSelfLookup
	case strings.Contains(msg, serve.ErrClosed.Error()):
		return serve.ErrClosed
	case strings.Contains(msg, serve.ErrPanicked.Error()):
		return serve.ErrPanicked
	default:
		return errors.New(msg)
	}
}

// StatusOf maps a lookup answer to its HTTP status.
func StatusOf(res serve.Result) int {
	switch {
	case res.Err == nil:
		return http.StatusOK
	case errors.Is(res.Err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(res.Err, serve.ErrUnavailable), errors.Is(res.Err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// SetRetryAfter adds the standard Retry-After header (integral seconds,
// rounded up — the hint is sub-second, the header cannot be) on responses
// that reject with backpressure.
func SetRetryAfter(w http.ResponseWriter, res serve.Result) {
	var oe *serve.OverloadedError
	switch {
	case errors.As(res.Err, &oe):
		secs := int64(oe.RetryAfter+time.Second-1) / int64(time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	case errors.Is(res.Err, serve.ErrOverloaded), errors.Is(res.Err, serve.ErrClosed):
		w.Header().Set("Retry-After", "1")
	}
}

// MaxBatch bounds one POST /batch request.
const MaxBatch = 65536

// batchRequest is the POST /batch body.
type batchRequest struct {
	Pairs [][2]int `json:"pairs"`
}

// batchResponse is its reply.
type batchResponse struct {
	Results []LookupJSON `json:"results"`
}

// batchScratch is one request's pooled state: the decoded pairs, the lookup
// results, the JSON forms, and the response buffer all reuse prior requests'
// backing arrays, so a steady-state batch request costs decode/encode work
// but no per-request slice churn.
type batchScratch struct {
	req     batchRequest
	out     []serve.Result
	results []LookupJSON
	buf     bytes.Buffer
}

// batchHandler is the pooled POST /batch implementation.
type batchHandler struct {
	srv  *serve.Server
	pool sync.Pool
}

// NewBatchHandler returns the POST /batch handler over srv, with pooled
// per-request buffers.
func NewBatchHandler(srv *serve.Server) http.Handler {
	h := &batchHandler{srv: srv}
	h.pool.New = func() any { return &batchScratch{} }
	return h
}

func (h *batchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	sc := h.pool.Get().(*batchScratch)
	defer h.pool.Put(sc)
	sc.req.Pairs = sc.req.Pairs[:0]
	if err := json.NewDecoder(r.Body).Decode(&sc.req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pairs := sc.req.Pairs
	if len(pairs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(pairs) > MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds %d", len(pairs), MaxBatch))
		return
	}
	if cap(sc.out) < len(pairs) {
		sc.out = make([]serve.Result, len(pairs))
		sc.results = make([]LookupJSON, len(pairs))
	}
	out, results := sc.out[:len(pairs)], sc.results[:len(pairs)]
	if err := h.srv.LookupBatch(pairs, out); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for i, res := range out {
		results[i] = ToJSON(pairs[i][0], pairs[i][1], res)
	}
	sc.buf.Reset()
	enc := json.NewEncoder(&sc.buf)
	if err := enc.Encode(batchResponse{Results: results}); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(sc.buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// BatchClient drives a remote POST /batch endpoint and restores typed
// errors, mirroring the wire package's binary client for the JSON protocol.
type BatchClient struct {
	base string
	hc   *http.Client
	pool sync.Pool // *clientScratch
}

type clientScratch struct {
	buf  bytes.Buffer
	resp batchResponse
}

// NewBatchClient builds a client for the server rooted at base
// (e.g. "http://127.0.0.1:7353"). hc nil means a dedicated client with
// keep-alive connections.
func NewBatchClient(base string, hc *http.Client) *BatchClient {
	if hc == nil {
		hc = &http.Client{}
	}
	c := &BatchClient{base: strings.TrimRight(base, "/"), hc: hc}
	c.pool.New = func() any { return &clientScratch{} }
	return c
}

// LookupBatch aliases Batch under the cluster.BatchBackend method name, so
// one seeded workload can drive in-process, JSON, and binary targets alike.
func (c *BatchClient) LookupBatch(pairs [][2]int, out []serve.Result) error {
	return c.Batch(pairs, out)
}

// Batch answers len(pairs) lookups in one POST. Per-lookup failures land in
// out[i].Err; the returned error reports transport or protocol failures.
func (c *BatchClient) Batch(pairs [][2]int, out []serve.Result) error {
	if len(out) < len(pairs) {
		return fmt.Errorf("httpapi: out len %d < pairs len %d", len(out), len(pairs))
	}
	sc := c.pool.Get().(*clientScratch)
	defer c.pool.Put(sc)
	sc.buf.Reset()
	if err := json.NewEncoder(&sc.buf).Encode(batchRequest{Pairs: pairs}); err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/batch", "application/json", &sc.buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return fmt.Errorf("httpapi: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("httpapi: %s", resp.Status)
	}
	sc.resp.Results = sc.resp.Results[:0]
	if err := json.NewDecoder(resp.Body).Decode(&sc.resp); err != nil {
		return err
	}
	if len(sc.resp.Results) != len(pairs) {
		return fmt.Errorf("httpapi: %d results for %d pairs", len(sc.resp.Results), len(pairs))
	}
	for i, l := range sc.resp.Results {
		out[i] = l.Result()
	}
	return nil
}
