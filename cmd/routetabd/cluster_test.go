package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/gengraph"
	"routetab/internal/serve"
)

// primaryAPI builds a full primary daemon facade (engine + server + repairer
// wrapped in a cluster.Primary) the way run() does in serving mode.
func primaryAPI(t *testing.T, n int, walKeep int) (*api, *cluster.Primary) {
	t.Helper()
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 2})
	rep := serve.NewRepairer(srv, serve.RepairOptions{})
	pri, err := cluster.NewPrimary(eng, srv, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pri.Close()
		rep.Close()
		srv.Close()
	})
	return &api{srv: srv, rep: rep, pri: pri, walKeep: walKeep}, pri
}

// TestDaemonRolesAndPromotion exercises the daemon's cluster face end to end
// over real HTTP: a replica joins through /cluster/*, rejects mutation with
// 409, then takes over in place via POST /promote.
func TestDaemonRolesAndPromotion(t *testing.T) {
	pa, pri := primaryAPI(t, 32, 0)
	pts := httptest.NewServer(newHandler(pa, false))
	defer pts.Close()

	rpl, err := cluster.JoinReplica(cluster.NewHTTPSource(pts.URL, nil), cluster.ReplicaOptions{})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer rpl.Close()
	ra := &api{srv: rpl.Server(), rep: rpl.Repairer(), rpl: rpl}
	rh := newHandler(ra, false)

	// Mutation endpoints must 409 on a replica.
	for _, req := range []struct{ target, body string }{
		{"/mutate", `{"op":"toggle","u":1,"v":2}`},
		{"/swap", ""},
		{"/fail", `{"kind":"link","u":1,"v":2,"down":true}`},
	} {
		if code, _ := getJSON(t, rh, "POST", req.target, req.body); code != http.StatusConflict {
			t.Fatalf("POST %s on replica: code %d, want 409", req.target, code)
		}
	}
	// A replica does not feed replication.
	if code, _ := getJSON(t, rh, "GET", "/cluster/digest", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("replica /cluster/digest code %d, want 503", code)
	}

	// Mutations on the primary replicate through the feed.
	if code, _ := getJSON(t, newHandler(pa, false), "POST", "/mutate", `{"op":"toggle","u":1,"v":2}`); code != http.StatusOK {
		t.Fatalf("primary mutate failed: %d", code)
	}
	if err := rpl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	pd, _ := pri.FetchDigest()
	if rd := rpl.Digest(); !cluster.Converged(pd, rd) {
		t.Fatalf("digests diverge: %v vs %v", pd, rd)
	}
	code, health := getJSON(t, rh, "GET", "/healthz", "")
	if code != http.StatusOK || health["role"] != "replica" || health["epoch"] != float64(1) {
		t.Fatalf("replica healthz: %d %v", code, health)
	}

	// Promotion flips the role in place under a bumped epoch, idempotently.
	code, body := getJSON(t, rh, "POST", "/promote", "")
	if code != http.StatusOK || body["epoch"] != float64(2) {
		t.Fatalf("promote: %d %v", code, body)
	}
	code, body = getJSON(t, rh, "POST", "/promote", "")
	if code != http.StatusOK || body["already"] != true {
		t.Fatalf("second promote: %d %v", code, body)
	}
	if code, _ := getJSON(t, rh, "POST", "/mutate", `{"op":"toggle","u":3,"v":4}`); code != http.StatusOK {
		t.Fatalf("mutate after promotion: code %d, want 200", code)
	}
	if code, _ := getJSON(t, rh, "GET", "/cluster/digest", ""); code != http.StatusOK {
		t.Fatalf("promoted member must feed /cluster/digest")
	}
	if _, health := getJSON(t, rh, "GET", "/healthz", ""); health["role"] != "primary" {
		t.Fatalf("healthz after promotion: %v", health)
	}
	// A standalone daemon (no cluster member at all) cannot promote.
	sa := &api{srv: pa.srv, rep: pa.rep}
	if code, _ := getJSON(t, newHandler(sa, false), "POST", "/promote", ""); code != http.StatusConflict {
		t.Fatalf("standalone promote: code %d, want 409", code)
	}
}

// TestWALKeepTrims checks the -wal-keep retention bound: after enough
// mutations the log's tail is dropped and an old position gets ErrGone.
func TestWALKeepTrims(t *testing.T) {
	pa, pri := primaryAPI(t, 24, 2)
	h := newHandler(pa, false)
	for i := 0; i < 5; i++ {
		if code, _ := getJSON(t, h, "POST", "/mutate", `{"op":"toggle","u":1,"v":2}`); code != http.StatusOK {
			t.Fatalf("mutate %d failed", i)
		}
	}
	if _, err := pri.FetchWAL(context.Background(), 0); !errors.Is(err, cluster.ErrGone) {
		t.Fatalf("FetchWAL(0) after trim: %v, want ErrGone", err)
	}
	if last := pri.Log().LastSeq(); last < 5 {
		t.Fatalf("LastSeq = %d, want ≥ 5", last)
	}
	if _, err := pri.FetchWAL(context.Background(), pri.Log().LastSeq()-2); err != nil {
		t.Fatalf("recent position must stay fetchable: %v", err)
	}
}

// TestSigtermFlushesFinalSnapshot is the shutdown-flush regression test: a
// SIGTERM'd serving daemon must leave a warm-bootable snapshot of exactly
// the state it was serving, even when the publish-time save is missing —
// here the persisted file is deleted mid-run and only the final flush can
// restore it.
func TestSigtermFlushesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	persist := dir + "/snap.rtsnap"
	out, err := os.CreateTemp(dir, "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-n", "24", "-seed", "2", "-addr", "127.0.0.1:0",
			"-persist", persist}, out)
	}()

	// The daemon prints its chosen address once the listener is up.
	addrRe := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never reported its address")
		}
		blob, _ := os.ReadFile(out.Name())
		if m := addrRe.FindSubmatch(blob); m != nil {
			addr = string(m[1])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Post("http://"+addr+"/mutate", "application/json",
		strings.NewReader(`{"op":"toggle","u":1,"v":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %s", resp.Status)
	}
	// Wipe the publish-time save so only the SIGTERM flush can recreate it.
	if err := os.Remove(persist); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}

	blob, _ := os.ReadFile(out.Name())
	if !strings.Contains(string(blob), "final snapshot persisted (seq=2)") {
		t.Fatalf("missing flush confirmation in output: %s", blob)
	}
	eng, err := serve.RestoreEngine(persist)
	if err != nil {
		t.Fatalf("warm boot from flushed snapshot: %v", err)
	}
	if snap := eng.Current(); snap.Seq != 2 {
		t.Fatalf("flushed snapshot seq = %d, want 2", snap.Seq)
	}
}

// TestSigtermFinalizesWAL is the WAL-shutdown regression test (the durable
// counterpart of TestSigtermFlushesFinalSnapshot): a SIGTERM'd primary must
// fsync and finalize its open WAL segment, and the next boot must recover a
// clean log — same epoch, every record replayable, zero torn bytes.
func TestSigtermFinalizesWAL(t *testing.T) {
	dir := t.TempDir()
	walDir := dir + "/wal"
	out, err := os.CreateTemp(dir, "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-n", "24", "-seed", "2", "-addr", "127.0.0.1:0",
			"-wal-dir", walDir}, out)
	}()

	addrRe := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never reported its address")
		}
		blob, _ := os.ReadFile(out.Name())
		if m := addrRe.FindSubmatch(blob); m != nil {
			addr = string(m[1])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	for i := 0; i < 2; i++ {
		resp, err := http.Post("http://"+addr+"/mutate", "application/json",
			strings.NewReader(`{"op":"toggle","u":1,"v":2}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: %s", i, resp.Status)
		}
	}
	// The healthz surface must report durable journaling with zero failures.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["wal_durable"] != true || health["wal_failures"] != float64(0) {
		t.Fatalf("healthz wal fields: %v", health)
	}

	// A replica's long poll parked on the feed must not hold up the drain:
	// shutdown answers it at once instead of sitting out its wait. (If the
	// server had not read the request yet when shutdown began, the client
	// gets a transport error instead; either way nothing waits.)
	wrote := make(chan struct{})
	poll := make(chan error, 1)
	go func() { poll <- longPoll("http://"+addr, 2, wrote) }()
	select {
	case <-wrote:
	case err := <-poll:
		t.Fatalf("long poll: %v", err)
	}
	sent := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	if took := time.Since(sent); took >= cluster.MaxFeedWait/2 {
		t.Fatalf("daemon took %v to drain, want well under the long poll's %v wait", took, cluster.MaxFeedWait)
	}
	if err := <-poll; errors.Is(err, errPollRecords) {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(out.Name())
	if !strings.Contains(string(blob), "wal finalized (seq=2)") {
		t.Fatalf("missing WAL finalize confirmation in output: %s", blob)
	}

	// Restart path: recovery over the real directory must resume epoch 1
	// with both records replayed and nothing torn or dropped.
	g, err := gengraph.GnHalf(24, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 2})
	defer srv.Close()
	rep := serve.NewRepairer(srv, serve.RepairOptions{Debounce: -1})
	defer rep.Close()
	log, rpt, err := cluster.RecoverPrimaryLog(eng, rep, cluster.RecoverConfig{Dir: walDir})
	if err != nil {
		t.Fatalf("recovery after clean shutdown: %v", err)
	}
	defer log.CloseWAL()
	if rpt.EpochBumped || rpt.Epoch != 1 {
		t.Fatalf("clean shutdown must resume epoch 1: %+v", rpt)
	}
	if rpt.Replayed != 2 || rpt.TornBytes != 0 || rpt.DroppedSegments != 0 {
		t.Fatalf("recovery report: %+v", rpt)
	}
	if eng.Current().Seq != 3 {
		t.Fatalf("recovered snapshot seq %d, want 3", eng.Current().Seq)
	}
}

// tablesPrimaryAPI builds a tables-tier daemon facade the way run() does for
// -tier tables with a WAL-less primary: landmark scheme over a sparse
// topology, full cluster citizen.
func tablesPrimaryAPI(t *testing.T, n int) (*api, *cluster.Primary) {
	t.Helper()
	g, err := gengraph.SparseConnected(n, 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewTieredEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 2})
	rep := serve.NewRepairer(srv, serve.RepairOptions{})
	pri, err := cluster.NewPrimary(eng, srv, rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pri.Close()
		rep.Close()
		srv.Close()
	})
	return &api{srv: srv, rep: rep, pri: pri}, pri
}

// TestClusterObservabilitySurfaces: tier, wal_seq, and replica_lag_seq must
// be visible on /healthz and as /metrics gauges, on both halves of a
// tables-tier primary/replica pair, and the replica's fetch counters as
// /metrics gauges.
func TestClusterObservabilitySurfaces(t *testing.T) {
	pa, pri := tablesPrimaryAPI(t, 64)
	registerClusterGauges(pa)
	ph := newHandler(pa, false)
	pts := httptest.NewServer(ph)
	defer pts.Close()

	rpl, err := cluster.JoinReplica(cluster.NewHTTPSource(pts.URL, nil), cluster.ReplicaOptions{})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer rpl.Close()
	ra := &api{srv: rpl.Server(), rep: rpl.Repairer(), rpl: rpl}
	registerClusterGauges(ra)
	rh := newHandler(ra, false)

	// One replicated mutation so wal_seq moves off zero.
	if code, _ := getJSON(t, ph, "POST", "/mutate", `{"op":"toggle","u":1,"v":3}`); code != http.StatusOK {
		t.Fatal("primary mutate failed")
	}
	if err := rpl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	wantSeq := float64(pri.Log().LastSeq())

	code, health := getJSON(t, ph, "GET", "/healthz", "")
	if code != http.StatusOK || health["tier"] != serve.TierTables {
		t.Fatalf("primary healthz tier: %d %v", code, health["tier"])
	}
	if health["wal_seq"] != wantSeq || health["replica_lag_seq"] != float64(0) {
		t.Fatalf("primary healthz replication fields: wal_seq=%v lag=%v", health["wal_seq"], health["replica_lag_seq"])
	}
	_, metrics := getJSON(t, ph, "GET", "/metrics", "")
	gauges := metrics["gauges"].(map[string]any)
	if gauges["tier"] != float64(1) || gauges["wal_seq"] != wantSeq || gauges["replica_lag_seq"] != float64(0) {
		t.Fatalf("primary metrics gauges: %v", gauges)
	}

	code, health = getJSON(t, rh, "GET", "/healthz", "")
	if code != http.StatusOK || health["tier"] != serve.TierTables || health["role"] != "replica" {
		t.Fatalf("replica healthz: %d %v", code, health)
	}
	if health["wal_seq"] != wantSeq {
		t.Fatalf("replica healthz wal_seq=%v, want %v", health["wal_seq"], wantSeq)
	}
	if _, ok := health["replica_lag_seq"].(float64); !ok {
		t.Fatalf("replica healthz missing replica_lag_seq: %v", health)
	}
	_, metrics = getJSON(t, rh, "GET", "/metrics", "")
	gauges = metrics["gauges"].(map[string]any)
	if gauges["tier"] != float64(1) || gauges["wal_seq"] != wantSeq {
		t.Fatalf("replica metrics gauges: %v", gauges)
	}
	if _, ok := gauges["replica_lag_seq"].(float64); !ok {
		t.Fatalf("replica metrics missing replica_lag_seq: %v", gauges)
	}
	// One Sync so far, and it brought the mutation; a second finds nothing.
	if gauges["cluster_replica_fetches_total"] != float64(1) || gauges["cluster_replica_empty_fetches_total"] != float64(0) {
		t.Fatalf("replica fetch gauges after one sync: %v", gauges)
	}
	if err := rpl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	_, metrics = getJSON(t, rh, "GET", "/metrics", "")
	gauges = metrics["gauges"].(map[string]any)
	if gauges["cluster_replica_fetches_total"] != float64(2) || gauges["cluster_replica_empty_fetches_total"] != float64(1) {
		t.Fatalf("replica fetch gauges after an empty sync: %v", gauges)
	}

	// The full tier reports tier 0 on the same gauge.
	fa, _ := primaryAPI(t, 16, 0)
	registerClusterGauges(fa)
	_, metrics = getJSON(t, newHandler(fa, false), "GET", "/metrics", "")
	gauges = metrics["gauges"].(map[string]any)
	if gauges["tier"] != float64(0) {
		t.Fatalf("full-tier gauge: %v", gauges["tier"])
	}
}

// errPollRecords reports a long poll that returned records where none exist.
var errPollRecords = errors.New("long poll returned records past the frontier")

// longPoll asks base's feed for the records after `after` with the longest
// wait, closes wrote once the request is on the wire, and expects a 200 with
// an empty batch.
func longPoll(base string, after uint64, wrote chan struct{}) error {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s%s?after=%d&wait=%v", base, cluster.PathWAL, after, cluster.MaxFeedWait), nil)
	if err != nil {
		return err
	}
	var once sync.Once
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { once.Do(func() { close(wrote) }) },
	}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	b, err := cluster.DecodeWALBatch(resp.Body)
	if err != nil {
		return err
	}
	if len(b.Records) != 0 {
		return fmt.Errorf("%w: %d", errPollRecords, len(b.Records))
	}
	return nil
}
