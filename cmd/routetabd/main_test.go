package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"routetab/internal/gengraph"
	"routetab/internal/schemes/landmark"
	"routetab/internal/serve"
)

func testHandler(t *testing.T, n int, scheme string) (http.Handler, *serve.Server) {
	t.Helper()
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(g, scheme)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: 2})
	rep := serve.NewRepairer(srv, serve.RepairOptions{})
	t.Cleanup(func() {
		rep.Close()
		srv.Close()
	})
	return newHandler(&api{srv: srv, rep: rep}, false), srv
}

func getJSON(t *testing.T, h http.Handler, method, target string, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, target, w.Body.String())
	}
	return w.Code, decoded
}

func TestNextHopEndpoint(t *testing.T) {
	h, _ := testHandler(t, 48, "fulltable")
	code, body := getJSON(t, h, "GET", "/nexthop?src=1&dst=40", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	next := int(body["next"].(float64))
	dist := int(body["dist"].(float64))
	nextDist := int(body["next_dist"].(float64))
	if next < 1 || nextDist != dist-1 {
		t.Fatalf("answer does not progress: %v", body)
	}
	if code, body := getJSON(t, h, "GET", "/nexthop?src=1&dst=1", ""); code != http.StatusBadRequest {
		t.Fatalf("self lookup: %d %v", code, body)
	}
	if code, _ := getJSON(t, h, "GET", "/nexthop?src=zzz&dst=2", ""); code != http.StatusBadRequest {
		t.Fatalf("bad param accepted: %d", code)
	}
}

func TestRouteEndpoint(t *testing.T) {
	h, _ := testHandler(t, 48, "fulltable")
	code, body := getJSON(t, h, "GET", "/route?src=1&dst=40", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	path := body["path"].([]any)
	if int(path[0].(float64)) != 1 || int(path[len(path)-1].(float64)) != 40 {
		t.Fatalf("path endpoints: %v", path)
	}
	if int(body["hops"].(float64)) != int(body["dist"].(float64)) {
		t.Fatalf("fulltable route not shortest: %v", body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	h, _ := testHandler(t, 48, "fulltable")
	code, body := getJSON(t, h, "POST", "/batch", `{"pairs":[[1,40],[2,41],[3,42]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results: %v", results)
	}
	for _, raw := range results {
		r := raw.(map[string]any)
		if r["error"] != nil {
			t.Fatalf("batch lookup failed: %v", r)
		}
		if int(r["next_dist"].(float64)) != int(r["dist"].(float64))-1 {
			t.Fatalf("batch answer does not progress: %v", r)
		}
	}
	if code, _ := getJSON(t, h, "POST", "/batch", `{"pairs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch accepted: %d", code)
	}
	if code, _ := getJSON(t, h, "POST", "/batch", `{`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON accepted: %d", code)
	}
}

func TestMutateSwapHealthMetrics(t *testing.T) {
	h, srv := testHandler(t, 48, "fulltable")
	code, body := getJSON(t, h, "GET", "/healthz", "")
	if code != http.StatusOK || body["ok"] != true || body["scheme"] != "fulltable" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	seq0 := uint64(body["snapshot_seq"].(float64))

	code, body = getJSON(t, h, "POST", "/mutate", `{"op":"toggle","u":1,"v":2}`)
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %v", code, body)
	}
	if got := uint64(body["snapshot_seq"].(float64)); got != seq0+1 {
		t.Fatalf("mutate seq %d after %d", got, seq0)
	}

	code, body = getJSON(t, h, "POST", "/swap", "")
	if code != http.StatusOK || uint64(body["snapshot_seq"].(float64)) != seq0+2 {
		t.Fatalf("swap: %d %v", code, body)
	}

	if code, body = getJSON(t, h, "POST", "/mutate", `{"op":"explode","u":1,"v":2}`); code != http.StatusBadRequest {
		t.Fatalf("bad op accepted: %d %v", code, body)
	}

	// Lookups served so far must be visible in /metrics.
	if res := srv.NextHop(1, 9); res.Err != nil {
		t.Fatal(res.Err)
	}
	code, body = getJSON(t, h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	counters := body["counters"].(map[string]any)
	if counters["serve_lookups_total"].(float64) < 1 {
		t.Fatalf("metrics counters: %v", counters)
	}
	gauges := body["gauges"].(map[string]any)
	if uint64(gauges["serve_snapshot_seq"].(float64)) != seq0+2 {
		t.Fatalf("metrics gauges: %v", gauges)
	}
}

// TestFailEndpoint drives the repairer over HTTP: a link failure must be
// accepted, reflected in healthz as degraded staleness, and still leave every
// lookup answerable (correct or bounded-degraded); the repair event must
// return the daemon to a healthy state.
func TestFailEndpoint(t *testing.T) {
	h, _ := testHandler(t, 48, "fulltable")
	code, body := getJSON(t, h, "POST", "/fail", `{"kind":"link","u":1,"v":2,"down":true}`)
	if code != http.StatusOK {
		t.Fatalf("fail: %d %v", code, body)
	}
	// Whatever route the scheme picks for 1→2 now, it must not cross 1-2.
	code, body = getJSON(t, h, "GET", "/nexthop?src=1&dst=2", "")
	if code == http.StatusOK && int(body["next"].(float64)) == 2 {
		t.Fatalf("lookup still forwards over the failed link: %v", body)
	}
	code, body = getJSON(t, h, "POST", "/fail", `{"kind":"link","u":1,"v":2,"down":false}`)
	if code != http.StatusOK {
		t.Fatalf("repair: %d %v", code, body)
	}
	if code, body := getJSON(t, h, "POST", "/fail", `{"kind":"teapot","u":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad kind accepted: %d %v", code, body)
	}
	if code, body := getJSON(t, h, "POST", "/fail", `{"kind":"node","u":4900,"down":true}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node accepted: %d %v", code, body)
	}
	if code, body := getJSON(t, h, "GET", "/healthz", ""); code != http.StatusOK || body["repair_staleness"] == nil {
		t.Fatalf("healthz missing repair fields: %d %v", code, body)
	}
}

// openEngineLog opens the daemon's primary engine from args, as run() does
// before it serves, and returns what the open logged.
func openEngineLog(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	_, _, err = openPrimaryEngine(cfg, out)
	log, rerr := os.ReadFile(out.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(log), err
}

// TestPersistWarmBoot opens the daemon's engine twice against one
// persistence file: the first open cold-builds and saves the snapshot, the
// second must warm-boot from it instead of cold-building.
func TestPersistWarmBoot(t *testing.T) {
	snap := t.TempDir() + "/snap.rtsnap"
	for i := range 2 {
		log, err := openEngineLog(t, "-n", "32", "-seed", "1", "-persist", snap)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if warm := strings.Contains(log, "warm boot"); warm != (i == 1) {
			t.Fatalf("open %d: warm boot = %v, want %v: %s", i, warm, i == 1, log)
		}
	}
}

// TestRTSNAP1FileColdBuilds: the retired snapshot layouts no longer decode —
// a well-formed RTSNAP1 file, and the checked-in RTARENA1 (full tier) and
// RTARENA2 (tables tier) files, whose arenas still stored the port
// assignment, each fail with ErrBadSnapshotFile on both the stream and the
// file path — and a daemon whose -persist file holds one cold-builds and
// overwrites it with an arena. A current arena whose tables are LMTB version
// 1, with ports on BFS-tree parent edges, still opens, but its tables fail
// with ErrBadTables, and the daemon cold-builds over it the same way.
func TestRTSNAP1FileColdBuilds(t *testing.T) {
	g, err := gengraph.GnHalf(32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		t.Fatal(err)
	}
	// RTSNAP1: magic, then HEAD (seq, n, scheme), EGRF (m, E(G) bits), PORT
	// (per node: degree, neighbours in port order) and DIST (packed matrix)
	// frames.
	cur := eng.Current()
	le := binary.LittleEndian
	head := le.AppendUint64(nil, cur.Seq)
	head = le.AppendUint32(head, uint32(g.N()))
	head = le.AppendUint16(head, uint16(len(cur.Scheme)))
	head = append(head, cur.Scheme...)
	egrf := append(le.AppendUint32(nil, uint32(g.M())), g.EncodeBytes()...)
	var ports []byte
	for u := 1; u <= g.N(); u++ {
		row := cur.Ports.NeighborsByPort(u)
		ports = le.AppendUint32(ports, uint32(len(row)))
		for _, v := range row {
			ports = le.AppendUint32(ports, uint32(v))
		}
	}
	var rtsnap1 bytes.Buffer
	rtsnap1.WriteString("RTSNAP1\n")
	for _, f := range []struct {
		tag     string
		payload []byte
	}{{"HEAD", head}, {"EGRF", egrf}, {"PORT", ports}, {"DIST", cur.Dist.Packed()}} {
		if err := serve.WriteFrame(&rtsnap1, [4]byte([]byte(f.tag)), f.payload); err != nil {
			t.Fatal(err)
		}
	}
	olds := map[string][]byte{"RTSNAP1": rtsnap1.Bytes()}
	for _, name := range []string{"rtarena1_n16_seed2_fulltable", "rtarena2_n32_seed2_landmark"} {
		b, err := os.ReadFile("testdata/" + name + ".rtarena")
		if err != nil {
			t.Fatal(err)
		}
		olds[name] = b
	}
	for name, old := range olds {
		if _, err := serve.DecodeSnapshot(bytes.NewReader(old)); !errors.Is(err, serve.ErrBadSnapshotFile) {
			t.Fatalf("%s: stream decode: err = %v, want ErrBadSnapshotFile", name, err)
		}
		snap := t.TempDir() + "/snap.rtsnap"
		if err := os.WriteFile(snap, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := serve.LoadSnapshot(snap); !errors.Is(err, serve.ErrBadSnapshotFile) {
			t.Fatalf("%s: file load: err = %v, want ErrBadSnapshotFile", name, err)
		}
		log, err := openEngineLog(t, "-n", "32", "-seed", "1", "-scheme", "fulltable", "-persist", snap)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log, "cold-building") {
			t.Fatalf("%s: daemon did not cold-build: %s", name, log)
		}
		if _, err := serve.LoadSnapshot(snap); err != nil {
			t.Fatalf("%s: persist file not rewritten as an arena: %v", name, err)
		}
	}

	old, err := os.ReadFile("testdata/rtarena3_lmtb1_n32_seed2_landmark.rtarena")
	if err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir() + "/snap.rtsnap"
	if err := os.WriteFile(snap, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.RestoreEngine(snap); !errors.Is(err, landmark.ErrBadTables) {
		t.Fatalf("LMTB1 tables: restore err = %v, want ErrBadTables", err)
	}
	log, err := openEngineLog(t, "-n", "32", "-seed", "1", "-scheme", "landmark", "-persist", snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log, "cold-building") {
		t.Fatalf("LMTB1 tables: daemon did not cold-build: %s", log)
	}
	if _, err := serve.RestoreEngine(snap); err != nil {
		t.Fatalf("LMTB1 tables: persist file not rewritten with current tables: %v", err)
	}
}

func TestUnknownSchemeFlag(t *testing.T) {
	if _, err := openEngineLog(t, "-n", "32", "-scheme", "bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}
