package main

import (
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"routetab/internal/cluster"
	"routetab/internal/cluster/shard"
	"routetab/internal/gengraph"
	"routetab/internal/serve"
)

// TestShardMapInitAndSplitCLI drives the map-maintenance commands end to end:
// -shard-map + -shard-groups bootstraps an epoch-1 uniform map, -split
// reshapes it atomically under a bumped epoch, and both refuse nonsense.
func TestShardMapInitAndSplitCLI(t *testing.T) {
	dir := t.TempDir()
	mapPath := dir + "/cluster.rtsmap"
	out, err := os.CreateTemp(dir, "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	if err := run([]string{"-shard-map", mapPath, "-shard-groups", "2", "-n", "96"}, out); err != nil {
		t.Fatalf("map init: %v", err)
	}
	blob, err := os.ReadFile(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Decode(blob)
	if err != nil {
		t.Fatalf("decode initialised map: %v", err)
	}
	if m.Epoch != 1 || m.Groups != 2 || m.N != 96 {
		t.Fatalf("initialised map: %s", m)
	}
	// Re-initialising over an existing map must be refused, not overwrite.
	if err := run([]string{"-shard-map", mapPath, "-shard-groups", "3", "-n", "96"}, out); err == nil {
		t.Fatal("re-init over an existing map accepted")
	}

	if err := run([]string{"-split", "0", "-shard-map", mapPath}, out); err != nil {
		t.Fatalf("split: %v", err)
	}
	blob, err = os.ReadFile(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	next, err := shard.Decode(blob)
	if err != nil {
		t.Fatalf("decode split map: %v", err)
	}
	if next.Epoch != 2 || next.Groups != 3 {
		t.Fatalf("split map: %s", next)
	}
	// Every node must still land in exactly one live group.
	for u := 1; u <= next.N; u++ {
		if g := next.GroupFor(u); g < 0 || g >= next.Groups {
			t.Fatalf("node %d placed in group %d of %d", u, g, next.Groups)
		}
	}
	if err := run([]string{"-split", "9", "-shard-map", mapPath}, out); err == nil {
		t.Fatal("split of a nonexistent group accepted")
	}
	if err := run([]string{"-split", "0"}, out); err == nil {
		t.Fatal("-split without -shard-map accepted")
	}
	if _, err := openEngineLog(t, "-shard", "0", "-n", "96"); err == nil {
		t.Fatal("-shard without -shard-map accepted")
	}
}

// shardPrimaryAPI builds a sharded tables-tier daemon facade the way run()
// does for -shard: map loaded from disk, engine restricted to the group's
// owned set, wrapped as a cluster primary.
func shardPrimaryAPI(t *testing.T, n, id, groups int) (*api, *serve.Engine) {
	t.Helper()
	mapPath := t.TempDir() + "/cluster.rtsmap"
	m, err := shard.NewUniform(n, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMapAtomic(mapPath, m); err != nil {
		t.Fatal(err)
	}
	cfg := &config{n: n, seed: 9, scheme: "landmark", tier: "tables", topo: "sparse",
		avgdeg: 5, shardID: id, shardMapF: mapPath}
	sh, err := loadShardInfo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { devnull.Close() })
	eng, _, err := openEngine(cfg, sh, devnull)
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
	return &api{srv: srv, rep: rep, pri: pri, shard: sh}, eng
}

// TestShardObservabilitySurfaces: shard_id, shard_count, shard_map_epoch,
// and rebalance_inflight must be visible on /healthz and as /metrics gauges
// (the shard-mode counterpart of TestClusterObservabilitySurfaces), lookups
// must split into owned-served / foreign-refused, and a replicated ownership
// handover the map file does not describe must flip rebalance_inflight.
func TestShardObservabilitySurfaces(t *testing.T) {
	const n, id, groups = 64, 0, 2
	a, eng := shardPrimaryAPI(t, n, id, groups)
	registerClusterGauges(a)
	registerShardGauges(a)
	h := newHandler(a, false)

	code, health := getJSON(t, h, "GET", "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, health)
	}
	if health["shard_id"] != float64(id) || health["shard_count"] != float64(groups) {
		t.Fatalf("healthz placement: id=%v count=%v", health["shard_id"], health["shard_count"])
	}
	if health["shard_map_epoch"] != float64(1) || health["rebalance_inflight"] != float64(0) {
		t.Fatalf("healthz map state: epoch=%v inflight=%v",
			health["shard_map_epoch"], health["rebalance_inflight"])
	}
	_, metrics := getJSON(t, h, "GET", "/metrics", "")
	gauges := metrics["gauges"].(map[string]any)
	if gauges["shard_id"] != float64(id) || gauges["shard_count"] != float64(groups) ||
		gauges["shard_map_epoch"] != float64(1) || gauges["rebalance_inflight"] != float64(0) {
		t.Fatalf("metrics gauges: %v", gauges)
	}
	if gauges["tier"] != float64(1) {
		t.Fatalf("sharded daemon must serve the tables tier: %v", gauges["tier"])
	}

	// An owned source answers; a foreign one is refused with ErrWrongShard.
	owned := eng.Owned()
	var ownedSrc, foreignSrc int
	for u := 1; u <= n; u++ {
		if owned.Has(u) && ownedSrc == 0 {
			ownedSrc = u
		}
		if !owned.Has(u) && foreignSrc == 0 {
			foreignSrc = u
		}
	}
	dst := ownedSrc%n + 1
	if dst == ownedSrc {
		dst = dst%n + 1
	}
	if code, body := getJSON(t, h, "GET",
		"/nexthop?src="+strconv.Itoa(ownedSrc)+"&dst="+strconv.Itoa(dst), ""); code != http.StatusOK {
		t.Fatalf("owned lookup %d→%d: %d %v", ownedSrc, dst, code, body)
	}
	code, body := getJSON(t, h, "GET",
		"/nexthop?src="+strconv.Itoa(foreignSrc)+"&dst="+strconv.Itoa(dst), "")
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "not owned") {
		t.Fatalf("foreign lookup %d→%d: %d %v", foreignSrc, dst, code, body)
	}

	// A handover that moves ownership off what the map file assigns (here:
	// the other group's keyspace, as a split handover would replicate) must
	// flip rebalance_inflight on both surfaces.
	m, err := shard.NewUniform(n, groups)
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.OwnedSet(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SetOwned(other); err != nil {
		t.Fatal(err)
	}
	if _, health = getJSON(t, h, "GET", "/healthz", ""); health["rebalance_inflight"] != float64(1) {
		t.Fatalf("healthz after handover: inflight=%v", health["rebalance_inflight"])
	}
	_, metrics = getJSON(t, h, "GET", "/metrics", "")
	gauges = metrics["gauges"].(map[string]any)
	if gauges["rebalance_inflight"] != float64(1) {
		t.Fatalf("metrics after handover: %v", gauges["rebalance_inflight"])
	}
}

// TestShardEngineSpaceShrinks pins the economics the shard tier exists for:
// a group's restricted tables-tier snapshot must encode strictly smaller than
// the unrestricted build of the same topology.
func TestShardEngineSpaceShrinks(t *testing.T) {
	const n = 96
	g, err := gengraph.SparseConnected(n, 5, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := serve.NewTieredEngine(g, "landmark")
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.NewUniform(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := m.OwnedSet(0)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := serve.NewShardEngine(g, "landmark", serve.TierTables, owned)
	if err != nil {
		t.Fatal(err)
	}
	if fb, rb := full.Current().ArenaSize(), restricted.Current().ArenaSize(); rb >= fb {
		t.Fatalf("restricted snapshot %d bytes, unrestricted %d — no shrink", rb, fb)
	}
}
