package cluster

import (
	"hash/crc32"
	"strings"
	"testing"

	"routetab/internal/faultinject"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

// wholeBlobCRC is the tables-tier fingerprint publish records carried
// before the landmark tables were paged: the CRC-32C of the whole encoding.
// Only this test computes it.
func wholeBlobCRC(snap *serve.Snapshot) uint32 {
	return crc32.Checksum(snap.TablesBytes(), crcTable)
}

// TestWholeBlobFingerprintFailsLoudly: a tables-tier publish record written
// under the retired whole-blob fingerprint never verifies. A replica's
// replay of it fails with a CRC mismatch, which sends the replica to a full
// resync, and crash recovery over a WAL of such records bumps the epoch on
// the mismatch instead of resuming.
func TestWholeBlobFingerprintFailsLoudly(t *testing.T) {
	p := testTablesPrimary(t, 64, 3)
	r, err := JoinReplica(p, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	toggleEdge(t, p, absentEdge(t, p))
	recs, err := p.log.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[len(recs)-1]
	cur := p.Engine().Current()
	if rec.DistCRC != SnapshotCRC(cur) || rec.DistCRC != TablesCRC(cur.TablesBytes()) {
		t.Fatalf("record CRC %08x, snapshot fingerprint %08x, of its encoding %08x", rec.DistCRC, SnapshotCRC(cur), TablesCRC(cur.TablesBytes()))
	}
	old := rec
	old.DistCRC = wholeBlobCRC(cur)
	if old.DistCRC == rec.DistCRC {
		t.Fatal("whole-blob and paged fingerprints coincide; the test shows nothing")
	}
	if err := r.apply(old); err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("replaying a whole-blob record: err %v, want a crc mismatch", err)
	}

	fs := faultinject.NewMemFS()
	eng1, _, rep1 := tablesRecoveryStack(t, 48, 7)
	log1, _, err := RecoverPrimaryLog(eng1, rep1, RecoverConfig{Dir: "w", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range missingEdges(eng1.Current().Graph, 3) {
		snap, err := eng1.Mutate(func(g *graph.Graph) error { return g.AddEdge(e[0], e[1]) })
		if err != nil {
			t.Fatal(err)
		}
		log1.Append(Record{Kind: RecPublishTables, SnapSeq: snap.Seq, DistCRC: wholeBlobCRC(snap), Adds: [][2]int{e}})
	}
	log1.Abandon()
	eng2, _, rep2 := tablesRecoveryStack(t, 48, 7)
	_, rpt, err := RecoverPrimaryLog(eng2, rep2, RecoverConfig{Dir: "w", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.EpochBumped || rpt.Replayed != 0 || !strings.Contains(rpt.Reason, "crc mismatch") {
		t.Fatalf("recovery over whole-blob records: %+v, want an epoch bump on a crc mismatch", rpt)
	}
}
