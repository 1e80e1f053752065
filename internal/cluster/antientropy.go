// Anti-entropy: cheap convergence fingerprints exchanged between cluster
// members. A Digest compresses a member's entire served state — epoch, WAL
// position, snapshot sequence, tier, node count, and a CRC-32C of the
// served tables (of the packed distance matrix on the full tier, of the
// landmark scheme's page CRCs, each recomputed from its page, on the tables
// tier) — into a handful of integers.
// Because rebuilds are deterministic, two members whose digests match are
// serving byte-identical routing tables; a mismatch at equal WAL position
// means divergence and demands a resync, not a shrug.
package cluster

import (
	"fmt"

	"routetab/internal/serve"
)

// Digest fingerprints one member's served state. StateCRC is tier-dependent:
// DistCRC of the packed matrix on the full tier, the tables fingerprint
// rehashed from every page on the tables tier — so Converged asserts
// byte-identical scheme state, never merely "same sequence number". Tier is
// part of the fingerprint: a full-tier member never converges with a
// tables-tier one, even if both CRCs collide.
type Digest struct {
	Epoch    uint64
	WalSeq   uint64
	SnapSeq  uint64
	Tier     string
	N        int
	StateCRC uint32
}

// String implements fmt.Stringer.
func (d Digest) String() string {
	return fmt.Sprintf("epoch=%d wal=%d snap=%d tier=%s n=%d crc=%08x",
		d.Epoch, d.WalSeq, d.SnapSeq, d.Tier, d.N, d.StateCRC)
}

func digestOf(eng *serve.Engine, epoch, walSeq uint64) Digest {
	cur := eng.Current()
	return Digest{
		Epoch:    epoch,
		WalSeq:   walSeq,
		SnapSeq:  cur.Seq,
		Tier:     cur.Tier,
		N:        cur.N(),
		StateCRC: stateCRC(cur),
	}
}

// Converged reports whether every digest matches the first one exactly. An
// empty or single-element set is trivially converged.
func Converged(ds ...Digest) bool {
	for _, d := range ds[1:] {
		if d != ds[0] {
			return false
		}
	}
	return true
}

// CheckEntropy fetches digests from a primary source and a set of replicas
// and reports whether the cluster has converged; the returned digests are in
// input order (primary first). A fetch error counts as divergence.
func CheckEntropy(primary Source, replicas ...*Replica) (bool, []Digest, error) {
	ds := make([]Digest, 0, 1+len(replicas))
	pd, err := primary.FetchDigest()
	if err != nil {
		return false, nil, fmt.Errorf("cluster: primary digest: %w", err)
	}
	ds = append(ds, pd)
	for _, r := range replicas {
		ds = append(ds, r.Digest())
	}
	return Converged(ds...), ds, nil
}
