// Crash harness: the `make crash` gate. Two sweeps, both deterministic:
//
//  1. A store-level byte matrix — append a recorded schedule to a durable WAL
//     over the power-loss-modelling MemFS, then for EVERY byte the disk could
//     have absorbed before power failed, clone the disk torn at that byte,
//     recover, and assert the recovered log is exactly the durable prefix of
//     the schedule (never a torn record, never a lost durable one).
//
//  2. An engine-digest record matrix — a reference primary journals a churn
//     schedule under fsync=always while the harness records the disk offset
//     and anti-entropy digest at every record boundary; then for each
//     boundary (clean, and torn three bytes into the next frame) a cold
//     primary is rebuilt from the initial topology over the cloned disk, and
//     its recovered table must be byte-identical (digest-equal, same epoch)
//     to the reference at that boundary.
//
// Together they are the executable form of the durability model (DESIGN.md
// §13): whatever instant the power fails, recovery yields the exact durable
// prefix — same epoch, same bytes — so replicas replay forward, never resync.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/cluster/walstore"
	"routetab/internal/faultinject"
	"routetab/internal/serve"
)

// CrashConfig parameterises one crash-recovery sweep.
type CrashConfig struct {
	// N is the topology size for the engine matrix.
	N int
	// Seed keys topology, schedules, and payloads.
	Seed int64
	// Scheme must be shortest-path.
	Scheme string
}

// The schedule lengths of the two sweeps.
const (
	// crashRecords is the engine-matrix churn schedule length; each record
	// is checked clean and torn.
	crashRecords = 16
	// byteRecords is the store-level byte-matrix schedule length; every byte
	// boundary of the resulting disk image is checked.
	byteRecords = 30
)

// CrashReport is one sweep's outcome.
type CrashReport struct {
	Scheme string `json:"scheme"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`

	ByteRecords    int   `json:"byte_records"`    // records in the byte-matrix schedule
	ByteBoundaries int64 `json:"byte_boundaries"` // crash points checked (one per disk byte)
	ByteSegments   int   `json:"byte_segments"`   // segment files the schedule spanned

	RecordBoundaries int `json:"record_boundaries"` // clean record-boundary restarts
	TornBoundaries   int `json:"torn_boundaries"`   // mid-frame torn restarts
	Replayed         int `json:"replayed"`          // WAL records replayed across all restarts

	EpochPreserved   bool          `json:"epoch_preserved"`
	DigestsIdentical bool          `json:"digests_identical"`
	Elapsed          time.Duration `json:"elapsed_ns"`
}

// String renders the headline figures.
func (r *CrashReport) String() string {
	return fmt.Sprintf("crash %s n=%d seed=%d: byte matrix %d records / %d boundaries / %d segments; engine matrix %d clean + %d torn restarts (%d records replayed), epoch preserved=%v digests identical=%v, %v",
		r.Scheme, r.N, r.Seed, r.ByteRecords, r.ByteBoundaries, r.ByteSegments,
		r.RecordBoundaries, r.TornBoundaries, r.Replayed,
		r.EpochPreserved, r.DigestsIdentical, r.Elapsed.Round(time.Millisecond))
}

// ErrCrashMatrix is returned when any crash point recovers to the wrong state.
var ErrCrashMatrix = errors.New("chaos: crash matrix violation")

// RunCrash executes both sweeps. The report is complete even on failure; the
// error names the first violated boundary.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	plan, err := planFor(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if !plan.strict {
		return nil, fmt.Errorf("chaos: scheme %q is not shortest-path", cfg.Scheme)
	}
	rep := &CrashReport{Scheme: cfg.Scheme, N: cfg.N, Seed: cfg.Seed, ByteRecords: byteRecords}
	start := time.Now()
	if err := byteMatrix(cfg, rep); err != nil {
		rep.Elapsed = time.Since(start)
		return rep, err
	}
	err = engineMatrix(cfg, plan, rep)
	rep.Elapsed = time.Since(start)
	if err == nil {
		rep.EpochPreserved = true
		rep.DigestsIdentical = true
	}
	return rep, err
}

// byteMatrix is sweep 1: every byte of a recorded multi-segment schedule.
func byteMatrix(cfg CrashConfig, rep *CrashReport) error {
	ref := faultinject.NewMemFS()
	st, err := walstore.Open("wal", walstore.Options{FS: ref, SegmentBytes: 300})
	if err != nil {
		return err
	}
	if err := st.SetEpoch(1); err != nil {
		return err
	}
	payload := func(i int) []byte {
		n := 1 + (i*37)%53
		b := make([]byte, n)
		x := faultinject.Mix64(uint64(cfg.Seed) ^ uint64(i)*0x9E3779B97F4A7C15)
		for j := range b {
			x = faultinject.Mix64(x)
			b[j] = byte(x)
		}
		return b
	}
	endAt := make([]int64, byteRecords)
	for i := 0; i < byteRecords; i++ {
		if err := st.Append(uint64(i+1), payload(i)); err != nil {
			return err
		}
		endAt[i] = ref.JournalBytes()
	}
	total := ref.JournalBytes()
	names, err := ref.ReadDir("wal")
	if err != nil {
		return err
	}
	rep.ByteSegments = len(names)
	rep.ByteBoundaries = total + 1
	for k := int64(0); k <= total; k++ {
		rst, err := walstore.Open("wal", walstore.Options{FS: ref.CrashClone(k)})
		if err != nil {
			return fmt.Errorf("%w: byte %d: recovery failed: %v", ErrCrashMatrix, k, err)
		}
		want := 0
		for want < byteRecords && endAt[want] <= k {
			want++
		}
		next := uint64(1)
		err = rst.Replay(0, func(seq uint64, p []byte) error {
			if seq != next {
				return fmt.Errorf("gap: got seq %d, want %d", seq, next)
			}
			ref := payload(int(seq - 1))
			if len(p) != len(ref) {
				return fmt.Errorf("seq %d: %d bytes, want %d", seq, len(p), len(ref))
			}
			for j := range p {
				if p[j] != ref[j] {
					return fmt.Errorf("seq %d diverges at byte %d", seq, j)
				}
			}
			next++
			return nil
		})
		if err != nil {
			return fmt.Errorf("%w: byte %d: %v", ErrCrashMatrix, k, err)
		}
		if got := int(next - 1); got != want {
			return fmt.Errorf("%w: byte %d: recovered %d records, want %d", ErrCrashMatrix, k, got, want)
		}
	}
	return nil
}

// engineMatrix is sweep 2: cold primary restarts at every record boundary.
func engineMatrix(cfg CrashConfig, plan tierPlan, rep *CrashReport) error {
	boot := func(fs faultinject.FS) (*cluster.Primary, *cluster.RecoveryReport, error) {
		return plan.bootPrimary(cfg.Scheme, cfg.N, cfg.Seed, serve.ServerOptions{}, serve.RepairOptions{Debounce: -1}, fs)
	}
	ref := faultinject.NewMemFS()
	p, _, err := boot(ref)
	if err != nil {
		return err
	}
	// Record boundaries: offs[i] is the disk image after record i is durable,
	// digests[i] the table the cluster serves at that instant. Index 0 is the
	// fresh primary before any churn.
	offs := make([]int64, crashRecords+1)
	digests := make([]cluster.Digest, crashRecords+1)
	offs[0] = ref.JournalBytes()
	if digests[0], err = p.FetchDigest(); err != nil {
		return err
	}
	for i := 1; i <= crashRecords; i++ {
		if err := flipEdge(p, i); err != nil {
			return err
		}
		offs[i] = ref.JournalBytes()
		if digests[i], err = p.FetchDigest(); err != nil {
			return err
		}
	}
	closePrimary(p, true) // kill -9: abandon, never seal

	check := func(budget int64, wantDigest cluster.Digest, label string) error {
		clone := ref.CrashClone(budget)
		rp, rpt, err := boot(clone)
		if err != nil {
			return fmt.Errorf("%w: %s: restart: %v", ErrCrashMatrix, label, err)
		}
		defer closePrimary(rp, false)
		if rpt.EpochBumped || rpt.Epoch != 1 {
			return fmt.Errorf("%w: %s: epoch %d (bumped=%v): %s", ErrCrashMatrix, label, rpt.Epoch, rpt.EpochBumped, rpt.Reason)
		}
		got, err := rp.FetchDigest()
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCrashMatrix, label, err)
		}
		if got != wantDigest {
			return fmt.Errorf("%w: %s: recovered digest %+v, want %+v", ErrCrashMatrix, label, got, wantDigest)
		}
		rep.Replayed += rpt.Replayed
		return nil
	}
	for i := 0; i <= crashRecords; i++ {
		if err := check(offs[i], digests[i], fmt.Sprintf("record %d clean", i)); err != nil {
			return err
		}
		rep.RecordBoundaries++
		if i < crashRecords {
			// Three bytes into the next frame (or next segment header): the
			// torn write must vanish and recovery must land on boundary i.
			if err := check(offs[i]+3, digests[i], fmt.Sprintf("record %d torn", i)); err != nil {
				return err
			}
			rep.TornBoundaries++
		}
	}
	return nil
}
