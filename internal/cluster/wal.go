// Package cluster replicates a serving engine across a set of peers: one
// primary owns topology mutation and churn repair, ships every published
// snapshot as an incremental write-ahead-log record (the edge diff that
// produced it plus a CRC of the resulting distance matrix), and replicas
// replay those records through their own serve.Engine. The repo-wide
// determinism contract (DESIGN.md §8: tables are a pure function of
// (topology, scheme)) is what makes log shipping sufficient — a replica that
// applies the same mutation sequence rebuilds byte-identical tables, and the
// anti-entropy digests in antientropy.go assert exactly that.
//
// The WAL is dense-sequenced and bounded: records carry consecutive Seq
// numbers, a replica that asks for records the log has truncated away gets
// ErrGone and falls back to a full state fetch, and every frame is a
// serve.WriteFrame CRC-32C frame so torn or bit-flipped records are rejected
// by the same code path everywhere.
package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"routetab/internal/cluster/walstore"
	"routetab/internal/keyspace"
	"routetab/internal/serve"
	"routetab/internal/shortestpath"
)

// Errors.
var (
	// ErrGone reports a WAL fetch whose start point has been truncated away;
	// the fetcher must fall back to a full state fetch.
	ErrGone = errors.New("cluster: requested WAL records truncated")
	// ErrBadRecord reports a record that failed structural or CRC checks.
	ErrBadRecord = errors.New("cluster: bad WAL record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DistCRC is the full-tier convergence fingerprint: CRC-32C over the packed
// row-major distance matrix. Two engines serving byte-identical tables agree
// on it; anti-entropy and per-record verification both compare this value.
func DistCRC(d *shortestpath.Distances) uint32 {
	return crc32.Checksum(d.Packed(), crcTable)
}

// TablesCRC is the tables-tier convergence fingerprint: CRC-32C over the
// encoded scheme tables (the LMTB blob for the landmark scheme). The
// incompressibility bound is why the compact tier fingerprints the tables
// themselves — there is no matrix to hash, by design.
func TablesCRC(tables []byte) uint32 {
	return crc32.Checksum(tables, crcTable)
}

// SnapshotCRC returns the convergence fingerprint appropriate to snap's tier:
// DistCRC of the packed matrix on the full tier, TablesCRC of the encoded
// scheme tables on the tables tier. Per-record verification, anti-entropy
// digests, and recovery replay all use this single definition.
func SnapshotCRC(snap *serve.Snapshot) uint32 {
	if snap.Dist == nil {
		return TablesCRC(snap.TablesBytes())
	}
	return DistCRC(snap.Dist)
}

// RecordKind enumerates WAL record types.
type RecordKind uint8

// Record kinds. Publish records carry the topology diff of one snapshot
// publication; link and node records carry overlay (failure view) events
// that have not (yet) been folded into a publication. RecPublishTables is
// the tables-tier flavour of RecPublish: the payload layout is identical but
// the CRC field fingerprints the encoded scheme tables instead of the packed
// matrix. The kind byte is the version sniff — full-tier WALs never contain
// kind 4, so they encode and decode byte-identically to before, and a
// pre-tables decoder rejects a tables-tier log outright instead of
// misinterpreting it.
// RecOwned is the keyspace-handover flavour of a publish: emitted when a
// publication changed the engine's owned source set (a shard split or merge),
// it carries the topology diff AND the new owned bitmap, so replicas replay
// the handover through the same log-shipping path as any other publication —
// no resync storm at cutover. OwnedN == 0 means the restriction was lifted.
// As with RecPublishTables, the kind byte is the version sniff: logs without
// rebalances never contain kind 5, and a pre-shard decoder rejects a
// rebalancing log outright instead of misreading it.
const (
	RecPublish RecordKind = iota + 1
	RecLink
	RecNode
	RecPublishTables
	RecOwned
)

// String implements fmt.Stringer.
func (k RecordKind) String() string {
	switch k {
	case RecPublish:
		return "publish"
	case RecLink:
		return "link"
	case RecNode:
		return "node"
	case RecPublishTables:
		return "publish-tables"
	case RecOwned:
		return "owned"
	}
	return fmt.Sprintf("record-kind-%d", int(k))
}

// IsPublish reports whether k is a publish flavour (full tier, tables tier,
// or a keyspace handover).
func (k RecordKind) IsPublish() bool {
	return k == RecPublish || k == RecPublishTables || k == RecOwned
}

// PublishKindFor returns the publish record kind matching snap's tier.
func PublishKindFor(snap *serve.Snapshot) RecordKind {
	if snap.Dist == nil {
		return RecPublishTables
	}
	return RecPublish
}

// Record is one replicated event. Seq is the dense WAL sequence assigned by
// the primary's log. Publish records describe snapshot SnapSeq as the edge
// diff against snapshot SnapSeq−1, with DistCRC fingerprinting the state the
// rebuild must produce: the packed distance matrix for RecPublish, the
// encoded scheme tables for RecPublishTables. Link/node records update the
// failure overlay: U,V (or U alone) and Down.
type Record struct {
	Seq     uint64
	Kind    RecordKind
	SnapSeq uint64   // publish flavours
	DistCRC uint32   // publish flavours: matrix or scheme-table CRC by kind
	Adds    [][2]int // publish flavours: edges added vs previous snapshot
	Removes [][2]int // publish flavours: edges removed vs previous snapshot
	U, V    int      // link (U,V) / node (U)
	Down    bool     // link/node
	// RecOwned only: the owned keyspace after this publication, as the bitmap
	// word form of keyspace.Set over OwnedN nodes. OwnedN == 0 lifts the
	// restriction (Owned empty).
	OwnedN int
	Owned  []uint64
}

// Frame tags for the WAL codec, disjoint from every other frame tag.
var (
	tagRec      = [4]byte{'W', 'R', 'E', 'C'}
	tagBatchHdr = [4]byte{'W', 'H', 'D', 'R'}
	tagStateHdr = [4]byte{'C', 'H', 'D', 'R'}
	tagOverlay  = [4]byte{'O', 'V', 'L', 'Y'}
)

func putUvarintPair(buf *bytes.Buffer, p [2]int) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(p[0]))])
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(p[1]))])
}

// marshalRecord serialises one record's payload bytes — the body of a WREC
// frame, and exactly what the durable walstore journals per entry.
func marshalRecord(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	buf.WriteByte(byte(rec.Kind))
	buf.Write(tmp[:binary.PutUvarint(tmp[:], rec.Seq)])
	switch rec.Kind {
	case RecPublish, RecPublishTables, RecOwned:
		buf.Write(tmp[:binary.PutUvarint(tmp[:], rec.SnapSeq)])
		binary.Write(&buf, binary.LittleEndian, rec.DistCRC)
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(rec.Adds)))])
		for _, e := range rec.Adds {
			putUvarintPair(&buf, e)
		}
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(rec.Removes)))])
		for _, e := range rec.Removes {
			putUvarintPair(&buf, e)
		}
		if rec.Kind == RecOwned {
			buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(rec.OwnedN))])
			if rec.OwnedN > 0 {
				if want := (rec.OwnedN + 63) / 64; len(rec.Owned) != want {
					return nil, fmt.Errorf("%w: owned bitmap %d words for n=%d (want %d)",
						ErrBadRecord, len(rec.Owned), rec.OwnedN, want)
				}
				for _, w := range rec.Owned {
					binary.Write(&buf, binary.LittleEndian, w)
				}
			}
		}
	case RecLink:
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(rec.U))])
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(rec.V))])
		buf.WriteByte(boolByte(rec.Down))
	case RecNode:
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(rec.U))])
		buf.WriteByte(boolByte(rec.Down))
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrBadRecord, rec.Kind)
	}
	return buf.Bytes(), nil
}

// encodeRecord serialises one record as a CRC-framed WREC section.
func encodeRecord(w io.Writer, rec Record) error {
	payload, err := marshalRecord(rec)
	if err != nil {
		return err
	}
	return serve.WriteFrame(w, tagRec, payload)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func readPair(r *bytes.Reader) ([2]int, error) {
	u, err := binary.ReadUvarint(r)
	if err != nil {
		return [2]int{}, err
	}
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return [2]int{}, err
	}
	return [2]int{int(u), int(v)}, nil
}

// decodeRecord reads one framed record, verifying its CRC.
func decodeRecord(r io.Reader) (Record, error) {
	payload, err := serve.ReadFrame(r, tagRec)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return unmarshalRecord(payload)
}

// unmarshalRecord parses one record payload (the inverse of marshalRecord).
func unmarshalRecord(payload []byte) (Record, error) {
	br := bytes.NewReader(payload)
	kindByte, err := br.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("%w: truncated record", ErrBadRecord)
	}
	rec := Record{Kind: RecordKind(kindByte)}
	if rec.Seq, err = binary.ReadUvarint(br); err != nil {
		return Record{}, fmt.Errorf("%w: truncated seq", ErrBadRecord)
	}
	switch rec.Kind {
	case RecPublish, RecPublishTables, RecOwned:
		if rec.SnapSeq, err = binary.ReadUvarint(br); err != nil {
			return Record{}, fmt.Errorf("%w: truncated snap seq", ErrBadRecord)
		}
		if err = binary.Read(br, binary.LittleEndian, &rec.DistCRC); err != nil {
			return Record{}, fmt.Errorf("%w: truncated state crc", ErrBadRecord)
		}
		for _, dst := range []*[][2]int{&rec.Adds, &rec.Removes} {
			count, err := binary.ReadUvarint(br)
			if err != nil {
				return Record{}, fmt.Errorf("%w: truncated edge count", ErrBadRecord)
			}
			if count > uint64(br.Len()) { // each edge needs ≥2 bytes
				return Record{}, fmt.Errorf("%w: edge count %d exceeds payload", ErrBadRecord, count)
			}
			for i := uint64(0); i < count; i++ {
				e, err := readPair(br)
				if err != nil {
					return Record{}, fmt.Errorf("%w: truncated edge", ErrBadRecord)
				}
				*dst = append(*dst, e)
			}
		}
		if rec.Kind == RecOwned {
			ownedN, err := binary.ReadUvarint(br)
			if err != nil {
				return Record{}, fmt.Errorf("%w: truncated owned n", ErrBadRecord)
			}
			if ownedN > 1<<16 {
				return Record{}, fmt.Errorf("%w: owned n = %d", ErrBadRecord, ownedN)
			}
			rec.OwnedN = int(ownedN)
			if rec.OwnedN > 0 {
				words := (rec.OwnedN + 63) / 64
				if br.Len() < 8*words {
					return Record{}, fmt.Errorf("%w: truncated owned bitmap", ErrBadRecord)
				}
				rec.Owned = make([]uint64, words)
				for i := range rec.Owned {
					if err := binary.Read(br, binary.LittleEndian, &rec.Owned[i]); err != nil {
						return Record{}, fmt.Errorf("%w: truncated owned bitmap", ErrBadRecord)
					}
				}
			}
		}
	case RecLink:
		e, err := readPair(br)
		if err != nil {
			return Record{}, fmt.Errorf("%w: truncated link", ErrBadRecord)
		}
		rec.U, rec.V = e[0], e[1]
		down, err := br.ReadByte()
		if err != nil {
			return Record{}, fmt.Errorf("%w: truncated link state", ErrBadRecord)
		}
		rec.Down = down != 0
	case RecNode:
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return Record{}, fmt.Errorf("%w: truncated node", ErrBadRecord)
		}
		rec.U = int(u)
		down, err := br.ReadByte()
		if err != nil {
			return Record{}, fmt.Errorf("%w: truncated node state", ErrBadRecord)
		}
		rec.Down = down != 0
	default:
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, kindByte)
	}
	if br.Len() != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, br.Len())
	}
	return rec, nil
}

// OwnedSet decodes a RecOwned record's bitmap into a keyspace set (nil when
// the record lifts the restriction). The word shape is re-validated, so a
// corrupt bitmap fails loudly instead of restricting to garbage.
func (r *Record) OwnedSet() (*keyspace.Set, error) {
	if r.Kind != RecOwned {
		return nil, fmt.Errorf("%w: OwnedSet on %v record", ErrBadRecord, r.Kind)
	}
	if r.OwnedN == 0 {
		return nil, nil
	}
	set, err := keyspace.FromWords(r.OwnedN, r.Owned)
	if err != nil {
		return nil, fmt.Errorf("%w: owned bitmap: %v", ErrBadRecord, err)
	}
	return set, nil
}

// verifyPublish checks that snap — the engine's state after replaying a
// publish record — matches the record's tier flavour and CRC (and, for
// keyspace handovers, the published owned set). A kind/tier mismatch or a CRC
// mismatch is a determinism-contract violation; callers fall back to a full
// resync (replica) or surface corruption (recovery).
func verifyPublish(rec Record, snap *serve.Snapshot) error {
	if rec.Kind == RecOwned {
		want, err := rec.OwnedSet()
		if err != nil {
			return err
		}
		if got := snap.Owned(); !got.Equal(want) {
			return fmt.Errorf("owned set mismatch after replaying snap %d: got %v want %v",
				rec.SnapSeq, got, want)
		}
	} else if want := PublishKindFor(snap); rec.Kind != want {
		return fmt.Errorf("%v record replayed on a %s-tier engine", rec.Kind, snap.Tier)
	}
	if crc := SnapshotCRC(snap); crc != rec.DistCRC {
		return fmt.Errorf("%v crc mismatch after replaying snap %d: got %08x want %08x",
			rec.Kind, rec.SnapSeq, crc, rec.DistCRC)
	}
	return nil
}

// WALBatch is a contiguous run of records fetched from a primary, stamped
// with the primary's epoch so a replica detects promotion (epoch change →
// its log position is meaningless → full resync). Epoch is 0 only on an
// empty batch that carries no answer — the caller's context ended before a
// remote peer answered, or the feed was repointed mid-fetch — and says
// nothing about any epoch.
type WALBatch struct {
	Epoch   uint64
	Records []Record
}

// EncodeWALBatch frames a batch: a WHDR header (epoch, first seq, count)
// followed by one WREC frame per record.
func EncodeWALBatch(w io.Writer, b *WALBatch) error {
	var hdr bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], b.Epoch)])
	first := uint64(0)
	if len(b.Records) > 0 {
		first = b.Records[0].Seq
	}
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], first)])
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(b.Records)))])
	if err := serve.WriteFrame(w, tagBatchHdr, hdr.Bytes()); err != nil {
		return err
	}
	for i := range b.Records {
		if err := encodeRecord(w, b.Records[i]); err != nil {
			return err
		}
	}
	return nil
}

// maxBatchRecords bounds a decoded batch; far above any real fetch, it only
// stops a corrupted count from allocating unbounded memory.
const maxBatchRecords = 1 << 22

// DecodeWALBatch reads one framed batch, verifying every record's CRC and
// that sequences are dense starting at the header's first seq.
func DecodeWALBatch(r io.Reader) (*WALBatch, error) {
	hdr, err := serve.ReadFrame(r, tagBatchHdr)
	if err != nil {
		return nil, fmt.Errorf("%w: batch header: %v", ErrBadRecord, err)
	}
	br := bytes.NewReader(hdr)
	var b WALBatch
	if b.Epoch, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: truncated epoch", ErrBadRecord)
	}
	first, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated first seq", ErrBadRecord)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated count", ErrBadRecord)
	}
	if count > maxBatchRecords {
		return nil, fmt.Errorf("%w: batch of %d records", ErrBadRecord, count)
	}
	b.Records = make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		rec, err := decodeRecord(r)
		if err != nil {
			return nil, err
		}
		if rec.Seq != first+i {
			return nil, fmt.Errorf("%w: seq %d at batch position %d (first %d)", ErrBadRecord, rec.Seq, i, first)
		}
		b.Records = append(b.Records, rec)
	}
	return &b, nil
}

// State is a full replication bootstrap: the primary's epoch, the WAL
// position the snapshot+overlay are current as of, the failure overlay, and
// the complete snapshot. A replica adopting a State may then stream WAL
// records after WalSeq; records at or below it replay idempotently.
type State struct {
	Epoch     uint64
	WalSeq    uint64
	DownLinks [][2]int
	DownNodes []int
	Snap      *serve.SnapshotData
}

// EncodeState frames a State: CHDR (epoch, wal seq), OVLY (overlay), then
// the snapshot as one contiguous arena — a bootstrapping replica receives
// the payload (the O(n²) matrix or the scheme tables) as a single
// CRC-guarded buffer and adopts it in place. DecodeState accepts arena bodies only.
func EncodeState(w io.Writer, st *State) error {
	var hdr bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], st.Epoch)])
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], st.WalSeq)])
	if err := serve.WriteFrame(w, tagStateHdr, hdr.Bytes()); err != nil {
		return err
	}
	var ov bytes.Buffer
	ov.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(st.DownLinks)))])
	for _, e := range st.DownLinks {
		putUvarintPair(&ov, e)
	}
	ov.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(st.DownNodes)))])
	for _, u := range st.DownNodes {
		ov.Write(tmp[:binary.PutUvarint(tmp[:], uint64(u))])
	}
	if err := serve.WriteFrame(w, tagOverlay, ov.Bytes()); err != nil {
		return err
	}
	return serve.WriteArena(w, st.Snap)
}

// DecodeState reads one framed State.
func DecodeState(r io.Reader) (*State, error) {
	hdr, err := serve.ReadFrame(r, tagStateHdr)
	if err != nil {
		return nil, fmt.Errorf("%w: state header: %v", ErrBadRecord, err)
	}
	br := bytes.NewReader(hdr)
	var st State
	if st.Epoch, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: truncated epoch", ErrBadRecord)
	}
	if st.WalSeq, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: truncated wal seq", ErrBadRecord)
	}
	ovRaw, err := serve.ReadFrame(r, tagOverlay)
	if err != nil {
		return nil, fmt.Errorf("%w: overlay: %v", ErrBadRecord, err)
	}
	ov := bytes.NewReader(ovRaw)
	nLinks, err := binary.ReadUvarint(ov)
	if err != nil || nLinks > uint64(ov.Len()) {
		return nil, fmt.Errorf("%w: bad overlay link count", ErrBadRecord)
	}
	for i := uint64(0); i < nLinks; i++ {
		e, err := readPair(ov)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated overlay link", ErrBadRecord)
		}
		st.DownLinks = append(st.DownLinks, e)
	}
	nNodes, err := binary.ReadUvarint(ov)
	if err != nil || nNodes > uint64(ov.Len())+1 {
		return nil, fmt.Errorf("%w: bad overlay node count", ErrBadRecord)
	}
	for i := uint64(0); i < nNodes; i++ {
		u, err := binary.ReadUvarint(ov)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated overlay node", ErrBadRecord)
		}
		st.DownNodes = append(st.DownNodes, int(u))
	}
	if st.Snap, err = serve.DecodeSnapshot(r); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrBadRecord, err)
	}
	return &st, nil
}

// Log is the primary's WAL: dense sequences starting at 1 within an epoch,
// bounded by truncation, optionally backed by a durable walstore.Store. It is
// safe for concurrent use.
//
// Durability ordering is the crash-safety invariant: Append journals to the
// store (which fsyncs under PolicyAlways) before the record becomes visible
// to replicas through Since — visible ⊆ durable. If the store fails,
// availability beats durability: the in-memory log keeps serving, journaling
// wedges permanently (so the on-disk WAL stays a dense prefix), and a dirty
// marker forces the next recovery to bump the epoch instead of resuming.
//
// Wait is the long-poll half of the feed: a waiter parks on changed, which
// Append closes (and drops, so the next waiter makes a fresh one). A waiter
// reads the log and takes changed under the same mu, so an append between
// the read and the park always closes the channel it parks on.
type Log struct {
	mu   sync.Mutex
	recs []Record
	// base is the seq of recs[0]−1: records 1…base have been truncated away.
	base uint64
	last uint64
	// changed is nil while nobody waits.
	changed chan struct{}

	store         *walstore.Store
	storeFailures uint64
	storeErr      error
}

// NewLog returns an empty in-memory log; the first appended record gets Seq 1.
func NewLog() *Log { return &Log{} }

// OpenLog binds a recovered durable store to a log, loading every retained
// record into memory: base and frontier come from the disk WAL, so replicas
// that were ahead of the retained window get ErrGone exactly as they would
// have from the dead primary.
func OpenLog(store *walstore.Store) (*Log, error) {
	l := &Log{store: store}
	if store == nil {
		return l, nil
	}
	first, last := store.FirstSeq(), store.LastSeq()
	if first == 0 {
		// Nothing retained (virgin store, or fully truncated): resume after
		// the frontier.
		l.base, l.last = last, last
		return l, nil
	}
	l.base = first - 1
	l.last = l.base
	err := store.Replay(first, func(seq uint64, payload []byte) error {
		rec, err := unmarshalRecord(payload)
		if err != nil {
			return fmt.Errorf("cluster: wal entry %d: %w", seq, err)
		}
		if seq != l.last+1 || rec.Seq != seq {
			return fmt.Errorf("%w: wal entry %d carries seq %d (want %d)", ErrBadRecord, seq, rec.Seq, l.last+1)
		}
		l.recs = append(l.recs, rec)
		l.last = seq
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Append assigns the next dense sequence to rec, journals it durably first
// (when a store is attached and healthy), then stores it in memory, returning
// the assigned sequence.
func (l *Log) Append(rec Record) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last++
	rec.Seq = l.last
	if l.store != nil && l.storeErr == nil {
		payload, err := marshalRecord(rec)
		if err == nil {
			err = l.store.Append(rec.Seq, payload)
		}
		if err != nil {
			l.wedgeLocked(err)
		}
	}
	l.recs = append(l.recs, rec)
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
	return rec.Seq
}

// wedgeLocked permanently stops journaling after a store failure and drops
// the dirty marker so the next recovery knows replica-visible records may
// have outrun the durable WAL.
func (l *Log) wedgeLocked(err error) {
	l.storeFailures++
	if l.storeErr != nil {
		return
	}
	l.storeErr = err
	// Best-effort: if even the marker cannot be written the disk is likely
	// gone entirely, and recovery will find an undecodable or empty WAL.
	if merr := l.store.MarkDirty(err.Error()); merr != nil {
		l.storeErr = fmt.Errorf("%v (dirty marker: %v)", err, merr)
	}
}

// Durability reports whether the log is journaling to a durable store, how
// many appends failed to journal, and the error that wedged journaling.
func (l *Log) Durability() (durable bool, failures uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.store != nil && l.storeErr == nil, l.storeFailures, l.storeErr
}

// SyncWAL forces the durable store to disk regardless of fsync policy.
func (l *Log) SyncWAL() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil || l.storeErr != nil {
		return l.storeErr
	}
	if err := l.store.Sync(); err != nil {
		l.wedgeLocked(err)
		return err
	}
	return nil
}

// CloseWAL syncs and finalizes the durable store (sealing the open segment)
// and detaches it; the in-memory log remains usable. A log without a store
// returns nil.
func (l *Log) CloseWAL() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return nil
	}
	err := l.store.Close()
	l.store = nil
	return err
}

// Abandon detaches the durable store without finalizing it, leaving the
// on-disk tail exactly as the last append left it — the kill -9 path used by
// the crash harnesses.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.store = nil
}

// LastSeq returns the highest assigned sequence (0 when nothing was ever
// appended).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Since returns a copy of every record with Seq > after, in order. If any
// such record has been truncated away it returns ErrGone — the caller cannot
// catch up from the log and must fetch full state.
func (l *Log) Since(after uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(after)
}

// Wait is Since that parks until at least one record exists past after. If
// ctx ends first it returns no records and no error; a ctx that is already
// done makes it a plain Since. A position past the frontier (a caller that
// followed another log) also returns at once, so the caller learns the
// epoch instead of parking on records it would never be sent.
func (l *Log) Wait(ctx context.Context, after uint64) ([]Record, error) {
	for {
		l.mu.Lock()
		recs, err := l.sinceLocked(after)
		if err != nil || len(recs) > 0 || after > l.last || ctx.Err() != nil {
			l.mu.Unlock()
			return recs, err
		}
		if l.changed == nil {
			l.changed = make(chan struct{})
		}
		changed := l.changed
		l.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, nil
		}
	}
}

func (l *Log) sinceLocked(after uint64) ([]Record, error) {
	if after < l.base {
		return nil, fmt.Errorf("%w: have %d…%d, asked after %d", ErrGone, l.base+1, l.last, after)
	}
	start := after - l.base
	if start >= uint64(len(l.recs)) {
		return nil, nil
	}
	out := make([]Record, len(l.recs)-int(start))
	copy(out, l.recs[start:])
	return out, nil
}

// TruncateTo drops every record with Seq ≤ seq, bounding memory; replicas
// further behind than seq will get ErrGone from Since and resync. The
// in-memory drop and the base move happen under the same critical section as
// Since, so a concurrent FetchState/Since pair observes either the old bound
// or the new one — never a position that replays a half-truncated window.
// The durable store truncates segment-granularly (lazily) afterwards.
func (l *Log) TruncateTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.base {
		return
	}
	if seq > l.last {
		seq = l.last
	}
	drop := seq - l.base
	l.recs = append([]Record(nil), l.recs[drop:]...)
	l.base = seq
	if l.store != nil && l.storeErr == nil {
		if err := l.store.Truncate(seq); err != nil {
			l.wedgeLocked(err)
		}
	}
}
