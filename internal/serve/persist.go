// Snapshot persistence: crash-safe save/load of serving snapshots in the
// arena codec (arena.go), so a restarted daemon recovers the last published
// snapshot byte-identically instead of cold-rebuilding it. Saves go through a
// temp file and an atomic rename: a crash mid-save can never corrupt the
// previous good file. Bytes that do not open as an arena — a truncated or
// bit-flipped file, or one in a pre-arena layout — fail with
// ErrBadSnapshotFile.
//
// This file also holds the CRC-32C frame (WriteFrame/ReadFrame) that the
// cluster WAL, its on-disk segments and the shard map are written in.
package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/routing"
	"routetab/internal/shortestpath"
)

// ErrBadSnapshotFile reports a snapshot file that failed structural or
// checksum validation.
var ErrBadSnapshotFile = errors.New("serve: bad snapshot file")

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSectionLen bounds a frame so a corrupt length field cannot ask the
// decoder to allocate gigabytes (256 MiB is head room, not a target).
const maxSectionLen = 256 << 20

// SnapshotData is the decoded content of a persisted snapshot: everything a
// deterministic rebuild needs to reproduce the published tables without
// recomputing distances.
type SnapshotData struct {
	Seq    uint64
	Scheme string
	// Graph is the topology; its port assignment is implied, the sorted
	// one (graph.SortedPorts), as on every snapshot the engine publishes.
	Graph *graph.Graph
	// Dist is the all-pairs matrix (TierFull). Nil on tiered snapshots, which
	// carry Tables instead — exactly one of the two is set.
	Dist *shortestpath.Distances
	// Tables is the compact scheme's deterministic table encoding (TierTables).
	Tables []byte
}

// WriteFrame writes one CRC-framed payload: tag, little-endian length,
// CRC-32C (Castagnoli), bytes. The cluster WAL, its segment files and the
// shard map all use it, so torn or bit-flipped frames are rejected
// identically everywhere.
func WriteFrame(w io.Writer, tag [4]byte, payload []byte) error {
	var hdr [12]byte
	copy(hdr[:4], tag[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads and checksums one framed payload, enforcing the tag. A
// short read, wrong tag, oversized length claim, or checksum mismatch returns
// an error wrapping ErrBadSnapshotFile.
func ReadFrame(r io.Reader, tag [4]byte) ([]byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: section %s header: %v", ErrBadSnapshotFile, tag, err)
	}
	if !bytes.Equal(hdr[:4], tag[:]) {
		return nil, fmt.Errorf("%w: section tag %q, want %q", ErrBadSnapshotFile, hdr[:4], tag)
	}
	length := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxSectionLen {
		return nil, fmt.Errorf("%w: section %s claims %d bytes", ErrBadSnapshotFile, tag, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: section %s body: %v", ErrBadSnapshotFile, tag, err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[8:12]); got != want {
		return nil, fmt.Errorf("%w: section %s checksum %08x, want %08x", ErrBadSnapshotFile, tag, got, want)
	}
	return payload, nil
}

// DecodeSnapshot reads one arena from r, the stream form cluster state
// bodies carry. Every structural claim is checked (magic, lengths, CRC, the
// decoded graph's structure), so feeding it arbitrary bytes returns an
// error, never a corrupt serving state.
func DecodeSnapshot(r io.Reader) (*SnapshotData, error) {
	a, err := readArena(r)
	if err != nil {
		return nil, err
	}
	return a.SnapshotData()
}

// SaveSnapshot writes s to path crash-safely in the arena codec: encode to
// one contiguous buffer, write it to a unique temp file in the same directory
// with a single Write, fsync, then atomically rename over path. Readers (and
// a process that crashes mid-save) only ever observe complete files.
func SaveSnapshot(path string, s *Snapshot) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(EncodeArena(s.data())); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// data returns the content of s that the arena persists.
func (s *Snapshot) data() *SnapshotData {
	return &SnapshotData{Seq: s.Seq, Scheme: s.Scheme, Graph: s.Graph, Dist: s.Dist, Tables: s.TablesBytes()}
}

// LoadSnapshot reads and validates the snapshot file at path. The whole
// file lands in memory with one ReadFile, is validated in place, and its
// distance matrix is served aliased to that buffer — no second copy.
func LoadSnapshot(path string) (*SnapshotData, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := OpenArena(buf)
	if err != nil {
		return nil, err
	}
	return a.SnapshotData()
}

// Adopt atomically replaces the engine's topology and published snapshot
// with sd — the full-snapshot fallback path of a cluster replica that
// detected WAL divergence. The adopted snapshot publishes with sd.Seq (the
// sequence is the remote primary's, not the local mutation count) so later
// replicated mutations continue it. The publish hook is not invoked:
// adoption replays remote state rather than originating a change.
func (e *Engine) Adopt(sd *SnapshotData) error {
	if sd.Scheme != e.scheme {
		return fmt.Errorf("serve: adopting %q snapshot into %q engine", sd.Scheme, e.scheme)
	}
	snap, err := snapshotFromData(sd)
	if err != nil {
		return err
	}
	if snap.Tier != e.tier {
		return fmt.Errorf("serve: adopting %s-tier snapshot into %s-tier engine", snap.Tier, e.tier)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.g = sd.Graph
	if snap.Tier == TierTables {
		// The adopted table blob carries the remote owned set (possibly nil);
		// later local rebuilds must restrict identically or diverge.
		e.owned = snap.owned
	} else {
		// The full-tier matrix encodes no ownership: keep the engine's
		// serve-level restriction sticky across adoption.
		snap.owned = e.owned
	}
	e.cur.Store(snap)
	e.swaps.Store(sd.Seq)
	return e.saveLocked(snap)
}

// snapshotFromData rebuilds a serving snapshot from decoded snapshot data on
// whichever tier the data carries: a matrix rebuilds the scheme under the
// determinism contract, a table blob decodes the scheme directly (no distance
// computation at all — the tiered warm boot is O(tables), not O(n²)).
func snapshotFromData(sd *SnapshotData) (*Snapshot, error) {
	var (
		scheme routing.Scheme
		tables TableScheme
		tier   = TierFull
	)
	var owned *keyspace.Set
	ports := graph.SortedPorts(sd.Graph)
	if sd.Dist == nil {
		ts, err := DecodeTableScheme(sd.Scheme, sd.Graph, ports, sd.Tables)
		if err != nil {
			return nil, err
		}
		scheme, tables, tier = ts, ts, TierTables
		// A keyspace-restricted table blob carries its owned set; the rebuilt
		// snapshot enforces the same restriction the encoder did.
		if ow, ok := ts.(interface{ Owned() *keyspace.Set }); ok {
			owned = ow.Owned()
		}
	} else {
		var err error
		scheme, err = BuildScheme(sd.Scheme, sd.Graph, ports, sd.Dist)
		if err != nil {
			return nil, err
		}
	}
	sim, err := routing.NewSim(sd.Graph, ports, scheme)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Seq:      sd.Seq,
		Scheme:   sd.Scheme,
		Graph:    sd.Graph,
		Ports:    ports,
		Dist:     sd.Dist,
		Tier:     tier,
		scheme:   scheme,
		sim:      sim,
		hopLimit: routing.DefaultHopLimit(sd.Graph.N()),
		tables:   tables,
		owned:    owned,
	}, nil
}

// RestoreEngine rebuilds a serving engine from a persisted snapshot without
// recomputing distances — see NewEngineFromSnapshot for the contract.
func RestoreEngine(path string) (*Engine, error) {
	sd, err := LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	eng, err := NewEngineFromSnapshot(sd)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring %s: %w", path, err)
	}
	return eng, nil
}

// NewEngineFromSnapshot builds a serving engine directly from decoded
// snapshot data without recomputing distances: the packed matrix is adopted
// as ground truth, the scheme is
// reconstructed from (graph, sorted ports, matrix) under the determinism contract of
// DESIGN.md §8, and the snapshot publishes with its original Seq so later
// mutations continue the sequence. Both the crash-restore path and a cluster
// replica bootstrapping from a fetched primary state go through here.
func NewEngineFromSnapshot(sd *SnapshotData) (*Engine, error) {
	snap, err := snapshotFromData(sd)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g:      sd.Graph,
		scheme: sd.Scheme,
		tier:   snap.Tier,
		owned:  snap.owned,
	}
	e.cur.Store(snap)
	e.swaps.Store(sd.Seq)
	return e, nil
}
