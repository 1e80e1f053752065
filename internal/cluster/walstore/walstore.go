// Package walstore persists the cluster WAL as CRC-32C-framed append-only
// segment files, giving the primary's replication log a disk life that
// survives the process. Each segment is RTWALS1 magic, an SHDR header frame
// (epoch, first sequence, writer fsync policy), then WENT entry frames
// (sequence + opaque record payload), all in the serve.WriteFrame CRC-32C
// framing the WAL's wire records use — torn and bit-flipped frames are
// rejected by the identical code path everywhere.
//
// Recovery is the crash half of the contract: Open scans segments in name
// order (names embed the first sequence, so name order is sequence order),
// keeps the longest valid prefix, truncates a torn tail on the final segment
// at the last valid frame boundary, and deletes anything after the first
// unusable point. Recovered segments are sealed; the next append always
// starts a fresh segment, so finalization is atomic and no file is ever
// reopened for append. The fsync policy of the previous writer is recorded
// in every segment header — recovery reports it so the crash-recovery state
// machine in internal/cluster can decide whether a torn tail was ever
// replica-visible (it cannot have been under PolicyAlways, because the store
// syncs before the in-memory log publishes).
package walstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"sync"

	"routetab/internal/faultinject"
	"routetab/internal/serve"
)

// Errors.
var (
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("walstore: store closed")
	// ErrWedged reports a store disabled by an unrepairable write failure;
	// appends stop so the on-disk WAL stays a dense, well-formed prefix.
	ErrWedged = errors.New("walstore: store wedged by unrepaired write failure")
	// ErrOutOfOrder reports a non-dense append sequence.
	ErrOutOfOrder = errors.New("walstore: non-dense append sequence")
	// ErrNotEmpty reports SetEpoch on a store that already has records.
	ErrNotEmpty = errors.New("walstore: epoch change on non-empty store")
	// ErrCorrupt reports an undecodable segment encountered outside recovery
	// (recovery itself repairs rather than fails).
	ErrCorrupt = errors.New("walstore: corrupt segment")
)

// Segment file format constants.
var (
	magic     = [8]byte{'R', 'T', 'W', 'A', 'L', 'S', '1', '\n'}
	tagSegHdr = [4]byte{'S', 'H', 'D', 'R'}
	tagEntry  = [4]byte{'W', 'E', 'N', 'T'}
)

var segNameRE = regexp.MustCompile(`^wal-[0-9a-f]{16}\.seg$`)

// Defaults.
const (
	DefaultSegmentBytes = 1 << 20
	DefaultBatchEvery   = 32
)

// Policy selects when appended entries are fsynced.
type Policy uint8

// Fsync policies. PolicyAlways syncs every append (the only policy under
// which a crashed primary may resume its epoch); PolicyBatch syncs every
// BatchEvery appends and at rotation/close; PolicyOff syncs only at
// rotation/close.
const (
	PolicyAlways Policy = iota
	PolicyBatch
	PolicyOff
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyBatch:
		return "batch"
	case PolicyOff:
		return "off"
	}
	return fmt.Sprintf("policy-%d", uint8(p))
}

// ParsePolicy parses "always", "batch", or "off".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "batch":
		return PolicyBatch, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("walstore: unknown fsync policy %q (want always|batch|off)", s)
}

// Options configures a store.
type Options struct {
	// FS is the filesystem seam; nil means the operating system.
	FS faultinject.FS
	// Fsync is the write-side durability policy (default PolicyAlways).
	Fsync Policy
	// SegmentBytes is the rotation threshold (default 1 MiB).
	SegmentBytes int
	// BatchEvery is the PolicyBatch sync interval in appends (default 32).
	BatchEvery int
}

// Recovery reports what Open found and repaired.
type Recovery struct {
	Segments        int    // segment files retained
	Entries         uint64 // entries retained
	FirstSeq        uint64 // lowest retained sequence (0 when empty)
	LastSeq         uint64 // highest retained sequence (0 when empty)
	Epoch           uint64 // epoch recorded in the retained headers
	Policy          Policy // fsync policy of the previous writer's final segment
	TornBytes       int64  // bytes truncated from the final segment's torn tail
	DroppedSegments int    // unusable files deleted (headerless tails, corrupt suffix)
	Dirty           bool   // previous writer marked the WAL dirty (wedged journaling)
	Clean           bool   // nothing truncated, dropped, or dirty
}

type segMeta struct {
	name    string
	first   uint64
	last    uint64
	entries uint64
}

// Store is a segmented append-only WAL. All methods are safe for concurrent
// use; Replay must not re-enter the store from its callback.
type Store struct {
	dir  string
	fs   faultinject.FS
	opts Options

	mu       sync.Mutex
	segs     []segMeta
	epoch    uint64
	first    uint64
	last     uint64
	entries  uint64
	cur      faultinject.File
	curName  string
	curMeta  segMeta
	curBytes int64
	unsynced int
	wedged   error
	closed   bool
	rec      Recovery
}

// dirtyMarker is the file a wedged writer leaves behind so recovery knows
// replica-visible records may have outrun the durable WAL.
const dirtyMarker = "dirty"

// Open scans dir, repairs it per the recovery rules in the package comment,
// and returns a store whose recovered segments are sealed. Only I/O errors
// fail Open; corruption is repaired and reported via Recovery.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = faultinject.OSFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.BatchEvery <= 0 {
		opts.BatchEvery = DefaultBatchEvery
	}
	s := &Store{dir: dir, fs: opts.FS, opts: opts}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("walstore: mkdir %s: %w", dir, err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

type scannedSeg struct {
	name      string
	size      int64
	hdrOK     bool
	epoch     uint64
	policy    Policy
	first     uint64
	lastSeq   uint64
	entries   uint64
	goodBytes int64
	torn      bool
}

// readFrameAt decodes one CRC-framed section at data[off:], returning the
// payload and the offset one past the frame. The declared length is bounded
// by the remaining bytes before ReadFrame allocates, so a corrupt length
// field in a torn tail cannot demand a huge buffer.
func readFrameAt(data []byte, off int, tag [4]byte) ([]byte, int, error) {
	rem := len(data) - off
	if rem < 12 {
		return nil, off, io.ErrUnexpectedEOF
	}
	if length := binary.LittleEndian.Uint32(data[off+4 : off+8]); int64(length) > int64(rem-12) {
		return nil, off, io.ErrUnexpectedEOF
	}
	r := bytes.NewReader(data[off:])
	payload, err := serve.ReadFrame(r, tag)
	if err != nil {
		return nil, off, err
	}
	return payload, off + (len(data) - off - r.Len()), nil
}

// scanSegment walks one segment file. Entries stop at the first frame that
// fails CRC/structural checks or breaks sequence density; goodBytes is the
// byte offset of the last valid frame boundary.
func scanSegment(data []byte) scannedSeg {
	s := scannedSeg{size: int64(len(data))}
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return s
	}
	hdr, off, err := readFrameAt(data, len(magic), tagSegHdr)
	if err != nil {
		return s
	}
	hr := bytes.NewReader(hdr)
	epoch, err1 := binary.ReadUvarint(hr)
	first, err2 := binary.ReadUvarint(hr)
	pol, err3 := hr.ReadByte()
	if err1 != nil || err2 != nil || err3 != nil || hr.Len() != 0 || first == 0 || Policy(pol) > PolicyOff {
		return s
	}
	s.hdrOK, s.epoch, s.first, s.policy, s.goodBytes = true, epoch, first, Policy(pol), int64(off)
	next := first
	for off < len(data) {
		payload, end, err := readFrameAt(data, off, tagEntry)
		if err != nil {
			s.torn = true
			return s
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 || seq != next {
			// Duplicated, reordered, or malformed entry: treat it as the
			// tear point — everything before it is still a valid prefix.
			s.torn = true
			return s
		}
		s.entries++
		s.lastSeq = seq
		s.goodBytes = int64(end)
		next = seq + 1
		off = end
	}
	return s
}

// recover implements Open's scan-repair-seal pass.
func (s *Store) recover() error {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("walstore: scan %s: %w", s.dir, err)
	}
	var scanned []scannedSeg
	dirty := false
	for _, name := range names {
		if name == dirtyMarker {
			dirty = true
			continue
		}
		if !segNameRE.MatchString(name) {
			continue
		}
		full := filepath.Join(s.dir, name)
		data, err := s.fs.ReadFile(full)
		if err != nil {
			return fmt.Errorf("walstore: read %s: %w", full, err)
		}
		sc := scanSegment(data)
		sc.name = full
		scanned = append(scanned, sc)
	}
	var kept []scannedSeg
	dropFrom := len(scanned)
	expect := uint64(0)
	for i, sc := range scanned {
		lastFile := i == len(scanned)-1
		usable := sc.hdrOK
		if usable && len(kept) > 0 && (sc.epoch != kept[0].epoch || sc.first != expect) {
			usable = false
		}
		if usable && !lastFile && (sc.torn || sc.entries == 0) {
			// An interior segment must be complete: the writer seals a
			// segment before opening the next, so a torn or empty interior
			// file means external corruption — cut the log here.
			usable = false
		}
		if usable && lastFile && sc.entries == 0 {
			// Crash between segment creation and first entry: the file
			// holds no data, drop it.
			usable = false
		}
		if !usable {
			dropFrom = i
			break
		}
		kept = append(kept, sc)
		expect = sc.lastSeq + 1
	}
	dropped := 0
	for _, sc := range scanned[dropFrom:] {
		if err := s.fs.Remove(sc.name); err != nil {
			return fmt.Errorf("walstore: drop %s: %w", sc.name, err)
		}
		dropped++
	}
	var torn int64
	if n := len(kept); n > 0 && kept[n-1].torn {
		tail := kept[n-1]
		torn = tail.size - tail.goodBytes
		if err := s.fs.Truncate(tail.name, tail.goodBytes); err != nil {
			return fmt.Errorf("walstore: truncate torn tail %s: %w", tail.name, err)
		}
	}
	if dropped > 0 || torn > 0 {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return fmt.Errorf("walstore: sync dir %s: %w", s.dir, err)
		}
	}
	for _, sc := range kept {
		s.segs = append(s.segs, segMeta{name: sc.name, first: sc.first, last: sc.lastSeq, entries: sc.entries})
		s.entries += sc.entries
	}
	if len(kept) > 0 {
		s.epoch = kept[0].epoch
		s.first = kept[0].first
		s.last = kept[len(kept)-1].lastSeq
		s.rec.Policy = kept[len(kept)-1].policy
	}
	s.rec.Segments = len(kept)
	s.rec.Entries = s.entries
	s.rec.FirstSeq = s.first
	s.rec.LastSeq = s.last
	s.rec.Epoch = s.epoch
	s.rec.TornBytes = torn
	s.rec.DroppedSegments = dropped
	s.rec.Dirty = dirty
	s.rec.Clean = torn == 0 && dropped == 0 && !dirty
	return nil
}

// Recovery returns what Open found and repaired.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Epoch returns the store's epoch (0 before SetEpoch on a virgin store).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// FirstSeq returns the lowest retained sequence, 0 when nothing is retained.
func (s *Store) FirstSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// LastSeq returns the highest sequence ever appended or recovered (0 when
// the store has never held a record).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Entries returns the number of retained entries.
func (s *Store) Entries() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// SetEpoch stamps the epoch used in segment headers. It is only legal while
// the store holds no records (a virgin directory or right after Reset).
func (s *Store) SetEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.last != 0 || len(s.segs) > 0 || s.cur != nil {
		return ErrNotEmpty
	}
	s.epoch = epoch
	return nil
}

// Reset deletes every segment and the dirty marker, clears all state, and
// stamps a new epoch — the epoch-bump path of the crash-recovery state
// machine.
func (s *Store) Reset(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.cur != nil {
		if err := s.cur.Close(); err != nil {
			return fmt.Errorf("walstore: reset close active: %w", err)
		}
		if err := s.fs.Remove(s.curName); err != nil {
			return fmt.Errorf("walstore: reset remove active: %w", err)
		}
		s.cur, s.curName, s.curBytes = nil, "", 0
	}
	for _, seg := range s.segs {
		if err := s.fs.Remove(seg.name); err != nil {
			return fmt.Errorf("walstore: reset remove %s: %w", seg.name, err)
		}
	}
	if s.rec.Dirty {
		if err := s.fs.Remove(filepath.Join(s.dir, dirtyMarker)); err != nil {
			return fmt.Errorf("walstore: reset remove dirty marker: %w", err)
		}
		s.rec.Dirty = false
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("walstore: reset sync dir: %w", err)
	}
	s.segs, s.first, s.last, s.entries, s.unsynced = nil, 0, 0, 0, 0
	s.wedged = nil
	s.epoch = epoch
	return nil
}

// MarkDirty durably drops a marker file recording that journaling wedged
// while the in-memory log kept publishing: replica-visible records may have
// outrun the durable WAL, so the next recovery must bump the epoch.
func (s *Store) MarkDirty(reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := filepath.Join(s.dir, dirtyMarker)
	f, err := s.fs.Create(name)
	if err != nil {
		return fmt.Errorf("walstore: dirty marker: %w", err)
	}
	if _, err := f.Write([]byte(reason + "\n")); err != nil {
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("walstore: dirty marker write: %w (close: %v)", err, cerr)
		}
		return fmt.Errorf("walstore: dirty marker write: %w", err)
	}
	if err := f.Sync(); err != nil {
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("walstore: dirty marker sync: %w (close: %v)", err, cerr)
		}
		return fmt.Errorf("walstore: dirty marker sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("walstore: dirty marker close: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("walstore: dirty marker dir sync: %w", err)
	}
	s.rec.Dirty = true
	return nil
}

func segName(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", first))
}

// buildFrame frames payload with tag via the shared section codec.
func buildFrame(tag [4]byte, payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := serve.WriteFrame(&buf, tag, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// openSegmentLocked creates a fresh segment whose first entry will be seq,
// writing magic and header in a single write so a crash leaves either a
// recognisable header or a file recovery deletes.
func (s *Store) openSegmentLocked(seq uint64) error {
	name := segName(s.dir, seq)
	var hdr bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], s.epoch)])
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], seq)])
	hdr.WriteByte(byte(s.opts.Fsync))
	frame, err := buildFrame(tagSegHdr, hdr.Bytes())
	if err != nil {
		return err
	}
	prefix := append(append([]byte(nil), magic[:]...), frame...)
	f, err := s.fs.Create(name)
	if err != nil {
		return fmt.Errorf("walstore: create %s: %w", name, err)
	}
	if n, err := f.Write(prefix); err != nil || n != len(prefix) {
		if err == nil {
			err = io.ErrShortWrite
		}
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("walstore: segment header %s: %w (close: %v)", name, err, cerr)
		}
		if rerr := s.fs.Remove(name); rerr != nil {
			s.wedged = fmt.Errorf("%w: headerless segment %s not removable: %v", ErrWedged, name, rerr)
		}
		return fmt.Errorf("walstore: segment header %s: %w", name, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("walstore: sync dir for %s: %w (close: %v)", name, err, cerr)
		}
		if rerr := s.fs.Remove(name); rerr != nil {
			s.wedged = fmt.Errorf("%w: unsynced segment %s not removable: %v", ErrWedged, name, rerr)
		}
		return fmt.Errorf("walstore: sync dir for %s: %w", name, err)
	}
	s.cur, s.curName, s.curBytes = f, name, int64(len(prefix))
	s.curMeta = segMeta{name: name, first: seq, last: seq - 1}
	return nil
}

// sealLocked syncs and closes the active segment — atomic finalization: a
// sealed segment is complete by construction and is never written again.
func (s *Store) sealLocked() error {
	if s.cur == nil {
		return nil
	}
	if err := s.cur.Sync(); err != nil {
		s.wedged = fmt.Errorf("%w: seal sync %s: %v", ErrWedged, s.curName, err)
		return s.wedged
	}
	if err := s.cur.Close(); err != nil {
		s.wedged = fmt.Errorf("%w: seal close %s: %v", ErrWedged, s.curName, err)
		return s.wedged
	}
	s.segs = append(s.segs, s.curMeta)
	s.cur, s.curName, s.curBytes, s.unsynced = nil, "", 0, 0
	return nil
}

// repairTearLocked cuts a torn frame off the active segment after a failed
// append: the valid prefix is sealed (or the file removed when empty) so the
// store can keep appending into a fresh segment.
func (s *Store) repairTearLocked() error {
	cerr := s.cur.Close()
	name, meta, good := s.curName, s.curMeta, s.curBytes
	s.cur, s.curName, s.curBytes, s.unsynced = nil, "", 0, 0
	if meta.entries == 0 {
		if err := s.fs.Remove(name); err != nil {
			return err
		}
	} else {
		if err := s.fs.Truncate(name, good); err != nil {
			return err
		}
		s.segs = append(s.segs, meta)
	}
	return cerr
}

// Append journals one entry under the configured fsync policy. Sequences
// must be dense; the first append after Open or Reset fixes the base. On a
// torn write the store repairs the tail and returns the write error — the
// same sequence may be retried; if repair itself fails the store wedges.
func (s *Store) Append(seq uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wedged != nil {
		return s.wedged
	}
	if seq == 0 || (s.last != 0 && seq != s.last+1) {
		return fmt.Errorf("%w: append %d after %d", ErrOutOfOrder, seq, s.last)
	}
	if s.cur != nil && s.curBytes >= int64(s.opts.SegmentBytes) {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	if s.cur == nil {
		if err := s.openSegmentLocked(seq); err != nil {
			return err
		}
	}
	var ent bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	ent.Write(tmp[:binary.PutUvarint(tmp[:], seq)])
	ent.Write(payload)
	frame, err := buildFrame(tagEntry, ent.Bytes())
	if err != nil {
		return err
	}
	if n, werr := s.cur.Write(frame); werr != nil || n != len(frame) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		if rerr := s.repairTearLocked(); rerr != nil {
			s.wedged = fmt.Errorf("%w: torn append seq %d unrepaired: %v (write: %v)", ErrWedged, seq, rerr, werr)
			return s.wedged
		}
		return fmt.Errorf("walstore: append seq %d: %w", seq, werr)
	}
	s.curBytes += int64(len(frame))
	s.curMeta.last = seq
	s.curMeta.entries++
	if s.first == 0 {
		s.first = seq
	}
	s.last = seq
	s.entries++
	switch s.opts.Fsync {
	case PolicyAlways:
		if err := s.cur.Sync(); err != nil {
			// The frame is written but its durability is unknown; under
			// PolicyAlways that breaks the visible⊆durable invariant, so
			// fail-stop.
			s.wedged = fmt.Errorf("%w: sync seq %d: %v", ErrWedged, seq, err)
			return s.wedged
		}
	case PolicyBatch:
		s.unsynced++
		if s.unsynced >= s.opts.BatchEvery {
			if err := s.cur.Sync(); err != nil {
				s.wedged = fmt.Errorf("%w: batch sync at seq %d: %v", ErrWedged, seq, err)
				return s.wedged
			}
			s.unsynced = 0
		}
	}
	return nil
}

// Sync forces the active segment to disk regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wedged != nil {
		return s.wedged
	}
	if s.cur == nil {
		return nil
	}
	if err := s.cur.Sync(); err != nil {
		s.wedged = fmt.Errorf("%w: sync %s: %v", ErrWedged, s.curName, err)
		return s.wedged
	}
	s.unsynced = 0
	return nil
}

// Replay streams every retained entry with sequence ≥ from through fn in
// order. The callback must not re-enter the store.
func (s *Store) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	files := make([]segMeta, 0, len(s.segs)+1)
	files = append(files, s.segs...)
	if s.cur != nil {
		files = append(files, s.curMeta)
	}
	for _, seg := range files {
		if seg.entries == 0 || seg.last < from {
			continue
		}
		data, err := s.fs.ReadFile(seg.name)
		if err != nil {
			return fmt.Errorf("walstore: replay read %s: %w", seg.name, err)
		}
		sc := scanSegment(data)
		if !sc.hdrOK || sc.torn || sc.entries < seg.entries {
			return fmt.Errorf("%w: %s changed under replay", ErrCorrupt, seg.name)
		}
		// Re-walk the entries, this time handing payloads out.
		pos := len(magic)
		_, pos, err = readFrameAt(data, pos, tagSegHdr)
		if err != nil {
			return fmt.Errorf("%w: %s header", ErrCorrupt, seg.name)
		}
		for pos < int(sc.goodBytes) {
			payload, end, err := readFrameAt(data, pos, tagEntry)
			if err != nil {
				return fmt.Errorf("%w: %s entry at %d", ErrCorrupt, seg.name, pos)
			}
			seq, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("%w: %s entry seq at %d", ErrCorrupt, seg.name, pos)
			}
			if seq >= from {
				if err := fn(seq, payload[n:]); err != nil {
					return err
				}
			}
			pos = end
		}
	}
	return nil
}

// Truncate deletes sealed segments wholly covered by upTo (every entry
// sequence ≤ upTo). The active segment is never touched, so truncation is
// segment-granular and lazy — exactly the -wal-keep retention semantics.
func (s *Store) Truncate(upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	removed := 0
	for len(s.segs) > 0 && s.segs[0].last <= upTo {
		seg := s.segs[0]
		if err := s.fs.Remove(seg.name); err != nil {
			return fmt.Errorf("walstore: truncate remove %s: %w", seg.name, err)
		}
		s.entries -= seg.entries
		s.segs = s.segs[1:]
		removed++
	}
	if removed == 0 {
		return nil
	}
	switch {
	case len(s.segs) > 0:
		s.first = s.segs[0].first
	case s.cur != nil && s.curMeta.entries > 0:
		s.first = s.curMeta.first
	default:
		s.first = 0
	}
	if s.opts.Fsync != PolicyOff {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return fmt.Errorf("walstore: truncate sync dir: %w", err)
		}
	}
	return nil
}

// Close seals the active segment and finalizes the store. Further use
// returns ErrClosed. Close is not idempotent on error — a failed seal
// wedges, and the error reports what was lost.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.sealLocked()
	s.closed = true
	return err
}
