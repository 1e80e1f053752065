package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// Fuzz targets double as robustness tests for the decoders: arbitrary byte
// streams must never panic, and whatever decodes must re-encode to the same
// bits.

func FuzzReadSelfDelimiting(f *testing.F) {
	f.Add([]byte{0b01000000}, 8)
	f.Add([]byte{0b10100000}, 8)
	f.Add([]byte{0xFF, 0xFF}, 16)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 || nbits > len(data)*8 {
			return
		}
		r, err := NewReader(data, nbits)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.ReadSelfDelimiting()
		if err != nil {
			return // malformed input is allowed to error, not panic
		}
		// Round-trip: re-encoding must reproduce the consumed prefix.
		w := NewWriter(0)
		if err := w.WriteSelfDelimiting(v); err != nil {
			t.Fatalf("re-encode %d: %v", v, err)
		}
		if w.Len() != r.Pos() {
			t.Fatalf("consumed %d bits, re-encoded %d", r.Pos(), w.Len())
		}
	})
}

func FuzzReadEliasDelta(f *testing.F) {
	f.Add([]byte{0b10000000})
	f.Add([]byte{0b01000000})
	f.Add([]byte{0x00, 0xFF, 0x13})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data, len(data)*8)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.ReadEliasDelta()
		if err != nil {
			return
		}
		w := NewWriter(0)
		if err := w.WriteEliasDelta(v); err != nil {
			t.Fatalf("re-encode %d: %v", v, err)
		}
		if w.Len() != r.Pos() {
			t.Fatalf("consumed %d bits, re-encoded %d", r.Pos(), w.Len())
		}
	})
}

func FuzzWriterReaderMirror(f *testing.F) {
	f.Add([]byte("hello"), 13)
	f.Fuzz(func(t *testing.T, data []byte, nbits int) {
		if nbits < 0 || nbits > len(data)*8 {
			return
		}
		r, err := NewReader(data, nbits)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(nbits)
		for r.Remaining() > 0 {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			w.WriteBit(b)
		}
		if w.Len() != nbits {
			t.Fatalf("copied %d bits, want %d", w.Len(), nbits)
		}
		// The packed copy must equal the original prefix.
		full := nbits / 8
		if !bytes.Equal(w.Bytes()[:full], data[:full]) {
			t.Fatal("byte mismatch after bit copy")
		}
	})
}

// refBits is the bit-at-a-time reference WriteBits is checked against: one
// bit per step, MSB-first, appending a zero byte at every byte boundary.
type refBits struct {
	buf  []byte
	nbit int
}

func (r *refBits) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		if r.nbit%8 == 0 {
			r.buf = append(r.buf, 0)
		}
		if v&(1<<uint(i)) != 0 {
			r.buf[r.nbit/8] |= 1 << (7 - uint(r.nbit%8))
		}
		r.nbit++
	}
}

// FuzzWriteBits decodes data into a sequence of (value, width ∈ [0,64])
// writes — one width byte, then eight value bytes — and replays it after a
// lead-in of every length 0–7, so each write starts at every bit alignment.
// The packed output must match the reference bit for bit, and a value too
// wide for its width must be rejected without touching the stream.
func FuzzWriteBits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 5, 13, 0, 0, 0, 0, 0, 0, 0x1A, 0x2B, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0xFF, 9, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for lead := 0; lead < 8; lead++ {
			w := NewWriter(0)
			ref := &refBits{}
			if err := w.WriteBits(0x55>>uint(8-lead), lead); err != nil {
				t.Fatal(err)
			}
			ref.writeBits(0x55>>uint(8-lead), lead)
			for op := data; len(op) > 0; {
				width := int(op[0]) % 65
				op = op[1:]
				var raw [8]byte
				op = op[copy(raw[:], op):]
				v := binary.BigEndian.Uint64(raw[:])
				if width < 64 && v>>uint(width) != 0 {
					before := w.Len()
					if err := w.WriteBits(v, width); !errors.Is(err, ErrValueRange) {
						t.Fatalf("lead %d: WriteBits(%#x, %d) err = %v, want ErrValueRange", lead, v, width, err)
					}
					if w.Len() != before {
						t.Fatalf("lead %d: rejected write moved Len %d → %d", lead, before, w.Len())
					}
					v &= 1<<uint(width) - 1
				}
				if err := w.WriteBits(v, width); err != nil {
					t.Fatalf("lead %d: WriteBits(%#x, %d): %v", lead, v, width, err)
				}
				ref.writeBits(v, width)
			}
			if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
				t.Fatalf("lead %d: got %d bits %x, reference %d bits %x",
					lead, w.Len(), w.Bytes(), ref.nbit, ref.buf)
			}
		}
	})
}
