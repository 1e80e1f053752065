// Package bitio provides bit-exact binary encoding primitives used throughout
// routetab to measure routing-table sizes in bits, not bytes.
//
// The paper ("Optimal Routing Tables", PODC'96) charges every routing scheme
// by the exact number of bits needed to store its local routing functions, and
// its incompressibility proofs manipulate bit strings directly: characteristic
// sequences (Definition 2, footnote 7), unary codes, and the self-delimiting
// codes z̄ = 1^{|z|} 0 z and z′ = |z|̄ z of Definition 4. This package
// implements all of them with exact-cost accounting so that encoded sizes can
// be compared against the paper's bounds bit for bit.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
)

// Common decoding errors.
var (
	// ErrOutOfBits indicates a read past the end of the bit stream.
	ErrOutOfBits = errors.New("bitio: out of bits")
	// ErrWidthRange indicates a fixed width outside [0, 64].
	ErrWidthRange = errors.New("bitio: width out of range [0,64]")
	// ErrValueRange indicates a value that does not fit the requested width.
	ErrValueRange = errors.New("bitio: value does not fit width")
)

// Writer accumulates bits most-significant-first into a growable buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed bits; the final byte is zero-padded. The returned
// slice is a copy and safe to retain.
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// BitString renders the written bits as a "0101…" string (testing helper).
func (w *Writer) BitString() string {
	out := make([]byte, w.nbit)
	for i := 0; i < w.nbit; i++ {
		if w.buf[i/8]&(1<<(7-uint(i%8))) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteBits appends the width lowest-order bits of v, most significant first.
// Width must lie in [0, 64] and v must fit in width bits.
func (w *Writer) WriteBits(v uint64, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("%w: %d", ErrWidthRange, width)
	}
	if width < 64 && v>>uint(width) != 0 {
		return fmt.Errorf("%w: value %d, width %d", ErrValueRange, v, width)
	}
	// Fill the partial last byte, then whole bytes, MSB-first; each step
	// moves the take highest of the width bits still to write.
	for width > 0 {
		off := w.nbit % 8
		if off == 0 {
			w.buf = append(w.buf, 0)
		}
		take := min(8-off, width)
		chunk := v >> uint(width-take) & (1<<uint(take) - 1)
		w.buf[len(w.buf)-1] |= byte(chunk << uint(8-off-take))
		width -= take
		w.nbit += take
	}
	return nil
}

// WriteUnary appends the paper's unary code for v ≥ 0: v ones followed by a
// terminating zero (Theorem 1 uses this for intermediate-node indices; note
// that value 0 encodes as the single bit "0", which Theorem 1 reuses as the
// "see second table" marker).
func (w *Writer) WriteUnary(v int) error {
	if v < 0 {
		return fmt.Errorf("%w: unary of negative %d", ErrValueRange, v)
	}
	for i := 0; i < v; i++ {
		w.WriteBit(true)
	}
	w.WriteBit(false)
	return nil
}

// WriteSelfDelimiting appends z̄ = 1^{|z|} 0 z where z is the minimal binary
// representation of v (Definition 4). Cost: 2|z|+1 bits. Values must be
// below 2⁶⁴−1 (the bijective code of MaxUint64 needs a 64-bit length that
// the reader rejects).
func (w *Writer) WriteSelfDelimiting(v uint64) error {
	if v == 1<<64-1 {
		return fmt.Errorf("%w: self-delimiting value %d", ErrValueRange, v)
	}
	z := minimalBinary(v)
	for range z {
		w.WriteBit(true)
	}
	w.WriteBit(false)
	for _, bit := range z {
		w.WriteBit(bit)
	}
	return nil
}

// WriteShortSelfDelimiting appends z′ = |z|̄ z (Definition 4): the length of
// z in the z̄ code followed by z itself. Cost: |z| + 2⌈log(|z|+1)⌉ + 1 bits.
func (w *Writer) WriteShortSelfDelimiting(v uint64) error {
	z := minimalBinary(v)
	if err := w.WriteSelfDelimiting(uint64(len(z))); err != nil {
		return err
	}
	for _, bit := range z {
		w.WriteBit(bit)
	}
	return nil
}

// WriteCharacteristic appends the characteristic sequence of the set members
// within a universe of size universe: bit v−1 is 1 iff v ∈ members (labels
// are 1-based, matching the paper's node labels {1,…,n}). Cost: universe bits.
func (w *Writer) WriteCharacteristic(members []int, universe int) error {
	in := make([]bool, universe)
	for _, m := range members {
		if m < 1 || m > universe {
			return fmt.Errorf("%w: member %d outside universe [1,%d]", ErrValueRange, m, universe)
		}
		in[m-1] = true
	}
	for _, b := range in {
		w.WriteBit(b)
	}
	return nil
}

// Reader consumes bits most-significant-first from a packed buffer.
type Reader struct {
	buf  []byte
	nbit int // total readable bits
	pos  int
}

// NewReader returns a Reader over the first nbit bits of buf.
func NewReader(buf []byte, nbit int) (*Reader, error) {
	if nbit < 0 || nbit > len(buf)*8 {
		return nil, fmt.Errorf("%w: %d bits in %d bytes", ErrOutOfBits, nbit, len(buf))
	}
	return &Reader{buf: buf, nbit: nbit}, nil
}

// ReaderFor returns a Reader over everything a Writer has produced.
func ReaderFor(w *Writer) *Reader {
	return &Reader{buf: w.Bytes(), nbit: w.Len()}
}

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOutOfBits
	}
	b := r.buf[r.pos/8]&(1<<(7-uint(r.pos%8))) != 0
	r.pos++
	return b, nil
}

// ReadBits consumes width bits and returns them as an unsigned value.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("%w: %d", ErrWidthRange, width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

// ReadUnary consumes a unary code (v ones then a zero) and returns v.
func (r *Reader) ReadUnary() (int, error) {
	v := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if !b {
			return v, nil
		}
		v++
	}
}

// ReadSelfDelimiting consumes a z̄ code and returns the encoded value.
func (r *Reader) ReadSelfDelimiting() (uint64, error) {
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if n > 63 {
		return 0, fmt.Errorf("%w: self-delimiting length %d", ErrWidthRange, n)
	}
	return r.readMinimalBinary(n)
}

// ReadShortSelfDelimiting consumes a z′ code and returns the encoded value.
func (r *Reader) ReadShortSelfDelimiting() (uint64, error) {
	zlen, err := r.ReadSelfDelimiting()
	if err != nil {
		return 0, err
	}
	if zlen > 63 {
		return 0, fmt.Errorf("%w: short self-delimiting length %d", ErrWidthRange, zlen)
	}
	return r.readMinimalBinary(int(zlen))
}

// ReadCharacteristic consumes universe bits and returns the 1-based labels of
// the set members.
func (r *Reader) ReadCharacteristic(universe int) ([]int, error) {
	var members []int
	for v := 1; v <= universe; v++ {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if b {
			members = append(members, v)
		}
	}
	return members, nil
}

// readMinimalBinary reads n bits interpreted as the minimal-binary code
// produced by minimalBinary.
func (r *Reader) readMinimalBinary(n int) (uint64, error) {
	bs, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	// minimalBinary maps 0→ε, 1→"0", 2→"1", 3→"00", … : value = bits read
	// interpreted in base 2, plus (2^n − 1) to undo the bijection offset.
	return bs + (1<<uint(n) - 1), nil
}

// minimalBinary returns the bijective binary code of v under the paper's
// correspondence (0,ε), (1,"0"), (2,"1"), (3,"00"), (4,"01"), … . The code of
// v has ⌊log₂(v+1)⌋ bits.
func minimalBinary(v uint64) []bool {
	n := bits.Len64(v+1) - 1
	rem := v - (1<<uint(n) - 1)
	out := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = rem&1 == 1
		rem >>= 1
	}
	return out
}

// MinimalBinaryLen returns |z| for the paper's bijective binary code of v.
func MinimalBinaryLen(v uint64) int { return bits.Len64(v+1) - 1 }

// SelfDelimitingLen returns the exact cost in bits of WriteSelfDelimiting(v):
// 2|z| + 1.
func SelfDelimitingLen(v uint64) int { return 2*MinimalBinaryLen(v) + 1 }

// ShortSelfDelimitingLen returns the exact cost in bits of
// WriteShortSelfDelimiting(v): |z| + 2⌈log(|z|+1)⌉-ish per Definition 4; the
// exact value follows the nested z̄ code of |z|.
func ShortSelfDelimitingLen(v uint64) int {
	zlen := MinimalBinaryLen(v)
	return SelfDelimitingLen(uint64(zlen)) + zlen
}

// UnaryLen returns the exact cost in bits of WriteUnary(v): v + 1.
func UnaryLen(v int) int { return v + 1 }

// CeilLog2 returns ⌈log₂ v⌉ for v ≥ 1; by the paper's convention (footnote 6)
// "log n" in table widths means ⌈log(n+1)⌉, provided by CeilLogPlus1.
func CeilLog2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// CeilLogPlus1 returns ⌈log₂(v+1)⌉, the paper's ⌈log(n+1)⌉ field width for
// values in {0,…,v} (footnote 6).
func CeilLogPlus1(v int) int {
	if v < 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}
