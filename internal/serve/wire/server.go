// The binary server frame loop. Every per-connection buffer — header,
// payload, decoded pairs, results, encoded response — lives in one connState
// reused across frames, so a steady-state batch request costs at most one
// heap allocation (asserted by TestHandleOneAllocs). Responses are written
// through a bufio.Writer that flushes only when the read side has drained,
// which batches pipelined responses into large writes.
//
//rt:hotpath — make lint bans fmt.Sprintf and map iteration in this file.
package wire

import (
	"bufio"
	"errors"
	"io"
	"net"

	"routetab/internal/serve"
)

type connState struct {
	br      *bufio.Reader
	bw      *bufio.Writer
	hdr     [headerLen]byte
	payload []byte
	pairs   [][2]int
	out     []serve.Result
	wbuf    []byte
}

func newConnState(r io.Reader, w io.Writer) *connState {
	return &connState{
		br: bufio.NewReaderSize(r, 64<<10),
		bw: bufio.NewWriterSize(w, 64<<10),
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.dropConn(conn)
	}()
	cs := newConnState(conn, conn)
	for {
		err := s.handleOne(cs)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				// Tell the peer why before hanging up; framing is lost, so
				// the connection cannot be salvaged.
				s.writeError(cs, err)
			}
			return
		}
		// Pipelining: keep answering buffered requests back-to-back and
		// flush once the peer has nothing more in flight.
		if cs.br.Buffered() == 0 {
			if err := cs.bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handleOne reads one frame from cs.br and appends the response to cs.bw.
// It returns io.EOF at a clean end-of-stream and ErrBadFrame on protocol
// violations; the steady lookup path allocates at most once per call.
func (s *Server) handleOne(cs *connState) error {
	if _, err := io.ReadFull(cs.br, cs.hdr[:]); err != nil {
		return err
	}
	h, err := parseHeader(cs.hdr[:])
	if err != nil {
		s.badFrames.Inc()
		return err
	}
	if cap(cs.payload) < h.length {
		cs.payload = make([]byte, h.length)
	}
	payload := cs.payload[:h.length]
	if _, err := io.ReadFull(cs.br, payload); err != nil {
		s.badFrames.Inc()
		return err
	}
	if err := h.checkPayload(payload); err != nil {
		s.badFrames.Inc()
		return err
	}
	s.frames.Inc()
	switch h.typ {
	case typeLookupReq:
		return s.handleLookup(cs, h, payload)
	case typeInfoReq:
		return s.handleInfo(cs, h)
	default:
		s.badFrames.Inc()
		return errUnexpectedType
	}
}

// errUnexpectedType wraps ErrBadFrame by message prefix matching not being
// enough: keep it a real wrapped error so serveConn reports it to the peer.
var errUnexpectedType = &unexpectedTypeError{}

type unexpectedTypeError struct{}

func (*unexpectedTypeError) Error() string { return "wire: bad frame: unexpected frame type" }
func (*unexpectedTypeError) Is(target error) bool {
	return target == ErrBadFrame
}

func (s *Server) handleLookup(cs *connState, h frameHeader, payload []byte) error {
	if cap(cs.pairs) < h.count {
		cs.pairs = make([][2]int, h.count)
		cs.out = make([]serve.Result, h.count)
	}
	pairs, out := cs.pairs[:h.count], cs.out[:h.count]
	for i := range pairs {
		pairs[i] = [2]int{
			int(le.Uint32(payload[i*8:])),
			int(le.Uint32(payload[i*8+4:])),
		}
	}
	s.pairs.Add(uint64(h.count))
	if err := s.srv.LookupBatch(pairs, out); err != nil {
		// Whole-batch rejection: report it per-record so the frame still
		// answers and the connection survives.
		for i := range out {
			out[i] = serve.Result{Err: err}
		}
	}
	cs.wbuf = cs.wbuf[:0]
	for i := range out {
		cs.wbuf = appendResultRec(cs.wbuf, &out[i])
	}
	return s.writeFrame(cs, typeLookupResp, h.count, h.id, cs.wbuf)
}

func (s *Server) handleInfo(cs *connState, h frameHeader) error {
	eng := s.srv.Engine()
	snap := eng.Current()
	cs.wbuf = cs.wbuf[:0]
	var tmp [12]byte
	le.PutUint64(tmp[0:], snap.Seq)
	le.PutUint32(tmp[8:], uint32(snap.Graph.N()))
	cs.wbuf = append(cs.wbuf, tmp[:]...)
	cs.wbuf = appendString(cs.wbuf, snap.Scheme)
	cs.wbuf = appendString(cs.wbuf, serve.CodecArena)
	return s.writeFrame(cs, typeInfoResp, 0, h.id, cs.wbuf)
}

func appendString(dst []byte, v string) []byte {
	var l [2]byte
	le.PutUint16(l[:], uint16(len(v)))
	return append(append(dst, l[:]...), v...)
}

func (s *Server) writeError(cs *connState, err error) {
	cs.wbuf = append(cs.wbuf[:0], err.Error()...)
	if s.writeFrame(cs, typeErrorResp, 0, 0, cs.wbuf) == nil {
		cs.bw.Flush()
	}
}

// writeFrame reuses the read-header array as write scratch: the request
// header is fully parsed by the time a response is encoded.
func (s *Server) writeFrame(cs *connState, typ byte, count int, id uint64, payload []byte) error {
	hb := appendHeader(cs.hdr[:0], typ, count, id, payload)
	if _, err := cs.bw.Write(hb); err != nil {
		return err
	}
	_, err := cs.bw.Write(payload)
	return err
}
