package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"routetab/internal/serve"
)

// Client is a concurrency-safe RTBIN1 client over one persistent TCP
// connection. Concurrent Batch calls pipeline naturally: each call writes
// one framed request under a short lock and parks on its own completion
// channel while a single reader goroutine demultiplexes responses by id.
// It implements cluster.Backend, so hedged Routers can race binary replicas.
type Client struct {
	name string
	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex // serialises frame writes and bw

	mu      sync.Mutex
	pending map[uint64]*call
	readErr error // sticky, set once the reader goroutine exits
	closed  bool

	nextID  atomic.Uint64
	encPool sync.Pool // *[]byte request-encoding scratch
}

type call struct {
	done    chan struct{}
	out     []serve.Result // lookup calls
	info    *Info          // info calls
	payload []byte         // reader-owned response body for this call
	err     error
}

// Info describes the remote serving state.
type Info struct {
	Seq    uint64
	N      int
	Scheme string
	Codec  string
}

// Dial connects to an RTBIN1 listener. name labels the backend for routing.
func Dial(name, addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		name:    name,
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: map[uint64]*call{},
	}
	c.encPool.New = func() any { b := make([]byte, 0, 4<<10); return &b }
	go c.readLoop()
	return c, nil
}

// Name implements cluster.Backend.
func (c *Client) Name() string { return c.name }

// Close tears the connection down; in-flight calls fail with net.ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// Batch answers len(pairs) lookups in one frame. out must be at least as
// long as pairs; per-lookup failures land in out[i].Err while a returned
// error means the whole exchange failed (connection loss, bad frame).
func (c *Client) Batch(pairs [][2]int, out []serve.Result) error {
	if len(pairs) == 0 {
		return nil
	}
	if len(out) < len(pairs) {
		return fmt.Errorf("wire: out len %d < pairs len %d", len(out), len(pairs))
	}
	if len(pairs) > MaxPairsPerFrame {
		return fmt.Errorf("wire: batch of %d exceeds frame cap %d", len(pairs), MaxPairsPerFrame)
	}
	bufp := c.encPool.Get().(*[]byte)
	payload := (*bufp)[:0]
	for _, p := range pairs {
		var rec [8]byte
		le.PutUint32(rec[0:], uint32(p[0]))
		le.PutUint32(rec[4:], uint32(p[1]))
		payload = append(payload, rec[:]...)
	}
	cl, err := c.roundTrip(typeLookupReq, len(pairs), payload, out[:len(pairs)])
	*bufp = payload
	c.encPool.Put(bufp)
	if err != nil {
		return err
	}
	n := len(cl.payload) / respRecLen
	for i := 0; i < len(pairs); i++ {
		if i < n {
			decodeResultRec(cl.payload[i*respRecLen:], &out[i])
		} else {
			out[i] = serve.Result{Err: io.ErrUnexpectedEOF}
		}
	}
	return nil
}

// LookupBatch aliases Batch under the cluster.BatchBackend method name, so
// one seeded workload can drive in-process, JSON, and binary targets alike.
func (c *Client) LookupBatch(pairs [][2]int, out []serve.Result) error {
	return c.Batch(pairs, out)
}

// Lookup implements cluster.Backend: the error return is reserved for
// transport failures; service-level failures (overload, unavailable) travel
// inside the Result, exactly as the Router's failover logic expects.
func (c *Client) Lookup(src, dst int) (serve.Result, error) {
	var out [1]serve.Result
	if err := c.Batch([][2]int{{src, dst}}, out[:]); err != nil {
		return serve.Result{}, err
	}
	return out[0], nil
}

// Info fetches the remote snapshot header.
func (c *Client) Info() (Info, error) {
	cl, err := c.roundTrip(typeInfoReq, 0, nil, nil)
	if err != nil {
		return Info{}, err
	}
	if cl.info == nil {
		return Info{}, ErrBadFrame
	}
	return *cl.info, nil
}

func (c *Client) roundTrip(typ byte, count int, payload []byte, out []serve.Result) (*call, error) {
	id := c.nextID.Add(1)
	cl := &call{done: make(chan struct{}), out: out}

	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
	c.pending[id] = cl
	c.mu.Unlock()

	c.wmu.Lock()
	hb := appendHeader(nil, typ, count, id, payload)
	_, err := c.bw.Write(hb)
	if err == nil && len(payload) > 0 {
		_, err = c.bw.Write(payload)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}

	<-cl.done
	if cl.err != nil {
		return nil, cl.err
	}
	return cl, nil
}

// readLoop demultiplexes response frames to their parked callers. Any read
// or protocol error is terminal: the error is propagated to every pending
// and future call, matching the server's close-on-bad-frame behaviour.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var hdr [headerLen]byte
	err := func() error {
		for {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return err
			}
			h, err := parseHeader(hdr[:])
			if err != nil {
				return err
			}
			payload := make([]byte, h.length)
			if _, err := io.ReadFull(br, payload); err != nil {
				return err
			}
			if err := h.checkPayload(payload); err != nil {
				return err
			}
			switch h.typ {
			case typeErrorResp:
				return fmt.Errorf("%w: server: %s", ErrBadFrame, payload)
			case typeLookupResp, typeInfoResp:
			default:
				return errUnexpectedType
			}
			c.mu.Lock()
			cl := c.pending[h.id]
			delete(c.pending, h.id)
			c.mu.Unlock()
			if cl == nil {
				return fmt.Errorf("%w: response for unknown id %d", ErrBadFrame, h.id)
			}
			if h.typ == typeInfoResp {
				info, err := parseInfo(payload)
				if err != nil {
					cl.err = err
					close(cl.done)
					return err
				}
				cl.info = &info
			} else {
				cl.payload = payload
			}
			close(cl.done)
		}
	}()
	if err == nil || errors.Is(err, io.EOF) {
		err = net.ErrClosed
	}
	c.mu.Lock()
	c.readErr = err
	pending := c.pending
	c.pending = map[uint64]*call{}
	c.mu.Unlock()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
}

func parseInfo(payload []byte) (Info, error) {
	if len(payload) < 12 {
		return Info{}, fmt.Errorf("%w: short info payload", ErrBadFrame)
	}
	info := Info{
		Seq: le.Uint64(payload[0:]),
		N:   int(le.Uint32(payload[8:])),
	}
	rest := payload[12:]
	var err error
	if info.Scheme, rest, err = takeString(rest); err != nil {
		return Info{}, err
	}
	if info.Codec, _, err = takeString(rest); err != nil {
		return Info{}, err
	}
	return info, nil
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: short string", ErrBadFrame)
	}
	n := int(le.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("%w: short string body", ErrBadFrame)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
