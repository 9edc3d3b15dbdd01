package v2i

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("v2i: transport closed")

// MaxFrameBytes bounds one newline-delimited TCP frame. A peer that
// streams an unbounded line would otherwise grow the read buffer
// without limit; frames at or above this size are rejected on both
// the send and receive side.
const MaxFrameBytes = 256 << 10

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameBytes.
// After a receive-side rejection the stream is no longer framed and
// the connection should be closed.
var ErrFrameTooLarge = errors.New("v2i: frame exceeds MaxFrameBytes")

// Transport is a bidirectional, ordered message channel between one
// OLEV and the smart grid. Implementations must be safe for one
// concurrent sender and one concurrent receiver.
type Transport interface {
	// Send delivers an envelope or fails with the context's error or
	// ErrClosed.
	Send(ctx context.Context, env Envelope) error
	// Recv blocks for the next envelope.
	Recv(ctx context.Context) (Envelope, error)
	// Close releases the transport; pending and future calls fail.
	Close() error
}

// chanTransport is one end of an in-memory pair.
type chanTransport struct {
	out  chan Envelope
	in   chan Envelope
	done chan struct{}
	once *sync.Once
}

var _ Transport = (*chanTransport)(nil)

// NewPair returns two connected in-memory transports: what one sends,
// the other receives. buffer sizes the channel; 0 gives rendezvous
// semantics.
func NewPair(buffer int) (Transport, Transport) {
	if buffer < 0 {
		buffer = 0
	}
	ab := make(chan Envelope, buffer)
	ba := make(chan Envelope, buffer)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &chanTransport{out: ab, in: ba, done: done, once: once}
	b := &chanTransport{out: ba, in: ab, done: done, once: once}
	return a, b
}

// Send implements Transport.
func (t *chanTransport) Send(ctx context.Context, env Envelope) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	select {
	case t.out <- env:
		return nil
	case <-t.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recv implements Transport.
func (t *chanTransport) Recv(ctx context.Context) (Envelope, error) {
	// Drain messages that were in flight even if the pair has been
	// closed since.
	select {
	case env := <-t.in:
		return env, nil
	default:
	}
	select {
	case env := <-t.in:
		return env, nil
	case <-t.done:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close implements Transport; closing either end closes the pair.
func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}

// DecodeFrame parses one newline-delimited wire frame into an
// Envelope. It is the receive-side counterpart of Send's marshalling
// and enforces the MaxFrameBytes bound independently of the bufio
// reader sizing, so every consumer of raw frames (the TCP transport,
// tests, the fuzz target, future transports) shares one validation
// path. A single trailing newline is permitted but not required; the
// size bound applies to the payload without it, mirroring Send.
func DecodeFrame(line []byte) (Envelope, error) {
	payload := line
	if n := len(payload); n > 0 && payload[n-1] == '\n' {
		payload = payload[:n-1]
	}
	if len(payload) >= MaxFrameBytes {
		return Envelope{}, fmt.Errorf("v2i: decode %d bytes: %w", len(payload), ErrFrameTooLarge)
	}
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return Envelope{}, fmt.Errorf("v2i: decode envelope: %w", err)
	}
	return env, nil
}

// Timeouts bounds a connection-backed transport's blocking operations
// when the caller's context carries no deadline of its own. They are
// the control plane's guard against a hung peer: a coordinator round
// can never block indefinitely on one stalled socket. Zero fields
// leave the corresponding operation bounded only by its context.
type Timeouts struct {
	// Dial bounds connection establishment.
	Dial time.Duration
	// Read bounds one Recv; the effective deadline is the earlier of
	// this and the context's.
	Read time.Duration
	// Write bounds one Send; the effective deadline is the earlier of
	// this and the context's.
	Write time.Duration
}

// DefaultTimeouts is a sane deployment default: generous enough for a
// congested 802.11p hop, tight enough that a dead peer is detected
// within one coordinator round.
func DefaultTimeouts() Timeouts {
	return Timeouts{Dial: 5 * time.Second, Read: 10 * time.Second, Write: 5 * time.Second}
}

// wireRole is a connection-backed transport's part in the codec
// negotiation (DESIGN.md §14).
type wireRole uint8

const (
	// roleLegacy never negotiates: the connection speaks JSON from the
	// first byte, exactly as before the binary codec existed.
	roleLegacy wireRole = iota
	// roleDialer wrote (or will rely on having written) the preamble
	// at dial time and resolves the codec from the listener's reply.
	roleDialer
	// roleAccepter sniffs the first byte from the peer: a preamble is
	// answered with the listener's choice, a '{' means a JSON dialer
	// and gets no reply at all.
	roleAccepter
)

// connReaderBytes sizes the per-connection read buffer. Frames longer
// than the buffer are still accepted up to MaxFrameBytes — the JSON
// receive path grows a per-transport line buffer and the binary path
// reads into the decoder's scratch — so this is a working-set knob,
// not a protocol bound: 32 KiB per connection instead of the former
// MaxFrameBytes-sized reader keeps thousand-vehicle fleets cheap.
const connReaderBytes = 32 << 10

// pipeReaderBytes sizes readers over in-memory pipes, where there is
// no syscall to amortize.
const pipeReaderBytes = 4 << 10

// tcpTransport frames envelopes over a net.Conn: newline-delimited
// JSON, or the length-prefixed binary codec once negotiated.
type tcpTransport struct {
	conn net.Conn
	r    *bufio.Reader
	to   Timeouts

	// Codec negotiation: role/maxWire are fixed at construction;
	// wire/lateSniff/negoErr are written once under negoMu before
	// negoDone is set, which publishes them to the lock-free readers.
	role      wireRole
	maxWire   Wire
	negoMu    sync.Mutex
	negoDone  atomic.Bool
	negoErr   error
	wire      Wire
	lateSniff bool

	// Send-side scratch, all guarded by sendMu: ebuf backs binary
	// frame encoding, jbuf/jenc back the pooled JSON encoder.
	sendMu sync.Mutex
	ebuf   []byte
	jbuf   bytes.Buffer
	jenc   *json.Encoder

	// Recv-side scratch, guarded by recvMu: dec holds the binary
	// decoder state, lineBuf accumulates JSON frames longer than the
	// fixed reader.
	recvMu  sync.Mutex
	dec     FrameDecoder
	lineBuf []byte

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

var (
	_ Transport   = (*tcpTransport)(nil)
	_ TypedSender = (*tcpTransport)(nil)
)

func newConnTransport(conn net.Conn, to Timeouts) *tcpTransport {
	return &tcpTransport{conn: conn, r: bufio.NewReaderSize(conn, connReaderBytes), to: to}
}

// NewConnTransport wraps an established connection. It speaks JSON
// unconditionally — no preamble is sent or expected — which keeps it
// byte-compatible with every pre-binary peer; codec negotiation is
// opted into via DialWire / Server.Wire.
func NewConnTransport(conn net.Conn) Transport {
	t := newConnTransport(conn, Timeouts{})
	t.negoDone.Store(true)
	return t
}

// NewConnTransportTimeouts wraps an established connection with
// default read/write deadlines applied whenever the caller's context
// carries none.
func NewConnTransportTimeouts(conn net.Conn, to Timeouts) Transport {
	t := newConnTransport(conn, to)
	t.negoDone.Store(true)
	return t
}

// Dial connects to a listening smart grid, speaking JSON.
func Dial(ctx context.Context, addr string) (Transport, error) {
	return DialWireTimeouts(ctx, addr, WireJSON, Timeouts{})
}

// DialTimeouts connects with a bounded dial and arms the returned
// transport with default read/write deadlines (see Timeouts).
func DialTimeouts(ctx context.Context, addr string, to Timeouts) (Transport, error) {
	return DialWireTimeouts(ctx, addr, WireJSON, to)
}

// DialWire connects offering the given codec; see DialWireTimeouts.
func DialWire(ctx context.Context, addr string, w Wire) (Transport, error) {
	return DialWireTimeouts(ctx, addr, w, Timeouts{})
}

// DialWireTimeouts connects and, when w is WireBinary, writes the
// negotiation preamble eagerly so it rides ahead of the first frame.
// The codec actually used is resolved lazily from the listener's
// reply on the first Send or Recv: a listener that never answers with
// a preamble (it predates the binary codec, or declined) settles the
// connection on JSON without error.
func DialWireTimeouts(ctx context.Context, addr string, w Wire, to Timeouts) (Transport, error) {
	d := net.Dialer{Timeout: to.Dial}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("v2i: dial %s: %w", addr, err)
	}
	t := newConnTransport(conn, to)
	if w != WireBinary {
		t.negoDone.Store(true)
		return t, nil
	}
	t.role = roleDialer
	t.maxWire = w
	if err := t.conn.SetWriteDeadline(deadlineFor(ctx, t.to.Write)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("v2i: set write deadline: %w", err)
	}
	if _, err := conn.Write([]byte{wireMagic0, wireMagic1, wireMagic2, wireMagic3, wireVersionBinary1}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("v2i: write preamble: %w", err)
	}
	return t, nil
}

// NewPipePair returns two connected transports over an in-memory
// net.Pipe, both preset to the given codec with no negotiation
// round. Unlike NewPair — which moves Envelope values through a
// channel — frames here really encode and decode, so in-process
// fleets exercise the same codec hot path as TCP deployments without
// consuming file descriptors.
func NewPipePair(w Wire) (Transport, Transport) {
	ca, cb := net.Pipe()
	ends := &pipeEnds{a: ca, b: cb}
	return newPresetConn(&pipeConn{Conn: ca, ends: ends}, w), newPresetConn(&pipeConn{Conn: cb, ends: ends}, w)
}

// pipeEnds is the close path a NewPipePair's two ends share. net.Pipe
// arms a deadline as a time.AfterFunc whose closure points into the
// pipe; Close does not stop that timer, and once either end has
// closed, Set*Deadline fails without stopping it either. A finished
// pair would then stay reachable until its last deadline expires — a
// whole RoundTimeout for a coordinator's links. So the first Close
// clears both ends' deadlines, under a lock that keeps either end from
// arming a new one in between.
type pipeEnds struct {
	mu     sync.Mutex
	closed bool
	a, b   net.Conn
}

// pipeConn is one end of a NewPipePair.
type pipeConn struct {
	net.Conn
	ends *pipeEnds
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.ends.mu.Lock()
	defer c.ends.mu.Unlock()
	if c.ends.closed {
		return io.ErrClosedPipe // what net.Pipe returns once either end closed
	}
	return c.Conn.SetReadDeadline(t)
}

func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	c.ends.mu.Lock()
	defer c.ends.mu.Unlock()
	if c.ends.closed {
		return io.ErrClosedPipe
	}
	return c.Conn.SetWriteDeadline(t)
}

func (c *pipeConn) Close() error {
	e := c.ends
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		// Neither end has closed yet, so clearing cannot fail.
		_ = e.a.SetDeadline(time.Time{})
		_ = e.b.SetDeadline(time.Time{})
	}
	e.mu.Unlock()
	return c.Conn.Close()
}

func newPresetConn(conn net.Conn, w Wire) *tcpTransport {
	t := &tcpTransport{conn: conn, r: bufio.NewReaderSize(conn, pipeReaderBytes), wire: w}
	t.negoDone.Store(true)
	return t
}

// deadlineFor resolves the effective deadline of one operation: the
// earlier of the context's deadline and now+fallback. The zero time
// means unbounded — and must be *applied* to clear any deadline a
// previous call armed on the shared conn.
func deadlineFor(ctx context.Context, fallback time.Duration) time.Time {
	dl, ok := ctx.Deadline()
	if fallback > 0 {
		if fdl := time.Now().Add(fallback); !ok || fdl.Before(dl) {
			return fdl
		}
	}
	if !ok {
		return time.Time{}
	}
	return dl
}

// isTimeoutErr reports whether err is a deadline expiry — the one
// negotiation failure that must stay retryable, because nothing has
// been consumed from the stream yet.
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// negotiate resolves the connection's codec exactly once. The
// lock-free fast path makes it free after the first frame. Timeouts
// while the stream is still untouched do not latch, so a slow peer's
// preamble can be awaited again on the caller's retry.
func (t *tcpTransport) negotiate(ctx context.Context, recvSide bool) error {
	if t.negoDone.Load() {
		return t.negoErr
	}
	t.negoMu.Lock()
	defer t.negoMu.Unlock()
	if t.negoDone.Load() {
		return t.negoErr
	}
	latch, err := t.doNegotiate(ctx, recvSide)
	if latch {
		t.negoErr = err
		t.negoDone.Store(true)
	}
	return err
}

// doNegotiate runs the role's half of the preamble exchange. latch
// reports whether the outcome (success or failure) is final; Peek is
// used throughout so an aborted attempt leaves the stream intact.
func (t *tcpTransport) doNegotiate(ctx context.Context, recvSide bool) (latch bool, _ error) {
	switch t.role {
	case roleDialer:
		// Await the listener's verdict: its preamble reply, or the '{'
		// of a JSON frame from a listener that predates the preamble
		// and simply started talking.
		if err := t.conn.SetReadDeadline(deadlineFor(ctx, t.to.Read)); err != nil {
			return true, fmt.Errorf("v2i: set read deadline: %w", err)
		}
		b, err := t.r.Peek(1)
		if err != nil {
			return !isTimeoutErr(err), fmt.Errorf("v2i: read preamble reply: %w", err)
		}
		if b[0] != wireMagic0 {
			t.wire = WireJSON
			return true, nil
		}
		rep, err := t.r.Peek(wirePreambleLen)
		if err != nil {
			return !isTimeoutErr(err), fmt.Errorf("v2i: read preamble reply: %w", err)
		}
		if rep[1] != wireMagic1 || rep[2] != wireMagic2 || rep[3] != wireMagic3 {
			return true, fmt.Errorf("v2i: bad preamble reply magic %q", rep[:4])
		}
		if rep[4] >= wireVersionBinary1 && t.maxWire >= WireBinary {
			t.wire = WireBinary
		} else {
			t.wire = WireJSON
		}
		t.r.Discard(wirePreambleLen)
		return true, nil
	case roleAccepter:
		if !recvSide {
			// Sending before anything was received: sniffing would
			// block on a peer that may be waiting for us. Speak JSON —
			// the dialer infers JSON from our '{' first byte — and let
			// the first Recv swallow a late preamble silently.
			t.wire = WireJSON
			t.lateSniff = true
			return true, nil
		}
		if err := t.conn.SetReadDeadline(deadlineFor(ctx, t.to.Read)); err != nil {
			return true, fmt.Errorf("v2i: set read deadline: %w", err)
		}
		b, err := t.r.Peek(1)
		if err != nil {
			return !isTimeoutErr(err), fmt.Errorf("v2i: sniff preamble: %w", err)
		}
		if b[0] != wireMagic0 {
			// A JSON dialer sends no preamble and expects no reply.
			t.wire = WireJSON
			return true, nil
		}
		pre, err := t.r.Peek(wirePreambleLen)
		if err != nil {
			return !isTimeoutErr(err), fmt.Errorf("v2i: sniff preamble: %w", err)
		}
		if pre[1] != wireMagic1 || pre[2] != wireMagic2 || pre[3] != wireMagic3 {
			return true, fmt.Errorf("v2i: bad preamble magic %q", pre[:4])
		}
		chosen := byte(wireVersionJSON)
		if pre[4] >= wireVersionBinary1 && t.maxWire >= WireBinary {
			chosen = wireVersionBinary1
		}
		t.r.Discard(wirePreambleLen)
		if err := t.conn.SetWriteDeadline(deadlineFor(ctx, t.to.Write)); err != nil {
			return true, fmt.Errorf("v2i: set write deadline: %w", err)
		}
		if _, err := t.conn.Write([]byte{wireMagic0, wireMagic1, wireMagic2, wireMagic3, chosen}); err != nil {
			return true, fmt.Errorf("v2i: write preamble reply: %w", err)
		}
		if chosen >= wireVersionBinary1 {
			t.wire = WireBinary
		} else {
			t.wire = WireJSON
		}
		return true, nil
	default:
		t.wire = WireJSON
		return true, nil
	}
}

// Wire reports the codec the connection negotiated; WireJSON until
// negotiation completes (the conservative answer — see WireOf).
func (t *tcpTransport) Wire() Wire {
	if !t.negoDone.Load() {
		return WireJSON
	}
	return t.wire
}

// BytesSent reports cumulative frame bytes written (length prefixes
// and newline delimiters included, negotiation preambles excluded).
func (t *tcpTransport) BytesSent() uint64 { return t.bytesSent.Load() }

// BytesReceived is the receive-side counterpart of BytesSent.
func (t *tcpTransport) BytesReceived() uint64 { return t.bytesRecv.Load() }

func (t *tcpTransport) writeLocked(frame []byte) error {
	if _, err := t.conn.Write(frame); err != nil {
		return fmt.Errorf("v2i: write: %w", err)
	}
	t.bytesSent.Add(uint64(len(frame)))
	return nil
}

// sendJSONLocked marshals through a per-transport json.Encoder into a
// reused buffer — the Encoder's trailing newline is exactly the frame
// delimiter, and its output bytes are identical to json.Marshal's —
// so the steady state reuses one buffer instead of allocating a fresh
// marshal result per frame.
func (t *tcpTransport) sendJSONLocked(env Envelope) error {
	if t.jenc == nil {
		t.jenc = json.NewEncoder(&t.jbuf)
	}
	t.jbuf.Reset()
	if err := t.jenc.Encode(env); err != nil {
		return fmt.Errorf("v2i: marshal envelope: %w", err)
	}
	raw := t.jbuf.Bytes()
	if len(raw)-1 >= MaxFrameBytes {
		return fmt.Errorf("v2i: send %d bytes: %w", len(raw)-1, ErrFrameTooLarge)
	}
	return t.writeLocked(raw)
}

// Send implements Transport. The effective write deadline is the
// earlier of the context's deadline and the transport's Write timeout.
func (t *tcpTransport) Send(ctx context.Context, env Envelope) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := t.negotiate(ctx, false); err != nil {
		return fmt.Errorf("v2i: negotiate: %w", err)
	}
	if err := t.conn.SetWriteDeadline(deadlineFor(ctx, t.to.Write)); err != nil {
		return fmt.Errorf("v2i: set write deadline: %w", err)
	}
	if t.wire == WireBinary {
		buf, err := EncodeBinaryFrame(t.ebuf[:0], env)
		if err != nil {
			return err
		}
		t.ebuf = buf[:0]
		return t.writeLocked(buf)
	}
	return t.sendJSONLocked(env)
}

// SendTyped implements TypedSender: on a binary connection the body
// encodes straight into the reused frame buffer with zero
// allocations; on a JSON connection it is Seal + the pooled JSON
// path, byte-identical to Send.
func (t *tcpTransport) SendTyped(ctx context.Context, typ MessageType, from string, seq uint64, body any) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := t.negotiate(ctx, false); err != nil {
		return fmt.Errorf("v2i: negotiate: %w", err)
	}
	if err := t.conn.SetWriteDeadline(deadlineFor(ctx, t.to.Write)); err != nil {
		return fmt.Errorf("v2i: set write deadline: %w", err)
	}
	if t.wire == WireBinary {
		buf, err := AppendBinaryFrame(t.ebuf[:0], typ, from, seq, body)
		if err != nil {
			return err
		}
		t.ebuf = buf[:0]
		return t.writeLocked(buf)
	}
	env, err := Seal(typ, from, seq, body)
	if err != nil {
		return err
	}
	return t.sendJSONLocked(env)
}

// recvJSONLocked reads one newline-delimited frame. Frames longer
// than the fixed reader accumulate into the transport's line buffer
// up to MaxFrameBytes, preserving the former big-reader semantics at
// a fraction of the per-connection footprint.
func (t *tcpTransport) recvJSONLocked() (Envelope, error) {
	if t.lateSniff {
		// We spoke first on an accepted connection; a binary dialer's
		// preamble may still be queued ahead of its JSON frames.
		// Swallow it silently — no reply, the dialer already inferred
		// JSON from our '{' first byte.
		b, err := t.r.Peek(1)
		if err != nil {
			return Envelope{}, fmt.Errorf("v2i: read: %w", err)
		}
		if b[0] == wireMagic0 {
			if _, err := t.r.Peek(wirePreambleLen); err != nil {
				return Envelope{}, fmt.Errorf("v2i: read: %w", err)
			}
			t.r.Discard(wirePreambleLen)
		}
		t.lateSniff = false
	}
	line, err := t.r.ReadSlice('\n')
	if err == nil {
		t.bytesRecv.Add(uint64(len(line)))
		return DecodeFrame(line)
	}
	if !errors.Is(err, bufio.ErrBufferFull) {
		return Envelope{}, fmt.Errorf("v2i: read: %w", err)
	}
	t.lineBuf = append(t.lineBuf[:0], line...)
	for {
		if len(t.lineBuf) >= MaxFrameBytes {
			return Envelope{}, fmt.Errorf("v2i: read: %w", ErrFrameTooLarge)
		}
		line, err = t.r.ReadSlice('\n')
		t.lineBuf = append(t.lineBuf, line...)
		if err == nil {
			t.bytesRecv.Add(uint64(len(t.lineBuf)))
			return DecodeFrame(t.lineBuf)
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return Envelope{}, fmt.Errorf("v2i: read: %w", err)
		}
	}
}

// recvBinaryLocked reads one length-prefixed frame into the decoder's
// scratch buffer. The returned Envelope aliases that buffer and is
// valid until the next Recv — the Transport contract.
func (t *tcpTransport) recvBinaryLocked() (Envelope, error) {
	if _, err := io.ReadFull(t.r, t.dec.lenb[:]); err != nil {
		return Envelope{}, fmt.Errorf("v2i: read: %w", err)
	}
	b := &t.dec.lenb
	n := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if n >= MaxFrameBytes {
		return Envelope{}, fmt.Errorf("v2i: read %d bytes: %w", n, ErrFrameTooLarge)
	}
	if n < binMinPayload {
		return Envelope{}, fmt.Errorf("v2i: binary payload of %d bytes: truncated header", n)
	}
	buf := t.dec.grow(n)
	if _, err := io.ReadFull(t.r, buf); err != nil {
		return Envelope{}, fmt.Errorf("v2i: read: %w", err)
	}
	t.bytesRecv.Add(uint64(binLenPrefix + n))
	return t.dec.parsePayload(buf)
}

// Recv implements Transport. The effective read deadline is the
// earlier of the context's deadline and the transport's Read timeout.
// The returned Envelope's Body may alias per-transport receive state;
// it is valid until the next Recv on this transport.
func (t *tcpTransport) Recv(ctx context.Context) (Envelope, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if err := ctx.Err(); err != nil {
		return Envelope{}, err
	}
	if err := t.negotiate(ctx, true); err != nil {
		return Envelope{}, fmt.Errorf("v2i: negotiate: %w", err)
	}
	if err := t.conn.SetReadDeadline(deadlineFor(ctx, t.to.Read)); err != nil {
		return Envelope{}, fmt.Errorf("v2i: set read deadline: %w", err)
	}
	if t.wire == WireBinary {
		return t.recvBinaryLocked()
	}
	return t.recvJSONLocked()
}

// Close implements Transport.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.conn.Close() })
	return t.closeErr
}

// Server accepts V2I connections for the smart grid.
type Server struct {
	ln net.Listener
	// ConnTimeouts, when non-zero, arms every accepted transport with
	// default read/write deadlines; set it before the accept loop
	// starts. A hung vehicle then times out instead of pinning a
	// coordinator goroutine forever.
	ConnTimeouts Timeouts

	// Wire, when WireBinary, lets accepted connections negotiate the
	// binary codec with dialers that offer it; everyone else stays on
	// JSON. The zero value keeps all connections on JSON regardless of
	// what dialers offer. Set it before the accept loop starts.
	Wire Wire

	// slots, when non-nil, is the accept-side admission semaphore:
	// Accept takes a slot before accepting and each accepted
	// transport's Close returns it. See SetMaxConns.
	slots chan struct{}
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// test port).
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("v2i: listen %s: %w", addr, err)
	}
	return &Server{ln: ln}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetMaxConns bounds the number of concurrently open accepted
// transports. At the limit Accept pauses — the flood waits in the
// kernel backlog instead of exhausting file descriptors — and resumes
// as soon as an accepted transport is closed. Zero or negative removes
// the limit. Set it before the accept loop starts; it is not safe to
// change while Accept is running.
func (s *Server) SetMaxConns(n int) {
	if n <= 0 {
		s.slots = nil
		return
	}
	s.slots = make(chan struct{}, n)
}

// acceptBackoff bounds the retry backoff applied when the listener
// reports a temporary error (EMFILE, ECONNABORTED under a SYN flood):
// the accept loop degrades to a slower accept rate instead of tearing
// the daemon down.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

// Accept blocks for the next vehicle connection. With a MaxConns
// limit armed it first waits for a free connection slot; temporary
// listener errors are retried with exponential backoff rather than
// surfaced, so a connection flood degrades service instead of ending
// the accept loop.
func (s *Server) Accept() (Transport, error) {
	if s.slots != nil {
		s.slots <- struct{}{} // accept-pause until a slot frees up
	}
	backoff := acceptBackoffBase
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if isTemporary(err) {
				time.Sleep(backoff)
				if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
			if s.slots != nil {
				<-s.slots
			}
			return nil, fmt.Errorf("v2i: accept: %w", err)
		}
		// Every accepted connection sniffs for a dialer preamble on its
		// first Recv — even a JSON-only server must consume a binary
		// offer (and decline it) to stay framed.
		ct := newConnTransport(conn, s.ConnTimeouts)
		ct.role = roleAccepter
		ct.maxWire = s.Wire
		var t Transport = ct
		if s.slots != nil {
			t = &slottedTransport{Transport: t, slots: s.slots}
		}
		return t, nil
	}
}

// isTemporary reports whether an accept error is transient. The
// Temporary method is deprecated for general errors but remains the
// documented contract for listener errors like ECONNABORTED.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// slottedTransport returns its accept slot exactly once on Close.
type slottedTransport struct {
	Transport
	slots chan struct{}
	once  sync.Once
}

func (t *slottedTransport) Close() error {
	err := t.Transport.Close()
	t.once.Do(func() { <-t.slots })
	return err
}

// SendTyped forwards the typed zero-alloc send path when the wrapped
// transport offers it; embedding the Transport interface alone would
// hide it, silently downgrading every accepted daemon connection to
// the envelope path.
func (t *slottedTransport) SendTyped(ctx context.Context, typ MessageType, from string, seq uint64, body any) error {
	if ts, ok := t.Transport.(TypedSender); ok {
		return ts.SendTyped(ctx, typ, from, seq, body)
	}
	env, err := Seal(typ, from, seq, body)
	if err != nil {
		return err
	}
	return t.Transport.Send(ctx, env)
}

// Unwrap exposes the accepted connection to WireOf.
func (t *slottedTransport) Unwrap() Transport { return t.Transport }

// Close stops the listener.
func (s *Server) Close() error { return s.ln.Close() }
