package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"olevgrid/internal/store"
	"olevgrid/internal/v2i"
)

// clockBase anchors every span timestamp: nanoseconds since process
// start on the monotonic clock.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// linkTrace accumulates the per-layer spans of one fleet's V2I links.
// The grid side is driven by the sequential coordinator's goroutine and
// the vehicle side by the agent goroutines, so the totals are atomics;
// the per-link fields of tracedLink are owned by the one goroutine that
// drives that end.
type linkTrace struct {
	// gridCallNS is the time the coordinator spent inside Send, SendTyped
	// and Recv on its links: the transport plus whatever the vehicle did
	// before answering.
	gridCallNS atomic.Int64
	// coordNS is the coordinator's own time from a request's Recv
	// returning to the next quote's send, less any link calls in between.
	coordNS atomic.Int64
	// agentNS is the vehicles' own time from a quote's Recv returning to
	// the request's send; it contains core.BestResponse.
	agentNS atomic.Int64
	// frames counts frames sent by either side.
	frames atomic.Int64

	// reqAt and reqCallNS mark the last request's Recv return on the grid
	// side; only the coordinator's goroutine touches them.
	reqAt     int64
	reqCallNS int64
}

// wrap returns the traced grid-side and vehicle-side ends of one link.
func (t *linkTrace) wrap(grid, vehicle v2i.Transport) (v2i.Transport, v2i.Transport) {
	return &tracedLink{inner: grid, t: t, grid: true}, &tracedLink{inner: vehicle, t: t}
}

// tracedLink decorates a v2i.Transport with span accounting. It forwards
// TypedSender and Unwrapper so v2i.WireOf still sees the binary wire and
// the coordinator keeps its batched-quote path: the traced program is the
// untraced one.
type tracedLink struct {
	inner v2i.Transport
	t     *linkTrace
	grid  bool

	// quoteAt is when the vehicle's last quote Recv returned.
	quoteAt int64
}

var (
	_ v2i.TypedSender = (*tracedLink)(nil)
	_ v2i.Unwrapper   = (*tracedLink)(nil)
)

func isQuote(typ v2i.MessageType) bool {
	return typ == v2i.TypeQuote || typ == v2i.TypeQuoteBatch
}

// beforeSend runs at the start of a send of typ and returns its start.
func (l *tracedLink) beforeSend(typ v2i.MessageType) int64 {
	start := nowNS()
	t := l.t
	switch {
	case l.grid && isQuote(typ):
		if t.reqAt != 0 {
			t.coordNS.Add(start - t.reqAt - (t.gridCallNS.Load() - t.reqCallNS))
			t.reqAt = 0
		}
	case !l.grid && typ == v2i.TypeRequest && l.quoteAt != 0:
		t.agentNS.Add(start - l.quoteAt)
		l.quoteAt = 0
	}
	return start
}

func (l *tracedLink) afterSend(start int64, err error) {
	if l.grid {
		l.t.gridCallNS.Add(nowNS() - start)
	}
	if err == nil {
		l.t.frames.Add(1)
	}
}

// Send implements v2i.Transport.
func (l *tracedLink) Send(ctx context.Context, env v2i.Envelope) error {
	start := l.beforeSend(env.Type)
	err := l.inner.Send(ctx, env)
	l.afterSend(start, err)
	return err
}

// SendTyped implements v2i.TypedSender exactly as v2i.SendMsg would on
// the inner transport.
func (l *tracedLink) SendTyped(ctx context.Context, typ v2i.MessageType, from string, seq uint64, body any) error {
	start := l.beforeSend(typ)
	err := v2i.SendMsg(ctx, l.inner, typ, from, seq, body)
	l.afterSend(start, err)
	return err
}

// Recv implements v2i.Transport.
func (l *tracedLink) Recv(ctx context.Context) (v2i.Envelope, error) {
	start := nowNS()
	env, err := l.inner.Recv(ctx)
	end := nowNS()
	t := l.t
	if l.grid {
		t.gridCallNS.Add(end - start)
		if err == nil && env.Type == v2i.TypeRequest {
			t.reqAt, t.reqCallNS = end, t.gridCallNS.Load()
		}
	} else if err == nil && isQuote(env.Type) {
		l.quoteAt = end
	}
	return env, err
}

// Close implements v2i.Transport.
func (l *tracedLink) Close() error { return l.inner.Close() }

// Unwrap implements v2i.Unwrapper.
func (l *tracedLink) Unwrap() v2i.Transport { return l.inner }

// bytesSent reads the frame bytes a connection-backed transport wrote.
func bytesSent(t v2i.Transport) int64 {
	if b, ok := t.(interface{ BytesSent() uint64 }); ok {
		return int64(b.BytesSent())
	}
	return 0
}

// fsTrace is a store.FS decorator that times every call and attributes
// it to the serve session named in its path ("s-000042.manifest.json",
// "s-000042.checkpoint.json.tmp", ...). A directory fsync names no
// session; it is charged to the session whose rename into that
// directory came last, which is the write it makes durable.
type fsTrace struct {
	inner store.FS

	mu       sync.Mutex
	sessions map[string]*sessionIO
	// lastRename maps a directory to the session that renamed into it
	// last.
	lastRename map[string]string
	// fsyncNS holds every file and directory fsync's duration.
	fsyncNS []int64
	other   sessionIO // calls that name no session (the boot scan)
}

// sessionIO is one session's store work.
type sessionIO struct {
	calls, fsyncs, bytes int64
	busyNS               int64
}

func newFSTrace(inner store.FS) *fsTrace {
	return &fsTrace{inner: inner, sessions: map[string]*sessionIO{}, lastRename: map[string]string{}}
}

// sessionOf extracts the session ID from a journal path: the base name
// up to its first dot.
func sessionOf(path string) string {
	base := filepath.Base(path)
	if i := strings.IndexByte(base, '.'); i > 0 {
		return base[:i]
	}
	return ""
}

// record charges one call to the session named by id.
func (f *fsTrace) record(id string, start, end int64, fsync bool, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	io := &f.other
	if id != "" {
		if io = f.sessions[id]; io == nil {
			io = &sessionIO{}
			f.sessions[id] = io
		}
	}
	io.calls++
	io.busyNS += end - start
	io.bytes += bytes
	if fsync {
		io.fsyncs++
		f.fsyncNS = append(f.fsyncNS, end-start)
	}
}

// session returns a copy of one session's totals; "" gives the calls
// that named no session.
func (f *fsTrace) session(id string) sessionIO {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id == "" {
		return f.other
	}
	if io := f.sessions[id]; io != nil {
		return *io
	}
	return sessionIO{}
}

// takeFsyncs returns and clears the fsync durations recorded so far.
func (f *fsTrace) takeFsyncs() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.fsyncNS
	f.fsyncNS = nil
	return out
}

func (f *fsTrace) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	start := nowNS()
	file, err := f.inner.OpenFile(name, flag, perm)
	f.record(sessionOf(name), start, nowNS(), false, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, fs: f, id: sessionOf(name)}, nil
}

func (f *fsTrace) ReadFile(name string) ([]byte, error) {
	start := nowNS()
	b, err := f.inner.ReadFile(name)
	f.record(sessionOf(name), start, nowNS(), false, 0)
	return b, err
}

func (f *fsTrace) Rename(oldpath, newpath string) error {
	start := nowNS()
	err := f.inner.Rename(oldpath, newpath)
	id := sessionOf(newpath)
	f.record(id, start, nowNS(), false, 0)
	if err == nil && id != "" {
		f.mu.Lock()
		f.lastRename[filepath.Dir(newpath)] = id
		f.mu.Unlock()
	}
	return err
}

func (f *fsTrace) Remove(name string) error {
	start := nowNS()
	err := f.inner.Remove(name)
	f.record(sessionOf(name), start, nowNS(), false, 0)
	return err
}

func (f *fsTrace) Truncate(name string, size int64) error {
	start := nowNS()
	err := f.inner.Truncate(name, size)
	f.record(sessionOf(name), start, nowNS(), false, 0)
	return err
}

func (f *fsTrace) ReadDir(dir string) ([]string, error) {
	start := nowNS()
	names, err := f.inner.ReadDir(dir)
	f.record("", start, nowNS(), false, 0)
	return names, err
}

func (f *fsTrace) MkdirAll(dir string, perm os.FileMode) error {
	start := nowNS()
	err := f.inner.MkdirAll(dir, perm)
	f.record(sessionOf(dir), start, nowNS(), false, 0)
	return err
}

func (f *fsTrace) DirExists(name string) (bool, error) {
	start := nowNS()
	ok, err := f.inner.DirExists(name)
	f.record(sessionOf(name), start, nowNS(), false, 0)
	return ok, err
}

func (f *fsTrace) SyncDir(dir string) error {
	start := nowNS()
	err := f.inner.SyncDir(dir)
	f.mu.Lock()
	id := f.lastRename[dir]
	f.mu.Unlock()
	f.record(id, start, nowNS(), true, 0)
	return err
}

// tracedFile charges a file handle's writes and fsyncs to its session.
type tracedFile struct {
	inner store.File
	fs    *fsTrace
	id    string
}

func (t *tracedFile) Write(p []byte) (int, error) {
	start := nowNS()
	n, err := t.inner.Write(p)
	t.fs.record(t.id, start, nowNS(), false, int64(n))
	return n, err
}

func (t *tracedFile) Sync() error {
	start := nowNS()
	err := t.inner.Sync()
	t.fs.record(t.id, start, nowNS(), true, 0)
	return err
}

func (t *tracedFile) Close() error {
	start := nowNS()
	err := t.inner.Close()
	t.fs.record(t.id, start, nowNS(), false, 0)
	return err
}
