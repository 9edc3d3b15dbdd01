package v2i

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// pipePair wraps a net.Pipe in two transports; the pipe is synchronous
// (a write blocks until the peer reads) and honors deadlines, so a
// peer that never reads or never writes is a faithful stalling fake.
func pipePair(aTo, bTo Timeouts) (Transport, Transport, net.Conn, net.Conn) {
	ca, cb := net.Pipe()
	return NewConnTransportTimeouts(ca, aTo), NewConnTransportTimeouts(cb, bTo), ca, cb
}

// TestRecvDefaultReadDeadline: a peer that never writes must not block
// Recv past the transport's Read timeout, even on a context with no
// deadline of its own.
func TestRecvDefaultReadDeadline(t *testing.T) {
	a, _, ca, cb := pipePair(Timeouts{Read: 50 * time.Millisecond}, Timeouts{})
	defer func() { _ = ca.Close(); _ = cb.Close() }()

	start := time.Now()
	_, err := a.Recv(context.Background())
	if err == nil {
		t.Fatal("Recv from a silent peer returned nil error")
	}
	var ne net.Error
	if !asNetTimeout(err, &ne) {
		t.Fatalf("Recv = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Recv blocked %v despite 50ms read timeout", elapsed)
	}
}

// TestSendDefaultWriteDeadline: a peer that never reads must not block
// Send past the transport's Write timeout.
func TestSendDefaultWriteDeadline(t *testing.T) {
	a, _, ca, cb := pipePair(Timeouts{Write: 50 * time.Millisecond}, Timeouts{})
	defer func() { _ = ca.Close(); _ = cb.Close() }()

	env, err := Seal(TypeBye, "grid", 1, Bye{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = a.Send(context.Background(), env)
	if err == nil {
		t.Fatal("Send to a stalled peer returned nil error")
	}
	var ne net.Error
	if !asNetTimeout(err, &ne) {
		t.Fatalf("Send = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Send blocked %v despite 50ms write timeout", elapsed)
	}
}

// TestDeadlineClearedBetweenCalls: a call under a context deadline must
// not leak that deadline into a later call on a deadline-free context.
func TestDeadlineClearedBetweenCalls(t *testing.T) {
	a, b, ca, cb := pipePair(Timeouts{}, Timeouts{})
	defer func() { _ = ca.Close(); _ = cb.Close() }()

	// First Recv times out via its context, arming a conn deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if _, err := a.Recv(ctx); err == nil {
		t.Fatal("first Recv returned nil error")
	}
	cancel()

	// Second Recv has no deadline at all; the stale conn deadline must
	// have been cleared, so a frame sent 100ms later still arrives.
	done := make(chan error, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		env, err := Seal(TypeBye, "grid", 1, Bye{})
		if err != nil {
			done <- err
			return
		}
		done <- b.Send(context.Background(), env)
	}()
	env, err := a.Recv(context.Background())
	if err != nil {
		t.Fatalf("Recv after stale deadline: %v", err)
	}
	if env.Type != TypeBye {
		t.Fatalf("got %s, want bye", env.Type)
	}
	if err := <-done; err != nil {
		t.Fatalf("peer send: %v", err)
	}
}

// TestContextDeadlineBeatsDefault: the tighter of context deadline and
// transport timeout wins.
func TestContextDeadlineBeatsDefault(t *testing.T) {
	a, _, ca, cb := pipePair(Timeouts{Read: 10 * time.Second}, Timeouts{})
	defer func() { _ = ca.Close(); _ = cb.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := a.Recv(ctx); err == nil {
		t.Fatal("Recv returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context deadline ignored: blocked %v", elapsed)
	}
}

// TestDialTimeoutsConfig: DialTimeouts bounds the dial itself.
func TestDialTimeoutsConfig(t *testing.T) {
	// A listener whose accept queue we never drain still accepts the
	// TCP handshake, so use an address that fails fast instead: the
	// dial either errors immediately (nothing listening) or the Dial
	// timeout caps it.
	ctx := context.Background()
	start := time.Now()
	_, err := DialTimeouts(ctx, "127.0.0.1:1", Timeouts{Dial: 200 * time.Millisecond})
	if err == nil {
		t.Skip("something is listening on 127.0.0.1:1")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial blocked %v despite 200ms dial timeout", elapsed)
	}
}

// asNetTimeout unwraps err looking for a timeout-reporting net.Error
// (or os.ErrDeadlineExceeded, which net.Pipe returns).
func asNetTimeout(err error, ne *net.Error) bool {
	if errors.As(err, ne) && (*ne).Timeout() {
		return true
	}
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// TestPipePairUnreachableAfterClose: a NewPipePair whose last exchange
// armed 30 s deadlines must become garbage as soon as both ends are
// closed, in either order. net.Pipe arms each deadline as a
// time.AfterFunc that points into the pipe, and neither Close nor a
// Set*Deadline after either end closed stops it, so without the
// shared close path the pair stays reachable for the full 30 s.
func TestPipePairUnreachableAfterClose(t *testing.T) {
	for _, firstClosed := range []string{"sender", "receiver"} {
		t.Run(firstClosed+"-first", func(t *testing.T) {
			var collected atomic.Int32
			func() {
				a, b := NewPipePair(WireBinary)
				for _, tr := range []Transport{a, b} {
					runtime.SetFinalizer(tr.(*tcpTransport).conn.(*pipeConn).Conn, func(net.Conn) { collected.Add(1) })
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				env, err := Seal(TypeBye, "grid", 1, &Bye{Reason: "done"})
				if err != nil {
					t.Fatalf("seal: %v", err)
				}
				// One exchange arms a's write deadline and b's read
				// deadline, both 30 s out.
				errc := make(chan error, 1)
				go func() { _, err := b.Recv(ctx); errc <- err }()
				if err := a.Send(ctx, env); err != nil {
					t.Fatalf("send: %v", err)
				}
				if err := <-errc; err != nil {
					t.Fatalf("recv: %v", err)
				}
				first, second := a, b
				if firstClosed == "receiver" {
					first, second = b, a
				}
				_ = first.Close()
				_ = second.Close()
			}()
			for i := 0; i < 10 && collected.Load() < 2; i++ {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			if got := collected.Load(); got != 2 {
				t.Fatalf("%d of 2 pipe ends collected after close; an armed deadline timer still holds the pair", got)
			}
		})
	}
}
