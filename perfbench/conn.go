package main

// Frame-timing connection wrappers for the daemon workload. The wire
// protocol is a 4-byte little-endian length (type byte + payload)
// followed by the type byte and payload; a tracker cuts a byte stream
// at those boundaries so each wrapper can stamp the moment a frame was
// handed to the kernel or fully read from it.

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/engine/wire"
)

// frameTracker cuts a byte stream into frames.
type frameTracker struct {
	hdr     [5]byte
	nh      int // header bytes seen
	remain  int // payload bytes still to come
	capture bool
	buf     []byte // the frame so far, when capturing
}

// feed consumes p and calls done once per frame completed in it; frame
// is the whole frame when capturing (valid only during the call).
func (t *frameTracker) feed(p []byte, done func(typ byte, frame []byte)) {
	for len(p) > 0 {
		if t.nh < len(t.hdr) {
			n := copy(t.hdr[t.nh:], p)
			t.nh += n
			if t.capture {
				t.buf = append(t.buf, p[:n]...)
			}
			p = p[n:]
			if t.nh < len(t.hdr) {
				return
			}
			t.remain = int(binary.LittleEndian.Uint32(t.hdr[:4])) - 1
		}
		n := min(t.remain, len(p))
		if t.capture {
			t.buf = append(t.buf, p[:n]...)
		}
		t.remain -= n
		p = p[n:]
		if t.remain == 0 {
			done(t.hdr[4], t.buf)
			t.nh = 0
			t.buf = t.buf[:0]
		}
	}
}

// frameEvent is one frame crossing a wrapper: sent (up, from the
// client; out, from the server) or fully received.
type frameEvent struct {
	typ  byte
	sent bool
	at   time.Time
}

// clientConn is a replay client's connection. It always times each
// Slot frame's write to the read of its Decisions frame (the slot round
// trip) and counts bytes; traced, it also logs every frame and keeps a
// bounded copy of the frames for the codec re-run.
type clientConn struct {
	nc       net.Conn
	traced   bool
	in, out  frameTracker
	slotSent time.Time

	// rttUs holds the slot round trips of each window of the measured
	// phase (window = time since begin / w; w is 0 outside a phase);
	// round trips after the last window are dropped.
	begin            time.Time
	w                time.Duration
	rttUs            [windows][]float64
	bytesUp, bytesDn int64
	events           []frameEvent
	frames           [][]byte
}

// maxCaptured bounds the frames one traced connection copies.
const maxCaptured = 4096

func newClientConn(nc net.Conn, traced bool) *clientConn {
	c := &clientConn{nc: nc, traced: traced}
	c.in.capture, c.out.capture = traced, traced
	return c
}

func (c *clientConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.out.feed(p, func(typ byte, frame []byte) {
		if typ == wire.TypeSlot {
			c.slotSent = now
		}
		c.log(typ, true, now, frame)
	})
	c.bytesUp += int64(len(p))
	return c.nc.Write(p)
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	now := time.Now()
	c.bytesDn += int64(n)
	c.in.feed(p[:n], func(typ byte, frame []byte) {
		if typ == wire.TypeDecisions && c.w > 0 {
			if k := int(now.Sub(c.begin) / c.w); k < windows {
				c.rttUs[k] = append(c.rttUs[k], us(now.Sub(c.slotSent)))
			}
		}
		c.log(typ, false, now, frame)
	})
	return n, err
}

func (c *clientConn) log(typ byte, sent bool, at time.Time, frame []byte) {
	if !c.traced {
		return
	}
	c.events = append(c.events, frameEvent{typ: typ, sent: sent, at: at})
	if len(c.frames) < maxCaptured {
		c.frames = append(c.frames, append([]byte(nil), frame...))
	}
}

// serverLog is one server-side connection's frame log, written by the
// server's reader and writer goroutines.
type serverLog struct {
	mu     sync.Mutex
	events []frameEvent
}

func (l *serverLog) add(typ byte, sent bool, at time.Time) {
	l.mu.Lock()
	l.events = append(l.events, frameEvent{typ: typ, sent: sent, at: at})
	l.mu.Unlock()
}

// tracedConn wraps a server-side connection: a Slot frame counts as
// read when its last byte is, and its Decisions as written when the
// server hands the frame to the kernel.
type tracedConn struct {
	net.Conn
	log     *serverLog
	in, out frameTracker // in: server reader goroutine only; out: writer only
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.in.feed(p[:n], func(typ byte, _ []byte) { c.log.add(typ, false, now) })
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.out.feed(p, func(typ byte, _ []byte) { c.log.add(typ, true, now) })
	return c.Conn.Write(p)
}

// tracedListener wraps every accepted connection in a tracedConn and
// files its log under the peer's address (the client's local address).
type tracedListener struct {
	net.Listener
	mu   sync.Mutex
	logs map[string]*serverLog
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	lg := &serverLog{}
	l.mu.Lock()
	l.logs[nc.RemoteAddr().String()] = lg
	l.mu.Unlock()
	return &tracedConn{Conn: nc, log: lg}, nil
}

// reset empties every connection's log (between warm-up and the
// measured phase, while the connections are idle).
func (l *tracedListener) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, lg := range l.logs {
		lg.mu.Lock()
		lg.events = lg.events[:0]
		lg.mu.Unlock()
	}
}

func (l *tracedListener) logFor(addr string) *serverLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logs[addr]
}

// exchange is one request frame and its reply, as both ends saw it.
type exchange struct {
	typ              byte // request type
	sent, replied    time.Time
	served, answered time.Time // server: request read, reply written
}

// pairExchanges lines a client's requests up with the server's view of
// them: the protocol is one reply per request, in order, so the k-th
// request on either side is the same frame. ok is false when the two
// logs disagree on the count or the types.
func pairExchanges(client, server []frameEvent) ([]exchange, bool) {
	var cl, sv []exchange
	for _, e := range client {
		if e.sent {
			cl = append(cl, exchange{typ: e.typ, sent: e.at})
		} else if n := len(cl); n > 0 {
			cl[n-1].replied = e.at
		}
	}
	for _, e := range server {
		if !e.sent {
			sv = append(sv, exchange{typ: e.typ, served: e.at})
		} else if n := len(sv); n > 0 {
			sv[n-1].answered = e.at
		}
	}
	if len(cl) != len(sv) {
		return nil, false
	}
	for k := range cl {
		if cl[k].typ != sv[k].typ || cl[k].replied.IsZero() || sv[k].answered.IsZero() {
			return nil, false
		}
		cl[k].served, cl[k].answered = sv[k].served, sv[k].answered
	}
	return cl, true
}
