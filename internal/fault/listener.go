package fault

import (
	"net"
	"sync"
	"time"
)

// listener wraps Accept with per-connection fault decisions. Refused
// connections are closed immediately and the loop moves on to the next
// accept, so the server never sees them; other kinds hand the handler a
// wrapped conn that misbehaves at the scripted point.
type listener struct {
	net.Listener
	inj *Injector
}

// NewListener wraps l with inj; a nil injector (or nil spec) returns l
// unchanged.
func NewListener(l net.Listener, inj *Injector) net.Listener {
	if inj == nil || inj.spec == nil {
		return l
	}
	return &listener{Listener: l, inj: inj}
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		switch l.inj.NextDecision() {
		case KindRefuse:
			// Close before any byte is exchanged: the client's request
			// provably never executed.
			abort(c)
			continue
		case KindReset:
			return &resetConn{Conn: c}, nil
		case KindTruncate:
			return &truncConn{Conn: c, allow: l.inj.spec.TruncateAfter}, nil
		case KindLatency:
			return &latencyConn{Conn: c, delay: l.inj.spec.Latency}, nil
		case KindLimp:
			return &limpConn{Conn: c, delay: l.inj.spec.LimpDelay}, nil
		default:
			return c, nil
		}
	}
}

// abort closes c as abruptly as the platform allows (SO_LINGER 0 turns the
// close into a TCP RST, which is what a crashed replica looks like).
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// resetConn lets the request in, then kills the connection on the first
// response byte: the work executed but the reply never left the box.
type resetConn struct {
	net.Conn
	once sync.Once
}

func (c *resetConn) Write(b []byte) (int, error) {
	c.once.Do(func() { abort(c.Conn) })
	return 0, net.ErrClosed
}

// truncConn forwards the first allow response bytes and then cuts the
// stream, producing a syntactically broken body on the client.
type truncConn struct {
	net.Conn
	mu    sync.Mutex
	allow int
	dead  bool
}

func (c *truncConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, net.ErrClosed
	}
	if len(b) <= c.allow {
		c.allow -= len(b)
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:c.allow])
	c.allow = 0
	c.dead = true
	abort(c.Conn)
	return n, net.ErrClosed
}

// latencyConn holds the first read back — a connection that takes its
// time arriving.
type latencyConn struct {
	net.Conn
	delay time.Duration
	once  sync.Once
}

func (c *latencyConn) Read(b []byte) (int, error) {
	c.once.Do(func() { time.Sleep(c.delay) })
	return c.Conn.Read(b)
}

// limpConn drips every write: the replica answers, slowly — a tail that
// only the request's deadline bounds.
type limpConn struct {
	net.Conn
	delay time.Duration
}

func (c *limpConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}
