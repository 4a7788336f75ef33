package service

import "net"

// prefixConn replays the bytes the front door already consumed (the
// client's Hello frame) before reading from the underlying connection, so
// the job's flnet server sees the byte stream exactly as the client sent
// it. flnet reads each connection from a single goroutine, so Read needs
// no locking.
type prefixConn struct {
	net.Conn
	prefix []byte
}

func (c *prefixConn) Read(p []byte) (int, error) {
	if len(c.prefix) > 0 {
		n := copy(p, c.prefix)
		c.prefix = c.prefix[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}
