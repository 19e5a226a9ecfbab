package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// Conn is the load generator's HTTP/1.1 client: one keep-alive
// connection that writes pre-rendered requests and parses responses
// into a reused buffer. It exists because the net/http client costs
// more CPU per request than the daemon's whole request path on a
// 2-core machine, so it would measure the generator instead of
// pathsepd. A Conn is used by one goroutine at a time.
type Conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	body []byte
}

// NewConn returns a client for addr (host:port); it dials on first use
// and again after the server closes the connection.
func NewConn(addr string) *Conn { return &Conn{addr: addr} }

// Close closes the current connection, if any.
func (c *Conn) Close() {
	if c.c != nil {
		_ = c.c.Close() // nothing to flush: requests are written whole
		c.c = nil
	}
}

// Do writes head and then body (which may be nil) as one request and
// reads the response. The returned body aliases a buffer the next Do
// overwrites. Any error closes the connection.
func (c *Conn) Do(head, body []byte) (status int, resp []byte, err error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c = nc
		if c.r == nil {
			c.r = bufio.NewReaderSize(nc, 64<<10)
		} else {
			c.r.Reset(nc)
		}
	}
	if _, err = c.c.Write(head); err == nil && len(body) > 0 {
		_, err = c.c.Write(body)
	}
	var keep bool
	if err == nil {
		status, keep, err = c.readResponse()
	}
	if err != nil || !keep {
		c.Close()
	}
	if err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// readResponse parses one response into c.body and reports whether the
// connection stays open. It understands Content-Length, chunked
// transfer coding, and bodies delimited by connection close.
func (c *Conn) readResponse() (status int, keep bool, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, false, fmt.Errorf("bench: status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("bench: malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("bench: malformed status line %q", line)
	}
	keep = line[7] == '1'
	length, chunked := -1, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, false, fmt.Errorf("bench: header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, false, fmt.Errorf("bench: malformed header %q", line)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return 0, false, fmt.Errorf("bench: bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			if bytes.EqualFold(val, []byte("close")) {
				keep = false
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case status/100 == 1 || status == 204 || status == 304:
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		keep = false
		var b []byte
		b, err = io.ReadAll(c.r)
		c.body = append(c.body, b...)
	}
	return status, keep, err
}

// readN appends exactly n body bytes to c.body.
func (c *Conn) readN(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(c.body[:cap(c.body)], make([]byte, at+n-cap(c.body))...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.r, c.body[at:])
	return err
}

var errChunk = errors.New("bench: malformed chunk")

// readChunked appends a chunked body to c.body and consumes trailers.
func (c *Conn) readChunked() error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return errChunk
		}
		if size == 0 {
			break
		}
		if err := c.readN(int(size)); err != nil {
			return err
		}
		if crlf, err := c.r.ReadSlice('\n'); err != nil || len(bytes.TrimRight(crlf, "\r\n")) != 0 {
			return errChunk
		}
	}
	for { // trailers, up to the blank line
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}

// getRequest renders a bodiless GET for path.
func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: pathsepd\r\n\r\n")
}

// postHead renders the head of a POST to path with an n-byte body.
func postHead(path string, n int) []byte {
	return []byte("POST " + path + " HTTP/1.1\r\nHost: pathsepd\r\n" +
		"Content-Type: application/octet-stream\r\nContent-Length: " + strconv.Itoa(n) + "\r\n\r\n")
}
