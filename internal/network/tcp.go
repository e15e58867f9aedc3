package network

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"sqpeer/internal/wire"
)

// The in-process Network is the substrate every experiment runs on, but a
// deployment can expose any node over a real socket: a Gateway serves one
// node's message handlers over TCP, and a Client lets an out-of-process
// party call them. Traffic entering through a gateway is accounted on the
// Network like any other message.
//
// A frame is a 4-byte big-endian length and a body. A request body is the
// sender and the message kind, each a uvarint length plus its bytes,
// followed by the raw payload. A reply body opens with a status byte:
// replyOK is followed by the raw reply payload; replyErr by a flag byte
// (errDelivery: the error wraps a DeliveryError; errTransient: that error
// is transient; errHint: a retry-after hint follows), the DeliveryError's
// reason as a uvarint-length string, the hint as 8 big-endian bytes of
// its float64 bits when errHint is set, and the error text. The client
// rebuilds the DeliveryError, so network.Transient, errors.As and an
// overload rejection's retry-after hint work across the socket as they
// do in-process.

const (
	replyOK byte = iota
	replyErr
)

const (
	errDelivery byte = 1 << iota
	errTransient
	errHint
)

// errBadFrame reports a frame body whose header is short or malformed.
var errBadFrame = errors.New("network: malformed frame")

// Gateway serves one node's handlers over TCP.
type Gateway struct {
	node NodeID
	net  *Network
	ln   net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeTCP starts a gateway for the node on addr (use "127.0.0.1:0" for
// an ephemeral port; Addr reports the bound address). The gateway serves
// until Close.
func ServeTCP(n *Network, node NodeID, addr string) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: gateway for %s: %w", node, err)
	}
	g := &Gateway{node: node, net: n, ln: ln, conns: map[net.Conn]struct{}{}}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gateway's bound address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close stops accepting and tears down live connections.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		//lint:allow maporder teardown closes every live conn; close order carries no data
		conns = append(conns, c)
	}
	g.mu.Unlock()
	err := g.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			_ = conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		g.wg.Add(1)
		go g.serveConn(conn)
	}
}

func (g *Gateway) serveConn(conn net.Conn) {
	defer g.wg.Done()
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		body, err := readFrame(r)
		if err != nil {
			return // EOF or broken peer
		}
		r := wire.NewReader(body)
		from, kind := r.Str(), r.Str()
		payload := r.Rest()
		if r.Err() != nil {
			return // malformed request: drop the connection
		}
		reply, err := g.net.Call(NodeID(from), g.node, kind, payload)
		if err := writeFrame(w, encodeReply(reply, err)); err != nil {
			return
		}
	}
}

// encodeReply encodes a handler's reply, or its error, as a reply body.
func encodeReply(payload []byte, err error) []byte {
	if err == nil {
		return append([]byte{replyOK}, payload...)
	}
	var flags byte
	var reason string
	var hint uint64
	var de *DeliveryError
	if errors.As(err, &de) {
		flags, reason = errDelivery, de.Reason
		if de.Transient {
			flags |= errTransient
		}
		if de.RetryAfterMS != 0 {
			flags |= errHint
			hint = math.Float64bits(de.RetryAfterMS)
		}
	}
	out := wire.AppendStr([]byte{replyErr, flags}, reason)
	if flags&errHint != 0 {
		out = binary.BigEndian.AppendUint64(out, hint)
	}
	return append(out, err.Error()...)
}

// decodeReply is encodeReply's inverse: the reply payload, or the remote
// error with its DeliveryError class and retry-after hint restored.
func decodeReply(body []byte) ([]byte, error) {
	if len(body) > 0 && body[0] == replyOK {
		return body[1:], nil
	}
	r := wire.NewReader(body)
	if r.U8() != replyErr {
		return nil, errBadFrame
	}
	flags := r.U8()
	reason := r.Str()
	var hint float64
	if flags&errHint != 0 {
		hint = math.Float64frombits(r.U64())
	}
	text := r.Rest()
	if r.Err() != nil {
		return nil, errBadFrame
	}
	if flags&errDelivery == 0 {
		return nil, fmt.Errorf("network: remote: %s", text)
	}
	return nil, fmt.Errorf("network: remote: %w", &DeliveryError{
		Reason: reason, Transient: flags&errTransient != 0, Detail: string(text), RetryAfterMS: hint})
}

// Client is a TCP connection to a remote node's gateway. It is safe for
// sequential use; guard with a mutex (as Call does) for concurrent use.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// DialTCP connects to a gateway.
func DialTCP(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: dial gateway %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Call sends one message to the gateway's node and returns the handler's
// reply.
func (c *Client) Call(from NodeID, kind string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := wire.AppendStr(wire.AppendStr(nil, string(from)), kind)
	if err := writeFrame(c.w, append(req, payload...)); err != nil {
		return nil, fmt.Errorf("network: send frame: %w", err)
	}
	body, err := readFrame(c.r)
	if err != nil {
		return nil, fmt.Errorf("network: read reply: %w", err)
	}
	return decodeReply(body)
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// maxFrameSize bounds a single frame (16 MiB) to stop a corrupt length
// prefix from allocating unbounded memory.
const maxFrameSize = 16 << 20

func writeFrame(w *bufio.Writer, body []byte) error {
	if len(body) > maxFrameSize {
		return fmt.Errorf("frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
