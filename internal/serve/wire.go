package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"smartexp3/internal/cluster"
)

// The serve wire protocol rides internal/cluster's frame layer: every
// message is one length-prefixed, CRC-32C-checked frame whose payload is a
// fixed-layout binary body. One synchronous client drives one connection:
// selects are request/response, feedback is fire-and-forget in batches,
// and the single stream's ordering makes every Select a natural barrier
// for the feedback sent before it.
//
// A body is one tag byte, then big-endian fixed-width fields: u64 for
// sequence numbers, device ids, slots and epochs; u32 for counts and
// string lengths; i32 (two's complement) for arm ids; rewards as the raw
// IEEE-754 bits of the float64, so NaN payloads, signed zeros and
// subnormals cross bit-identically (byte-identical snapshots depend on
// it). A string is its u32 byte length, then the bytes. A feedback item
// is u64 device, i32 arm, u64 slot, u64 reward bits: 28 bytes.
//
//	tag  message    fields after the tag                     body bytes
//	1    hello      u32 version                              5
//	2    helloAck   u32 version, str algorithm, str err      13 + strings
//	3    select     u64 seq, u64 device, u32 n, n × i32 arm  21 + 4n
//	4    selected   u64 seq, i32 arm, u64 slot               21
//	5    selectErr  u64 seq, str err                         13 + string
//	6    notOwner   u64 seq, u64 epoch, str owner            21 + string
//	7    feedback   u32 n, n × item                          5 + 28n
//	8    rejected   u64 epoch, u32 n, n × item               13 + 28n
//	9    release    u32 n, n × u64 device                    5 + 8n
//	10   ping       u64 seq                                  9
//	11   pong       u64 seq                                  9
//
// A body's length must equal its layout's exactly, checked from the fixed
// part and the counts before any field is read, so a short, long or
// miscounted body is a decode error, never a partial message. Unlike a gob
// stream, the bodies carry no per-connection codec state.
//
// The hello layout is frozen across protocol versions: tag 1, then the u32
// version at offset 1. A later version may append hello fields, but every
// daemon can still read the version and answer a mismatch with a readable
// helloAck rejection.

// serveProtocolVersion is bumped whenever the serve message set changes
// incompatibly. Handshake refuses mismatches. Version 2 added the
// selection slot to the selected reply and FeedbackItem — the dedup cursor
// that makes feedback resent across a reconnect safe to apply at most
// once. Version 3 added the fleet redirect surface: the notOwner reply
// and the unsolicited rejected frame for feedback bounced off a peer that
// no longer owns the device. Version 4 replaced the gob envelope with the
// fixed-layout binary bodies above.
const serveProtocolVersion = 4

// msgTag is a body's first byte: which message it carries.
type msgTag byte

// The message set. hello opens a session; helloAck accepts or rejects it
// and names the algorithm the daemon serves, so a client pointed at the
// wrong daemon fails loudly at dial time.
//
// select asks which arm a device should use next, given its currently
// reachable arm set (strictly ascending global ids). It is answered by
// exactly one of: selected, naming the arm and the store's slot for this
// selection (quoted back in feedback so resent reports cannot
// double-count); selectErr, a property of the request (bad arm set), not
// the connection — the session continues; or notOwner, the fleet
// redirect, also request-level: this peer no longer owns the device, ask
// the named owner (an empty owner means the rejecting peer has no table
// and owns nothing — a booting fleet member) after refreshing any
// partition table to at least the quoted epoch.
//
// feedback carries buffered reward reports. There is no reply for applied
// (or slot-dropped) reports, which is what lets a client stream feedback
// at line rate between selects. Only reports aimed at a peer that does not
// own their device bounce back, in a rejected frame: the protocol's one
// unsolicited server frame, which clients must tolerate ahead of any
// awaited response. Its epoch is the highest table epoch quoted for the
// rejections; the items' slots keep re-delivery to the right owner
// at-most-once even if the client also resends them.
//
// release retires device sessions whose devices have left. ping keeps an
// idle connection alive under the server's frame timeout and is answered
// by pong, mirroring the cluster session keepalive.
const (
	tagHello msgTag = iota + 1
	tagHelloAck
	tagSelect
	tagSelected
	tagSelectErr
	tagNotOwner
	tagFeedback
	tagRejected
	tagRelease
	tagPing
	tagPong
)

var tagNames = [...]string{
	tagHello: "hello", tagHelloAck: "helloAck", tagSelect: "select",
	tagSelected: "selected", tagSelectErr: "selectErr", tagNotOwner: "notOwner",
	tagFeedback: "feedback", tagRejected: "rejected", tagRelease: "release",
	tagPing: "ping", tagPong: "pong",
}

func (t msgTag) String() string {
	if int(t) < len(tagNames) && tagNames[t] != "" {
		return tagNames[t]
	}
	return fmt.Sprintf("tag %d", byte(t))
}

// Fixed layout sizes, in bytes.
const (
	itemBytes = 28 // u64 device, i32 arm, u64 slot, u64 reward bits
	strHeader = 4  // u32 string length
)

// wireMsg is the decoded form of every serve message; tag says which
// fields are meaningful (see the layout table). Each connection end
// decodes into one reused wireMsg, so arms, items and devices keep their
// backing arrays from frame to frame and a warm exchange allocates
// nothing. A decoded message is valid only until the next decode on its
// connection.
type wireMsg struct {
	tag       msgTag
	version   uint32         // hello, helloAck
	seq       uint64         // select, selected, selectErr, notOwner, ping, pong
	device    uint64         // select
	arm       int            // selected
	slot      uint64         // selected
	epoch     uint64         // notOwner, rejected
	algorithm string         // helloAck
	err       string         // helloAck, selectErr
	owner     string         // notOwner
	arms      []int          // select
	items     []FeedbackItem // feedback, rejected
	devices   []uint64       // release
}

var be = binary.BigEndian

// bodyLen is the exact body length of m's layout; 0 for an unknown tag.
func bodyLen(m *wireMsg) int {
	switch m.tag {
	case tagHello:
		return 1 + 4
	case tagHelloAck:
		return 1 + 4 + 2*strHeader + len(m.algorithm) + len(m.err)
	case tagSelect:
		return 1 + 8 + 8 + 4 + 4*len(m.arms)
	case tagSelected:
		return 1 + 8 + 4 + 8
	case tagSelectErr:
		return 1 + 8 + strHeader + len(m.err)
	case tagNotOwner:
		return 1 + 8 + 8 + strHeader + len(m.owner)
	case tagFeedback:
		return 1 + 4 + itemBytes*len(m.items)
	case tagRejected:
		return 1 + 8 + 4 + itemBytes*len(m.items)
	case tagRelease:
		return 1 + 4 + 8*len(m.devices)
	case tagPing, tagPong:
		return 1 + 8
	}
	return 0
}

// encodeMsg writes m's body into dst's backing array (growing it only
// when too small) and returns the body. An arm id outside the wire's
// 32-bit field is a *RequestError: no selection could carry it.
//
//repolint:allocfree via TestCodecDoesNotAllocate
func encodeMsg(dst []byte, m *wireMsg) ([]byte, error) {
	n := bodyLen(m)
	if n == 0 {
		return dst, unknownTag(m.tag)
	}
	b := reuse(dst, n)
	b[0] = byte(m.tag)
	p := b[1:]
	switch m.tag {
	case tagHello:
		be.PutUint32(p, m.version)
	case tagHelloAck:
		be.PutUint32(p, m.version)
		putString(putString(p[4:], m.algorithm), m.err)
	case tagSelect:
		be.PutUint64(p, m.seq)
		be.PutUint64(p[8:], m.device)
		be.PutUint32(p[16:], uint32(len(m.arms)))
		for i, a := range m.arms {
			if !fitsArm(a) {
				return b, armRange(a)
			}
			be.PutUint32(p[20+4*i:], uint32(a))
		}
	case tagSelected:
		if !fitsArm(m.arm) {
			return b, armRange(m.arm)
		}
		be.PutUint64(p, m.seq)
		be.PutUint32(p[8:], uint32(m.arm))
		be.PutUint64(p[12:], m.slot)
	case tagSelectErr:
		be.PutUint64(p, m.seq)
		putString(p[8:], m.err)
	case tagNotOwner:
		be.PutUint64(p, m.seq)
		be.PutUint64(p[8:], m.epoch)
		putString(p[16:], m.owner)
	case tagFeedback:
		be.PutUint32(p, uint32(len(m.items)))
		if err := putItems(p[4:], m.items); err != nil {
			return b, err
		}
	case tagRejected:
		be.PutUint64(p, m.epoch)
		be.PutUint32(p[8:], uint32(len(m.items)))
		if err := putItems(p[12:], m.items); err != nil {
			return b, err
		}
	case tagRelease:
		be.PutUint32(p, uint32(len(m.devices)))
		for i, d := range m.devices {
			be.PutUint64(p[4+8*i:], d)
		}
	case tagPing, tagPong:
		be.PutUint64(p, m.seq)
	}
	return b, nil
}

func putString(p []byte, s string) []byte {
	be.PutUint32(p, uint32(len(s)))
	return p[strHeader+copy(p[strHeader:], s):]
}

func putItems(p []byte, items []FeedbackItem) error {
	for i := range items {
		it := &items[i]
		if !fitsArm(it.Arm) {
			return armRange(it.Arm)
		}
		q := p[itemBytes*i:]
		be.PutUint64(q, it.Device)
		be.PutUint32(q[8:], uint32(it.Arm))
		be.PutUint64(q[12:], it.Slot)
		be.PutUint64(q[20:], math.Float64bits(it.Reward))
	}
	return nil
}

// fitsArm reports whether arm survives the wire's i32 arm field.
func fitsArm(arm int) bool { return arm == int(int32(arm)) }

// decodeMsg decodes body into m, reusing m's slices. maxArms bounds a
// select's arm count: a well-formed select over the limit returns an
// *armLimitError with m's seq and device set, so the daemon can answer it
// as a bad request without ever storing the arms.
//
//repolint:allocfree via TestCodecDoesNotAllocate
func decodeMsg(m *wireMsg, body []byte, maxArms int) error {
	if len(body) == 0 {
		return errEmptyBody
	}
	m.tag = msgTag(body[0])
	p := body[1:]
	switch m.tag {
	case tagHello:
		// The frozen prefix: any version's hello has its version here. Only
		// a hello of this protocol version must match this layout exactly.
		if len(p) < 4 {
			return badLength(m.tag, len(body))
		}
		m.version = be.Uint32(p)
		if m.version == serveProtocolVersion && len(p) != 4 {
			return badLength(m.tag, len(body))
		}
	case tagSelect:
		if len(p) < 20 || uint64(len(p)) != 20+4*uint64(be.Uint32(p[16:])) {
			return badLength(m.tag, len(body))
		}
		m.seq = be.Uint64(p)
		m.device = be.Uint64(p[8:])
		n := int(be.Uint32(p[16:]))
		if n > maxArms {
			return tooManyArms(m.device, n, maxArms)
		}
		m.arms = reuse(m.arms, n)
		for i := range m.arms {
			m.arms[i] = int(int32(be.Uint32(p[20+4*i:])))
		}
	case tagSelected:
		if len(p) != 20 {
			return badLength(m.tag, len(body))
		}
		m.seq = be.Uint64(p)
		m.arm = int(int32(be.Uint32(p[8:])))
		m.slot = be.Uint64(p[12:])
	case tagFeedback:
		if len(p) < 4 || uint64(len(p)) != 4+itemBytes*uint64(be.Uint32(p)) {
			return badLength(m.tag, len(body))
		}
		m.items = getItems(m.items, p[4:])
	case tagRejected:
		if len(p) < 12 || uint64(len(p)) != 12+itemBytes*uint64(be.Uint32(p[8:])) {
			return badLength(m.tag, len(body))
		}
		m.epoch = be.Uint64(p)
		m.items = getItems(m.items, p[12:])
	case tagRelease:
		if len(p) < 4 || uint64(len(p)) != 4+8*uint64(be.Uint32(p)) {
			return badLength(m.tag, len(body))
		}
		m.devices = reuse(m.devices, int(be.Uint32(p)))
		for i := range m.devices {
			m.devices[i] = be.Uint64(p[4+8*i:])
		}
	case tagPing, tagPong:
		if len(p) != 8 {
			return badLength(m.tag, len(body))
		}
		m.seq = be.Uint64(p)
	case tagHelloAck, tagSelectErr, tagNotOwner:
		return decodeText(m, body)
	default:
		return unknownTag(m.tag)
	}
	return nil
}

// getItems decodes len(p)/itemBytes feedback items into items' backing
// array; the caller has checked the length.
func getItems(items []FeedbackItem, p []byte) []FeedbackItem {
	items = reuse(items, len(p)/itemBytes)
	for i := range items {
		q := p[itemBytes*i:]
		items[i] = FeedbackItem{
			Device: be.Uint64(q),
			Arm:    int(int32(be.Uint32(q[8:]))),
			Slot:   be.Uint64(q[12:]),
			Reward: math.Float64frombits(be.Uint64(q[20:])),
		}
	}
	return items
}

// decodeText decodes the messages that carry strings: the handshake
// reply, request errors and redirects. They are the cold paths, kept out
// of decodeMsg's allocation-free body because the strings allocate.
func decodeText(m *wireMsg, body []byte) error {
	p := body[1:]
	fixed, strs := 8, 1 // selectErr: u64 seq, str err
	switch m.tag {
	case tagHelloAck:
		fixed, strs = 4, 2
	case tagNotOwner:
		fixed = 16
	}
	if len(p) < fixed {
		return badLength(m.tag, len(body))
	}
	// Walk the string lengths to the exact body length before reading.
	var spans [2][]byte
	rest := p[fixed:]
	for i := 0; i < strs; i++ {
		if len(rest) < strHeader || uint64(len(rest)-strHeader) < uint64(be.Uint32(rest)) {
			return badLength(m.tag, len(body))
		}
		n := strHeader + int(be.Uint32(rest))
		spans[i], rest = rest[strHeader:n], rest[n:]
	}
	if len(rest) != 0 {
		return badLength(m.tag, len(body))
	}
	switch m.tag {
	case tagHelloAck:
		m.version = be.Uint32(p)
		m.algorithm, m.err = string(spans[0]), string(spans[1])
	case tagSelectErr:
		m.seq = be.Uint64(p)
		m.err = string(spans[0])
	case tagNotOwner:
		m.seq = be.Uint64(p)
		m.epoch = be.Uint64(p[8:])
		m.owner = string(spans[0])
	}
	return nil
}

// retainElems bounds the backing arrays a connection keeps between
// frames. A slice grown past it for one outsized message is replaced by a
// right-sized one at the next decode, as the frame layer releases its
// outsized buffers, so a hostile batch cannot pin its memory for the
// connection's lifetime.
const retainElems = 1 << 15

// reuse returns s resized to n, keeping its backing array when it is large
// enough and not outsized. Growth is the codec's only allocation, paid
// while a connection warms up.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n || (cap(s) > retainElems && n <= retainElems) {
		return make([]T, n)
	}
	return s[:n]
}

// The codec's errors are built by the helpers below, outside the
// allocation-free encode and decode bodies: a malformed message is never
// the warm path.

var errEmptyBody = errors.New("serve: empty message body")

func unknownTag(t msgTag) error { return fmt.Errorf("serve: unknown message %v", t) }

func badLength(t msgTag, n int) error {
	return fmt.Errorf("serve: %v body of %d bytes does not match its layout", t, n)
}

func armRange(arm int) error {
	return &RequestError{Msg: fmt.Sprintf("serve: arm %d does not fit the wire's 32-bit arm field", arm)}
}

// armLimitError is a well-formed select carrying more arms than the
// daemon's MaxArms: a request-level rejection, worded like the store's.
type armLimitError struct {
	device uint64
	n, max int
}

func (e *armLimitError) Error() string {
	return fmt.Sprintf("serve: device %d: %d arms exceeds the %d limit", e.device, e.n, e.max)
}

func tooManyArms(device uint64, n, max int) error { return &armLimitError{device, n, max} }

// wireConn is one end of a serve connection: the frame layer over a
// buffered socket, per-frame deadlines, and the reused encode buffer and
// decoded message that keep a warm exchange allocation-free. queue
// buffers frames and flush sends them, so a client's feedback frame and
// the select behind it leave in one write.
type wireConn struct {
	conn    net.Conn
	bw      *bufio.Writer
	fw      *cluster.FrameWriter
	fr      *cluster.FrameReader
	timeout time.Duration // per-frame read and write deadline; 0 disables
	maxArms int           // select arm-count bound on decode
	out     []byte        // encode buffer
	in      wireMsg       // the last decoded message
}

func newWireConn(conn net.Conn, timeout time.Duration, maxArms int) *wireConn {
	bw := bufio.NewWriterSize(conn, 32<<10)
	return &wireConn{
		conn:    conn,
		bw:      bw,
		fw:      cluster.NewFrameWriter(bw),
		fr:      cluster.NewFrameReader(bufio.NewReaderSize(conn, 32<<10)),
		timeout: timeout,
		maxArms: maxArms,
	}
}

// queue encodes m as one frame into the write buffer. The deadline is
// armed per frame, not per flush, because a frame larger than the
// buffer's free space writes through to the socket immediately.
func (w *wireConn) queue(m *wireMsg) error {
	if w.timeout > 0 {
		if err := w.conn.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
			return err
		}
	}
	b, err := encodeMsg(w.out, m)
	w.out = b
	if err != nil {
		return err
	}
	return w.fw.WriteFrame(b)
}

// flush writes every queued frame to the socket, under the deadline the
// last queue armed.
func (w *wireConn) flush() error { return w.bw.Flush() }

// send queues m and flushes.
func (w *wireConn) send(m *wireMsg) error {
	if err := w.queue(m); err != nil {
		return err
	}
	return w.flush()
}

// recv reads and decodes one frame into the connection's reused message.
// After a body that fails to decode, the message comes back beside the
// error holding the fields read so far: the server answers an over-limit
// select from its seq.
func (w *wireConn) recv() (*wireMsg, error) {
	if w.timeout > 0 {
		if err := w.conn.SetReadDeadline(time.Now().Add(w.timeout)); err != nil {
			return nil, err
		}
	}
	body, err := w.fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	return &w.in, decodeMsg(&w.in, body, w.maxArms)
}
