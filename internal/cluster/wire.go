package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"smartexp3/internal/obsv"
	"smartexp3/internal/sim"
)

// protocolVersion is bumped whenever the frame layout or message set changes
// incompatibly. Coordinator and worker refuse to pair across versions, so a
// stale shardd binary fails loudly at handshake instead of corrupting a
// batch. Version 2 introduced persistent sessions: job multiplexing by id,
// keepalive ping/pong, and job release. Version 3 added the per-frame
// CRC-32C to the frame header: gob detects most stream corruption but not
// all of it (a flipped byte inside a float payload can decode cleanly to a
// different value), and the chaos layer's determinism guarantee — a faulted
// session decides exactly like a clean one — needs corruption to surface as
// a connection error every time, never as silently different numbers.
const protocolVersion = 3

// maxFrameBytes bounds a single frame. A per-run Result frame is dominated
// by the optional per-slot series (Distance, GroupDistance, Selections,
// Bitrates), which stay well under this for any configuration the
// experiments run; the cap exists so a corrupt or hostile length prefix
// cannot make a peer allocate unbounded memory.
const maxFrameBytes = 64 << 20

// connBufSize is the cluster wire's bufio size per direction (bufio's
// default). A larger buffer would buy nothing, since every cluster frame
// is flushed on its own, and would cost memory in a process hosting many
// connection ends.
const connBufSize = 4 << 10

// envelope is the one-of union every frame carries: exactly one field is
// non-nil. gob encodes nil pointers as absent, so the frame overhead of the
// union is negligible, and a single stream can carry every message type
// without out-of-band tagging.
type envelope struct {
	Hello      *helloMsg
	HelloAck   *helloAckMsg
	Job        *jobMsg
	JobAck     *jobAckMsg
	Range      *rangeMsg
	RunResult  *runResultMsg
	RangeDone  *rangeDoneMsg
	Ping       *pingMsg
	Pong       *pongMsg
	JobRelease *jobReleaseMsg
}

// helloMsg opens a coordinator → worker session. One session carries any
// number of jobs over its lifetime.
type helloMsg struct {
	Version int
}

// helloAckMsg accepts or rejects the session.
type helloAckMsg struct {
	Version int
	Err     string
}

// jobMsg ships one batch descriptor under a session-unique id: the worker
// compiles it into a sim.Engine once and serves every subsequent range
// carrying the same id against it. A session may hold several compiled jobs
// at once — that is what lets pipelined batches interleave on one stream.
type jobMsg struct {
	ID   uint64
	Spec JobSpec
}

// jobAckMsg reports whether the descriptor compiled. A non-empty Err is a
// property of the job, not the worker (every worker validates the same
// descriptor), so the coordinator fails the job without retiring the
// session.
type jobAckMsg struct {
	ID  uint64
	Err string
}

// rangeMsg assigns the global run indices [First, First+Count) of job Job
// to the worker. Workers execute ranges strictly in arrival order, which is
// what lets the coordinator attribute the result stream to its in-flight
// ranges without per-result routing state.
type rangeMsg struct {
	Job   uint64
	First int
	Count int
}

// runResultMsg streams one replication's result back. Workers emit results
// in ascending run order within a range. sim.Result is plain exported data
// (no interfaces, no functions), so it crosses the wire as-is; gob encodes
// float64 bits exactly, which is what keeps remote aggregates byte-identical
// to in-process ones.
type runResultMsg struct {
	Job uint64
	Run int
	Res *sim.Result
}

// rangeDoneMsg acknowledges a completed range. A non-empty Err means the
// simulation itself failed — a deterministic job error the coordinator must
// surface, not a transport failure it may retry.
type rangeDoneMsg struct {
	Job   uint64
	First int
	Err   string
}

// pingMsg is the coordinator's keepalive probe, sent only while a session is
// idle (no range in flight): it elicits a pong under the frame timeout, so a
// silently dead connection is discovered between batches instead of at the
// next dispatch.
type pingMsg struct {
	Seq uint64
}

// pongMsg answers a ping.
type pongMsg struct {
	Seq uint64
}

// jobReleaseMsg retires a job id the coordinator has finished with, freeing
// the worker's compiled engine and pooled workspaces for it. There is no
// reply; ids are session-unique and never reused.
type jobReleaseMsg struct {
	ID uint64
}

// frameHeaderSize is the fixed per-frame header: a 4-byte big-endian payload
// length followed by the payload's CRC-32C. The checksum is the transport's
// corruption firewall: a frame whose bytes were damaged in flight fails the
// CRC before the gob decoder ever sees them, so corruption is always a
// (retryable) connection error and never a silently different value.
const frameHeaderSize = 8

// castagnoli is the CRC-32C table, computed once; crc32.Checksum with a
// prepared table is allocation-free and hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// retainFrameBytes is the high-water mark above which the persistent codec
// buffers are released after an outsized frame instead of staying pinned
// for the connection's (potentially very long) lifetime. One multi-MB
// result frame early in a session must not hold that memory through
// hundreds of small batches on every connection end.
const retainFrameBytes = 1 << 20

// FrameWriter emits length-prefixed, checksummed frames. The payload is
// either raw bytes (WriteFrame: internal/serve's fixed-layout binary
// bodies) or the bytes of one Encode call on a persistent gob encoder (the
// cluster and fleet control wires). Both go through one framing path, so
// the length cap, the CRC, the outsized-buffer release and the frame
// counters live in one place.
//
// Gob state is per connection, not per frame: gob sends each type
// descriptor once per stream, so a session's thousandth result frame
// carries only values — re-encoding descriptors per frame used to dominate
// the per-batch dispatch cost (gob compileDec/sendActualType in profiles).
// A reconnect builds a fresh writer on both sides, so reassigned ranges
// still replay cleanly with no shared state to reconstruct.
//
// Not safe for concurrent use; callers serialize writes per connection.
type FrameWriter struct {
	w      io.Writer
	buf    frameBuf // one frame under construction: 8-byte header + payload
	enc    *gob.Encoder
	frames *obsv.Counter // optional; see Instrument
	bytes  *obsv.Counter
}

// Instrument counts every successfully written frame and its wire bytes
// (header included) on the given counters. Call it before the writer
// carries traffic; both counters must be non-nil together.
func (fw *FrameWriter) Instrument(frames, bytes *obsv.Counter) {
	fw.frames, fw.bytes = frames, bytes
}

// frameBuf is the io.Writer the gob encoder targets: it appends into a
// reusable slice. An indirection rather than a bytes.Buffer so the backing
// array can be dropped after an outsized frame without disturbing the
// encoder's stream state, and so FrameWriter exposes no public Write.
type frameBuf struct{ b []byte }

func (fb *frameBuf) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

// NewFrameWriter returns a frame writer whose codec state lives for the
// whole connection. Pair it with a NewFrameReader on the receiving side.
// The gob encoder is built on first use, so a raw-payload writer never
// pays for it.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// newFrameWriter is the package-internal spelling.
func newFrameWriter(w io.Writer) *FrameWriter { return NewFrameWriter(w) }

// Encode writes msg as one frame whose payload is the gob bytes of exactly
// one Encode call (which may bundle type descriptors ahead of the value —
// the matching Decode consumes them all).
func (fw *FrameWriter) Encode(msg any) error {
	if fw.enc == nil {
		fw.enc = gob.NewEncoder(&fw.buf)
	}
	fw.buf.b = append(fw.buf.b[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	if err := fw.enc.Encode(msg); err != nil {
		return fmt.Errorf("cluster: encode frame: %w", err)
	}
	return fw.emit()
}

// WriteFrame writes payload as one frame: a 4-byte big-endian length
// prefix, the payload's CRC-32C, and the payload bytes. The payload is
// copied, so the caller may reuse it as soon as WriteFrame returns. An
// empty payload is refused, as the reader refuses a zero length.
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	if len(payload) == 0 {
		return errEmptyFrame
	}
	fw.buf.b = append(append(fw.buf.b[:0], 0, 0, 0, 0, 0, 0, 0, 0), payload...)
	return fw.emit()
}

var errEmptyFrame = errors.New("cluster: empty frame payload")

// emit completes the frame in fw.buf (header placeholder + payload) and
// writes it to the underlying writer in one call.
func (fw *FrameWriter) emit() error {
	b := fw.buf.b
	payload := len(b) - frameHeaderSize
	if payload > maxFrameBytes {
		return frameTooLarge(payload)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(payload))
	binary.BigEndian.PutUint32(b[4:8], crc32.Checksum(b[frameHeaderSize:], castagnoli))
	if cap(fw.buf.b) > retainFrameBytes {
		fw.buf.b = nil // release the outsized backing array after this frame
	}
	if _, err := fw.w.Write(b); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	if fw.frames != nil {
		fw.frames.Inc()
		fw.bytes.Add(uint64(len(b)))
	}
	return nil
}

func frameTooLarge(n int) error {
	return fmt.Errorf("cluster: frame of %d bytes exceeds the %d byte cap", n, maxFrameBytes)
}

// write encodes one cluster envelope (the package's own protocol).
//
//repolint:ignore wiredeadline transport-agnostic codec: connection ends write through Conn, the one place that arms per-frame deadlines (pinned by TestConnDeadlineUnblocksStalledPeer and the coordinator/worker deadline tests); only tests drive this helper directly
func (fw *FrameWriter) write(env *envelope) error { return fw.Encode(env) }

// FrameReader reads length-prefixed, checksummed frames (the receive half
// of FrameWriter's contract), either as raw payloads (ReadFrame) or
// through one persistent gob decoder (Decode). The length prefix is read
// and bounds-checked before any allocation, preserving the maxFrameBytes
// guarantee; the payload's CRC-32C is verified before any caller sees a
// byte; the payload buffer is reused across frames.
//
// Errors latch: a framed gob stream has no resynchronization point, so once
// any read fails — framing, checksum or gob — every later read returns
// the same error rather than risking misattributed frames.
//
// Not safe for concurrent use; one goroutine reads per connection.
type FrameReader struct {
	r       io.Reader
	hdr     [frameHeaderSize]byte // here, not on the stack: io.ReadFull would move it to the heap per frame
	payload []byte
	cur     bytes.Reader
	dec     *gob.Decoder
	err     error         // first failure; the stream is dead after one
	frames  *obsv.Counter // optional; see Instrument
	nbytes  *obsv.Counter
}

// Instrument counts every fully read frame and its wire bytes (header
// included) on the given counters. Call it before the reader carries
// traffic; both counters must be non-nil together.
func (fr *FrameReader) Instrument(frames, bytes *obsv.Counter) {
	fr.frames, fr.nbytes = frames, bytes
}

// NewFrameReader returns a frame reader for one connection's inbound
// stream. See NewFrameWriter.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// newFrameReader is the package-internal spelling.
func newFrameReader(r io.Reader) *FrameReader { return NewFrameReader(r) }

// ReadFrame reads one frame and returns its checksum-verified payload. The
// slice is valid only until the next read: the buffer is reused. A clean
// connection close between frames surfaces as io.EOF exactly. Any failure
// is latched: the stream is unusable afterwards.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	p, err := fr.readFrame()
	if err != nil {
		fr.err = err
		return nil, err
	}
	return p, nil
}

func (fr *FrameReader) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err // io.EOF signals a clean close between frames
	}
	n := binary.BigEndian.Uint32(fr.hdr[:4])
	sum := binary.BigEndian.Uint32(fr.hdr[4:8])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("cluster: frame length %d outside (0, %d]", n, maxFrameBytes)
	}
	if uint32(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	p := fr.payload[:n]
	if cap(p) > retainFrameBytes {
		fr.payload = nil // release the outsized backing array once the caller drops p
	}
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	if fr.frames != nil {
		fr.frames.Inc()
		fr.nbytes.Add(uint64(frameHeaderSize) + uint64(n))
	}
	if got := crc32.Checksum(p, castagnoli); got != sum {
		return nil, fmt.Errorf("cluster: frame checksum %08x, want %08x (corrupt stream)", got, sum)
	}
	return p, nil
}

// Decode reads one frame and gob-decodes it into msg (a pointer, as for
// gob.Decoder.Decode). A clean connection close between frames surfaces
// as io.EOF exactly. Any failure is latched: the stream is unusable
// afterwards.
func (fr *FrameReader) Decode(msg any) error {
	p, err := fr.ReadFrame()
	if err != nil {
		return err
	}
	if fr.dec == nil {
		// bytes.Reader implements io.ByteReader, so gob adds no buffering
		// of its own and each Decode consumes exactly the bytes we hand it.
		fr.dec = gob.NewDecoder(&fr.cur)
	}
	fr.cur.Reset(p)
	err = fr.dec.Decode(msg)
	switch {
	case err != nil:
		err = fmt.Errorf("cluster: decode frame: %w", err)
	case fr.cur.Len() != 0:
		err = fmt.Errorf("cluster: frame has %d trailing bytes after its message", fr.cur.Len())
	}
	fr.cur.Reset(nil) // drop the reference to the payload (it may be outsized)
	if err != nil {
		fr.err = err
	}
	return err
}

// read reads and decodes one cluster envelope (the package's own protocol).
func (fr *FrameReader) read() (*envelope, error) {
	var env envelope
	if err := fr.Decode(&env); err != nil {
		return nil, err
	}
	return &env, nil
}

// defaultFrameTimeout is the per-frame deadline every wire uses unless
// configured otherwise: long enough for a multi-MB snapshot or result
// frame, short enough that a stalled peer is noticed.
const defaultFrameTimeout = 2 * time.Minute

// FrameTimeout resolves a per-frame timeout option the way the serve,
// fleet and worker options spell it: zero means the 2-minute default,
// negative disables deadlines (the result is 0, which Conn reads as "arm
// none" — synchronous in-memory pipes in tests).
func FrameTimeout(opt time.Duration) time.Duration {
	switch {
	case opt < 0:
		return 0
	case opt == 0:
		return defaultFrameTimeout
	}
	return opt
}

// Conn is one end of a framed connection: the socket, its buffered reader
// and writer, the frame codec over them, and per-frame deadlines. The
// cluster session, the serve wire and the fleet control wire all run over
// it, so arming deadlines, flushing and closing live in one place.
//
// WriteFrame queues a raw frame in the write buffer and Flush sends the
// queue, so a caller can put several frames in one socket write. Encode
// writes one gob frame and flushes it: the gob wires send one message per
// write. Every frame write arms the write deadline, not every flush,
// because a frame larger than the buffer's free space writes through to
// the socket at once. Every frame read arms the read deadline.
//
// Writes must be serialized and reads made from one goroutine; Close may
// be called from any goroutine, which is how a blocked end is cut loose.
type Conn struct {
	nc           net.Conn
	bw           *bufio.Writer
	fw           *FrameWriter
	fr           *FrameReader
	readTimeout  time.Duration // per-frame read deadline; 0 arms none
	writeTimeout time.Duration // per-frame write deadline; 0 arms none
	closeOnce    sync.Once
}

// NewConn frames nc with bufSize-byte read and write buffers. A zero
// timeout arms no deadline on that side; a caller that needs a deadline
// only while a reply is owed (the cluster session) passes 0 and manages
// the read deadline itself.
func NewConn(nc net.Conn, bufSize int, readTimeout, writeTimeout time.Duration) *Conn {
	bw := bufio.NewWriterSize(nc, bufSize)
	return &Conn{
		nc:           nc,
		bw:           bw,
		fw:           NewFrameWriter(bw),
		fr:           NewFrameReader(bufio.NewReaderSize(nc, bufSize)),
		readTimeout:  readTimeout,
		writeTimeout: writeTimeout,
	}
}

// Instrument counts frames and wire bytes in each direction on the given
// counters (a direction's pair must be non-nil together). Call it before
// the connection carries traffic.
func (c *Conn) Instrument(framesRead, bytesRead, framesWritten, bytesWritten *obsv.Counter) {
	c.fr.Instrument(framesRead, bytesRead)
	c.fw.Instrument(framesWritten, bytesWritten)
}

// WriteFrame queues payload as one raw frame for the next Flush. The
// payload is copied, so the caller may reuse it at once.
func (c *Conn) WriteFrame(payload []byte) error {
	if c.writeTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	return c.fw.WriteFrame(payload)
}

// Encode writes msg as one gob frame and flushes it.
func (c *Conn) Encode(msg any) error {
	if c.writeTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	if err := c.fw.Encode(msg); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Flush sends every queued frame, under the deadline the last frame write
// armed.
func (c *Conn) Flush() error { return c.bw.Flush() }

// ReadFrame reads one raw frame; see FrameReader.ReadFrame.
func (c *Conn) ReadFrame() ([]byte, error) {
	if err := c.armRead(); err != nil {
		return nil, err
	}
	return c.fr.ReadFrame()
}

// Decode reads one gob frame into msg; see FrameReader.Decode.
func (c *Conn) Decode(msg any) error {
	if err := c.armRead(); err != nil {
		return err
	}
	return c.fr.Decode(msg)
}

func (c *Conn) armRead() error {
	if c.readTimeout > 0 {
		return c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
	return nil
}

// Close closes the socket. Only the first call closes it and reports the
// result; later calls return nil, so a connection already dropped after
// a transport failure can be closed again without a spurious error.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.nc.Close() })
	return err
}

// Acceptor is an accept loop that tracks its live connections, so a
// daemon can cut them all at shutdown. The zero value is ready to use.
type Acceptor struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve accepts connections on ln until it fails, running handle on each
// in its own goroutine and closing the connection when handle returns.
// It then waits for every handler and returns the accept error
// (net.ErrClosed once the listener is closed).
func (a *Acceptor) Serve(ln net.Listener, handle func(net.Conn) error) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		a.track(conn, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer a.track(conn, false)
			defer conn.Close()
			_ = handle(conn) // a handler's failure ends only its own connection
		}()
	}
}

// Close closes every live connection, unblocking its handler. Pair it
// with closing the listener; Serve then returns without waiting out
// frame timeouts.
func (a *Acceptor) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for conn := range a.conns {
		conn.Close()
	}
}

func (a *Acceptor) track(conn net.Conn, add bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !add {
		delete(a.conns, conn)
		return
	}
	if a.conns == nil {
		a.conns = make(map[net.Conn]struct{})
	}
	a.conns[conn] = struct{}{}
}
