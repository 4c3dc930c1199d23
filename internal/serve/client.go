package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// ClientOptions tunes a client connection and its recovery behavior.
type ClientOptions struct {
	// DialTimeout bounds connection establishment; zero means 5 seconds.
	DialTimeout time.Duration
	// FrameTimeout bounds each frame read and write; zero means 2
	// minutes, negative disables (synchronous in-memory pipes in tests).
	FrameTimeout time.Duration
	// FeedbackBatch is the buffered-report count that triggers an eager
	// flush; zero means 256. Feedback is also flushed before every
	// Select, Release, Ping and Close, so the buffer never outlives the
	// traffic that should observe it.
	FeedbackBatch int

	// Redial re-establishes the transport after a transient failure. Dial
	// installs a TCP redialer for its address automatically; NewClient
	// callers provide their own (or none). With Redial nil the client is
	// fail-fast: the first transport error permanently poisons the
	// session, the pre-reconnect behavior.
	Redial func() (net.Conn, error)
	// MaxAttempts bounds the transport tries (initial + redials) one
	// operation makes before giving up; zero means 8.
	MaxAttempts int
	// BackoffBase is the delay before the first redial; it doubles per
	// attempt up to BackoffMax, jittered to [d/2, d) so clients of a
	// restarting daemon do not reconnect in lockstep. Zero means 20ms.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay; zero means 2 seconds.
	BackoffMax time.Duration

	// MaxBufferedFeedback bounds the reports held while the daemon is
	// unreachable (the overload guard); beyond it the oldest are dropped
	// and counted in DroppedFeedback. Zero means 4096.
	MaxBufferedFeedback int

	// Fallback, when set, is a local Store the client degrades to when
	// the daemon stays unreachable past MaxAttempts: Select answers from
	// in-process policy state instead of erroring. While degraded, the
	// daemon is re-probed at most once per FallbackProbe; decisions made
	// locally stay local (their feedback applies to the Fallback store,
	// not the daemon), so a degraded episode is a deliberate fork of that
	// device's learning, traded for availability.
	Fallback *Store
	// FallbackProbe is how long a degraded client waits between probes of
	// the daemon; zero means 1 second.
	FallbackProbe time.Duration

	// OnRejected, when set, receives feedback items the daemon bounced in
	// a Rejected frame because it no longer owns their devices (a fleet
	// migration moved them), along with the table epoch the rejection
	// quoted. The callback runs synchronously inside the client's receive
	// loop; the items slice is valid only for the duration of the call.
	// Nil discards bounced items.
	OnRejected func(epoch uint64, items []FeedbackItem)

	// Metrics, when set, receives the client's resilience counters —
	// typically a NewClientMetrics set registered on an obsv.Registry,
	// shared across redials of one logical client. Nil means a private
	// unregistered set; the Reconnects/DroppedFeedback accessors read
	// whichever set is in use.
	Metrics *ClientMetrics
}

func (o ClientOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o ClientOptions) frameTimeout() time.Duration {
	switch {
	case o.FrameTimeout < 0:
		return 0
	case o.FrameTimeout == 0:
		return 2 * time.Minute
	default:
		return o.FrameTimeout
	}
}

func (o ClientOptions) feedbackBatch() int {
	if o.FeedbackBatch <= 0 {
		return 256
	}
	return o.FeedbackBatch
}

func (o ClientOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 8
	}
	return o.MaxAttempts
}

func (o ClientOptions) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return 20 * time.Millisecond
	}
	return o.BackoffBase
}

func (o ClientOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return 2 * time.Second
	}
	return o.BackoffMax
}

func (o ClientOptions) maxBufferedFeedback() int {
	if o.MaxBufferedFeedback <= 0 {
		return 4096
	}
	return o.MaxBufferedFeedback
}

func (o ClientOptions) fallbackProbe() time.Duration {
	if o.FallbackProbe <= 0 {
		return time.Second
	}
	return o.FallbackProbe
}

// RequestError is a request-level rejection (a malformed arm set, say):
// the daemon answered, the session remains usable, and nothing is retried.
// Every other error a client method returns is transport trouble.
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

// selection is the client's record of a device's outstanding Select: the
// slot the store named for it (quoted back in feedback so resends cannot
// double-count) and whether it was answered by the local Fallback store.
type selection struct {
	slot  uint64
	local bool
}

// Client is one synchronous session against a serve daemon. It buffers
// feedback and sends it as one frame ahead of anything that must observe
// it, in the same socket write as the Select, Ping or Release behind it,
// so the hot loop costs one write and one round trip per Select and
// nothing per Feedback. Messages travel as fixed-layout binary bodies
// (see wire.go), decoded into per-connection reused buffers, so a warm
// Select+Feedback allocates nothing.
//
// The client self-heals: a transport failure (cut, stall past the frame
// timeout, corrupted frame) tears the connection down and the operation
// retries over a fresh one with capped exponential backoff — up to
// MaxAttempts tries. Recovery is safe because both directions are
// idempotent at the store: a re-Select after a lost response returns the
// same arm and slot, and feedback written-but-unconfirmed at the cut is
// resent carrying its slot, which the store applies at most once. A chaos
// session is therefore decision-identical to a clean one. Only handshake
// rejections (wrong protocol era, wrong daemon) poison the client
// permanently.
//
// Not safe for concurrent use — one goroutine per client, the same
// discipline as the cluster session layer.
type Client struct {
	opts      ClientOptions
	w         *wireConn // nil before the first dial
	algorithm string

	batch []FeedbackItem // buffered reports not yet written
	sent  []FeedbackItem // written but unconfirmed by a response barrier
	slots map[uint64]selection

	seq     uint64
	pingSeq uint64

	connected bool
	closed    bool
	permErr   error // handshake-level failure; the client is dead after one

	degraded      bool      // serving from opts.Fallback
	degradedUntil time.Time // next daemon probe not before this instant

	rng *rand.Rand     // backoff jitter
	m   *ClientMetrics // never nil; from opts.Metrics or a private set
}

// Dial connects and handshakes. Unless ClientOptions.Redial is set, the
// client re-dials addr automatically after transient transport failures.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.Redial == nil {
		timeout := opts.dialTimeout()
		opts.Redial = func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
			}
			return conn, nil
		}
	}
	conn, err := opts.Redial()
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient handshakes over an established connection (tests hand it one
// end of a pipe). The client owns conn afterwards. Without opts.Redial the
// client cannot recover from transport failures and fails fast instead.
func NewClient(conn net.Conn, opts ClientOptions) (*Client, error) {
	c := &Client{opts: opts, slots: make(map[uint64]selection), m: opts.Metrics}
	if c.m == nil {
		c.m = newClientMetrics()
	}
	if err := c.handshake(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// Algorithm names the algorithm the daemon serves, as reported at
// handshake.
func (c *Client) Algorithm() string { return c.algorithm }

// Reconnects returns how many times the client re-established its
// connection after the initial dial.
func (c *Client) Reconnects() uint64 { return c.m.Reconnects.Value() }

// DroppedFeedback returns how many buffered reports the overload guard
// discarded because the daemon stayed unreachable past the buffer bound.
func (c *Client) DroppedFeedback() uint64 { return c.m.DroppedFeedback.Value() }

// Degraded reports whether the client is currently serving selections from
// its local Fallback store instead of the daemon.
func (c *Client) Degraded() bool { return c.degraded }

// handshake installs conn as the client's transport and runs the hello
// exchange over it. Rejections are permanent: a daemon from the wrong
// protocol era will reject every future attempt too.
func (c *Client) handshake(conn net.Conn) error {
	c.w = newWireConn(conn, c.opts.frameTimeout(), 0)
	if err := c.w.send(&wireMsg{tag: tagHello, version: serveProtocolVersion}); err != nil {
		return err
	}
	ack, err := c.w.recv()
	switch {
	case err != nil:
		return err
	case ack.tag != tagHelloAck:
		return c.permanent(errors.New("serve: handshake reply is not a hello ack"))
	case ack.err != "":
		return c.permanent(fmt.Errorf("serve: handshake rejected: %s", ack.err))
	}
	c.algorithm = ack.algorithm
	c.connected = true
	return nil
}

func (c *Client) permanent(err error) error {
	if c.permErr == nil {
		c.permErr = err
	}
	return c.permErr
}

func (c *Client) usable() error {
	switch {
	case c.permErr != nil:
		return c.permErr
	case c.closed:
		return errors.New("serve: client closed")
	}
	return nil
}

// dropConn tears the connection down after a transport failure and
// requeues written-but-unconfirmed feedback ahead of the unwritten batch:
// the daemon may or may not have consumed those frames, and the slot each
// item carries makes resending the safe default. Without a redialer the
// failure is terminal, matching the historical fail-fast client.
func (c *Client) dropConn(cause error) {
	if c.w != nil {
		c.w.conn.Close()
	}
	c.connected = false
	if len(c.sent) > 0 {
		c.m.FeedbackResent.Add(uint64(len(c.sent)))
		c.batch = append(c.sent, c.batch...)
		c.sent = nil
	}
	c.trimFeedback()
	if c.opts.Redial == nil {
		_ = c.permanent(fmt.Errorf("serve: session dead: %w", cause))
	}
}

// ensureConn returns with a live handshaken connection or an error for
// this attempt.
func (c *Client) ensureConn() error {
	if c.connected {
		return nil
	}
	if c.permErr != nil {
		return c.permErr
	}
	if c.opts.Redial == nil {
		return errors.New("serve: disconnected and no redialer configured")
	}
	c.m.Redials.Inc()
	conn, err := c.opts.Redial()
	if err != nil {
		return err
	}
	if err := c.handshake(conn); err != nil {
		conn.Close()
		return err
	}
	c.m.Reconnects.Inc()
	return nil
}

// backoff sleeps before redial attempt try (1-based), doubling from
// BackoffBase and capping at BackoffMax, jittered to [d/2, d).
func (c *Client) backoff(try int) {
	d := c.opts.backoffBase() << uint(try-1)
	if max := c.opts.backoffMax(); d > max || d <= 0 {
		d = max
	}
	if c.rng == nil {
		// Backoff jitter is deliberately wall-clock-seeded: it must differ
		// across client processes to de-synchronize reconnect storms, and it
		// never reaches a decision, a seed, or a snapshot.
		//repolint:ignore seedpurity intentional nondeterminism: jitter only spreads redial timing and never feeds decisions or state
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	time.Sleep(d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1)))
}

// attempt runs op against a live connection, redialing with backoff after
// transient failures, up to MaxAttempts tries. A *RequestError or
// *NotOwnerError returns immediately (the session is fine — the second is
// an answer, not a failure: ask a different peer); a permanent error
// latches; anything else tears the connection down and retries.
func (c *Client) attempt(op func() error) error {
	attempts := c.opts.maxAttempts()
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.backoff(try)
		}
		if err := c.ensureConn(); err != nil {
			if c.permErr != nil {
				return c.permErr
			}
			lastErr = err
			continue
		}
		err := op()
		if err == nil {
			return nil
		}
		var req *RequestError
		var no *NotOwnerError
		if errors.As(err, &req) || errors.As(err, &no) {
			return err
		}
		c.dropConn(err)
		if c.permErr != nil {
			return c.permErr
		}
		lastErr = err
	}
	return fmt.Errorf("serve: daemon unreachable after %d attempts: %w", attempts, lastErr)
}

// queueFeedback moves the unwritten batch to the unconfirmed queue and
// queues it as one frame; the caller's flush sends it, together with the
// request queued behind it. The items stay in sent until a response
// barrier (a select reply or pong on the same connection) proves the
// daemon consumed the stream up to them; a disconnect before that
// requeues them.
func (c *Client) queueFeedback() error {
	if len(c.batch) == 0 {
		return nil
	}
	n := len(c.sent)
	c.sent = append(c.sent, c.batch...)
	c.batch = c.batch[:0]
	return c.w.queue(&wireMsg{tag: tagFeedback, items: c.sent[n:]})
}

// flushFeedback sends the unwritten batch on its own.
func (c *Client) flushFeedback() error {
	if err := c.queueFeedback(); err != nil {
		return err
	}
	return c.w.flush()
}

// trimFeedback enforces the overload guard: when the queued reports exceed
// the bound, the oldest unwritten ones are dropped and counted.
func (c *Client) trimFeedback() {
	over := len(c.batch) + len(c.sent) - c.opts.maxBufferedFeedback()
	if over <= 0 {
		return
	}
	if over > len(c.batch) {
		over = len(c.batch)
	}
	kept := copy(c.batch, c.batch[over:])
	c.batch = c.batch[:kept]
	c.m.DroppedFeedback.Add(uint64(over))
}

// Select flushes buffered feedback, then asks which arm device should use
// next. arms must be strictly ascending. A request-level rejection (bad
// arm set) returns a *RequestError and leaves the session usable;
// transport failures reconnect and retry transparently — the store's
// slot-idempotent Select makes the retry return the same arm — and only
// after MaxAttempts does the client give up (or degrade to the Fallback
// store when one is configured).
func (c *Client) Select(device uint64, arms []int) (int, error) {
	if err := c.usable(); err != nil {
		return -1, err
	}
	if c.degraded {
		if arm, served, err := c.fallbackSelect(device, arms); served {
			return arm, err
		}
	}
	arm, slot, err := c.doSelect(device, arms)
	if err == nil {
		c.slots[device] = selection{slot: slot}
		return arm, nil
	}
	var req *RequestError
	var no *NotOwnerError
	if errors.As(err, &req) || errors.As(err, &no) || c.permErr != nil {
		return -1, err
	}
	return c.enterFallback(device, arms, err)
}

// SelectSlot is Select for callers that route feedback themselves (the
// fleet client): it returns the slot the store named for this selection
// alongside the arm, so the reward can later be delivered explicitly —
// possibly through a different peer's connection after a migration — via
// FeedbackSlot or EnqueueFeedback. A daemon that no longer owns the
// device answers with *NotOwnerError, returned without burning transport
// retries; Fallback degradation does not apply (the fleet routes around
// a dead peer instead).
func (c *Client) SelectSlot(device uint64, arms []int) (int, uint64, error) {
	if err := c.usable(); err != nil {
		return -1, 0, err
	}
	arm, slot, err := c.doSelect(device, arms)
	if err != nil {
		return -1, 0, err
	}
	c.slots[device] = selection{slot: slot}
	return arm, slot, nil
}

// doSelect runs one Select round trip (flush, request, response) under
// the retry loop, returning the chosen arm and its slot. Shared by
// Select and SelectSlot.
func (c *Client) doSelect(device uint64, arms []int) (int, uint64, error) {
	var arm int
	var slot uint64
	err := c.attempt(func() error {
		if err := c.queueFeedback(); err != nil {
			return err
		}
		c.seq++
		if err := c.w.queue(&wireMsg{tag: tagSelect, seq: c.seq, device: device, arms: arms}); err != nil {
			return err
		}
		if err := c.w.flush(); err != nil {
			return err
		}
		for {
			resp, err := c.w.recv()
			if err != nil {
				return err
			}
			switch resp.tag {
			case tagSelected, tagSelectErr, tagNotOwner:
				if resp.seq != c.seq {
					return fmt.Errorf("response seq %d, want %d", resp.seq, c.seq)
				}
				c.sent = c.sent[:0] // barrier: the daemon consumed everything before this reply
				switch resp.tag {
				case tagNotOwner:
					return &NotOwnerError{Epoch: resp.epoch, Owner: resp.owner}
				case tagSelectErr:
					return &RequestError{Msg: "serve: " + resp.err}
				}
				arm = resp.arm
				slot = resp.slot
				return nil
			case tagRejected:
				c.handleRejected(resp)
				continue // bounced feedback; the select response follows
			case tagPong:
				continue // late keepalive answer; the select response follows
			default:
				return fmt.Errorf("unexpected %v frame awaiting selection", resp.tag)
			}
		}
	})
	return arm, slot, err
}

// handleRejected forwards a bounced-feedback frame to the OnRejected
// callback. Without one the items are discarded: the daemon applied
// nothing for them, and a plain single-store client has nowhere better
// to send them.
func (c *Client) handleRejected(msg *wireMsg) {
	if c.opts.OnRejected != nil {
		c.opts.OnRejected(msg.epoch, msg.items)
	}
}

// enterFallback switches to degraded local serving after the transport is
// exhausted, when a Fallback store is configured.
func (c *Client) enterFallback(device uint64, arms []int, cause error) (int, error) {
	if c.opts.Fallback == nil {
		return -1, cause
	}
	c.degraded = true
	c.m.FallbackActivations.Inc()
	c.degradedUntil = time.Now().Add(c.opts.fallbackProbe())
	arm, _, err := c.fallbackSelect(device, arms)
	return arm, err
}

// fallbackSelect serves one selection from the local Fallback store while
// degraded, probing the daemon at most once per FallbackProbe interval.
// served=false means a probe just revived the connection and the caller
// should use the live path instead.
func (c *Client) fallbackSelect(device uint64, arms []int) (arm int, served bool, err error) {
	if time.Now().After(c.degradedUntil) {
		if c.ensureConn() == nil {
			c.degraded = false
			return 0, false, nil
		}
		c.degradedUntil = time.Now().Add(c.opts.fallbackProbe())
	}
	a, slot, err := c.opts.Fallback.Select(device, arms)
	if err != nil {
		return -1, true, &RequestError{Msg: err.Error()}
	}
	c.slots[device] = selection{slot: slot, local: true}
	return a, true, nil
}

// Feedback buffers one reward report; the wire sees it at the next flush
// (at latest, before the next Select on this connection, which is what
// makes select-after-feedback ordering hold without a round trip per
// report). Feedback never blocks on a broken transport: reports queue
// (bounded by MaxBufferedFeedback) and resend after the reconnect. A
// report for a selection the Fallback store answered applies there
// directly.
func (c *Client) Feedback(device uint64, arm int, reward float64) error {
	if err := c.usable(); err != nil {
		return err
	}
	sel := c.slots[device]
	if sel.local {
		c.opts.Fallback.Feedback(device, arm, sel.slot, reward)
		return nil
	}
	return c.enqueue(FeedbackItem{Device: device, Arm: arm, Slot: sel.slot, Reward: reward})
}

// FeedbackSlot buffers one reward report quoting an explicit slot,
// bypassing the client's per-device slot memory — the fleet client's
// path, where the selection may have been answered through another
// peer's connection than the one delivering its reward.
func (c *Client) FeedbackSlot(device uint64, arm int, slot uint64, reward float64) error {
	if err := c.usable(); err != nil {
		return err
	}
	return c.enqueue(FeedbackItem{Device: device, Arm: arm, Slot: slot, Reward: reward})
}

// EnqueueFeedback buffers already-formed reports — the re-delivery path
// for items another peer bounced in a Rejected frame. The slots each item
// carries keep the hand-off at-most-once: if the bouncing peer's client
// also resends the same items through its unconfirmed queue, whichever
// copy loses the race is slot-dropped by the store.
func (c *Client) EnqueueFeedback(items []FeedbackItem) error {
	if err := c.usable(); err != nil {
		return err
	}
	return c.enqueue(items...)
}

// enqueue buffers reports for the wire, shared by the feedback entry
// points, and makes the eager batch-size flush. The flush is best-effort:
// a transport failure just drops the connection and the reports ride
// along on the next operation. An arm id outside the wire's 32-bit field
// is refused up front: no selection could have carried it, and queued it
// would fail every later frame.
func (c *Client) enqueue(items ...FeedbackItem) error {
	for i := range items {
		if !fitsArm(items[i].Arm) {
			return armRange(items[i].Arm)
		}
	}
	c.batch = append(c.batch, items...)
	c.trimFeedback()
	if len(c.batch)+len(c.sent) >= c.opts.feedbackBatch() && c.connected && !c.degraded {
		if err := c.flushFeedback(); err != nil {
			c.dropConn(err)
			if c.permErr != nil {
				return c.permErr
			}
		}
	}
	return nil
}

// Flush writes buffered feedback to the daemon, reconnecting as needed.
// Delivery is confirmed only by the next response barrier (Select or
// Ping); a degraded client keeps the reports queued for the next probe.
func (c *Client) Flush() error {
	if err := c.usable(); err != nil {
		return err
	}
	if len(c.batch) == 0 || c.degraded {
		return nil
	}
	return c.attempt(c.flushFeedback)
}

// Release flushes feedback, then retires the given device sessions (on the
// Fallback store too, when one is configured). A degraded client releases
// only locally: the daemon-side sessions age out through idle eviction.
func (c *Client) Release(devices ...uint64) error {
	if err := c.usable(); err != nil {
		return err
	}
	for _, id := range devices {
		delete(c.slots, id)
		if c.opts.Fallback != nil {
			c.opts.Fallback.Release(id)
		}
	}
	if c.degraded {
		return nil
	}
	return c.attempt(func() error {
		if err := c.queueFeedback(); err != nil {
			return err
		}
		if err := c.w.queue(&wireMsg{tag: tagRelease, devices: devices}); err != nil {
			return err
		}
		return c.w.flush()
	})
}

// Ping flushes feedback and round-trips a keepalive, proving the daemon is
// alive and resetting its idle timer. A successful ping also ends a
// degraded episode.
func (c *Client) Ping() error {
	if err := c.usable(); err != nil {
		return err
	}
	err := c.attempt(func() error {
		if err := c.queueFeedback(); err != nil {
			return err
		}
		c.pingSeq++
		if err := c.w.queue(&wireMsg{tag: tagPing, seq: c.pingSeq}); err != nil {
			return err
		}
		if err := c.w.flush(); err != nil {
			return err
		}
		for {
			resp, err := c.w.recv()
			if err != nil {
				return err
			}
			if resp.tag == tagRejected {
				c.handleRejected(resp)
				continue // bounced feedback; the pong follows
			}
			if resp.tag != tagPong || resp.seq != c.pingSeq {
				return errors.New("unexpected frame awaiting pong")
			}
			c.sent = c.sent[:0] // barrier, as for Select
			return nil
		}
	})
	if err == nil {
		c.degraded = false
	}
	return err
}

// Close makes a best-effort final feedback flush and closes the
// connection. Close is idempotent, including after a permanent failure:
// repeated calls return nil.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var flushErr error
	if c.permErr == nil && c.connected && !c.degraded {
		flushErr = c.flushFeedback()
	}
	var closeErr error
	if c.w != nil {
		closeErr = c.w.conn.Close()
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
