package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"smartexp3/internal/cluster"
)

// ServerOptions tunes the transport, not the decisions.
type ServerOptions struct {
	// FrameTimeout bounds both waiting for a client frame and writing a
	// response. A client must send something (a ping suffices) within it,
	// and a stalled reader cannot park a connection goroutine past it.
	// Zero means 2 minutes, mirroring the cluster layer; negative
	// disables deadlines (tests with synchronous pipes).
	FrameTimeout time.Duration
	// Metrics, when set, counts accepted connections and per-frame wire
	// traffic (a NewServerMetrics set registered on an obsv.Registry).
	// Nil disables connection-level instrumentation entirely.
	Metrics *ServerMetrics
}

// Server answers the serve wire protocol against one Store. One goroutine
// serves each connection; all decision state lives in the Store, so
// connections share devices safely (though one device should normally stay
// with one client).
type Server struct {
	store *Store
	opts  ServerOptions
	conns cluster.Acceptor
}

// NewServer wraps store in a wire front end.
func NewServer(store *Store, opts ServerOptions) *Server {
	return &Server{store: store, opts: opts}
}

// Serve accepts connections until the listener closes, then waits for the
// in-flight connection goroutines it spawned to drain. It always returns a
// non-nil error; after Close/listener close that error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error { return s.conns.Serve(ln, s.serveConn) }

// Close tears down every live connection. Pair it with closing the
// listener; Serve's drain then returns promptly instead of waiting out
// frame timeouts.
func (s *Server) Close() { s.conns.Close() }

// serveConn runs one connection's request loop: handshake, then frames
// until the peer closes, errors, or goes silent past the frame timeout.
func (s *Server) serveConn(conn net.Conn) error {
	w := newWireConn(conn, cluster.FrameTimeout(s.opts.FrameTimeout), s.store.cfg.MaxArms)
	if m := s.opts.Metrics; m != nil {
		m.Connections.Inc()
		m.Active.Add(1)
		defer m.Active.Add(-1)
		w.Instrument(m.FramesRead, m.BytesRead, m.FramesWritten, m.BytesWritten)
	}

	hello, err := w.recv()
	if err != nil {
		return err
	}
	if hello.tag != tagHello {
		return fmt.Errorf("serve: first frame is not a hello")
	}
	if v := hello.version; v != serveProtocolVersion {
		_ = w.send(&wireMsg{
			tag:     tagHelloAck,
			version: serveProtocolVersion,
			err:     fmt.Sprintf("protocol version %d, want %d", v, serveProtocolVersion),
		})
		return fmt.Errorf("serve: client speaks protocol %d, want %d", v, serveProtocolVersion)
	}
	if err := w.send(&wireMsg{
		tag:       tagHelloAck,
		version:   serveProtocolVersion,
		algorithm: s.store.cfg.Algorithm.String(),
	}); err != nil {
		return err
	}

	var rejects []FeedbackItem // retained across batches; rejections are the cold migration path
	for {
		req, err := w.recv()
		if err != nil {
			var lim *armLimitError
			if errors.As(err, &lim) { // a bad request, answered like any other
				if err := w.send(&wireMsg{tag: tagSelectErr, seq: req.seq, err: lim.Error()}); err != nil {
					return err
				}
				continue
			}
			if errors.Is(err, io.EOF) {
				return nil // clean close between frames
			}
			return err
		}
		switch req.tag {
		case tagSelect:
			arm, slot, err := s.store.Select(req.device, req.arms)
			resp := wireMsg{tag: tagSelected, seq: req.seq, arm: arm, slot: slot}
			if err != nil {
				resp = selectRejection(req.seq, err)
			}
			if err := w.send(&resp); err != nil {
				return err
			}
		case tagFeedback:
			var epoch uint64
			_, rejects, epoch = s.store.ApplyBatchOwned(req.items, rejects)
			if len(rejects) > 0 {
				if err := w.send(&wireMsg{tag: tagRejected, epoch: epoch, items: rejects}); err != nil {
					return err
				}
			}
		case tagRelease:
			for _, id := range req.devices {
				s.store.Release(id)
			}
		case tagPing:
			if err := w.send(&wireMsg{tag: tagPong, seq: req.seq}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("serve: unexpected %v frame from client", req.tag)
		}
	}
}

// selectRejection is the reply to a select the store refused: a redirect
// when another fleet peer owns the device, otherwise a request error.
func selectRejection(seq uint64, err error) wireMsg {
	var no *NotOwnerError
	if errors.As(err, &no) {
		return wireMsg{tag: tagNotOwner, seq: seq, epoch: no.Epoch, owner: no.Owner}
	}
	return wireMsg{tag: tagSelectErr, seq: seq, err: err.Error()}
}
