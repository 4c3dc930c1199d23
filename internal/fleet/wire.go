package fleet

import "smartexp3/internal/serve"

// The fleet control protocol rides internal/cluster's frame codec (CRC'd
// length-prefixed gob), like the cluster wire; the serve data wire shares
// the framing but carries binary bodies. One
// synchronous caller drives one connection: a coordinator holds one
// control connection per peer for the lifetime of a rebalance, and
// everything staged over a connection dies with it — which is what makes
// a dead coordinator free (see the package doc's migration contract).

// fleetProtocolVersion is bumped whenever the control message set
// changes incompatibly; the handshake refuses mismatches.
const fleetProtocolVersion = 1

// fleetEnvelope is the one-of union every control frame carries.
type fleetEnvelope struct {
	Hello      *fleetHelloMsg
	HelloAck   *fleetHelloAckMsg
	TableGet   *tableGetMsg
	TableRes   *tableResMsg
	Cut        *cutMsg
	State      *stateMsg
	Offer      *offerMsg
	OfferAck   *offerAckMsg
	Commit     *commitMsg
	Abort      *abortMsg
	Checkpoint *checkpointMsg
	Done       *doneMsg
	Ping       *fleetPingMsg
	Pong       *fleetPongMsg
}

// fleetHelloMsg opens a control session. From is informational (log
// lines and diagnostics), not authenticated — like the serve and shardd
// wires, the control plane trusts its network.
type fleetHelloMsg struct {
	Version int
	From    string
}

// fleetHelloAckMsg accepts or rejects the session, naming the answering
// peer and the epoch of its installed table (0 when it has none).
type fleetHelloAckMsg struct {
	Version int
	ID      string
	Epoch   uint64
	Err     string
}

// tableGetMsg asks for the peer's installed table. It doubles as the
// drain resolver's commit probe: a gaining peer that committed answers
// with the new epoch.
type tableGetMsg struct{}

// tableResMsg answers a tableGetMsg; Table is nil when the peer has
// none.
type tableResMsg struct {
	Table *Table
}

// cutMsg tells the old owner to drain one stripe: bar writes to
// [Lo, Hi], cut a consistent range snapshot, and redirect the stripe's
// traffic to To (data address) quoting NewEpoch until the migration
// commits or aborts. ToControl is where the drain resolver asks about
// the gaining peer's fate if the coordinator dies before deciding.
type cutMsg struct {
	Stripe    int
	Lo, Hi    uint64
	To        string
	ToControl string
	NewEpoch  uint64
}

// stateMsg answers a cutMsg with the drained range's snapshot. A
// non-empty Err refuses the cut (stripe not owned, bad range) without
// poisoning the session.
type stateMsg struct {
	Stripe int
	Snap   *serve.Snapshot
	Err    string
}

// offerMsg stages one drained stripe on its new owner. The state is NOT
// applied yet: it is held against this connection and restored only by a
// commitMsg, or discarded by an abortMsg or the connection closing.
type offerMsg struct {
	Stripe   int
	Lo, Hi   uint64
	NewEpoch uint64
	Snap     *serve.Snapshot
}

// offerAckMsg confirms a stage. A non-empty Err refuses it.
type offerAckMsg struct {
	Stripe int
	Err    string
}

// commitMsg finishes the rebalance on one peer: restore every stripe
// staged on this connection, install Table, and drop every range this
// connection drained. The coordinator sends it gaining-first,
// draining-second, bystanders-last, so at every instant each device has
// at most one owner.
type commitMsg struct {
	Table *Table
}

// abortMsg cancels the rebalance on one peer: staged state is discarded
// and drains are lifted, the stripes staying with their old owners.
type abortMsg struct{}

// checkpointMsg asks the peer to save its store snapshot to its
// configured snapshot path — the operator's pre-kill flush, and the
// smoke test's way of making a SIGKILL lossless.
type checkpointMsg struct{}

// doneMsg acknowledges a commit, abort, or checkpoint; Err reports
// failure without closing the session.
type doneMsg struct {
	Err string
}

// fleetPingMsg keeps an idle control connection alive under the frame
// timeout.
type fleetPingMsg struct {
	Seq uint64
}

// fleetPongMsg answers a ping.
type fleetPongMsg struct {
	Seq uint64
}
