// Package fleet scales the serve layer past one process: it partitions
// the device-id space across N served-style peers, routes requests in
// the client, and rebalances with live snapshot handoff — without losing
// a decision.
//
// Routing contract: the unit of placement is a stripe, a contiguous
// range of the routing-key space (serve.RouteKey of the device id — the
// SplitMix64-mixed id, so sequential ids spread uniformly and every
// stripe carries a statistically even share of devices). A Table names
// the peer set and an epoch; each stripe's owner is chosen by rendezvous
// hashing over the peers, so adding or removing one peer moves only the
// stripes it gains or loses. Tables are totally ordered by epoch: every
// redirect and rejection quotes the epoch that moved the device, and a
// client holding a stale table self-heals by refreshing to at least that
// epoch (or by following the redirect's owner address directly).
//
// Epoch contract: a peer serves a device if and only if its installed
// view says so — the check is an atomic pointer load plus two array
// reads, re-read under the store's shard lock on every request
// (serve.SetOwnership), which is what makes migration cuts exact. A
// request refused because ownership moved is answered with
// NotOwner{epoch, owner} (Select) or bounced back whole in a Rejected
// frame (feedback); the selection-slot dedup from the serve layer makes
// the client's replay against the new owner at-most-once even when both
// the bounce path and the unconfirmed-resend path deliver the same item.
//
// Migration contract: a coordinator moves a stripe by draining it on the
// old owner — install a rejecting view (barring writes to the range),
// cut a per-range snapshot (consistent because the view is re-read under
// each shard lock), ship it over the framed-gob/CRC control wire, stage it on
// the new owner — and then committing the bumped table to every peer:
// gaining peers first (restore staged ranges, then own them), draining
// peers second (disown, then drop the moved sessions), bystanders last.
// A coordinator that dies mid-handoff costs nothing: staged state is
// discarded when its connection drops, and a draining peer resolves an
// undecided drain by asking the would-be owner whether it committed —
// if not, the drain aborts and the range stays where it was, every
// session intact.
//
// The acceptance property is the same one every layer below already
// obeys: a workload served by a fleet through rebalances and peer kills
// is decision- and final-snapshot-identical to a single serve.Store run.
package fleet

import (
	"fmt"
	"sort"

	"smartexp3/internal/serve"
)

// PeerInfo names one fleet member: a stable id, the data address its
// serve protocol listens on (what clients dial and redirects quote), and
// the control address its fleet protocol listens on (what coordinators
// and table fetches dial).
type PeerInfo struct {
	ID      string
	Addr    string
	Control string
}

// DefaultStripeBits sizes the partition at 64 stripes — coarse enough
// that a table is a few hundred bytes, fine enough that rebalancing
// across a handful of peers moves load in ~1.6% steps.
const DefaultStripeBits = 6

// maxStripeBits bounds the table size; 16 bits is 65536 stripes, far
// past any sane fleet.
const maxStripeBits = 16

// Table is the versioned partition map: an epoch-numbered peer set plus
// the stripe geometry. Ownership is pure — OwnerOf is a function of
// (Peers, stripe) only — so every process that holds the same table
// routes identically without coordination.
type Table struct {
	Epoch      uint64
	StripeBits uint8
	Peers      []PeerInfo // sorted by ID, unique
}

// NewTable builds a validated epoch-1 bootstrap table over peers.
func NewTable(stripeBits uint8, peers []PeerInfo) (*Table, error) {
	t := &Table{Epoch: 1, StripeBits: stripeBits, Peers: append([]PeerInfo(nil), peers...)}
	sort.Slice(t.Peers, func(i, j int) bool { return t.Peers[i].ID < t.Peers[j].ID })
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate rejects malformed tables loudly — a bad table mis-routes
// every request it touches.
func (t *Table) Validate() error {
	if t.Epoch == 0 {
		return fmt.Errorf("fleet: table epoch 0 (0 is the no-table sentinel)")
	}
	if t.StripeBits < 1 || t.StripeBits > maxStripeBits {
		return fmt.Errorf("fleet: stripe bits %d outside [1, %d]", t.StripeBits, maxStripeBits)
	}
	if len(t.Peers) == 0 {
		return fmt.Errorf("fleet: table has no peers")
	}
	for i, p := range t.Peers {
		if p.ID == "" || p.Addr == "" || p.Control == "" {
			return fmt.Errorf("fleet: peer %d (%q) missing id, data address, or control address", i, p.ID)
		}
		if i > 0 && t.Peers[i-1].ID >= p.ID {
			return fmt.Errorf("fleet: peers not strictly sorted by id at %q", p.ID)
		}
	}
	return nil
}

// Stripes returns the stripe count, 1<<StripeBits.
func (t *Table) Stripes() int { return 1 << t.StripeBits }

// shift is the key-to-stripe shift: stripes cut the HIGH bits of the
// routing key, so each stripe is one contiguous key range (the shape
// SnapshotRange moves), while the store's shard routing uses the low
// bits — the two partitions are independent.
func (t *Table) shift() uint { return 64 - uint(t.StripeBits) }

// StripeOf maps a routing key (serve.RouteKey of a device id) to its
// stripe.
func (t *Table) StripeOf(key uint64) int { return int(key >> t.shift()) }

// StripeRange returns stripe s's key range, inclusive on both ends —
// the [lo, hi] arguments serve.Store.SnapshotRange and RemoveRange take.
func (t *Table) StripeRange(s int) (lo, hi uint64) {
	lo = uint64(s) << t.shift()
	return lo, lo | (^uint64(0) >> t.StripeBits)
}

// OwnerOf returns the index into Peers of stripe s's owner, by highest
// rendezvous score. Ties break to the lower index; scores depend only on
// peer ids and the stripe number, so ownership is a pure function of the
// table and moves minimally when the peer set changes.
func (t *Table) OwnerOf(s int) int {
	best, bestScore := 0, uint64(0)
	sm := mix64(uint64(s) + 1)
	for i := range t.Peers {
		score := mix64(fnv64(t.Peers[i].ID) ^ sm)
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Owner resolves a device id straight to its owning peer.
func (t *Table) Owner(deviceID uint64) PeerInfo {
	return t.Peers[t.OwnerOf(t.StripeOf(serve.RouteKey(deviceID)))]
}

// PeerIndex returns the index of the peer with the given id, or -1.
func (t *Table) PeerIndex(id string) int {
	for i := range t.Peers {
		if t.Peers[i].ID == id {
			return i
		}
	}
	return -1
}

// Clone deep-copies the table so a holder can mutate its copy freely.
func (t *Table) Clone() *Table {
	if t == nil {
		return nil
	}
	return &Table{Epoch: t.Epoch, StripeBits: t.StripeBits, Peers: append([]PeerInfo(nil), t.Peers...)}
}

// mix64 is SplitMix64's output function — the same bit mixer the serve
// layer routes shards with, reused here to score rendezvous candidates.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over the peer id, the string-to-seed half of the
// rendezvous score.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MergeSnapshots folds per-peer range snapshots into one store-shaped
// snapshot: devices concatenated and sorted, Dropped summed. Every input
// must agree on version, algorithm, and seed, and no device may appear
// twice — a duplicate means two peers both claim a session, the exact
// split-brain the epoch protocol exists to prevent, so it is an error
// here rather than a silent overwrite.
func MergeSnapshots(snaps ...*serve.Snapshot) (*serve.Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("fleet: no snapshots to merge")
	}
	out := &serve.Snapshot{
		Version:   snaps[0].Version,
		Algorithm: snaps[0].Algorithm,
		Seed:      snaps[0].Seed,
	}
	for _, sn := range snaps {
		if sn.Version != out.Version || sn.Algorithm != out.Algorithm || sn.Seed != out.Seed {
			return nil, fmt.Errorf("fleet: snapshots disagree on version/algorithm/seed")
		}
		out.Dropped += sn.Dropped
		out.Devices = append(out.Devices, sn.Devices...)
	}
	sort.Slice(out.Devices, func(i, j int) bool { return out.Devices[i].Device < out.Devices[j].Device })
	for i := 1; i < len(out.Devices); i++ {
		if out.Devices[i-1].Device == out.Devices[i].Device {
			return nil, fmt.Errorf("fleet: device %d appears in two snapshots (split ownership)", out.Devices[i].Device)
		}
	}
	return out, nil
}
