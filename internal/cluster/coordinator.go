package cluster

import (
	"time"

	"smartexp3/internal/sim"
)

// Options configures a coordinator — the one-shot Run and the persistent
// Session alike.
type Options struct {
	// ChunkSize is the number of runs per dispatched range; 0 picks a size
	// that gives every shard several ranges (dynamic load balancing and a
	// small reassignment unit on failure).
	ChunkSize int
	// DialTimeout bounds each worker dial; 0 means 5 seconds.
	DialTimeout time.Duration
	// FrameTimeout bounds how long a worker may go without producing the
	// next protocol frame while one is owed (handshake reply, result, range
	// ack, keepalive pong); 0 means 2 minutes. It is a progress timeout, not
	// a whole-chunk budget: a chunk may take arbitrarily long as long as
	// results keep flowing. A worker that stalls without closing its
	// connection (SIGSTOP, half-open partition) trips it and takes the
	// reassignment path instead of hanging the batch. While nothing is owed
	// — a session idling between batches — no deadline is armed at all, so
	// an idle gap of any length never counts as a stall.
	FrameTimeout time.Duration
	// Keepalive is how often an idle session connection is pinged; 0 means
	// a quarter of the frame timeout. Pings elicit pongs under FrameTimeout,
	// so a silently dead worker is noticed between batches. Pings are
	// suppressed while ranges are in flight (results are the liveness
	// signal there).
	Keepalive time.Duration
	// LocalWorkers bounds the parallelism of in-process execution — the
	// shards-free fallback and the all-workers-dead rescue path; 0 or less
	// means GOMAXPROCS.
	LocalWorkers int
	// Logf, when non-nil, receives shard-failure, reconnect and
	// reassignment lines. Failures are expected operational events (that is
	// what reassignment is for), so they are reported here rather than as
	// errors.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, counts session activity (jobs, chunks,
	// reconnects, dispatch latency) — a NewSessionMetrics set registered
	// on an obsv.Registry. Observation-only: instrumentation never changes
	// a seed, a chunk boundary or a merge order.
	Metrics *SessionMetrics
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o Options) frameTimeout() time.Duration {
	if o.FrameTimeout <= 0 {
		return defaultFrameTimeout
	}
	return o.FrameTimeout
}

func (o Options) keepalive() time.Duration {
	if o.Keepalive > 0 {
		return o.Keepalive
	}
	return o.frameTimeout() / 4
}

// Run executes the job's replications across the given shard addresses and
// folds every result through merge in ascending global run order, from a
// single goroutine. With no shards it runs the whole batch in-process —
// byte-identical to the sharded paths, which is the property the cluster
// tests pin.
//
// Run is the one-shot convenience over Session: it dials, runs the single
// job and tears the session down. Callers with many batches (the experiment
// suite) should hold a Session instead and pay the dial and handshake once.
//
// Worker failure (dial error, handshake refusal, connection loss) is not
// fatal: ranges not yet fully received are reassigned — to the same worker
// after a reconnect, to surviving workers, or in-process when every worker
// is gone. Only two things abort a run: a merge error, and a deterministic
// job error reported by a worker (a spec that cannot compile, a simulation
// failure — both would fail identically everywhere).
func Run(job JobSpec, shards []string, opts Options, merge func(run int, res *sim.Result) error) error {
	if job.Runs <= 0 {
		return nil
	}
	if len(shards) == 0 {
		exec, err := newRangeExec(job, opts.LocalWorkers, nil)
		if err != nil {
			return err
		}
		return exec.run(0, job.Runs, merge)
	}
	s := NewSession(shards, opts)
	defer s.Close()
	return s.Run(job, merge)
}

// chunkSize picks the dispatch granularity: roughly four ranges per shard,
// so the fastest worker can steal work from the slowest and a failure only
// forfeits a fraction of a shard's share.
func chunkSize(requested, runs, shards int) int {
	if requested > 0 {
		return requested
	}
	chunk := runs / (4 * shards)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// chunkResult carries one fully received chunk to its job's merger.
type chunkResult struct {
	idx     int
	results []*sim.Result
}
