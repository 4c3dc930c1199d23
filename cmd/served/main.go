// Command served is the bandit-as-a-service decision daemon: it holds one
// Smart EXP3 policy per device session and answers Select / Feedback over
// the framed binary wire (internal/serve), so fleets of clients outsource
// their per-slot network choice to a process that survives them.
//
// State is per-device and seeded per-device (rngutil.ChildSeed of -seed and
// the device id), so the daemon's decisions are a deterministic function of
// its flags and the request history. With -snapshot set, the daemon
// restores that state at boot, persists it on SIGTERM/SIGINT before
// exiting, and (with -snapshot-every) checkpoints it periodically — a
// restart resumes every device's learned weights bit for bit.
//
// With -evict-idle set, a background sweep retires device sessions that
// have gone quiet — clients that vanished without Release — bounding the
// daemon's memory by its active fleet rather than its lifetime. Eviction
// does not bend determinism: an evicted device that comes back re-joins
// from its per-device root seed, exactly like a device the client released.
// -evict-every tunes the sweep cadence (default: a quarter of -evict-idle).
//
// With -debug-addr set, the daemon serves its instrumentation on a second,
// private listener: Prometheus text on /metrics, a JSON snapshot on /varz,
// and the pprof profiles on /debug/pprof/. Metrics are observation-only —
// the decisions served are bit-identical with or without the flag — and the
// hot path stays allocation-free with them enabled. -metrics-log-every adds
// a periodic structured log line of counter deltas for fleets that scrape
// logs rather than endpoints.
//
// Usage:
//
//	served                                  # listen on 127.0.0.1:9632
//	served -listen 0.0.0.0:9632 -alg smart  # serve Smart EXP3 to the network
//	served -snapshot /var/lib/served.snap -snapshot-every 5m
//	served -evict-idle 1h -evict-every 10m  # retire sessions idle > 1 hour
//	served -debug-addr 127.0.0.1:9633       # /metrics, /varz, /debug/pprof/
//	served -metrics-log-every 1m            # periodic metrics delta log line
//
// The protocol is unauthenticated and unencrypted (CRC-framed binary over TCP):
// run served only on networks where every peer is trusted, exactly like
// shardd.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smartexp3/internal/core"
	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

// algorithmsByName mirrors cmd/simulate's flag vocabulary, restricted to
// the EXP3 family whose policy state the serve layer can snapshot.
var algorithmsByName = map[string]core.Algorithm{
	"exp3":    core.AlgEXP3,
	"block":   core.AlgBlockEXP3,
	"hybrid":  core.AlgHybridBlockEXP3,
	"smartnr": core.AlgSmartEXP3NoReset,
	"smart":   core.AlgSmartEXP3,
}

func run(args []string) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:9632", "address to accept client connections on")
		algName  = fs.String("alg", "smart", "policy to serve: exp3|block|hybrid|smartnr|smart")
		seed     = fs.Int64("seed", 1, "root seed; device d draws from ChildSeed(seed, d)")
		shards   = fs.Int("state-shards", 0, "device-map shard count (default: 4×GOMAXPROCS, rounded to a power of two)")
		maxArms  = fs.Int("max-arms", 0, "per-request arm-set bound (default 1024)")
		snapshot = fs.String("snapshot", "", "state file: restored at boot if present, written on SIGTERM/SIGINT")
		every    = fs.Duration("snapshot-every", 0, "also checkpoint the state file at this interval (requires -snapshot)")
		evict    = fs.Duration("evict-idle", 0, "retire device sessions idle longer than this (0 disables; evicted devices re-join from their seed)")
		sweepEvy = fs.Duration("evict-every", 0, "idle-eviction sweep interval (default evict-idle/4, requires -evict-idle)")
		debug    = fs.String("debug-addr", "", "serve /metrics, /varz and /debug/pprof/ on this address (empty disables)")
		logEvery = fs.Duration("metrics-log-every", 0, "emit a structured metrics-delta log line at this interval (0 disables)")
		quiet    = fs.Bool("quiet", false, "suppress log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	alg, ok := algorithmsByName[*algName]
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want exp3|block|hybrid|smartnr|smart)", *algName)
	}
	if *every > 0 && *snapshot == "" {
		return fmt.Errorf("-snapshot-every requires -snapshot")
	}
	if *sweepEvy > 0 && *evict <= 0 {
		return fmt.Errorf("-evict-every requires -evict-idle")
	}
	if *evict > 0 && *sweepEvy <= 0 {
		if *sweepEvy = *evict / 4; *sweepEvy <= 0 {
			*sweepEvy = *evict
		}
	}

	store, err := serve.NewStore(serve.Config{
		Algorithm:  alg,
		Seed:       *seed,
		Shards:     *shards,
		MaxArms:    *maxArms,
		EvictAfter: *evict,
	})
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "served: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *snapshot != "" {
		switch err := store.LoadFile(*snapshot); {
		case err == nil:
			logf("restored %d device sessions from %s", store.Devices(), *snapshot)
		case errors.Is(err, os.ErrNotExist):
			logf("no snapshot at %s, starting fresh", *snapshot)
		default:
			return err
		}
	}

	// Instrumentation is built only when something will consume it: the
	// debug listener, the periodic delta log, or both share one registry.
	var reg *obsv.Registry
	srvOpts := serve.ServerOptions{}
	if *debug != "" || *logEvery > 0 {
		reg = obsv.NewRegistry()
		store.Instrument(reg)
		srvOpts.Metrics = serve.NewServerMetrics(reg)
	}
	if *debug != "" {
		ds, err := obsv.ListenAndServe(*debug, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		logf("debug endpoints on http://%s/ (/metrics, /varz, /debug/pprof/)", ds.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := serve.NewServer(store, srvOpts)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	// shutdown is closed before the listener, so the Serve error path below
	// can tell an orderly signal exit from a transport failure without a
	// race.
	shutdown := make(chan struct{})
	if *logEvery > 0 {
		dl := obsv.NewDeltaLogger(reg, slog.New(slog.NewTextHandler(os.Stderr, nil)))
		go dl.Run(*logEvery, shutdown)
	}
	go func() {
		var tick <-chan time.Time
		if *every > 0 {
			t := time.NewTicker(*every)
			defer t.Stop()
			tick = t.C
		}
		var sweep <-chan time.Time
		if *evict > 0 {
			t := time.NewTicker(*sweepEvy)
			defer t.Stop()
			sweep = t.C
		}
		for {
			select {
			case sig := <-sigCh:
				// Returning here also stops the eviction sweeper, so the final
				// snapshot in main sees a store no sweep is mutating: devices
				// active at the moment of the signal are flushed, not raced.
				logf("caught %v, flushing state", sig)
				close(shutdown)
				ln.Close()  // stop accepting; Serve returns
				srv.Close() // tear down live connections; Serve's drain finishes
				return
			case <-tick:
				if err := store.SaveFile(*snapshot); err != nil {
					logf("checkpoint failed: %v", err)
				} else {
					logf("checkpointed %d device sessions to %s", store.Devices(), *snapshot)
				}
			case <-sweep:
				if n := store.EvictIdle(); n > 0 {
					logf("evicted %d device sessions idle longer than %v", n, *evict)
				}
			}
		}
	}()

	logf("serving %v on %s", alg, ln.Addr())
	serveErr := srv.Serve(ln)
	select {
	case <-shutdown: // orderly exit: the listener close is ours, flush state
		if *snapshot != "" {
			if err := store.SaveFile(*snapshot); err != nil {
				return err
			}
			logf("flushed %d device sessions to %s", store.Devices(), *snapshot)
		}
		return nil
	default:
		return serveErr
	}
}
