// Command mdlogd is the wrapper-serving daemon: it holds a registry of
// compiled wrappers (any of the seven query languages) and serves
// extraction over HTTP — single documents via POST /extract/{name},
// multi-document batches via POST /batch/{name}, wrapper management
// via PUT/GET/DELETE /wrappers/{name}, live document sessions via
// PUT/GET/PATCH/DELETE /documents/{id} with incrementally maintained
// POST /documents/{id}/extractall, and observability via GET /stats
// and GET /metrics. See README.md §mdlogd for the endpoint and config
// reference.
//
//	mdlogd -config mdlogd.json
//	mdlogd -addr :8090 -workers 8 -max-inflight 64
//	mdlogd -data-dir /var/lib/mdlogd              # persistent registry
//	mdlogd -shard-of 2/4 -data-dir ...            # fleet worker
//	mdlogd -front http://w0:8090,http://w1:8090   # fleet front tier
//	mdlogd -engine linear                         # serve on the linear engine (default: bitmap)
//
// Flags override the config file. With -data-dir the registry survives
// restarts (DataDir/wrappers.json, atomic replace-on-write) and SIGHUP
// reloads the snapshot without dropping a request. With -front the
// daemon serves no wrappers itself: it routes documents to the listed
// workers by content hash over a consistent-hash ring (see README.md
// §Running a fleet). The daemon shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight requests within the configured
// grace window.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mdlog/internal/cliflag"
	"mdlog/internal/service"
)

// isFlagSet reports whether the named flag was given explicitly.
func isFlagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// errFlagParse marks a flag error the FlagSet itself already
// reported on stderr; main exits nonzero without repeating it.
var errFlagParse = errors.New("flag parsing failed")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "mdlogd: %v\n", err)
		}
		os.Exit(1)
	}
}

// run parses flags, boots the server from the config (if any), and
// serves until ctx is canceled. Split from main for tests.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mdlogd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configFile  = fs.String("config", "", "JSON config file (addr, workers, limits, boot wrappers)")
		addr        = fs.String("addr", "", "listen address (overrides config; default "+service.DefaultAddr+")")
		workers     = fs.Int("workers", 0, "batch fan-out worker pool size (0: GOMAXPROCS)")
		maxInflight = fs.Int("max-inflight", 0, "admitted extraction requests bound (0: default, <0: unbounded)")
		dataDir     = fs.String("data-dir", "", "persist the wrapper registry under this directory (SIGHUP reloads it)")
		docCache    = fs.Int("doc-cache", 0, "content-hash document dedup cache entries (0: default, <0: disabled)")
		shardOf     = fs.String("shard-of", "", "run as shard i of n (\"i/n\"): reject documents owned by other shards")
		front       = fs.String("front", "", "run as the fleet front tier over these comma-separated worker URLs")
		frontInFl   = fs.Int("front-worker-inflight", 0, "front tier: forwarded requests bound per worker (0: default, <0: unbounded)")
		optArg      = cliflag.OptLevel(fs)
		engineArg   = cliflag.Engine(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return errFlagParse // the FlagSet already printed the error + usage
	}
	optLevel, err := optArg()
	if err != nil {
		return err
	}
	cfg := &service.Config{}
	if *configFile != "" {
		loaded, err := service.LoadConfig(*configFile)
		if err != nil {
			return err
		}
		cfg = loaded
	}
	if *addr != "" {
		cfg.Addr = *addr
	}
	if *workers != 0 {
		cfg.Workers = *workers
	}
	if *maxInflight != 0 {
		cfg.MaxInFlight = *maxInflight
	}
	// The flag wins over the config default; wrapper specs with their
	// own "opt" still override both.
	if isFlagSet(fs, "O") || isFlagSet(fs, "O0") || isFlagSet(fs, "O1") {
		cfg.Opt = optLevel.String()
	}
	// Same precedence for the engine: -engine beats the config's
	// daemon-wide default, per-wrapper "engine" specs beat both.
	if isFlagSet(fs, "engine") {
		engine, err := engineArg()
		if err != nil {
			return err
		}
		cfg.Engine = engine.String()
	}
	if *dataDir != "" {
		cfg.DataDir = *dataDir
	}
	if isFlagSet(fs, "doc-cache") {
		cfg.DocCacheEntries = *docCache
	}
	if *shardOf != "" {
		cfg.ShardOf = *shardOf
	}
	listenAddr := cfg.Addr
	if listenAddr == "" {
		listenAddr = service.DefaultAddr
	}
	if *front != "" {
		f, err := service.NewFront(service.FrontConfig{
			Workers:         splitWorkers(*front),
			WorkerInFlight:  *frontInFl,
			MaxBodyBytes:    cfg.MaxBodyBytes,
			RingReplicas:    cfg.RingReplicas,
			ShutdownGraceMS: cfg.ShutdownGraceMS,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "mdlogd: front tier over %d worker(s) on %s\n", len(f.Workers()), listenAddr)
		return f.ListenAndServe(ctx, listenAddr)
	}
	s, err := service.New(cfg)
	if err != nil {
		return err
	}
	// SIGHUP: zero-downtime reload of the persisted registry snapshot.
	// Without a data dir Reload fails; the daemon logs and keeps serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if err := s.Reload(); err != nil {
				fmt.Fprintf(stderr, "mdlogd: reload: %v\n", err)
			} else {
				fmt.Fprintf(stderr, "mdlogd: reloaded %d wrapper(s) from store\n", s.Registry().Len())
			}
		}
	}()
	fmt.Fprintf(stderr, "mdlogd: serving %d wrapper(s) on %s\n", s.Registry().Len(), listenAddr)
	return s.ListenAndServe(ctx, listenAddr)
}

// splitWorkers parses the -front worker list (comma-separated URLs,
// empty elements dropped).
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}
