// Command damcd runs a live daMulticast hub over TCP: one listen
// socket multiplexing any number of topic subscriptions. It prints
// every delivered event to stdout and publishes each line read from
// stdin as an event of its first topic.
//
// Usage:
//
//	damcd -listen :7001 -topic .news
//	damcd -listen :7002 -topics .news,.market.nyse -seeds 127.0.0.1:7001
//	damcd -listen :7003 -topic .news.sports \
//	      -super-topic .news -super 127.0.0.1:7001 \
//	      -peers 127.0.0.1:7004,127.0.0.1:7005
//
// A small cluster can be assembled by hand: start the supergroup
// first, then point subgroup nodes at it with -super (or let them find
// it via -seeds and the FIND_SUPER_CONTACT search). With -topics the
// hub joins every listed topic over the same socket; -peers and
// -super/-super-topic apply to the first topic, -seeds to all of them.
//
// With -metricsaddr the hub's counters are served in the Prometheus
// text format:
//
//	damcd -listen :7001 -topic .news -metricsaddr 127.0.0.1:9100
//	curl http://127.0.0.1:9100/metrics
//
// Soak mode stands up a whole in-process cluster instead of one hub
// and drives it through a seeded fault schedule (a crash wave, a flash
// crowd, a partition, a loss burst), grading delivery against an SLO:
//
//	damcd -soak 24 -soakseed 7 -soaksteps 14 -soakslo 0.99
//
// The exit status reports whether the SLO was met; the same seed
// always replays the same schedule.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"damulticast"
	"damulticast/internal/chaos"
	"damulticast/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "damcd:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("damcd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address (also the hub id)")
	tp := fs.String("topic", "", "topic of interest, e.g. .news.sports")
	topics := fs.String("topics", "", "comma-separated topics to join over the one socket (first is the publish topic)")
	peers := fs.String("peers", "", "comma-separated group-mate addresses (first topic)")
	super := fs.String("super", "", "comma-separated supergroup addresses (first topic)")
	superTopic := fs.String("super-topic", "", "topic of the -super contacts")
	seeds := fs.String("seeds", "", "comma-separated bootstrap seed addresses (all topics)")
	tick := fs.Duration("tick", 250*time.Millisecond, "protocol tick interval")
	once := fs.Bool("once", false, "exit after stdin is exhausted (for scripting)")
	metricsAddr := fs.String("metricsaddr", "", "serve Prometheus metrics on this address at /metrics (empty disables)")
	soak := fs.Int("soak", 0, "soak mode: stand up this many in-process hubs under a seeded fault schedule (0 = off)")
	soakSeed := fs.Int64("soakseed", 1, "soak mode: schedule and protocol seed (same seed = same run)")
	soakSteps := fs.Int("soaksteps", 14, "soak mode: schedule length in steps")
	soakSLO := fs.Float64("soakslo", 0.99, "soak mode: delivery SLO over surviving subscribers in [0, 1]")
	params := damulticast.DefaultParams()
	fs.Float64Var(&params.C, "c", params.C, "gossip fanout constant c (fanout = ln S + c)")
	fs.Float64Var(&params.G, "g", params.G, "self-election numerator g (pSel = g/S)")
	fs.Float64Var(&params.A, "a", params.A, "upward-send numerator a (pA = a/z)")
	fs.IntVar(&params.Z, "z", params.Z, "supertopic table size z")
	fs.IntVar(&params.RecoverPeriod, "recover", params.RecoverPeriod,
		"anti-entropy recovery wave period in ticks (0 disables recovery)")
	fs.IntVar(&params.RecoverFanout, "recover-fanout", params.RecoverFanout,
		"group mates contacted per recovery wave")
	fs.IntVar(&params.RecoverStoreCap, "recover-store", params.RecoverStoreCap,
		"recovery event-store capacity (events)")
	fs.IntVar(&params.RecoverMaxAge, "recover-age", params.RecoverMaxAge,
		"recovery store age bound in ticks")
	fs.IntVar(&params.RecoverDigestBits, "recover-bits", params.RecoverDigestBits,
		"bloom digest size in bits per stored event (higher = fewer false positives, bigger digests)")
	fs.IntVar(&params.CrossRecoverPeriod, "recover-cross", params.CrossRecoverPeriod,
		"cross-group recovery wave period in ticks: digests also climb/descend the topic hierarchy (0 disables)")
	fs.IntVar(&params.CrossRecoverFanout, "recover-cross-fanout", params.CrossRecoverFanout,
		"contacts per direction contacted per cross-group recovery wave")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *soak > 0 {
		return runSoak(stdout, *soak, *soakSeed, *soakSteps, *soakSLO)
	}
	joinTopics := splitList(*topics)
	if *tp != "" {
		joinTopics = append([]string{*tp}, joinTopics...)
	}
	if len(joinTopics) == 0 {
		return fmt.Errorf("-topic or -topics is required")
	}

	tr, err := damulticast.NewTCPTransport(*listen)
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Registered before the hub's Stop so it runs after it (defers are
	// LIFO): Stop closes every Events channel, which ends the printer
	// goroutines this waits for.
	var printers sync.WaitGroup
	defer printers.Wait()

	hub, err := damulticast.NewHub(tr,
		damulticast.WithParams(params),
		damulticast.WithTickInterval(*tick),
		damulticast.WithContext(ctx),
	)
	if err != nil {
		_ = tr.Close()
		return err
	}
	defer func() { _ = hub.Stop() }()

	// The first topic gets the explicit contacts; every topic gets the
	// bootstrap seeds.
	var subs []*damulticast.Subscription
	for i, topicStr := range joinTopics {
		opts := []damulticast.JoinOption{damulticast.WithSeeds(splitList(*seeds)...)}
		if i == 0 {
			if p := splitList(*peers); len(p) > 0 {
				opts = append(opts, damulticast.WithGroupContacts(p...))
			}
			if s := splitList(*super); len(s) > 0 {
				opts = append(opts, damulticast.WithSuperContacts(*superTopic, s...))
			}
		}
		sub, err := hub.Join(ctx, topicStr, opts...)
		if err != nil {
			return fmt.Errorf("join %s: %w", topicStr, err)
		}
		subs = append(subs, sub)
		fmt.Fprintf(stdout, "damcd: hub %s subscribed to %s\n", hub.ID(), sub.Topic())
	}

	// Optional Prometheus endpoint.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = hub.WriteMetrics(w)
		})
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() { _ = srv.ListenAndServe() }()
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(stdout, "damcd: metrics on http://%s/metrics\n", *metricsAddr)
	}

	// Delivery printers, one per subscription.
	for _, sub := range subs {
		printers.Add(1)
		go func(sub *damulticast.Subscription) {
			defer printers.Done()
			for ev := range sub.Events() {
				fmt.Fprintf(stdout, "[%s] %s: %s\n", ev.Topic, ev.ID, ev.Payload)
			}
		}(sub)
	}

	// Publish stdin lines on the first topic.
	pub := subs[0]
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return nil
		case line, ok := <-lines:
			if !ok {
				if *once {
					// Give in-flight gossip a moment before exiting.
					time.Sleep(2 * *tick)
					return nil
				}
				<-ctx.Done()
				return nil
			}
			if line == "" {
				continue
			}
			id, err := pub.Publish(ctx, []byte(line))
			if err != nil {
				return fmt.Errorf("publish: %w", err)
			}
			fmt.Fprintf(stdout, "published %s\n", id)
		}
	}
}

// runSoak drives an in-process chaos soak: n hubs on loopback TCP,
// three topics, and the seeded fault schedule. The tick is pinned fast
// (the soak is a stress run, not an interactive daemon) so a default
// 14-step schedule finishes in a few seconds.
func runSoak(w io.Writer, n int, seed int64, steps int, slo float64) error {
	cfg := chaos.Config{
		Endpoints: n,
		Topics:    []string{".t0", ".t1", ".t2"},
		Seed:      seed,
		Tick:      15 * time.Millisecond,
		Recovery:  true,
		Schedule:  scenario.GenSchedule(seed, steps),
		SLO:       slo,
	}
	fmt.Fprintf(w, "damcd soak: %d endpoints, seed %d, %d faults scheduled, SLO %.2f\n",
		n, seed, len(cfg.Schedule), slo)
	start := time.Now()
	rep, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  faults applied:  %v\n", rep.FaultCounts)
	for _, t := range cfg.Topics {
		fmt.Fprintf(w, "  %-8s published %d, delivered %.4f of surviving subscribers\n",
			t, rep.Published[t], rep.PerTopic[t])
	}
	fmt.Fprintf(w, "  recovered:       %d events via anti-entropy (%d pushes digest-suppressed)\n",
		rep.Final.Recovered, rep.Final.Suppressed)
	fmt.Fprintf(w, "  injected drops:  %d partition, %d loss\n",
		rep.Final.PartitionDrops, rep.Final.LossDrops)
	fmt.Fprintf(w, "  alive at end:    %d of %d\n", rep.AliveEndpoints, n)
	fmt.Fprintf(w, "  reliability:     %.4f (wall time %s)\n",
		rep.Reliability, time.Since(start).Round(time.Millisecond))
	if !rep.MetSLO {
		return fmt.Errorf("soak: reliability %.4f below SLO %.2f", rep.Reliability, slo)
	}
	fmt.Fprintln(w, "  SLO met")
	return nil
}
