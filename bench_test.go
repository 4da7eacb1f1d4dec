// Benchmarks of the live runtime, plus one simulated workload beyond
// the paper's setting. The paper's evaluation itself comes from
// `damcsim -fig` and `damcanalysis -table`; README.md's "The paper's
// evaluation" table maps each figure and table to its command and to
// what pins it.
package damulticast_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"damulticast"
	"damulticast/internal/sim"
	"damulticast/internal/workload"
)

// BenchmarkRandomWorkload runs generated (non-paper) topologies:
// random trees with Zipf-skewed populations, publishing at the deepest
// topic. Guards the protocol's behaviour beyond the fixed §VII-A
// setting.
func BenchmarkRandomWorkload(b *testing.B) {
	params := damulticast.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	var rel, parasites float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		h, err := workload.RandomTree(rng, workload.TreeSpec{Depth: 3, MaxBranch: 2})
		if err != nil {
			b.Fatal(err)
		}
		sizes, err := workload.ZipfSizes(rng, h, 1500, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := workload.Config(h, sizes, params, 0.85, 0.8, sim.FailStillborn, seed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rel += res.Reliability[cfg.PublishTopic]
		parasites += float64(res.Parasites)
	}
	b.ReportMetric(rel/float64(b.N), "publish-group-delivery")
	b.ReportMetric(parasites/float64(b.N), "parasites")
}

// --- Live runtime microbenches ----------------------------------------

func BenchmarkLivePublish(b *testing.B) {
	net := damulticast.NewMemNetwork()
	params := damulticast.DefaultParams()
	params.ShufflePeriod = 0
	params.MaintainPeriod = 0
	ctx := context.Background()
	mk := func(id string, contacts []string) *damulticast.Subscription {
		hub, err := damulticast.NewHub(net.NewTransport(id),
			damulticast.WithParams(params),
			damulticast.WithTickInterval(time.Hour), // no background ticks during bench
		)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = hub.Stop() })
		sub, err := hub.Join(ctx, ".bench", damulticast.WithGroupContacts(contacts...))
		if err != nil {
			b.Fatal(err)
		}
		return sub
	}
	pub := mk("pub", []string{"sub"})
	mk("sub", []string{"pub"})

	payload := []byte("benchmark-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Publish(ctx, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageCodec(b *testing.B) {
	// Exercised indirectly by every live send; measured here so codec
	// regressions show up in isolation. Uses the public wire format
	// via a private hook in the package test below (kept here as a
	// publish round for black-box measurement).
	net := damulticast.NewMemNetwork()
	ctx := context.Background()
	hub, err := damulticast.NewHub(net.NewTransport("codec"),
		damulticast.WithTickInterval(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = hub.Stop() }()
	sub, err := hub.Join(ctx, ".x")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sub.Publish(ctx, []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}
