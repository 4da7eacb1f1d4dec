package scale

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/topic"
)

// storeDigest hashes a store's view and super arrays.
func storeDigest(st *Store) string {
	h := sha256.New()
	var b [4]byte
	for _, arr := range [][]uint32{st.view, st.super} {
		for _, v := range arr {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStoreContentsPinned pins the populated membership arrays on three
// topologies × three seeds, so a change to how tables are filled (a
// faster duplicate check, say) must leave them byte-identical. The tiny
// topology's near-full views take fillDistinct's fallback scan; the
// 20k one has groups wider than the duplicate filter's 1024 bits.
func TestStoreContentsPinned(t *testing.T) {
	chain, err := topic.Chain(2, "t")
	if err != nil {
		t.Fatal(err)
	}
	tiny := []GroupSpec{{Topic: topic.Root, Size: 2}, {Topic: chain[0], Size: 5}, {Topic: chain[1], Size: 9}}
	cases := []struct {
		name   string
		groups []GroupSpec
		seed   int64
		want   string
	}{
		{"tiny", tiny, 1, "64f03e239dd8833b"},
		{"tiny", tiny, 7, "96788e51b08688f5"},
		{"tiny", tiny, 42, "942887a3690db297"},
		{"1k", testConfig(1000, 1).Groups, 1, "447cdd540878a4b3"},
		{"1k", testConfig(1000, 1).Groups, 7, "4894fd1862f9ecfe"},
		{"1k", testConfig(1000, 1).Groups, 42, "f767e8eef4b7659d"},
		{"20k", testConfig(20_000, 1).Groups, 1, "7248ca76c360ca59"},
		{"20k", testConfig(20_000, 1).Groups, 7, "7f6cf0e61deeb128"},
		{"20k", testConfig(20_000, 1).Groups, 42, "8a686a227b601fd8"},
	}
	for _, tc := range cases {
		st, err := NewStore(tc.groups, core.DefaultParams(), tc.seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := storeDigest(st); got != tc.want {
			t.Errorf("%s seed %d: store digest %s, want %s", tc.name, tc.seed, got, tc.want)
		}
	}
}

// resultDigest hashes a run's Result and its registry CSV. Map fields
// are written in sorted key order and floats in exact hex, so the
// digest moves only when a value does.
func resultDigest(res *Result, csv string) string {
	h := sha256.New()
	topics := make([]string, 0, len(res.Reliability))
	for tp := range res.Reliability {
		topics = append(topics, string(tp))
	}
	sort.Strings(topics)
	for _, tp := range topics {
		fmt.Fprintf(h, "rel %s %x\n", tp, res.Reliability[topic.Topic(tp)])
	}
	kinds := make([]string, 0, len(res.KindTotals))
	for k := range res.KindTotals {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "kind %s %d\n", k, res.KindTotals[k])
	}
	fmt.Fprintf(h, "events %d rounds %d state %d\n", res.TotalEvents, res.Rounds, res.StateBytes)
	h.Write([]byte(csv))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestKernelResultPinned pins Kernel.Run's Result and registry CSV on
// the store test's three topologies and a one-member publish group ×
// three seeds, lossless and at the paper's psucc 0.85, so a rewrite of the round loop (how sends are
// counted, how quiescence is detected, how the sink flushes) must leave
// every reliability, counter and round count byte-identical.
func TestKernelResultPinned(t *testing.T) {
	chain, err := topic.Chain(2, "t")
	if err != nil {
		t.Fatal(err)
	}
	tiny := []GroupSpec{{Topic: topic.Root, Size: 2}, {Topic: chain[0], Size: 5}, {Topic: chain[1], Size: 9}}
	// A one-member publish group has no view: its publisher only sends
	// up, so whether a publication gets past round 0 rests on the
	// inter-group sends alone.
	lone := []GroupSpec{{Topic: topic.Root, Size: 4}, {Topic: chain[0], Size: 6}, {Topic: chain[1], Size: 1}}
	cases := []struct {
		name   string
		groups []GroupSpec
		seed   int64
		psucc  float64
		want   string
	}{
		{"tiny", tiny, 1, 1, "38aca167c80f608e"},
		{"tiny", tiny, 1, 0.85, "715592ffd0ba2f6b"},
		{"tiny", tiny, 7, 1, "48173530b6ac4ae5"},
		{"tiny", tiny, 7, 0.85, "c433f25308b5280a"},
		{"tiny", tiny, 42, 1, "dd860aa63eb28d80"},
		{"tiny", tiny, 42, 0.85, "bc1fe7d570fc8177"},
		{"1k", testConfig(1000, 1).Groups, 1, 1, "33d1e56d0e5fdab7"},
		{"1k", testConfig(1000, 1).Groups, 1, 0.85, "48b895fd05894695"},
		{"1k", testConfig(1000, 1).Groups, 7, 1, "d7738677704c055b"},
		{"1k", testConfig(1000, 1).Groups, 7, 0.85, "c2194b4ceca17b42"},
		{"1k", testConfig(1000, 1).Groups, 42, 1, "da64ed95aaf64db2"},
		{"1k", testConfig(1000, 1).Groups, 42, 0.85, "329e9131d7b83200"},
		{"20k", testConfig(20_000, 1).Groups, 1, 1, "efbbf656773d0177"},
		{"20k", testConfig(20_000, 1).Groups, 1, 0.85, "986187ea87534c6a"},
		{"20k", testConfig(20_000, 1).Groups, 7, 1, "9a2c80f72e61a30f"},
		{"20k", testConfig(20_000, 1).Groups, 7, 0.85, "482f54943a644774"},
		{"20k", testConfig(20_000, 1).Groups, 42, 1, "a3a89e39f1b9dcaa"},
		{"20k", testConfig(20_000, 1).Groups, 42, 0.85, "27fcd2da77b04fc2"},
		{"lone", lone, 1, 1, "f98708e39e758bc9"},
		{"lone", lone, 1, 0.85, "ddf0939f6be12c3d"},
		{"lone", lone, 7, 1, "0636203b42289c17"},
		{"lone", lone, 7, 0.85, "4acc6f7b4203d811"},
		{"lone", lone, 42, 1, "bf2ae0497bedc908"},
		{"lone", lone, 42, 0.85, "bf2ae0497bedc908"},
	}
	for _, tc := range cases {
		k, err := New(Config{
			Groups:       tc.groups,
			Params:       core.DefaultParams(),
			PSucc:        tc.psucc,
			PublishTopic: chain[1],
			Publications: 3,
			MaxRounds:    200,
			Seed:         tc.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res, k.Registry().CSV()); got != tc.want {
			t.Errorf("%s seed %d psucc %g: result digest %s, want %s", tc.name, tc.seed, tc.psucc, got, tc.want)
		}
	}
}
