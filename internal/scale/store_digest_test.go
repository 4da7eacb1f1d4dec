package scale

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
