package damulticast

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/wire"
)

// nullTransport swallows frames: the encode-side microscope. Send does
// nothing, so any allocation measured through it belongs to the
// serialization path alone.
type nullTransport struct{ addr string }

func (t *nullTransport) Addr() string                    { return t.addr }
func (t *nullTransport) Send(string, []byte) error       { return nil }
func (t *nullTransport) SetHandler(func(payload []byte)) {}
func (t *nullTransport) Close() error                    { return nil }

// fanoutFixture builds a subscription over a null transport plus a
// representative event message and target list. The hub is stopped
// before it is returned: the send path needs no loop, and a quiet hub
// keeps allocation counts exact.
func fanoutFixture(t testing.TB, targets int) (*subEnv, []ids.ProcessID, *core.Message) {
	t.Helper()
	h, err := NewHub(&nullTransport{addr: "null"})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := h.Join(context.Background(), ".bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	tgts := make([]ids.ProcessID, targets)
	for i := range tgts {
		tgts[i] = ids.ProcessID(strings.Repeat("t", 8) + string(rune('a'+i)))
	}
	m := &core.Message{
		Type: core.MsgEvent, From: "publisher", FromTopic: ".bench",
		Event: &core.Event{
			ID:      ids.EventID{Origin: "publisher", Seq: 42},
			Topic:   ".bench",
			Payload: []byte("benchmark-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
		},
	}
	return (*subEnv)(sub), tgts, m
}

// TestEncodeOnceFanoutAllocs is the allocation regression gate for the
// encode-once fan-out: broadcasting one event to 8 targets must cost
// at most 1 allocation on the encode side (pooled buffers amortize to
// zero), and at least 5x fewer than the per-target JSON path it
// replaced.
func TestEncodeOnceFanoutAllocs(t *testing.T) {
	env, targets, m := fanoutFixture(t, 8)

	env.SendBatch(targets, m) // warm the buffer pool
	binAllocs := testing.AllocsPerRun(200, func() {
		env.SendBatch(targets, m)
	})
	if binAllocs > 1 {
		t.Errorf("encode-once fan-out to %d targets: %.1f allocs, want <= 1", len(targets), binAllocs)
	}

	// The replaced path: one JSON encoding per target.
	jsonAllocs := testing.AllocsPerRun(200, func() {
		for range targets {
			if _, err := json.Marshal(m); err != nil {
				t.Fatal(err)
			}
		}
	})
	if floor := max(binAllocs, 1); jsonAllocs < 5*floor {
		t.Errorf("JSON fan-out = %.1f allocs vs binary %.1f: less than the 5x win the codec exists for", jsonAllocs, binAllocs)
	}
	t.Logf("fan-out to %d targets: binary %.1f allocs, per-target JSON %.1f allocs", len(targets), binAllocs, jsonAllocs)
}

// TestSingleSendAllocs: the non-batched send path also runs on pooled
// buffers.
func TestSingleSendAllocs(t *testing.T) {
	env, targets, m := fanoutFixture(t, 1)
	env.Send(targets[0], m)
	if allocs := testing.AllocsPerRun(200, func() { env.Send(targets[0], m) }); allocs > 1 {
		t.Errorf("single send: %.1f allocs, want <= 1", allocs)
	}
}

// TestBinaryRejectsJSONFrame / TestJSONRejectsBinaryFrame pin the
// compatibility policy: the version byte cleanly separates the binary
// codec from the legacy JSON encoding (format version 0, json.Marshal
// of the message), so the two can never silently misparse each other.
func TestBinaryRejectsJSONFrame(t *testing.T) {
	for _, m := range codecSeedMessages() {
		frame, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeMessage(frame); err == nil {
			t.Errorf("%s: binary decoder accepted a JSON frame", m.Type)
		}
	}
}

func TestJSONRejectsBinaryFrame(t *testing.T) {
	for _, m := range codecSeedMessages() {
		frame, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		// The leading version byte can never open a JSON document.
		var got core.Message
		if err := json.Unmarshal(frame, &got); err == nil {
			t.Errorf("%s: JSON decoder accepted a binary frame", m.Type)
		}
	}
}

// TestDecodeTruncatedFrames: every proper prefix of a valid frame must
// be rejected, never panic, never decode.
func TestDecodeTruncatedFrames(t *testing.T) {
	for _, m := range codecSeedMessages() {
		frame, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := wire.DecodeMessage(frame[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes accepted", m.Type, cut, len(frame))
			}
		}
	}
}

// TestDecodeTrailingGarbage: extra bytes after a complete message are
// rejected (frames are exact).
func TestDecodeTrailingGarbage(t *testing.T) {
	frame, err := wire.EncodeMessage(&core.Message{Type: core.MsgPing, From: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeMessage(append(frame, 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestDecodeOversizedCounts: a corrupt frame claiming more elements or
// string bytes than it carries must be rejected before any giant
// allocation happens.
func TestDecodeOversizedCounts(t *testing.T) {
	// version, type=MsgReqContact, empty Dest/From/FromTopic, no
	// event, empty Origin/OriginTopic, then a search-topic count of
	// 2^40.
	frame := []byte{wire.Version, byte(core.MsgReqContact), 0, 0, 0, 0, 0, 0,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // uvarint(1<<40)
	if _, err := wire.DecodeMessage(frame); err == nil {
		t.Error("absurd element count accepted")
	}
	// A string field (the dest demux) claiming 100 bytes in a tiny
	// frame.
	frame = []byte{wire.Version, byte(core.MsgPing), 100, 'x', 'y', 'z'}
	if _, err := wire.DecodeMessage(frame); err == nil {
		t.Error("oversized string length accepted")
	}
}

// TestDecodeBadVersionAndType: other versions (the retired versions
// 1-4 as well as future ones) and unknown types are refused outright.
func TestDecodeBadVersionAndType(t *testing.T) {
	good, err := wire.EncodeMessage(&core.Message{Type: core.MsgPong, From: "p"})
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{0x01, 0x02, 0x03, 0x04, 0x06} {
		bad := append([]byte{}, good...)
		bad[0] = version
		if _, err := wire.DecodeMessage(bad); err == nil {
			t.Errorf("version byte %#x accepted", version)
		}
	}
	for _, typ := range []uint64{0, 13, 15, 99} {
		frame := append([]byte{wire.Version, byte(typ)}, good[2:]...)
		if _, err := wire.DecodeMessage(frame); err == nil {
			t.Errorf("unknown type %d accepted", typ)
		}
	}
}

// TestDecodeRejectsRetiredVersionFrames pins the cross-version policy:
// retired layouts under any message type must be rejected by the
// version byte alone — peers from different generations can never
// silently misparse each other. A v4 frame is byte-identical to the
// v5 frame apart from the version byte (v5 only added the EVENT_BATCH
// type); a v3 frame is the v4 frame with the
// three zero bytes of the empty bloom digest collapsed to the one
// zero-count byte of the id-list digest it replaced; a v2 frame is the
// v3 frame minus the dest demux field (one zero byte after the type,
// for the topic-less seed messages); a v1 frame additionally lacks the
// two trailing zero-count recovery fields.
func TestDecodeRejectsRetiredVersionFrames(t *testing.T) {
	for _, m := range codecSeedMessages() {
		if m.Dest != "" || m.BloomBits != nil || len(m.Events) > 0 {
			continue // only zero-dest empty-tail frames shrink to the old layouts
		}
		frame, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		v4 := append([]byte{}, frame...)
		v4[0] = 0x04
		if _, err := wire.DecodeMessage(v4); err == nil {
			t.Errorf("%s: version-4 frame accepted", m.Type)
		}
		// The frame tail is superTopic(0) bloom(0,0,0) events(0); the
		// v3 tail was superTopic(0) digestIDs(0) events(0) — two fewer
		// zero bytes.
		v3 := append([]byte{}, frame[:len(frame)-2]...)
		v3[0] = 0x03
		if _, err := wire.DecodeMessage(v3); err == nil {
			t.Errorf("%s: version-3 frame accepted", m.Type)
		}
		v2 := append([]byte{}, v3[:2]...) // version + 1-byte type
		v2 = append(v2, v3[3:]...)        // skip the empty dest
		v2[0] = 0x02
		if _, err := wire.DecodeMessage(v2); err == nil {
			t.Errorf("%s: version-2 frame accepted", m.Type)
		}
		v1 := append([]byte{}, v2[:len(v2)-2]...)
		v1[0] = 0x01
		if _, err := wire.DecodeMessage(v1); err == nil {
			t.Errorf("%s: version-1 frame accepted", m.Type)
		}
	}
}

// --- Codec microbenchmarks -------------------------------------------

func codecBenchMessage() *core.Message {
	return &core.Message{
		Type: core.MsgEvent, From: "proc-17", FromTopic: ".news.sports",
		Event: &core.Event{
			ID:      ids.EventID{Origin: "proc-17", Seq: 123456},
			Topic:   ".news.sports.football",
			Payload: []byte("benchmark-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
		},
	}
}

func BenchmarkCodecEncode(b *testing.B) {
	m := codecBenchMessage()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendMessage(buf[:0], m)
	}
	_ = buf
}

func BenchmarkCodecDecode(b *testing.B) {
	frame, err := wire.EncodeMessage(codecBenchMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeMessage(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecFanout8 measures a full 8-target event broadcast on
// the encode-once path.
func BenchmarkCodecFanout8(b *testing.B) {
	env, targets, m := fanoutFixture(b, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.SendBatch(targets, m)
	}
}

// BenchmarkCodecRoundTrip covers the full wire cycle for a topic-table
// shuffle — the heaviest control message.
func BenchmarkCodecRoundTrip(b *testing.B) {
	m := codecSeedMessages()[5] // MsgShuffle with digest + super entries
	if m.Type != core.MsgShuffle {
		b.Fatalf("seed order changed: %s", m.Type)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendMessage(buf[:0], m)
		if _, err := wire.DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}
