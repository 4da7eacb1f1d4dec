package damulticast

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/wire"
)

// TestDecoderMatchesDecodeMessage: the pooled decoder reproduces every
// seed message deep-equal for every wire type, and DecodeMessage —
// the same decoder plus a deep copy — does too.
func TestDecoderMatchesDecodeMessage(t *testing.T) {
	dec := wire.NewDecoder()
	for _, m := range codecSeedMessages() {
		frame, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("%s: Decoder.Decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: pooled decode mismatch:\n  seed:   %+v\n  pooled: %+v", m.Type, m, got)
		}
		copied, err := wire.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%s: DecodeMessage: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, copied) {
			t.Errorf("%s: DecodeMessage mismatch:\n  seed:   %+v\n  copied: %+v", m.Type, m, copied)
		}
	}
}

// TestDecoderRejectsWhatDecodeMessageRejects: truncations, retired
// versions and trailing garbage fail identically on the pooled path.
func TestDecoderRejectsWhatDecodeMessageRejects(t *testing.T) {
	dec := wire.NewDecoder()
	frame, err := wire.EncodeMessage(codecSeedMessages()[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := dec.Decode(frame[:cut]); err == nil {
			t.Fatalf("pooled decoder accepted truncation to %d of %d bytes", cut, len(frame))
		}
	}
	for _, version := range []byte{0x01, 0x02, 0x03, 0x04, 0x06, '{'} {
		bad := append([]byte{}, frame...)
		bad[0] = version
		if _, err := dec.Decode(bad); err == nil {
			t.Errorf("pooled decoder accepted version byte %#x", version)
		}
	}
	if _, err := dec.Decode(append(append([]byte{}, frame...), 0)); err == nil {
		t.Error("pooled decoder accepted trailing garbage")
	}
	// And after all that rejection, a valid frame still decodes.
	if _, err := dec.Decode(frame); err != nil {
		t.Fatalf("valid frame after rejections: %v", err)
	}
}

// TestDecoderScratchContract pins the documented lifetime rules: each
// Decode reuses the same Message, and byte fields alias the frame
// buffer instead of copying.
func TestDecoderScratchContract(t *testing.T) {
	dec := wire.NewDecoder()
	frameA, _ := wire.EncodeMessage(&core.Message{
		Type: core.MsgEvent, From: "a", FromTopic: ".t", Dest: ".t",
		Event: &core.Event{ID: ids.EventID{Origin: "a", Seq: 1}, Topic: ".t", Payload: []byte("AAAA")},
	})
	frameB, _ := wire.EncodeMessage(&core.Message{Type: core.MsgPing, From: "b", FromTopic: ".t", Dest: ".t"})

	m1, err := dec.Decode(frameA)
	if err != nil {
		t.Fatal(err)
	}
	payload := m1.Event.Payload
	// The payload aliases the frame: corrupting the frame shows through
	// (which is why the frame must stay untouched while the message is
	// live, and why the receive path owns its buffers).
	off := bytes.Index(frameA, []byte("AAAA"))
	if off < 0 {
		t.Fatal("payload bytes not found in frame")
	}
	frameA[off] = 'X'
	if string(payload) != "XAAA" {
		t.Errorf("payload = %q: pooled decode copied instead of aliasing", payload)
	}
	m2, err := dec.Decode(frameB)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("Decode returned a fresh message: scratch is not being reused")
	}
	if m2.Event != nil || m2.Type != core.MsgPing {
		t.Errorf("second decode = %+v: scratch from the first leaked through", m2)
	}
}

// batchFrame encodes an n-event EVENT_BATCH frame with distinct
// payloads, the steady-state unit of live batched traffic.
func batchFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	evs := make([]*core.Event, n)
	for i := range evs {
		evs[i] = &core.Event{
			ID:      ids.EventID{Origin: "publisher", Seq: uint64(i + 1)},
			Topic:   ".bench",
			Payload: []byte(fmt.Sprintf("batch-payload-%03d-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", i)),
		}
	}
	frame, err := wire.EncodeMessage(&core.Message{
		Type: core.MsgEventBatch, From: "publisher", FromTopic: ".bench", Dest: ".bench", Events: evs,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestDecodePooledAllocs is the decode-side allocation regression gate
// (the receive twin of TestEncodeOnceFanoutAllocs): once the decoder's
// scratch and intern table are warm, decoding a live frame — single
// event or a 16-event batch — costs at most 1 allocation; the
// retainable copy DecodeMessage makes costs 3 on the single-event
// frame.
func TestDecodePooledAllocs(t *testing.T) {
	dec := wire.NewDecoder()
	single, err := wire.EncodeMessage(codecBenchMessage())
	if err != nil {
		t.Fatal(err)
	}
	batch := batchFrame(t, 16)
	for _, frame := range [][]byte{single, batch} { // warm scratch + interns
		if _, err := dec.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}
	for name, frame := range map[string][]byte{"single": single, "batch16": batch} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := dec.Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("pooled decode of %s frame: %.1f allocs, want <= 1", name, allocs)
		}
		t.Logf("pooled decode of %s frame: %.1f allocs", name, allocs)
	}
}

// TestPeekDest: the routing prefix peek agrees with the full decode on
// type and dest for every wire type, rejects what the decoder rejects
// at the prefix, and never allocates.
func TestPeekDest(t *testing.T) {
	for _, m := range codecSeedMessages() {
		frame, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		typ, dest, err := wire.PeekDest(frame)
		if err != nil {
			t.Fatalf("%s: PeekDest: %v", m.Type, err)
		}
		if typ != m.Type || string(dest) != string(m.Dest) {
			t.Errorf("%s: PeekDest = (%v, %q), want (%v, %q)", m.Type, typ, dest, m.Type, m.Dest)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{},
		[]byte("garbage"),
		[]byte(`{"Type":1}`),
		{0x04, 1, 0},         // retired version
		{wire.Version},       // truncated before the type
		{wire.Version, 0},    // unknown type
		{wire.Version, 1, 9}, // dest length past the end
	} {
		if _, _, err := wire.PeekDest(bad); err == nil {
			t.Errorf("PeekDest accepted % x", bad)
		}
	}
	frame, _ := wire.EncodeMessage(codecBenchMessage())
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := wire.PeekDest(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("PeekDest allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkCodecDecodePooled is the steady-state receive path: one
// pooled decoder, one live event frame, zero expected allocations.
func BenchmarkCodecDecodePooled(b *testing.B) {
	frame, err := wire.EncodeMessage(codecBenchMessage())
	if err != nil {
		b.Fatal(err)
	}
	dec := wire.NewDecoder()
	if _, err := dec.Decode(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeBatch16 decodes a 16-event batch frame with the
// pooled decoder — the per-event cost is ~1/16th of a frame's.
func BenchmarkCodecDecodeBatch16(b *testing.B) {
	frame := batchFrame(b, 16)
	dec := wire.NewDecoder()
	if _, err := dec.Decode(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
