package damulticast

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/membership"
	"damulticast/internal/topic"
	"damulticast/internal/wire"
)

// codecSeedMessages covers every message type the wire carries,
// populated fields included.
func codecSeedMessages() []*core.Message {
	return []*core.Message{
		{
			Type: core.MsgEvent, From: "p1", FromTopic: ".a", Dest: ".a",
			Event: &core.Event{ID: ids.EventID{Origin: "p1", Seq: 7}, Topic: ".a.b", Payload: []byte("payload")},
		},
		{
			Type: core.MsgReqContact, From: "p2", FromTopic: ".a.b",
			Origin: "p2", OriginTopic: ".a.b",
			SearchTopics: []topic.Topic{".a", "."}, TTL: 3, ReqID: 11,
		},
		{Type: core.MsgAnsContact, From: "p3", Dest: ".a.b", Contacts: []ids.ProcessID{"x", "y"}, ContactsTopic: ".a"},
		{Type: core.MsgNewProcessReq, From: "p4"},
		{Type: core.MsgNewProcessAns, From: "p5", Contacts: []ids.ProcessID{"z"}, ContactsTopic: "."},
		{
			Type: core.MsgShuffle, From: "p6",
			Digest:       membership.Digest{Entries: []membership.Entry{{ID: "q", Age: 3}}},
			SuperEntries: []membership.Entry{{ID: "s", Age: 1}},
			SuperTopic:   ".a",
		},
		{Type: core.MsgShuffleReply, From: "p7", Digest: membership.Digest{}},
		{Type: core.MsgPing, From: "p8"},
		{Type: core.MsgPong, From: "p9"},
		{Type: core.MsgLeave, From: "p10", FromTopic: ".a.b"},
		{
			Type: core.MsgDigest, From: "p11", FromTopic: ".a", Dest: ".a", TTL: 1,
			BloomBits: []byte{0xde, 0xad, 0xbe, 0xef}, BloomK: 3, BloomSeed: 0x1234567890abcdef,
		},
		{
			Type: core.MsgDigestAns, From: "p12", FromTopic: ".a",
			Events: []*core.Event{
				{ID: ids.EventID{Origin: "p1", Seq: 7}, Topic: ".a", Payload: []byte("missed")},
				{ID: ids.EventID{Origin: "p2", Seq: 1}, Topic: ".a.b", Payload: nil},
			},
		},
		// Appended last: BenchmarkCodecRoundTrip indexes this list.
		{
			Type: core.MsgEventBatch, From: "p13", FromTopic: ".a.b", Dest: ".a",
			Events: []*core.Event{
				{ID: ids.EventID{Origin: "p13", Seq: 41}, Topic: ".a.b", Payload: []byte("batched-1")},
				{ID: ids.EventID{Origin: "p13", Seq: 42}, Topic: ".a.b", Payload: []byte("batched-2")},
				{ID: ids.EventID{Origin: "p9", Seq: 5}, Topic: ".a.b.c", Payload: nil},
			},
		},
	}
}

// FuzzMessageCodec asserts two properties of the binary codec over
// arbitrary byte input:
//
//  1. wire.DecodeMessage never panics, and rejects malformed frames with an
//     error rather than handing garbage to the protocol;
//  2. any frame it accepts round-trips: re-encoding the decoded
//     message and decoding again yields a deep-equal message
//     (encode∘decode is a fixpoint), so accepted frames carry
//     well-defined protocol state.
//
// Seeds cover valid binary frames of every message type, truncations
// and corruptions of them, legacy JSON frames (which the version byte
// must reject), and structural garbage.
func FuzzMessageCodec(f *testing.F) {
	for _, m := range codecSeedMessages() {
		raw, err := wire.EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])              // truncated mid-message
		f.Add(append(raw[:0:0], raw[1:]...)) // version byte sheared off
		mut := append(raw[:0:0], raw...)
		mut[len(mut)/2] ^= 0xff // flipped bits in the middle
		f.Add(mut)
		jsonRaw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(jsonRaw) // legacy wire format: must be cleanly rejected
	}
	f.Add([]byte("{not json"))
	f.Add([]byte(`{}`))
	f.Add([]byte{wire.Version})
	f.Add([]byte{wire.Version, 0})
	f.Add([]byte{wire.Version, 99, 0, 0, 0})
	f.Add([]byte{0x01, 1, 0, 0, 0})                              // retired version 1
	f.Add([]byte{0x02, 1, 0, 0, 0})                              // retired version 2
	f.Add([]byte{0x03, 1, 0, 0, 0})                              // retired version 3 (id-list digests)
	f.Add([]byte{0x04, 1, 0, 0, 0})                              // retired version 4 (no EVENT_BATCH)
	f.Add([]byte{0x06, 1, 0, 0, 0})                              // future version
	f.Add([]byte{wire.Version, 1, 0xff, 0xff, 0xff, 0xff, 0xff}) // runaway varint
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.DecodeMessage(data)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		if !m.Type.Known() {
			t.Fatalf("decoder accepted unknown type %d", int(m.Type))
		}
		re, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		m2, err := wire.DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("codec not a fixpoint:\n  first:  %+v\n  second: %+v", m, m2)
		}
	})
}

// TestMessageCodecRoundTripAllTypes pins exact round-trip fidelity for
// every populated message type (the fuzz seeds, verified field by
// field rather than only as a fixpoint).
func TestMessageCodecRoundTripAllTypes(t *testing.T) {
	for _, m := range codecSeedMessages() {
		raw, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		got, err := wire.DecodeMessage(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\n  sent: %+v\n  got:  %+v", m.Type, m, got)
		}
	}
}

// TestDecodeMessageRejectsUnknownType: garbage type fields never reach
// the protocol, whether they arrive in legacy JSON frames or in
// binary ones.
func TestDecodeMessageRejectsUnknownType(t *testing.T) {
	for _, frame := range []string{`{}`, `{"Type":0}`, `{"Type":-3}`, `{"Type":999}`} {
		if _, err := wire.DecodeMessage([]byte(frame)); err == nil {
			t.Errorf("frame %s accepted by binary decoder", frame)
		}
	}
	for _, frame := range [][]byte{{wire.Version, 0}, {wire.Version, 99}, {wire.Version, 0xb}} {
		if _, err := wire.DecodeMessage(frame); err == nil {
			t.Errorf("binary frame % x accepted", frame)
		}
	}
}

// TestEncodeDecodePayloadAliasing: decoding allocates fresh buffers, so
// mutating the original payload after encode never leaks through.
func TestEncodeDecodePayloadAliasing(t *testing.T) {
	payload := []byte("immutable?")
	m := &core.Message{
		Type: core.MsgEvent, From: "p",
		Event: &core.Event{ID: ids.EventID{Origin: "p", Seq: 1}, Topic: ".t", Payload: payload},
	}
	raw, err := wire.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	got, err := wire.DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Event.Payload, []byte("immutable?")) {
		t.Errorf("decoded payload aliased the encoder input: %q", got.Event.Payload)
	}
}
