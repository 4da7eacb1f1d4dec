package wire

import (
	"fmt"
	"reflect"
	"testing"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/membership"
	"damulticast/internal/topic"
)

// aliasSeedMessages covers every field kind the decoder reads from a
// frame: strings, topic and contact lists, membership entries, the
// single-event payload, bloom bits, and event lists.
func aliasSeedMessages() []*core.Message {
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
		{
			Type: core.MsgShuffle, From: "p6",
			Digest:       membership.Digest{Entries: []membership.Entry{{ID: "q", Age: 3}}},
			SuperEntries: []membership.Entry{{ID: "s", Age: 1}},
			SuperTopic:   ".a",
		},
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
		{
			Type: core.MsgEventBatch, From: "p13", FromTopic: ".a.b", Dest: ".a",
			Events: []*core.Event{
				{ID: ids.EventID{Origin: "p13", Seq: 41}, Topic: ".a.b", Payload: []byte("batched-1")},
				{ID: ids.EventID{Origin: "p13", Seq: 42}, Topic: ".a.b", Payload: []byte("batched-2")},
			},
		},
	}
}

// TestDecodeMessageDoesNotAliasFrame pins DecodeMessage's contract
// that its result may be retained indefinitely: once decoded, the
// message owns all its bytes, so overwriting every byte of the frame
// leaves it deep-equal to a decode of a pristine copy. Nor does it
// alias decoder scratch: two decodes share no slice or event memory.
func TestDecodeMessageDoesNotAliasFrame(t *testing.T) {
	for _, m := range aliasSeedMessages() {
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		pristine := append([]byte(nil), frame...)
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		for i := range frame {
			frame[i] = ^frame[i]
		}
		want, err := DecodeMessage(pristine)
		if err != nil {
			t.Fatalf("%s: decode of pristine copy: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded message changed with its frame:\n  got:  %+v\n  want: %+v", m.Type, got, want)
		}
		if shared := sharedMemory("Message", reflect.ValueOf(got), reflect.ValueOf(want)); len(shared) > 0 {
			t.Errorf("%s: two decodes share memory at %v", m.Type, shared)
		}
	}
}

// sharedMemory lists the paths at which a and b hold the same non-nil
// pointer or the same non-empty slice backing array. Strings are not
// compared: interned strings are shared by design.
func sharedMemory(path string, a, b reflect.Value) []string {
	var out []string
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return nil
		}
		if a.Pointer() == b.Pointer() {
			return []string{path}
		}
		return sharedMemory(path, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() == 0 || b.Len() == 0 {
			return nil
		}
		if a.Pointer() == b.Pointer() {
			return []string{path}
		}
		for i := 0; i < min(a.Len(), b.Len()); i++ {
			out = append(out, sharedMemory(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))...)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			out = append(out, sharedMemory(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
	}
	return out
}
