// Package wire is the binary codec for protocol frames, format
// version 5.
//
// Every frame starts with a version byte (0x05) followed by the
// message type as an unsigned varint, the destination-group demux
// topic, and the envelope fields in a fixed order:
//
//	frame    := version(1 byte) type(uvarint) dest body
//	body     := from fromTopic event origin originTopic searchTopics
//	            ttl reqID contacts contactsTopic digest superEntries
//	            superTopic bloom events
//	dest, from, fromTopic, origin, originTopic,
//	contactsTopic, superTopic              := string
//	event    := 0x00 | 0x01 eventBody
//	eventBody:= string(origin) uvarint(seq) string(topic)
//	            bytes(payload)
//	searchTopics, contacts                 := uvarint(count) string*
//	ttl      := varint (zigzag)
//	reqID    := uvarint
//	digest   := string(from) entries
//	superEntries, entries                  := uvarint(count)
//	            (string(id) varint(age))*
//	bloom    := bytes(filter) uvarint(k) uvarint(seed)
//	events   := uvarint(count) eventBody*
//	string   := uvarint(len) raw bytes
//	bytes    := uvarint(len) raw bytes
//
// Unset fields cost one zero byte each, which keeps the encoder
// branch-free enough to skip per-type layouts entirely. The decoder is
// strict: it bounds-checks every read, rejects unknown versions and
// message types, rejects element counts that cannot fit the remaining
// bytes, and rejects frames with trailing garbage — a peer speaking
// garbage must never reach the protocol state machine.
//
// The dest field sits right after the type: it is the demultiplex key
// multi-topic endpoints route on (see core.Registry), cheap to peek at
// without parsing the body (PeekDest), so it leads the frame ahead of
// the bulkier envelope fields.
//
// Version 5 introduces the EVENT_BATCH message type: the events list
// that v4 reserved for recovery answers now also carries live
// event-batch frames (N events for one destination group in one
// frame). The field layout is unchanged from v4; the version bump
// exists because a v4 peer would reject the new type id, and the
// policy is that decoders never partially understand a generation.
//
// Compatibility policy: the version byte is the whole negotiation.
// Version 5 frames begin with 0x05; version-4 frames (same layout,
// without the EVENT_BATCH type) began with 0x04, version-3 frames
// (whose recovery digest was an explicit event-id list where v4 grew a
// bloom filter) began with 0x03, version-2 frames (which lacked the
// dest demux field) began with 0x02, version-1 frames (which also
// lacked the recovery tail) began with 0x01, and all are rejected
// outright, as are the legacy JSON codec's frames, which begin with
// '{' (0x7b) — see the cross-decode tests. Any incompatible layout
// change must bump Version, and decoders only ever accept versions
// they were built to understand.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/membership"
	"damulticast/internal/topic"
)

// Version is the wire format version byte leading every frame.
const Version = 0x05

// ErrCodec is the base error wrapped by all decode failures.
var ErrCodec = errors.New("damulticast: decode")

// AppendMessage appends the binary encoding of m to dst and returns
// the extended slice. Encoding cannot fail: every representable
// Message has a valid frame.
func AppendMessage(dst []byte, m *core.Message) []byte {
	dst = append(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(m.Type))
	dst = appendWireString(dst, string(m.Dest))
	dst = appendWireString(dst, string(m.From))
	dst = appendWireString(dst, string(m.FromTopic))
	if ev := m.Event; ev != nil {
		dst = append(dst, 1)
		dst = appendEventBody(dst, ev)
	} else {
		dst = append(dst, 0)
	}
	dst = appendWireString(dst, string(m.Origin))
	dst = appendWireString(dst, string(m.OriginTopic))
	dst = binary.AppendUvarint(dst, uint64(len(m.SearchTopics)))
	for _, t := range m.SearchTopics {
		dst = appendWireString(dst, string(t))
	}
	dst = binary.AppendVarint(dst, int64(m.TTL))
	dst = binary.AppendUvarint(dst, m.ReqID)
	dst = binary.AppendUvarint(dst, uint64(len(m.Contacts)))
	for _, id := range m.Contacts {
		dst = appendWireString(dst, string(id))
	}
	dst = appendWireString(dst, string(m.ContactsTopic))
	dst = appendWireString(dst, string(m.Digest.From))
	dst = appendEntries(dst, m.Digest.Entries)
	dst = appendEntries(dst, m.SuperEntries)
	dst = appendWireString(dst, string(m.SuperTopic))
	dst = binary.AppendUvarint(dst, uint64(len(m.BloomBits)))
	dst = append(dst, m.BloomBits...)
	dst = binary.AppendUvarint(dst, uint64(m.BloomK))
	dst = binary.AppendUvarint(dst, m.BloomSeed)
	dst = binary.AppendUvarint(dst, uint64(len(m.Events)))
	for _, ev := range m.Events {
		dst = appendEventBody(dst, ev)
	}
	return dst
}

// appendEventBody appends one event's wire form (origin, seq, topic,
// payload) — shared by the single-event field, the live event-batch
// list and the recovery bulk list.
func appendEventBody(dst []byte, ev *core.Event) []byte {
	dst = appendWireString(dst, string(ev.ID.Origin))
	dst = binary.AppendUvarint(dst, ev.ID.Seq)
	dst = appendWireString(dst, string(ev.Topic))
	dst = binary.AppendUvarint(dst, uint64(len(ev.Payload)))
	return append(dst, ev.Payload...)
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendEntries(dst []byte, entries []membership.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = appendWireString(dst, string(e.ID))
		dst = binary.AppendVarint(dst, int64(e.Age))
	}
	return dst
}

// EncodeMessage serializes a protocol message into a fresh frame.
// Hot paths use AppendMessage with pooled buffers instead; this entry
// point serves tests and one-shot callers.
func EncodeMessage(m *core.Message) ([]byte, error) {
	return AppendMessage(nil, m), nil
}

// decoder is a strict cursor over one frame. The first failed read
// latches err; subsequent reads return zero values, so parse code
// reads straight through and checks once at the end. It decodes into
// its Decoder's reusable buffers: strings go through the intern table,
// byte fields alias the frame, and slices reuse the Decoder's backing
// arrays — see Decoder for the resulting lifetime contract.
type decoder struct {
	buf []byte
	off int
	err error
	dec *Decoder
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated frame at byte %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and rejects values that cannot fit in
// the remaining bytes (minBytes per element), so corrupt frames cannot
// induce giant allocations.
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/minBytes) {
		d.fail("count %d exceeds remaining %d bytes", v, d.remaining())
		return 0
	}
	return int(v)
}

// raw reads a length-prefixed run of bytes — the wire form of both
// string and bytes — as a capacity-capped subslice of the frame.
func (d *decoder) raw() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) str() string { return d.dec.intern(d.raw()) }

// bytes reads a length-prefixed byte field as a subslice of the frame
// itself — Decoder's lifetime contract. Zero length decodes as nil.
func (d *decoder) bytes() []byte {
	if b := d.raw(); len(b) > 0 {
		return b
	}
	return nil
}

// prefix reads and validates the routing prefix every frame starts
// with — version byte, message type and destination-group demux topic —
// returning the dest as a subslice of the frame.
func (d *decoder) prefix() (core.MsgType, []byte) {
	if v := d.byte(); d.err == nil && v != Version {
		d.err = fmt.Errorf("%w: unsupported wire version %d (want %d)", ErrCodec, v, Version)
	}
	t := core.MsgType(d.uvarint())
	if d.err == nil && !t.Known() {
		d.err = fmt.Errorf("%w: unknown message type %d", ErrCodec, int(t))
	}
	return t, d.raw()
}

// eventBodyInto reads one event's wire form (see appendEventBody) into
// a caller-provided struct.
func (d *decoder) eventBodyInto(ev *core.Event) {
	ev.ID.Origin = ids.ProcessID(d.str())
	ev.ID.Seq = d.uvarint()
	ev.Topic = topic.Topic(d.str())
	ev.Payload = d.bytes()
}

func (d *decoder) entries(scratch *[]membership.Entry) []membership.Entry {
	n := d.count(2) // id length byte + age byte minimum
	if d.err != nil || n == 0 {
		return nil
	}
	if cap(*scratch) < n {
		*scratch = make([]membership.Entry, n)
	}
	out := (*scratch)[:n]
	for i := range out {
		out[i].ID = ids.ProcessID(d.str())
		out[i].Age = int(d.varint())
	}
	return out
}

// message parses one whole frame into m.
func (d *decoder) message(m *core.Message) error {
	t, dest := d.prefix()
	if d.err != nil {
		return d.err
	}
	m.Type = t
	m.Dest = topic.Topic(d.dec.intern(dest))
	m.From = ids.ProcessID(d.str())
	m.FromTopic = topic.Topic(d.str())
	switch flag := d.byte(); {
	case d.err != nil:
	case flag == 1:
		d.dec.ev = core.Event{}
		m.Event = &d.dec.ev
		d.eventBodyInto(m.Event)
	case flag != 0:
		d.fail("bad event flag %d", flag)
	}
	m.Origin = ids.ProcessID(d.str())
	m.OriginTopic = topic.Topic(d.str())
	if n := d.count(1); d.err == nil && n > 0 {
		m.SearchTopics = d.dec.topicSlots(n)
		for i := range m.SearchTopics {
			m.SearchTopics[i] = topic.Topic(d.str())
		}
	}
	m.TTL = int(d.varint())
	m.ReqID = d.uvarint()
	if n := d.count(1); d.err == nil && n > 0 {
		m.Contacts = d.dec.contactSlots(n)
		for i := range m.Contacts {
			m.Contacts[i] = ids.ProcessID(d.str())
		}
	}
	m.ContactsTopic = topic.Topic(d.str())
	m.Digest.From = ids.ProcessID(d.str())
	m.Digest.Entries = d.entries(&d.dec.dEntries)
	m.SuperEntries = d.entries(&d.dec.sEntries)
	m.SuperTopic = topic.Topic(d.str())
	m.BloomBits = d.bytes()
	m.BloomK = int(d.uvarint())
	m.BloomSeed = d.uvarint()
	if n := d.count(4); d.err == nil && n > 0 { // origin+topic+payload length bytes + seq byte
		evs, ptrs := d.dec.eventSlots(n)
		for i := range evs {
			d.eventBodyInto(&evs[i])
			ptrs[i] = &evs[i]
		}
		m.Events = ptrs
	}
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after message", ErrCodec, d.remaining())
	}
	return nil
}

// DecodeMessage parses a binary frame produced by AppendMessage into
// freshly allocated structures (nothing aliases the frame; the result
// may be retained indefinitely). Frames with an unknown version byte
// (including retired versions and legacy JSON frames, which start with
// '{'), an unknown message type, truncated or oversized fields, or
// trailing bytes are rejected. It decodes with a pooled Decoder and
// deep-copies the result out of the Decoder's scratch and the frame;
// steady-state receive paths own a Decoder and skip the copy.
func DecodeMessage(payload []byte) (*core.Message, error) {
	dec := decoderPool.Get().(*Decoder)
	m := new(core.Message)
	err := dec.decodeInto(payload, m)
	if err == nil {
		detach(m)
	}
	decoderPool.Put(dec)
	if err != nil {
		return nil, err
	}
	return m, nil
}

var decoderPool = sync.Pool{New: func() any { return NewDecoder() }}

// detach replaces every field of m that a Decoder owns with a copy:
// the event payloads and bloom bits (which alias the frame) and every
// slice and event struct (which reuse the Decoder's scratch). Strings
// are interned heap strings and are kept as they are.
func detach(m *core.Message) {
	m.Event = m.Event.Clone()
	m.SearchTopics = slices.Clone(m.SearchTopics)
	m.Contacts = slices.Clone(m.Contacts)
	m.Digest.Entries = slices.Clone(m.Digest.Entries)
	m.SuperEntries = slices.Clone(m.SuperEntries)
	m.BloomBits = bytes.Clone(m.BloomBits)
	if m.Events != nil {
		evs := make([]*core.Event, len(m.Events))
		for i, ev := range m.Events {
			evs[i] = ev.Clone()
		}
		m.Events = evs
	}
}

// maxInternedStrings bounds the Decoder's string intern table; a peer
// cycling through unbounded distinct ids or topics costs a table reset,
// not unbounded memory.
const maxInternedStrings = 4096

// Decoder is a reusable frame decoder for a single receive loop: all
// decode scratch — the Message, event structs, slice backing arrays —
// is owned by the Decoder and reused across calls, and strings are
// interned in a bounded table, so steady-state decoding of live
// traffic performs zero allocations per frame.
//
// The contract is strict in exchange:
//
//   - The returned Message and everything reachable from it (events,
//     slices) is valid only until the next Decode call. Callers that
//     retain events past the handling of one frame must Clone them
//     first (the hub does, for processes whose recovery store retains
//     events).
//   - Byte fields (event payloads, bloom filter bits) alias the frame
//     itself, so the frame buffer must stay untouched while the decoded
//     message is in use, and the caller must own it (both bundled
//     transports hand the receive callback a fresh buffer per frame).
//   - Interned strings are ordinary heap strings; retaining them (ids
//     in membership views, seen-set keys) is safe and is exactly what
//     the interning exists for.
//
// A Decoder is not safe for concurrent use; one goroutine owns it.
type Decoder struct {
	msg      core.Message
	ev       core.Event
	events   []core.Event
	evPtrs   []*core.Event
	topics   []topic.Topic
	contacts []ids.ProcessID
	dEntries []membership.Entry
	sEntries []membership.Entry
	strings  map[string]string
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder {
	return &Decoder{strings: make(map[string]string, 64)}
}

// Decode parses one frame into the Decoder's reusable scratch. See the
// type comment for the lifetime contract; errors match DecodeMessage's.
func (dec *Decoder) Decode(frame []byte) (*core.Message, error) {
	dec.msg = core.Message{}
	if err := dec.decodeInto(frame, &dec.msg); err != nil {
		return nil, err
	}
	return &dec.msg, nil
}

// decodeInto parses one frame into the zero Message m, with the
// Decoder's scratch behind every slice and event.
func (dec *Decoder) decodeInto(frame []byte, m *core.Message) error {
	d := decoder{buf: frame, dec: dec}
	return d.message(m)
}

// intern maps raw string bytes to a stable heap string, allocating only
// on first sight (the map lookup on []byte-to-string conversion does
// not allocate). The table is reset when it reaches its bound.
func (dec *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := dec.strings[string(b)]; ok {
		return s
	}
	if len(dec.strings) >= maxInternedStrings {
		clear(dec.strings)
	}
	s := string(b)
	dec.strings[s] = s
	return s
}

func (dec *Decoder) topicSlots(n int) []topic.Topic {
	if cap(dec.topics) < n {
		dec.topics = make([]topic.Topic, n)
	}
	return dec.topics[:n]
}

func (dec *Decoder) contactSlots(n int) []ids.ProcessID {
	if cap(dec.contacts) < n {
		dec.contacts = make([]ids.ProcessID, n)
	}
	return dec.contacts[:n]
}

// eventSlots returns n zeroable event structs and a parallel pointer
// slice. The structs are sized up front so taking their addresses is
// stable (no append-regrowth after pointers are handed out).
func (dec *Decoder) eventSlots(n int) ([]core.Event, []*core.Event) {
	if cap(dec.events) < n {
		dec.events = make([]core.Event, n)
	}
	if cap(dec.evPtrs) < n {
		dec.evPtrs = make([]*core.Event, n)
	}
	return dec.events[:n], dec.evPtrs[:n]
}

// PeekDest reads a frame's routing prefix — version byte, message type
// and destination-group demux topic — without touching the body. The
// returned dest subslices the frame (no allocation); an empty dest is
// returned as an empty slice. Receive loops use it to fan frames into
// per-subscription queues before paying for a full decode, and to
// reject frames of foreign wire generations (version byte) or unknown
// type at the door. A valid prefix does not imply a valid body; the
// full decode still validates everything it reads.
func PeekDest(frame []byte) (core.MsgType, []byte, error) {
	d := decoder{buf: frame}
	t, dest := d.prefix()
	if d.err != nil {
		return 0, nil, d.err
	}
	return t, dest, nil
}
