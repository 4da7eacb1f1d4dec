package main

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"damulticast"
	"damulticast/internal/wire"
)

// tap wraps a hub's Transport. Untraced it only counts: PeekDest plus
// two atomic adds per outbound frame, and the receive handler is
// passed through untouched. Traced (tr != nil) it also times every
// Send and every handler call (Hub.onRaw), matches a frame's arrival
// to its send by destination and frame hash, and notes which events a
// frame carried so the receiving side can time ingest → deliver.
type tap struct {
	inner damulticast.Transport
	ep    int
	tr    *tracer

	eventFrames   atomic.Int64
	controlFrames atomic.Int64
	bytesSent     atomic.Int64
	sendErrors    atomic.Int64

	// Traced state. Sends come from the hub's loop goroutine and
	// handler calls from the transport's delivery goroutines; each side
	// has its own lock so they never wait on each other.
	sendMu   sync.Mutex
	sendCall hist
	recvMu   sync.Mutex
	dec      *wire.Decoder
	keys     []eventKey
	ingest   hist
	transit  hist
}

var _ damulticast.Transport = (*tap)(nil)

func (t *tap) Addr() string { return t.inner.Addr() }
func (t *tap) Close() error { return t.inner.Close() }

func (t *tap) Send(addr string, payload []byte) error {
	typ, _, err := wire.PeekDest(payload)
	if err == nil && typ.IsEvent() {
		t.eventFrames.Add(1)
	} else {
		t.controlFrames.Add(1)
	}
	t.bytesSent.Add(int64(len(payload)))
	tr := t.tr
	if tr == nil {
		if err = t.inner.Send(addr, payload); err != nil {
			t.sendErrors.Add(1)
		}
		return err
	}

	h := maphash.Bytes(tr.hashSeed, payload)
	dst, known := tr.epOf[addr]
	start := time.Now()
	if known {
		tr.transitTab[dst].put(h, start.Sub(tr.t0))
	}
	err = t.inner.Send(addr, payload)
	end := time.Now()
	if err != nil {
		t.sendErrors.Add(1)
	}
	t.sendMu.Lock()
	t.sendCall.record(int64(end.Sub(start)))
	t.sendMu.Unlock()
	if known && typ.IsEvent() {
		tr.add(span{kind: spanSend, ep: t.ep, peer: dst, hash: h,
			start: start.Sub(tr.t0), end: end.Sub(tr.t0)})
	}
	return err
}

func (t *tap) SetHandler(h func([]byte)) {
	if t.tr == nil {
		t.inner.SetHandler(h)
		return
	}
	t.inner.SetHandler(func(frame []byte) { t.onFrame(h, frame) })
}

// onFrame is the traced receive path. The frame is decoded before the
// hub sees it (the hub's loop may deliver its events before this
// goroutine runs again), but the decode is outside both the transit
// and the ingest timing.
func (t *tap) onFrame(h func([]byte), frame []byte) {
	tr := t.tr
	arrived := time.Since(tr.t0)
	fh := maphash.Bytes(tr.hashSeed, frame)
	sentAt, matched := tr.transitTab[t.ep].get(fh)

	t.recvMu.Lock()
	if matched {
		t.transit.record(int64(arrived - sentAt))
	}
	keys := t.eventsOf(frame)
	start := time.Since(tr.t0)
	if len(keys) > 0 {
		tr.noteIngest(t.ep, frame, keys, start)
	}
	sp := span{kind: spanIngest, ep: t.ep, hash: fh, n: len(keys), start: start}
	if len(keys) > 0 {
		sp.key = keys[0]
	}
	t.recvMu.Unlock()

	h(frame)
	sp.end = time.Since(tr.t0)

	t.recvMu.Lock()
	t.ingest.record(int64(sp.end - sp.start))
	t.recvMu.Unlock()
	if sp.n > 0 {
		tr.add(sp)
	}
}

// eventsOf decodes an event frame and returns the keys of the events
// it carries, in t.keys; none for control frames and for frames whose
// payloads are not this benchmark's. Caller holds recvMu.
func (t *tap) eventsOf(frame []byte) []eventKey {
	t.keys = t.keys[:0]
	typ, _, err := wire.PeekDest(frame)
	if err != nil || !typ.IsEvent() {
		return nil
	}
	m, err := t.dec.Decode(frame)
	if err != nil {
		return nil
	}
	if m.Event != nil {
		if k, ok := peekKey(m.Event.Payload); ok {
			t.keys = append(t.keys, k)
		}
	}
	for _, ev := range m.Events {
		if k, ok := peekKey(ev.Payload); ok {
			t.keys = append(t.keys, k)
		}
	}
	return t.keys
}

// transitTable remembers when frames bound for one endpoint were
// handed to Send, keyed by frame hash. It is a fixed direct-mapped
// table: a collision or a lapped slot loses one sample, never blocks.
type transitTable struct {
	slots [transitSlots]struct {
		hash atomic.Uint64
		at   atomic.Int64
	}
}

// transitSlots exceeds the frames that can be in flight to one
// endpoint (MemTransport queues 4096, the hub inbox 1024).
const transitSlots = 1 << 14

func (tt *transitTable) put(h uint64, at time.Duration) {
	s := &tt.slots[h&(transitSlots-1)]
	s.hash.Store(0)
	s.at.Store(int64(at))
	s.hash.Store(h)
}

func (tt *transitTable) get(h uint64) (time.Duration, bool) {
	s := &tt.slots[h&(transitSlots-1)]
	if s.hash.Load() != h {
		return 0, false
	}
	return time.Duration(s.at.Load()), true
}
