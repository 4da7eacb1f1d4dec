package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Every live event carries a 28-byte header in front of seeded filler:
//
//	[0:8]   instant the publish was due, ns since the run's epoch
//	[8:12]  publisher index
//	[12:20] publisher's event sequence number
//	[20:28] checksum over the three fields above, keyed by the run
//
// so a receiver can time the delivery, credit the right publisher,
// spot duplicates and verify the bytes without any shared lookup.
const headerBytes = 28

type eventKey struct {
	pub uint32
	seq uint64
}

// payloadSpec is what a run's payloads are checked against.
type payloadSpec struct {
	key    uint64
	filler []byte // payloadBytes - headerBytes seeded bytes
}

func newPayloadSpec(seed int64) payloadSpec {
	r := rand.New(rand.NewSource(seed))
	p := payloadSpec{key: r.Uint64(), filler: make([]byte, payloadBytes-headerBytes)}
	r.Read(p.filler)
	return p
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (p payloadSpec) sum(due int64, k eventKey) uint64 {
	return mix64(uint64(due) ^ mix64(k.seq^p.key) ^ uint64(k.pub)<<32)
}

// fill writes one payload into buf (len payloadBytes).
func (p payloadSpec) fill(buf []byte, due int64, k eventKey) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(due))
	binary.LittleEndian.PutUint32(buf[8:], k.pub)
	binary.LittleEndian.PutUint64(buf[12:], k.seq)
	binary.LittleEndian.PutUint64(buf[20:], p.sum(due, k))
	copy(buf[headerBytes:], p.filler)
}

// check verifies a delivered payload byte for byte.
func (p payloadSpec) check(buf []byte) (due int64, k eventKey, ok bool) {
	if len(buf) != payloadBytes {
		return 0, eventKey{}, false
	}
	due = int64(binary.LittleEndian.Uint64(buf[0:]))
	k, _ = peekKey(buf)
	ok = binary.LittleEndian.Uint64(buf[20:]) == p.sum(due, k) &&
		bytes.Equal(buf[headerBytes:], p.filler)
	return due, k, ok
}

// peekKey reads the event key without verifying anything.
func peekKey(buf []byte) (eventKey, bool) {
	if len(buf) < headerBytes {
		return eventKey{}, false
	}
	return eventKey{
		pub: binary.LittleEndian.Uint32(buf[8:]),
		seq: binary.LittleEndian.Uint64(buf[12:]),
	}, true
}
